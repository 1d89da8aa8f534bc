"""The chain-supremum antiderivative of a cyclically monotone mapping.

R_s(x) is the best total gain of a chain that starts at the anchor s, walks
through pairs of G(M), and takes a final hop to x.  With no positive cycles
an optimal walk repeats no node, so R_s(x) = max_i [B_s(i) + gain[i][x]],
where B_s(i) is the best walk gain from s to nodes[i] inside dom(M), the
empty walk included at s.  One producer, ``chain_suprema``, gives
max_s [shift(s) + R_s] over a set of sites: ``rockafellar`` (one site,
shift minus zero in the coupling's number type: -0.0, the exact additive
identity of floats, or an exact zero, which keeps exact data exact),
``alpha`` (shift f(s)) and Theorem 6B's lifted alpha all call it.  With
k = |dom(M)|, it builds one seed, shift(s) at each site (the largest of a
repeated site's shifts) and -inf elsewhere, and makes one
``monotone._cyclic_verdict`` call from it, which owns the route and returns the verdict with labels
L_i = max_s [shift(s) + B_s(i)].  It reads the value at x as
max_i [L_i + gain[i][x]], one ``max(map(add, L, column_x))`` per x,
O(k * |X|) whatever the sites.  The route is ``monotone``'s, stated in
its module docstring: L are the seeded passes' labels when the rounding
guard accepts them, else one relaxation step from the seed over the
verdict's table B of best walks.  Row s of B is B_s, its diagonal entry
(at least 0.0) covering the empty walk; when only the exact-length route
passes M (a cycle gains between eps/k and eps), B holds the best walks of
at most k steps, which is what the tests' exhaustive chain oracle
enumerates with max_len = k + 1.  The per-site reading, R_s for every
site and then the max over s of R_s(x) + shift(s), is O(|S| * k * |X|);
it is the tests' oracle (``closure_suprema`` in ``tests/references.py``).

The route depends on the seed: on c(x, y) = a_x + b_y, passes from zero
labels may never settle while those from one site do, so R_s(s) reads
0.0 where the closure reads an ulp over it.

Rounding.  With G the largest |gain| and M = max |shift| + (k + 1) * G,
which bounds every partial sum of a walk of at most k + 1 hops from a
site, and u = 2**-53:

* The labels-first reading sums each term as (shift + B) + g, the
  per-site reading as (B + g) + shift, over the same B, g and shift.  fl
  is monotone, so fl(a + max_i w_i) = max_i fl(a + w_i), and each reading
  is the max over the same (s, i) of its own two-rounding term.  Each
  term lies within u |a + b| + u |fl(a + b) + c| <= u M + u (1 + u) M of
  the exact sum, so the two differ by at most 2 u (2 + u) M <= 2**-50 * M
  per term, and max, being 1-Lipschitz, keeps that.  One site with shift
  -0.0 adds exactly nothing (-0.0 + b == b), so ``rockafellar`` equals
  the per-site reading bit for bit.
* The potential route and the table route add the same gains along
  walks in different orders, so a value may move in its last bits from
  the table route's.  The stated bound: the routes differ by at most
  2**-52 * (k + 2)**2 * M at every x.  Each route's sum of at most k + 2
  terms lies within (k + 1) * 2**-53 * M of the exact sum of its walk;
  the rest allows for the two routes settling on different walks whose
  exact gains differ by cycles the potential bounds.  Since
  (k + 2)**2 >= 9 > 4, the bound also covers the 2**-50 * M above.

The tests cross-check the producer against the per-site reading of the
closure route for many anchors at once (``anchored_antiderivatives`` in
``tests/references.py``).
"""

from __future__ import annotations

from operator import add
from typing import Sequence

from .core import (
    DEFAULT_EPS,
    INF,
    AbstractConvexError,
    Coupling,
    ExtFunction,
    MultiMapping,
)
from .monotone import _cyclic_verdict, build_gain_graph


class NotCyclicallyMonotoneError(AbstractConvexError):
    """Raised when the antiderivative would be improper.

    Carries the violating cycle as a pair selection of ``mapping``.
    """

    def __init__(self, witness, mapping: MultiMapping):
        super().__init__("improper: not c-cyclically monotone")
        self.witness = witness
        self.mapping = mapping


def chain_suprema(m: MultiMapping, c: Coupling, sites: Sequence[int],
                  shifts: Sequence[float],
                  eps: float = DEFAULT_EPS) -> ExtFunction:
    """max over the sites s of shift(s) + R_s, from one gain graph: the
    producer of ``rockafellar`` (one site, shift -0.0, which adds exactly
    nothing), ``alpha`` and Theorem 6B's lifted alpha.

    The labels L_i, the best shift(s) plus walk gain from a site to
    nodes[i], come from one ``monotone._cyclic_verdict`` call seeded with
    shift(s) at the sites (the largest of a repeated site's shifts) and
    -inf elsewhere (module docstring).  The value at x is
    max_i [L_i + gain(i, x)].

    Raises ``AbstractConvexError`` when the sites are empty, outside
    dom(M) or not matched one to one by the shifts, and
    ``NotCyclicallyMonotoneError`` with the witness cycle when M is not
    c-cyclically monotone.
    """
    gg = build_gain_graph(m, c)
    if not sites or len(sites) != len(shifts):
        raise AbstractConvexError(
            f"{len(sites)} sites and {len(shifts)} shifts: need one shift "
            "per site, and at least one site")
    where = {u: i for i, u in enumerate(gg.nodes)}
    seed = [-INF] * len(where)
    for s, shift in zip(sites, shifts):
        if s not in where:
            raise AbstractConvexError(f"anchor {s} is not in dom(M)")
        if shift > seed[where[s]]:
            seed[where[s]] = shift
    verdict, labels = _cyclic_verdict(gg, eps, seed)
    if not verdict:
        raise NotCyclicallyMonotoneError(verdict.witness, m)
    return ExtFunction(c.domain, tuple(
        max(map(add, labels, col)) for col in gg.columns))


def rockafellar(m: MultiMapping, c: Coupling, s: int,
                eps: float = DEFAULT_EPS) -> ExtFunction:
    """Rockafellar's antiderivative anchored at s in dom(M).

    Proper (and returned) iff M is proper and c-cyclically monotone; a
    positive cycle anywhere in the dom(M)-restricted gain graph raises
    ``NotCyclicallyMonotoneError`` with the witness cycle.
    """
    # an entry on a row of dom(M), which the gain graph reads anyway (a
    # lifted c builds rows on first read); require_on refuses M first, as
    # chain_suprema would
    x, y = m.require_on(c).graph[0]
    zero = type(c(x, y))(0)  # the entries' type: exact data stays exact
    return chain_suprema(m, c, [s], [-zero], eps)
