"""The chain-supremum antiderivative of a cyclically monotone mapping.

R_s(x) is the best total gain of a chain that starts at the anchor s, walks
through pairs of G(M), and takes a final hop to x.  With no positive cycles
an optimal walk repeats no node, so R_s(x) = max_i [B_s(i) + gain[i][x]],
where B_s(i) is the best walk gain from s to nodes[i] inside dom(M), the
empty walk included at s.  One producer, ``chain_suprema``, gives
max_s [shift(s) + R_s] over a set of sites: ``rockafellar`` (one site,
shift -0.0, the exact additive identity of floats), ``alpha`` (shift f(s))
and Theorem 6B's lifted alpha all call it.  With k = |dom(M)|:

* When the potential decided the cyclic verdict
  (``monotone._cyclic_verdict``), one run of label-correcting passes seeded
  with shift(s) at the sites and -inf elsewhere settles on
  L_i = max_s [shift(s) + B_s(i)], and the value at x is
  max_i [L_i + gain[i][x]]: O(k^2) per pass plus O(k * |X|).
* Otherwise, or when those passes do not settle within k + 1 (rounding can
  keep raising labels around a zero-gain cycle), the verdict's table of
  best walks from ``monotone._cyclic_walks`` gives B_s: row s of the max-plus
  closure D with D[s][s] raised to 0, or, when only the exact-length route
  passes M (a cycle gains between eps/k and eps), the entrywise best of the
  k walk rounds the verdict ran, which is what ``rockafellar_oracle`` with
  max_len = k + 1 enumerates.  R_s is then a column kernel, one
  ``max(map(add, best, column_x))`` per x, and the sites fold in order with
  the first of equal maxima winning, bit-identical to per-cell loops.

The two routes add the same gains along walks in different orders, so a
value may move in its last bits from the closure route's.  The stated
bound: with G the largest |gain| and M = max |shift| + (k + 1) * G, which
bounds every partial sum of a walk of at most k + 1 hops from a site,
the routes differ by at most 2**-52 * (k + 2)**2 * M at every x.  Each
route's sum of at most k + 2 terms lies within (k + 1) * 2**-53 * M of
the exact sum of its walk; the rest allows for the two routes settling on
different walks whose exact gains differ by cycles the potential bounds.
The tests cross-check the producer against the closure route for many
anchors at once (``anchored_antiderivatives`` in ``tests/references.py``).
"""

from __future__ import annotations

import itertools
from operator import add
from typing import Sequence

from .core import (
    DEFAULT_EPS,
    INF,
    AbstractConvexError,
    BudgetExceededError,
    Coupling,
    ExtFunction,
    MultiMapping,
)
from .monotone import (
    ENUMERATION_BUDGET,
    GainGraph,
    _cyclic_verdict,
    _cyclic_walks,
    _passes,
    build_gain_graph,
)


class NotCyclicallyMonotoneError(AbstractConvexError):
    """Raised when the antiderivative would be improper.

    Carries the violating cycle as a pair selection of ``mapping``.
    """

    def __init__(self, witness, mapping: MultiMapping):
        super().__init__("improper: not c-cyclically monotone")
        self.witness = witness
        self.mapping = mapping


def _closure_rows(gg: GainGraph, walks, sites: Sequence[int]) -> list[list[float]]:
    """R_s for each site, in order, read from a table of best walks: the
    column kernel over ``gg.columns``."""
    out = []
    for s in sites:
        spos = gg.nodes.index(s)
        # best[i]: best walk gain from s to nodes[i] inside dom(M), any length >= 0
        best = walks[spos][:]
        best[spos] = max(best[spos], 0.0)
        out.append([max(map(add, best, col)) for col in gg.columns])
    return out


def _require_anchors(m: MultiMapping, anchors: Sequence[int]) -> None:
    m.require_proper()
    nodes = m.dom
    for s in anchors:
        if s not in nodes:
            raise AbstractConvexError(f"anchor {s} is not in dom(M)")


def chain_suprema(m: MultiMapping, c: Coupling, sites: Sequence[int],
                  shifts: Sequence[float],
                  eps: float = DEFAULT_EPS) -> ExtFunction:
    """max over the sites s of shift(s) + R_s, from one gain graph: the
    producer of ``rockafellar`` (one site, shift -0.0, which adds exactly
    nothing), ``alpha`` and Theorem 6B's lifted alpha.

    When the potential decides the verdict, one run of label-correcting
    passes seeded with shift(s) at the sites gives labels L_i, the best
    shift(s) plus walk gain from a site to nodes[i], and the value at x is
    max_i [L_i + gain(i, x)].  Otherwise, or when those passes do not
    settle, it is read from ``_cyclic_walks``' table (module docstring).

    Raises ``NotCyclicallyMonotoneError`` with the witness cycle when M is
    not c-cyclically monotone.
    """
    _require_anchors(m, sites)
    gg = build_gain_graph(m, c)
    verdict, walks = _cyclic_verdict(gg, eps)
    if verdict and walks is None:
        seed = [-INF] * len(gg.nodes)
        for s, shift in zip(sites, shifts):
            seed[gg.nodes.index(s)] = shift
        labels = _passes([gg.columns[v] for v in gg.nodes], seed)
        if labels is not None:
            return ExtFunction(c.domain, tuple(
                max(map(add, labels, col)) for col in gg.columns))
        verdict, walks = _cyclic_walks(gg, eps)
    if not verdict:
        raise NotCyclicallyMonotoneError(verdict.witness, m)
    rows = _closure_rows(gg, walks, sites)
    # max over the sites, in order, of R_s(x) + shift(s); the first of
    # equal maxima wins
    return ExtFunction(c.domain, tuple(map(max, zip(*(
        [v + shift for v in row] for row, shift in zip(rows, shifts))))))


def rockafellar(m: MultiMapping, c: Coupling, s: int,
                eps: float = DEFAULT_EPS) -> ExtFunction:
    """Rockafellar's antiderivative anchored at s in dom(M).

    Proper (and returned) iff M is proper and c-cyclically monotone; a
    positive cycle anywhere in the dom(M)-restricted gain graph raises
    ``NotCyclicallyMonotoneError`` with the witness cycle.
    """
    return chain_suprema(m, c, [s], [-0.0], eps)


def rockafellar_oracle(m: MultiMapping, c: Coupling, s: int,
                       max_len: int) -> ExtFunction:
    """Exhaustive maximum over all chains of at most max_len pairs.  Test
    oracle; equals ``rockafellar`` for max_len = |dom(M)| + 1 (walks of at
    most |dom(M)| steps inside dom(M), then the final hop) when M is
    cyclically monotone."""
    m.require_proper()
    if len(m.graph) ** max_len > ENUMERATION_BUDGET:
        raise BudgetExceededError(
            f"{len(m.graph)}^{max_len} chains exceed the enumeration budget")
    values = [-INF] * c.domain.size
    starters = [p for p in m.graph if p[0] == s]
    if not starters:
        raise AbstractConvexError(f"anchor {s} is not in dom(M)")
    for n in range(1, max_len + 1):
        for tail in itertools.product(m.graph, repeat=n - 1):
            for first in starters:
                chain = (first,) + tail
                partial = 0.0
                for i in range(n - 1):
                    x, y = chain[i]
                    partial += c(chain[i + 1][0], y) - c(x, y)
                xn, yn = chain[-1]
                for x in range(c.domain.size):
                    total = partial + c(x, yn) - c(xn, yn)
                    if total > values[x]:
                        values[x] = total
    return ExtFunction(c.domain, tuple(values))
