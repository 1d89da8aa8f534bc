"""The chain-supremum antiderivative of a cyclically monotone mapping.

R_s(x) is the best total gain of a chain that starts at the anchor s, walks
through pairs of G(M), and takes a final hop to x.  With no positive cycles
an optimal walk repeats no node, so row s of the max-plus closure D of the
dom(M)-restricted gain graph (the one ``is_cyclically_monotone`` computes)
holds every best walk out of s, and R_s(x) = max_i [D'[s][i] + gain[i][x]]
with D'[s] = D[s] except D'[s][s] = max(D[s][s], 0), the empty walk.  With
k = |dom(M)|, one gain graph and one closure serve any number of anchors:
O(k^3 + |anchors| * k * |X|) after the gain graph is built.  When only the
exact-length route passes M (a cycle gains between eps/k and eps), the
closure could pump that cycle, so D is the entrywise best of the k walk
rounds that the verdict itself ran: one O(k^4) table of best walks of at
most k steps, shared by all anchors, which is what ``rockafellar_oracle``
with max_len = k + 1 enumerates.  ``monotone._cyclic_walks`` returns the
verdict and D together; ``anchored_antiderivatives`` reads R_s from them,
for ``alpha`` and for ``fitzpatrick``'s lifted Delta_T alike.

R_s is a column kernel: for each x, one ``max(map(add, best, column_x))``
over the gain graph's column x.  It makes the same adds as a per-cell loop
over i, and ``max`` keeps the first of equal maxima, so R_s is
bit-identical to that loop.
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
from .monotone import ENUMERATION_BUDGET, _cyclic_walks, build_gain_graph


class NotCyclicallyMonotoneError(AbstractConvexError):
    """Raised when the antiderivative would be improper.

    Carries the violating cycle as a pair selection of ``mapping``.
    """

    def __init__(self, witness, mapping: MultiMapping):
        super().__init__("improper: not c-cyclically monotone")
        self.witness = witness
        self.mapping = mapping


def anchored_antiderivatives(m: MultiMapping, c: Coupling,
                             anchors: Sequence[int],
                             eps: float = DEFAULT_EPS) -> list[ExtFunction]:
    """Rockafellar's antiderivative for each anchor in dom(M), in order, from
    one gain graph and the verdict's table of best walks.

    Raises ``NotCyclicallyMonotoneError`` with the witness cycle when M is
    not c-cyclically monotone.
    """
    m.require_proper()
    nodes = m.dom
    for s in anchors:
        if s not in nodes:
            raise AbstractConvexError(f"anchor {s} is not in dom(M)")
    gg = build_gain_graph(m, c)
    verdict, walks = _cyclic_walks(gg, eps)
    if not verdict:
        raise NotCyclicallyMonotoneError(verdict.witness, m)
    gain_columns = list(zip(*gg.gain))
    out = []
    for s in anchors:
        spos = gg.nodes.index(s)
        # best[i]: best walk gain from s to nodes[i] inside dom(M), any length >= 0
        best = walks[spos][:]
        best[spos] = max(best[spos], 0.0)
        values = tuple(max(map(add, best, col)) for col in gain_columns)
        out.append(ExtFunction(c.domain, values))
    return out


def rockafellar(m: MultiMapping, c: Coupling, s: int,
                eps: float = DEFAULT_EPS) -> ExtFunction:
    """Rockafellar's antiderivative anchored at s in dom(M).

    Proper (and returned) iff M is proper and c-cyclically monotone; a
    positive cycle anywhere in the dom(M)-restricted gain graph raises
    ``NotCyclicallyMonotoneError`` with the witness cycle.
    """
    return anchored_antiderivatives(m, c, [s], eps)[0]


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
