"""c-monotonicity and c-cyclic monotonicity via a derived gain graph.

The gain graph lives on dom(M): the arc weight from u to v is the best
one-step chain gain max_{y in M(u)} [c(v, y) - c(u, y)].  Chain sums are
bounded by walk gains, with equality achieved by the witness choices, so a
mapping fails cyclic monotonicity exactly when the gain graph restricted to
dom(M) carries a cycle of strictly positive total gain.

With k = |dom(M)|, ``is_cyclically_monotone`` computes one max-plus
Floyd-Warshall closure of the restricted gain matrix (O(k^3) time, O(k^2)
memory).  Each diagonal entry bounds the best simple cycle through its
node from above, and a closed walk of at most k steps splits into at most k
simple cycles, so a diagonal no larger than eps/k proves that no such walk
gains more than eps.  The closure stops at the first diagonal entry over
eps/k and hands the verdict to the exact-length route (O(k^4) time, a k^3
predecessor table), which decides and supplies the witness cycle.
``rockafellar`` reads its chain suprema from the same closure.

``is_n_monotone`` enumerates the |G(M)|^n selections while that stays within
``ENUMERATION_BUDGET``, one prefix of n - 1 pairs at a time, and scans the
last position per row: with two precomputed rows, one map over G(M) gives
the chain gain of every completion of the prefix.  Each gain is the same
left-to-right sum of the same differences as ``_chain_gain``, and the first
completion over eps is the first selection over eps in
``itertools.product`` order, so verdicts and witnesses equal those of
``n_monotone_oracle``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from operator import add, lt, sub
from typing import Optional

from .core import (
    DEFAULT_EPS,
    INF,
    BudgetExceededError,
    Coupling,
    MultiMapping,
)

#: Cap on |G(M)|^n for exhaustive n-monotonicity enumeration.
ENUMERATION_BUDGET = 10 ** 6


@dataclass(frozen=True)
class GainGraph:
    """Weighted digraph encoding the one-step chain gains of a mapping.

    ``gain[i][v]`` is the best gain of a hop from ``nodes[i]`` to the
    (arbitrary) ground-set point ``v``; ``witness[i][v]`` is the smallest
    y index achieving it.
    """

    nodes: tuple[int, ...]          # dom(M), sorted
    gain: tuple[tuple[float, ...], ...]      # |dom(M)| x |X|
    witness: tuple[tuple[int, ...], ...]

    def node_pos(self, u: int) -> int:
        return self.nodes.index(u)

    def restricted(self) -> list[list[float]]:
        """Gain matrix restricted to dom(M) columns (|dom| x |dom|)."""
        return [[self.gain[i][v] for v in self.nodes] for i in range(len(self.nodes))]


def build_gain_graph(m: MultiMapping, c: Coupling) -> GainGraph:
    m.require_proper()
    nodes = m.dom
    gain_rows = []
    wit_rows = []
    for u in nodes:
        images = m(u)
        grow, wrow = [], []
        for v in range(c.domain.size):
            best, besty = -INF, images[0]
            for y in images:
                g = c(v, y) - c(u, y)
                if g > best:
                    best, besty = g, y
            grow.append(best)
            wrow.append(besty)
        gain_rows.append(tuple(grow))
        wit_rows.append(tuple(wrow))
    return GainGraph(nodes, tuple(gain_rows), tuple(wit_rows))


@dataclass(frozen=True)
class MonotonicityResult:
    holds: bool
    #: On failure, a violating ordered selection of pairs from G(M).
    witness: Optional[tuple[tuple[int, int], ...]] = None

    def __bool__(self) -> bool:
        return self.holds


def _chain_gain(pairs, c: Coupling) -> float:
    """Sum of c(x_{i+1}, y_i) - c(x_i, y_i) over the cyclic selection."""
    n = len(pairs)
    total = 0.0
    for i in range(n):
        x, y = pairs[i]
        xn = pairs[(i + 1) % n][0]
        total += c(xn, y) - c(x, y)
    return total


def _first_violation(pairs, c: Coupling, n: int, eps: float):
    """The first selection in ``itertools.product(pairs, repeat=n)`` order
    whose ``_chain_gain`` exceeds eps, or None.

    For a prefix p_0 .. p_{n-2}, the completion by q = (x, y) gains
    (s + (c(x, y_{n-2}) - c(x_{n-2}, y_{n-2}))) + (c(x_0, y) - c(x, y)),
    where s = 0.0 + the n - 2 inner terms: ``_chain_gain``'s sum, in its
    order.  The first factor is a column of c, the second a row per x_0.
    """
    if n == 1:
        return next(((p,) for p in pairs if _chain_gain((p,), c) > eps), None)
    rows = c.values
    diag = [rows[x][y] for x, y in pairs]
    into = {}    # y -> [c(x, y) for (x, _) in pairs]
    close = {}   # x_0 -> [c(x_0, y) - c(x, y) for (x, y) in pairs]
    over = partial(lt, eps)
    for prefix in itertools.product(pairs, repeat=n - 1):
        s = 0.0
        for (x, y), (xn, _) in zip(prefix, prefix[1:]):
            s += rows[xn][y] - rows[x][y]
        x0 = prefix[0][0]
        xl, yl = prefix[-1]
        if yl not in into:
            into[yl] = [rows[x][yl] for x, _ in pairs]
        if x0 not in close:
            close[x0] = list(map(sub, [rows[x0][y] for _, y in pairs], diag))
        last = map(sub, into[yl], itertools.repeat(rows[xl][yl]))
        gains = map(add, map(partial(add, s), last), close[x0])
        hit = next(itertools.compress(itertools.count(), map(over, gains)), None)
        if hit is not None:
            return prefix + (pairs[hit],)
    return None


def _cycle_to_pairs(gg: GainGraph, cycle_nodes: list[int]) -> tuple[tuple[int, int], ...]:
    """Turn a node cycle into the witness pair selection achieving its gain."""
    n = len(cycle_nodes)
    pairs = []
    for i in range(n):
        u = cycle_nodes[i]
        v = cycle_nodes[(i + 1) % n]
        pairs.append((u, gg.witness[gg.node_pos(u)][v]))
    return tuple(pairs)


def _best_closed_walks(a: list[list[float]], max_len: int):
    """Best closed-walk gains by exact length, with path reconstruction.

    Returns (diag_best, cycles) where diag_best[k] is the best gain of a
    closed walk of exactly k+1 steps and cycles[k] a node cycle achieving it.
    Plain relaxation rounds over the restricted gain matrix.
    """
    k_nodes = len(a)
    # walk[u][v]: best gain of a walk of the current length from u to v
    walk = [row[:] for row in a]
    # mid[k][u][v]: predecessor node index of v on the best (k+1)-step walk
    preds = [[[u for _ in range(k_nodes)] for u in range(k_nodes)]]
    diag_best, cycles = [], []

    def record():
        best, where = -INF, 0
        for u in range(k_nodes):
            if walk[u][u] > best:
                best, where = walk[u][u], u
        diag_best.append(best)
        # backtrack the closed walk at `where`
        length = len(preds)
        path = [where]
        v = where
        for k in range(length - 1, 0, -1):
            v = preds[k][where][v]
            path.append(v)
        path.append(where)
        path.reverse()
        cycles.append(path[:-1])

    record()
    for _ in range(1, max_len):
        nxt = [[-INF] * k_nodes for _ in range(k_nodes)]
        pred = [[0] * k_nodes for _ in range(k_nodes)]
        for u in range(k_nodes):
            for w in range(k_nodes):
                base = walk[u][w]
                if base == -INF:
                    continue
                row = a[w]
                for v in range(k_nodes):
                    g = base + row[v]
                    if g > nxt[u][v]:
                        nxt[u][v] = g
                        pred[u][v] = w
        walk = nxt
        preds.append(pred)
        record()
    return diag_best, cycles


def is_n_monotone(m: MultiMapping, c: Coupling, n: int,
                  eps: float = DEFAULT_EPS) -> MonotonicityResult:
    """Whether every cyclic selection of n pairs from G(M) has nonnegative
    defining sum; on failure carries one violating selection."""
    m.require_proper()
    if n < 1:
        raise ValueError("n must be a positive integer")
    pairs = m.graph
    if len(pairs) ** n <= ENUMERATION_BUDGET:
        sel = _first_violation(pairs, c, n, eps)
        return MonotonicityResult(sel is None, sel)
    # gain-graph fallback: maximize closed walks of exactly n steps
    gg = build_gain_graph(m, c)
    diag_best, cycles = _best_closed_walks(gg.restricted(), n)
    if diag_best[n - 1] > eps:
        nodes = [gg.nodes[i] for i in cycles[n - 1]]
        return MonotonicityResult(False, _cycle_to_pairs(gg, nodes))
    return MonotonicityResult(True)


def _max_plus_closure(a: list[list[float]],
                      limit: float) -> Optional[list[list[float]]]:
    """Max-plus Floyd-Warshall closure of a square gain matrix, or None as
    soon as a diagonal entry exceeds ``limit``.

    Returns D with D[u][v] the best gain of a walk of at least one step from
    u to v when no cycle gains more than 0; in any case D[u][v] is the gain
    of some such walk and is at least the best simple path (a simple cycle
    when u == v) from u to v.  Entries only grow, so a diagonal entry over
    ``limit`` stays over it.  Row and column w are left alone while w is the
    pivot, so a positive cycle through w is never pumped.
    """
    d = [row[:] for row in a]
    if any(row[u] > limit for u, row in enumerate(d)):
        return None
    for w, row_w in enumerate(d):
        via = row_w[:]
        via[w] = -INF
        for u, row_u in enumerate(d):
            if u != w:
                base = row_u[w]
                row_u[:] = map(max, row_u, [base + g for g in via])
                if row_u[u] > limit:
                    return None
    return d


def _exact_cyclic_verdict(gg: GainGraph, eps: float) -> MonotonicityResult:
    """The exact-length route: no closed walk of 1..k steps gains over eps."""
    diag_best, cycles = _best_closed_walks(gg.restricted(), len(gg.nodes))
    for length, best in enumerate(diag_best):
        if best > eps:
            nodes = [gg.nodes[i] for i in cycles[length]]
            return MonotonicityResult(False, _cycle_to_pairs(gg, nodes))
    return MonotonicityResult(True)


def _cyclic_verdict(gg: GainGraph, eps: float
                    ) -> tuple[MonotonicityResult, Optional[list[list[float]]]]:
    """(verdict, closure) for the gain graph's restricted matrix.

    A closure diagonal no larger than eps/k passes outright and the closure
    is returned with the verdict.  Otherwise the exact-length route decides,
    so verdicts and witnesses are those of ``_exact_cyclic_verdict`` alone,
    and the closure is None: a cycle gaining up to eps can be pumped through
    it exponentially often.
    """
    closure = _max_plus_closure(gg.restricted(), eps / len(gg.nodes))
    if closure is not None:
        return MonotonicityResult(True), closure
    return _exact_cyclic_verdict(gg, eps), None


def is_cyclically_monotone(m: MultiMapping, c: Coupling,
                           eps: float = DEFAULT_EPS) -> MonotonicityResult:
    """Whether M is n-c-monotone for every n.

    Equivalent to the dom(M)-restricted gain graph having no cycle of gain
    exceeding +eps: any chain sum is bounded by a walk gain and walks
    decompose into simple cycles (length <= |dom(M)|) plus a path.
    """
    m.require_proper()
    return _cyclic_verdict(build_gain_graph(m, c), eps)[0]


def is_monotone(m: MultiMapping, c: Coupling,
                eps: float = DEFAULT_EPS) -> MonotonicityResult:
    """2-c-monotonicity, the plain c-monotone notion."""
    return is_n_monotone(m, c, 2, eps)


def _grid_candidates(m: MultiMapping):
    present = set(m.graph)
    for x in range(m.source.size):
        for y in range(m.target.size):
            if (x, y) not in present:
                yield (x, y)


def is_maximal_n_monotone(m: MultiMapping, c: Coupling, n: int,
                          eps: float = DEFAULT_EPS,
                          candidates=None) -> bool:
    """Finite rendering of maximality: no single-point extension keeps the
    property.  ``candidates`` restricts the extension pool (e.g. to the
    diagonal set of the product construction)."""
    if not is_n_monotone(m, c, n, eps):
        return False
    pool = candidates if candidates is not None else _grid_candidates(m)
    present = set(m.graph)
    return all((x, y) in present or not is_n_monotone(m.with_pair(x, y), c, n, eps)
               for x, y in pool)


def is_maximal_cyclically_monotone(m: MultiMapping, c: Coupling,
                                   eps: float = DEFAULT_EPS,
                                   candidates=None) -> bool:
    if not is_cyclically_monotone(m, c, eps):
        return False
    pool = candidates if candidates is not None else _grid_candidates(m)
    present = set(m.graph)
    return all((x, y) in present
               or not is_cyclically_monotone(m.with_pair(x, y), c, eps)
               for x, y in pool)


def n_monotone_oracle(m: MultiMapping, c: Coupling, n: int,
                      eps: float = DEFAULT_EPS) -> MonotonicityResult:
    """Pure exhaustive enumeration, no gain-graph fallback.  Test oracle."""
    m.require_proper()
    if len(m.graph) ** n > ENUMERATION_BUDGET:
        raise BudgetExceededError(
            f"{len(m.graph)}^{n} tuples exceed the enumeration budget")
    for sel in itertools.product(m.graph, repeat=n):
        if _chain_gain(sel, c) > eps:
            return MonotonicityResult(False, sel)
    return MonotonicityResult(True)
