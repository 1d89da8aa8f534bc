"""c-monotonicity and c-cyclic monotonicity via a derived gain graph.

The gain graph lives on dom(M): the arc weight from u to v is the best
one-step chain gain max_{y in M(u)} [c(v, y) - c(u, y)].  Chain sums are
bounded by walk gains, with equality achieved by the witness choices, so a
mapping fails cyclic monotonicity exactly when the gain graph restricted to
dom(M) carries a cycle of strictly positive total gain.

The tolerance model: "cyclically monotone within eps" means that no walk
of at most k = |dom(M)| steps inside dom(M) gains over eps, so M is
n-monotone within eps for every n <= k + 1.  That finite reading is the
definition here, not an approximation of another one: in exact arithmetic
any simple cycle of positive gain, however small, pumps without bound
when walked again and again, so no longer walk would give an eps-reading
of its own.

With k = |dom(M)|, one routine, ``_cyclic_verdict``, owns the cyclic
verdict and its route, potential first, and returns labels with it:
``is_cyclically_monotone`` calls it from all-zero labels and
``rockafellar.chain_suprema`` from shift(s) at its sites and -inf
elsewhere, whose labels are then the best shift(s) plus walk gain into
each node.  By Rockafellar's theorem a cyclically monotone M has a
potential: labels p with p_u + a[u][v] <= p_v on every arc.  One run of
label-correcting passes (Bellman 1958, Ford 1956; ``_passes``, O(k^2)
each) from the seed looks for one, and stops at the first pass that
changes nothing, or gives up after k + 1 passes.  A fixed point p is a
pass only when eps >= 0 and the rounding guard

    2**-53 * (k + 1) * (P + (k + 1) * G) <= eps,   P = max |p|, G = max |a|,

holds (its left side is never negative, so eps < 0 never passes).  Its
derivation, with u = 2**-53 the unit roundoff: at the fixed
point fl(p_u + a[u][v]) <= p_v on every arc, and that sum, of magnitude at
most P + G, rounds by at most u * (P + G), so a closed walk of L arcs gains
at most L * u * (P + G) exactly (the labels telescope).  The walk rounds
sum the same L gains left to right, within (L - 1) * u * L * G (1 + O(L u))
of the exact sum.  With L <= k the float sum of every closed walk the
rounds see is at most u * k * (P + k * G (1 + O(k u))), and the guard's
k + 1 in place of k covers both the O(k u) term and the guard's own
rounding, so no round can sum over eps and ``_cyclic_walks`` would pass M
too.  Without the guard, a fixed point among entries of 2**900 (where
small gains are lost in the labels' sums) would pass a mapping whose walk
rounds fail.

Every other case (eps < 0, passes that do not settle, which a positive
cycle or a zero-gain cycle that rounds positive causes, or a refused guard)
goes to ``_cyclic_walks``, which gives the verdict, its witness and a table
B of best walks inside dom(M), so every verdict and witness is the closure
route's.  On a pass the labels are then one relaxation step from the seed
over B: labels[i] = max_u [seed[u] + B[u][i]], O(k^2), the first of equal
maxima winning.  B[u][u] stands in for the empty walk at u as it is: the
one-step walk u -> u gains c(u, y) - c(u, y) = 0.0 for y in M(u), and the
closure and the rounds only raise an entry, so B[u][u] >= 0.0.  At eps >= 0
``_cyclic_walks`` first computes one max-plus Floyd-Warshall closure of the
restricted gain matrix (O(k^3) time, O(k^2) memory).  Each diagonal entry
bounds the best simple cycle through its node from above, and a closed walk
of at most k steps splits into at most k simple cycles, so a diagonal no
larger than eps/k proves that no such walk gains more than eps, and the
closure is the table.  The closure stops at the first diagonal entry over
eps/k and the exact-length route decides instead, supplying the witness
cycle on a failure and, on a pass, the best of the walk rounds it ran as
the table.  Below zero the walk rounds alone decide: eps/k > eps there, and
at eps = -5e-324 it rounds to -0.0, which would pass the 0.0 diagonal of
every one-step loop u -> u.

The exact-length route is one generator of walk rounds: round L holds the
best walk of exactly L steps between every two nodes (O(k^3) per round,
keeping only the round before it) and the first node of largest
closed-walk gain.  Its diagonal is read from round L - 1 in O(k^2), and
the round itself is built only when a consumer goes on past it.  The
cyclic verdict stops at the first length L whose best closed walk gains
over eps, so a rejected mapping costs O((L - 1) * k^3 + k^2) and a passed
one O(k^4).  Only a failing verdict rebuilds its cycle (``_failure``):
row u of a round depends only on row u of the round before, so it
recomputes that node's row for L - 1 rounds and steps back from the node,
taking at each step the first node of largest gain, the one the rounds'
``max`` keeps (O(L * k^2) time, O(L * k) memory).

``is_n_monotone`` has one route per order.  Order n != 2 reads walk round
n's diagonal, whose witness starts at the first node of largest
closed-walk gain, so it builds rounds 1..n - 1 and never round n; the
(n - 1) * k^2 walk entries of rounds 1..n, an upper bound on what it
computes, are checked against ``ENUMERATION_BUDGET`` before any round
runs.  Order 2 is one row kernel over G(M): p = (x, y) and q = (u, v) gain
a + b = (c(u, y) - c(x, y)) + (c(x, v) - c(u, v)), which is the chain
sum of the selection (p, q) up to the sign of a zero (summed from 0.0,
it reads 0.0 + a + b).  Scanning each p in graph order for its first q
over eps finds the first selection in ``itertools.product`` order, so
verdicts and witnesses are those of the enumeration of all |G(M)|**2
selections, the tests' oracle.  The scan tests each
unordered pair once: p at graph position i meets only the q at positions
>= i.  The gain of (q, p) sums b + a, equal to a + b bit for bit (nan
included), so a partner of p before position i would be a partner of that
earlier q, and the first p with any partner has none before itself; its
first partner is the oracle's.  With eps < 0, (p, p) gains 0 and is the
witness.  A row's verdict is ``max(row) > eps``: ``max()`` returns a
leading nan gain (inf - inf at entries near the float range) and so hides
any gain over eps after it, but a nan later in the row is never taken, and
the row leads with (p, p), whose gain is 0.0 + 0.0 on a finite coupling.
Only a failing row is scanned again, gain by gain with ``eps < g``, for
its first partner.  The same kernel decides
order-2 maximality: the recheck of m extended by p adds the selections
(p, q), (q, p) and (p, p), where (q, p) sums b + a == a + b and (p, p)
gains 0.  Maximality at every other order, and cyclic maximality, rerun
the full check per single-pair extension.

The gain graph is a row kernel in pure Python (numpy's import alone would
cost more than an envelope request): it takes one row c(., y) - c(u, y)
per image y, and folds the rows with a strict >; the witness image of an
arc is found only for a failing cycle, by the same subtraction under
``max``, which keeps the smallest y of equal gains as the fold does.  The
closure raises D[u][v] in place to t = D[u][w] + D[w][v] when t is
strictly larger, which is ``max(x, t)``; writing only the cells that
improve ran about a third faster on CPython 3.11 than rebuilding each row
with a comprehension.  Each cell sees the same float operations in the
same order as a per-cell loop, and ties resolve the same way, so gains,
witnesses and verdicts are bit-identical to it; the tests keep the
per-cell loops as references.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property, partial
from operator import add, itemgetter, lt, sub
from typing import Optional

from .core import (
    DEFAULT_EPS,
    INF,
    BudgetExceededError,
    Coupling,
    MultiMapping,
    require_eps,
)

#: Cap on the (n - 1) * k^2 walk entries of rounds 1..n, an upper bound on
#: what ``is_n_monotone``'s rounds compute to read walk round n's diagonal;
#: the tests' enumeration oracles cap the tuples they try by it too.
ENUMERATION_BUDGET = 10 ** 6


@dataclass(frozen=True)
class GainGraph:
    """Weighted digraph encoding the one-step chain gains of ``mapping``
    under ``coupling``.

    ``gain[i][v]`` is the best gain of a hop from ``nodes[i]`` to the
    (arbitrary) ground-set point ``v``.
    """

    nodes: tuple[int, ...]          # dom(M), sorted
    gain: tuple[tuple[float, ...], ...]      # |dom(M)| x |X|
    mapping: MultiMapping
    coupling: Coupling

    def restricted(self) -> list[list[float]]:
        """Gain matrix restricted to dom(M) columns (|dom| x |dom|)."""
        return [[row[v] for v in self.nodes] for row in self.gain]

    @cached_property
    def columns(self) -> list[tuple[float, ...]]:
        """The gain matrix by columns: ``columns[v][i]`` is ``gain[i][v]``."""
        return list(zip(*self.gain))

    def witness(self, u: int, v: int) -> int:
        """The smallest y in M(u) whose hop from u to v gains gain(u, v)."""
        c = self.coupling
        return max(self.mapping(u), key=lambda y: c(v, y) - c(u, y))


def build_gain_graph(m: MultiMapping, c: Coupling) -> GainGraph:
    m.require_on(c)
    cols = c.columns
    gain_rows = []
    for u in m.dom:
        images = m(u)
        row_u = c.values[u]
        # one row per image y: c(v, y) - c(u, y) for every v
        y = images[0]
        best = list(map(sub, cols[y], itertools.repeat(row_u[y])))
        for y in images[1:]:
            gains = map(sub, cols[y], itertools.repeat(row_u[y]))
            best = [g if g > b else b for g, b in zip(gains, best)]
        gain_rows.append(tuple(best))
    return GainGraph(m.dom, tuple(gain_rows), m, c)


@dataclass(frozen=True)
class MonotonicityResult:
    holds: bool
    #: On failure, a violating ordered selection of pairs from G(M).
    witness: Optional[tuple[tuple[int, int], ...]] = None

    def __bool__(self) -> bool:
        return self.holds


def _step(a: list[list[float]], row: list[float]) -> list[float]:
    """Walks one step longer: entry v is max_w [row[w] + a[w][v]]."""
    return list(map(max, zip(*[[b + g for g in a_w]
                               for b, a_w in zip(row, a)])))


def _round(a: list[list[float]], prev: list[list[float]]) -> list[list[float]]:
    """The walk round after ``prev``: one ``_step`` per row."""
    return [_step(a, row) for row in prev]


def _walk_rounds(a: list[list[float]]):
    """Exact-length walk rounds over a square gain matrix, without end.

    Round L = 1, 2, ... yields (best, where, walk): ``best`` is the largest
    gain of a closed walk of exactly L steps, ``where`` its first node, and
    ``walk()`` the round, ``walk()[u][v]`` the best gain of a walk of
    exactly L steps from u to v.  Round L's diagonal is read from round
    L - 1 alone, entry u as max_w [prev[u][w] + a[w][u]], the same sums in
    the same order as ``_step``'s entry (u, u), in O(k^2).  The round
    itself costs O(k^3) and is built once, when ``walk`` is called or the
    rounds go on, so a consumer that stops at round L never builds it.
    """
    cols = list(zip(*a))
    diag, walk = [row[u] for u, row in enumerate(a)], lambda: a
    while True:
        best = max(diag)
        yield best, diag.index(best), walk
        prev = walk()
        diag = [max(map(add, row, col)) for row, col in zip(prev, cols)]
        walk = cache(partial(_round, a, prev))


def _failure(gg: GainGraph, a: list[list[float]], u: int,
             length: int) -> MonotonicityResult:
    """The failing verdict whose witness is the best closed walk of
    ``length`` steps from node u, as the rounds rank it: row u of rounds
    1..length - 1 again, then back from u, at each step the first w of
    largest row[w] + a[w][v], the node the rounds' ``max`` keeps."""
    rows = [a[u]]
    for _ in range(length - 2):
        rows.append(_step(a, rows[-1]))
    back = [u]
    for row in reversed(rows[:length - 1]):
        col = [b + a_w[back[-1]] for b, a_w in zip(row, a)]
        back.append(col.index(max(col)))
    cycle = [gg.nodes[i] for i in [u] + back[:0:-1]]
    return MonotonicityResult(False, tuple(
        (x, gg.witness(x, v)) for x, v in zip(cycle, cycle[1:] + cycle[:1])))


def _gather(indices):
    """A callable taking a row to (row[i] for i in indices) as a tuple, in
    one C call (``itemgetter`` of a single index returns a bare entry)."""
    if len(indices) == 1:
        i, = indices
        return lambda row: (row[i],)
    return itemgetter(*indices)


def _pair_gains(m: MultiMapping, c: Coupling):
    """The order-2 row kernel: ``gains(x, y, start)`` yields, for each
    q = (u, v) of G(m) from graph position ``start`` on, in graph order,
    (c(u, y) - c(x, y)) + (c(x, v) - c(u, v)).  The two rows are cached
    per y and per x."""
    rows, graph = c.values, m.graph
    us, vs = zip(*graph)
    into_of, out_of = _gather(us), _gather(vs)
    diag = [rows[u][v] for u, v in graph]
    into = {}   # y -> (c(u, y) for (u, _) in G(m))
    out = {}    # x -> [c(x, v) - c(u, v) for (u, v) in G(m)]

    def gains(x: int, y: int, start: int = 0):
        if y not in into:
            into[y] = into_of(c.columns[y])
        if x not in out:
            out[x] = list(map(sub, out_of(rows[x]), diag))
        return map(add, map(sub, into[y][start:], itertools.repeat(rows[x][y])),
                   out[x][start:])

    return gains


def is_n_monotone(m: MultiMapping, c: Coupling, n: int,
                  eps: float = DEFAULT_EPS) -> MonotonicityResult:
    """Whether every cyclic selection of n pairs from G(M) has nonnegative
    defining sum; on failure carries one violating selection."""
    m.require_on(c)
    require_eps(eps)
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n == 2:
        # p at position i meets the q at positions >= i; the row starts with
        # (p, p)'s gain 0.0, so max() sees no leading nan (module docstring)
        pairs, gains, over = m.graph, _pair_gains(m, c), partial(lt, eps)
        for i, p in enumerate(pairs):
            if max(gains(*p, i)) > eps:
                q = next(itertools.compress(pairs[i:], map(over, gains(*p, i))))
                return MonotonicityResult(False, (p, q))
        return MonotonicityResult(True)
    k = len(m.dom)
    if (n - 1) * k * k > ENUMERATION_BUDGET:
        raise BudgetExceededError(
            f"order {n} on {k} points needs {n - 1} x {k}^2 walk entries, "
            f"over the budget of {ENUMERATION_BUDGET}")
    gg = build_gain_graph(m, c)
    a = gg.restricted()
    best, where, _ = next(itertools.islice(_walk_rounds(a), n - 1, None))
    if best > eps:
        return _failure(gg, a, where, n)
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
                for v, g in enumerate(via):
                    if (t := base + g) > row_u[v]:
                        row_u[v] = t
                if row_u[u] > limit:
                    return None
    return d


def _cyclic_walks(gg: GainGraph, eps: float
                  ) -> tuple[MonotonicityResult, Optional[list[list[float]]]]:
    """(verdict, walks) for the gain graph's restricted matrix.

    At eps >= 0, a closure diagonal no larger than eps/k passes outright,
    and ``walks`` is the closure.  Otherwise the exact-length rounds 1..k
    decide: the first length whose best closed walk gains over eps fails
    with that walk as witness (``walks`` is None), and a pass returns the
    entrywise best of the k rounds run, the best walks of at most k steps.
    The closure could pump a cycle gaining up to eps exponentially often,
    so it is not used.
    """
    a = gg.restricted()
    k = len(gg.nodes)
    closure = _max_plus_closure(a, eps / k) if eps >= 0 else None
    if closure is not None:
        return MonotonicityResult(True), closure
    walks = a
    for length, (best, where, walk) in enumerate(
            itertools.islice(_walk_rounds(a), k), 1):
        if best > eps:
            return _failure(gg, a, where, length), None
        walks = [list(map(max, b, w)) for b, w in zip(walks, walk())]
    return MonotonicityResult(True), walks


def _passes(cols, labels: list[float]) -> Optional[list[float]]:
    """Strict label-correcting passes over a square gain matrix, given by
    its columns, from seed labels (-inf: no walk yet).

    A pass sets, for v in order, labels[v] to max_u [labels[u] + a[u][v]]
    when that is strictly larger; later v read the labels the pass already
    raised.  Returns the labels at the first pass that changes nothing, or
    None after k + 1 passes.
    """
    labels = list(labels)
    for _ in range(len(cols) + 1):
        changed = False
        for v, col in enumerate(cols):
            t = max(map(add, labels, col))
            if t > labels[v]:
                labels[v] = t
                changed = True
        if not changed:
            return labels
    return None


def _cyclic_verdict(gg: GainGraph, eps: float, seed=None
                    ) -> tuple[MonotonicityResult, Optional[list[float]]]:
    """(verdict, labels), potential first: one run of the passes from
    ``seed`` (default all zeros in the gains' number type, a virtual
    source; -inf: no walk yet), and a fixed point p that the rounding
    guard accepts is a pass with labels p.  Every other case is
    ``_cyclic_walks``' verdict, and on a pass the labels are one
    relaxation step from the seed over its table B of best walks, whose
    diagonal is at least 0.0 (the empty walk): labels[i] =
    max_u [seed[u] + B[u][i]], the first of equal maxima winning (module
    docstring).  The guard: with k nodes, G = max |a[u][v]| and
    P = max |p|, 2**-53 * (k + 1) * (P + (k + 1) * G) <= eps.  Its left
    side is at least 0, so it refuses every eps < 0.
    """
    require_eps(eps)
    cols = [gg.columns[v] for v in gg.nodes]
    k, g = len(cols), max(max(map(abs, col)) for col in cols)
    if seed is None:  # an exact zero keeps exact gains' labels exact
        seed = [type(cols[0][0])(0)] * k
    p = _passes(cols, seed)
    if p is not None and (
            2.0 ** -53 * (k + 1) * (max(map(abs, p)) + (k + 1) * g) <= eps):
        return MonotonicityResult(True), p
    verdict, walks = _cyclic_walks(gg, eps)
    if not verdict:
        return verdict, None
    return verdict, [max(map(add, seed, col)) for col in zip(*walks)]


def is_cyclically_monotone(m: MultiMapping, c: Coupling,
                           eps: float = DEFAULT_EPS) -> MonotonicityResult:
    """Whether M is n-c-monotone for every n.

    Equivalent to the dom(M)-restricted gain graph having no cycle of gain
    exceeding +eps: any chain sum is bounded by a walk gain and walks
    decompose into simple cycles (length <= |dom(M)|) plus a path.

    Within eps it means that no walk of at most k = |dom(M)| steps gains
    over eps, so M is n-monotone within eps for every n <= k + 1.  In
    exact arithmetic a positive simple cycle pumps without bound, so this
    finite reading is the definition (module docstring).
    """
    return _cyclic_verdict(build_gain_graph(m, c), eps)[0]


def is_monotone(m: MultiMapping, c: Coupling,
                eps: float = DEFAULT_EPS) -> MonotonicityResult:
    """2-c-monotonicity, the plain c-monotone notion."""
    return is_n_monotone(m, c, 2, eps)


def _is_maximal(holds, m: MultiMapping, candidates=None) -> bool:
    """Whether ``holds(m)``, and ``holds`` fails once any one pair of
    ``candidates`` (default: X x Y) outside G(M) is added to m."""
    return bool(holds(m)) and not any(
        holds(m.with_pair(*p)) for p in m.extensions(candidates))


def _maximal_2_monotone(m: MultiMapping, c: Coupling, eps: float,
                        candidates=None) -> bool:
    """``is_maximal_n_monotone`` at n = 2 for an m already known to be
    2-monotone: a candidate (x, y) outside G(m) is rejected iff the order-2
    kernel ``_pair_gains`` has some (u, v) of G(m) gain over eps, the
    verdict of rechecking m extended by (x, y)."""
    gains, over = _pair_gains(m, c), partial(lt, eps)
    return all(any(map(over, gains(*p))) for p in m.extensions(candidates))


def is_maximal_n_monotone(m: MultiMapping, c: Coupling, n: int,
                          eps: float = DEFAULT_EPS,
                          candidates=None) -> bool:
    """Finite rendering of maximality: no single-point extension keeps the
    property.  ``candidates`` restricts the extension pool (e.g. to the
    diagonal set of the product construction)."""
    if n == 2:
        return bool(is_n_monotone(m, c, 2, eps)) and _maximal_2_monotone(
            m, c, eps, candidates)
    return _is_maximal(lambda t: is_n_monotone(t, c, n, eps), m, candidates)


def is_maximal_cyclically_monotone(m: MultiMapping, c: Coupling,
                                   eps: float = DEFAULT_EPS,
                                   candidates=None) -> bool:
    return _is_maximal(lambda t: is_cyclically_monotone(t, c, eps), m, candidates)
