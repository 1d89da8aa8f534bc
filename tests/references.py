"""Reference forms, oracles and seeded generators shared by the tests and
the sweep; none of them ships in the package.

Each reference is written once, straight from a definition (one Python
step per cell, triple, chain or walk) or from the public wrappers alone.  Per-cell
forms must match the row kernels bit for bit.  Nothing here imports pytest,
so ``scripts/random_verification.py`` runs the sweep without it.
"""

import itertools
import math
import random
from dataclasses import asdict

from abconvex import (
    DEFAULT_EPS,
    INF,
    AbstractConvexError,
    BudgetExceededError,
    ConstraintProblem,
    Coupling,
    ExtFunction,
    GroundSet,
    IndexMismatchError,
    IndexSubset,
    InstanceDocument,
    MetricError,
    MetricInstance,
    MonotonicityResult,
    MultiMapping,
    SubdiffGraph,
    build_gain_graph,
    c_subdifferential,
    c_transform,
    c_transform_rev,
    coupling_from_rows,
    emit_document,
    is_n_monotone,
    parse_instance,
    product_coupling,
    random_c_convex_function,
    random_coupling,
    random_cyclically_monotone_mapping,
    verify_inequality_chain,
    verify_theorem6A,
    verify_theorem6B,
)
from abconvex import monotone
from abconvex.fitzpatrick import _family_member, _Lifted
from abconvex.instance_io import dumps
from abconvex.monotone import (
    ENUMERATION_BUDGET,
    _cyclic_walks,
    _is_maximal,
    _max_plus_closure,
)
from abconvex.rockafellar import NotCyclicallyMonotoneError
from abconvex.transforms import _transform

EPS = 1e-9

#: Entry pools for ``kernel_coupling``: uniform reals, then small integers
#: and signed zeros, then signed zeros alone, where equal gains and -0.0
#: abound.
TIE_KINDS = ((), (-2.0, -1.0, -0.0, 0.0, 1.0, 2.0), (-0.0, 0.0))


def kernel_coupling(rng, nx: int, ny: int, ties=()) -> Coupling:
    """An nx x ny coupling of uniform reals or, given ``ties``, of entries
    drawn from them."""
    def real():
        return rng.choice(ties) if ties else rng.uniform(-10.0, 10.0)

    x = GroundSet(tuple(f"x{i}" for i in range(nx)))
    y = GroundSet(tuple(f"y{j}" for j in range(ny)))
    return Coupling(x, y, tuple(tuple(real() for _ in range(ny)) for _ in range(nx)))


def separable_coupling(rng, n: int, scale: float = 0.0) -> Coupling:
    """c(x, y) = a_x + b_y on n points, plus noise uniform in [-scale,
    scale] when scale > 0: every cycle gains 0 up to rounding and noise."""
    a = [rng.uniform(-10, 10) for _ in range(n)]
    b = [rng.uniform(-10, 10) for _ in range(n)]
    x = GroundSet(tuple(f"p{i}" for i in range(n)))
    return coupling_from_rows(x, x, [
        [a[i] + b[j] + rng.uniform(-scale, scale) if scale else a[i] + b[j]
         for j in range(n)] for i in range(n)])


def random_graph(rng, c: Coupling, max_pairs: int) -> MultiMapping:
    """A mapping with 1..max_pairs uniformly drawn graph pairs."""
    nx, ny = c.domain.size, c.codomain.size
    pairs = {(rng.randrange(nx), rng.randrange(ny))
             for _ in range(rng.randint(1, max_pairs))}
    return MultiMapping(c.domain, c.codomain, tuple(pairs))


def grown_mapping(rng, m: MultiMapping, c: Coupling, eps: float,
                  tries=None) -> MultiMapping:
    """m extended by each absent pair that keeps it 2-monotone, the pairs
    tried in random order: all of them, which leaves m finitely maximal, or
    only the first ``tries``."""
    pool = [(x, y) for x in range(c.domain.size) for y in range(c.codomain.size)]
    rng.shuffle(pool)
    for p in pool[:tries]:
        if p not in m and is_n_monotone(m.with_pair(*p), c, 2, eps):
            m = m.with_pair(*p)
    return m


def partly_grown(rng, c: Coupling, eps: float) -> MultiMapping:
    """A 2-monotone mapping grown by a random number of tries, so some draws
    are maximal and some are a pair or more short."""
    m = random_cyclically_monotone_mapping(rng, c)
    tries = rng.randint(0, c.domain.size * c.codomain.size)
    return grown_mapping(rng, m, c, eps, tries)


def band_instance(rng) -> tuple[MultiMapping, Coupling]:
    """A mapping on a noisy ``separable_coupling`` whose best cycle gains
    between eps/k and eps: the exact-length route passes it and the closure
    does not.  Drawn until one qualifies."""
    while True:
        n = rng.randint(3, 5)
        c = separable_coupling(rng, n, rng.choice([2e-10, 4e-10, 8e-10]))
        pairs = {(rng.randrange(n), rng.randrange(n)) for _ in range(n + 1)}
        m = MultiMapping(c.domain, c.domain, tuple(pairs))
        gg = build_gain_graph(m, c)
        if (_max_plus_closure(gg.restricted(), EPS / len(gg.nodes)) is None
                and _cyclic_walks(gg, EPS)[0]):
            return m, c


def random_constraint_problem(rng: random.Random, nx: int, ny: int,
                              full_domain: bool = False,
                              eps: float = 1e-9) -> ConstraintProblem:
    c = random_coupling(rng, nx, ny)
    anchor = random_c_convex_function(rng, c, inf_prob=0.0)
    # M from the anchor's own subdifferential, so the anchor is a genuine
    # antiderivative
    pool = list(c_subdifferential(anchor, c).graph)
    k = rng.randint(1, len(pool))
    m = MultiMapping(c.domain, c.codomain, tuple(rng.sample(pool, k)))
    dom = m.dom
    if full_domain:
        sites = IndexSubset(c.domain, dom)
    else:
        sites = IndexSubset(c.domain,
                            tuple(rng.sample(dom, rng.randint(1, len(dom)))))
    return ConstraintProblem(c, m, anchor, sites, eps)


def verify_document(t: MultiMapping, c: Coupling, metric=None) -> str:
    """A document holding mapping T on coupling c, or, given the metric d
    with c = -d, on d with ``negate`` set, so ``verify`` runs the chain."""
    if metric is None:
        doc = InstanceDocument("1", {"X": c.domain, "Y": c.codomain}, c,
                               coupling_names=("X", "Y"), mappings={"T": t})
    else:
        doc = InstanceDocument("1", {"P": metric.points}, c, metric=metric,
                               negate=True, coupling_names=("P", "P"),
                               mappings={"T": t})
    return emit_document(doc)


def site_seed(gg, sites, shifts):
    """``chain_suprema``'s seed: at each node, the largest shift of a site
    there (the first of equal ones), -inf at the other nodes."""
    seed = [-INF] * len(gg.nodes)
    for s, shift in zip(sites, shifts):
        i = gg.nodes.index(s)
        if shift > seed[i]:
            seed[i] = shift
    return seed


def guard_value(gg, p) -> float:
    """The rounding guard's left side at labels p:
    2**-53 * (k + 1) * (max |p| + (k + 1) * max |gain|) over dom(M)."""
    cols = [gg.columns[v] for v in gg.nodes]
    k, g = len(cols), max(max(map(abs, col)) for col in cols)
    return 2.0 ** -53 * (k + 1) * (max(map(abs, p)) + (k + 1) * g)


def seeded_route(gg, eps, seed=None):
    """Which route ``_cyclic_verdict`` takes from ``seed`` (default all
    zeros), found by running the passes on it (``monotone._passes``, read
    when called, so a patched one counts): "potential" when they settle on
    labels the guard accepts, "closure" otherwise."""
    seed = [0.0] * len(gg.nodes) if seed is None else seed
    p = monotone._passes([gg.columns[v] for v in gg.nodes], seed)
    return "potential" if p is not None and guard_value(gg, p) <= eps else "closure"


def route_bound(gg, shifts) -> float:
    """The stated bound between a potential-route value of max_s [shift(s)
    + R_s] and the closure route's: 2**-52 * (k + 2)**2 * M, where
    M = max |shift| + (k + 1) * max |gain| bounds every partial sum of a
    walk of at most k + 1 hops from a site."""
    k = len(gg.nodes)
    g = max(max(map(abs, row)) for row in gg.gain)
    return 2.0 ** -52 * (k + 2) ** 2 * (max(map(abs, shifts)) + (k + 1) * g)


def _transform_per_cell(values, column):
    best = -INF
    for i, v in enumerate(values):
        if v == INF:
            continue
        if v == -INF:
            return INF
        best = max(best, column(i) - v)
    return best


def c_transform_per_cell(f, c):
    return tuple(_transform_per_cell(f.values, lambda x: c(x, y))
                 for y in range(c.codomain.size))


def c_transform_rev_per_cell(g, c):
    return tuple(_transform_per_cell(g.values, lambda y: c(x, y))
                 for x in range(c.domain.size))


def c_subdifferential_per_cell(f, c, eps):
    fc = c_transform(f, c)
    pairs = []
    for x in range(c.domain.size):
        if not math.isfinite(f(x)):
            continue
        for y in range(c.codomain.size):
            if math.isfinite(fc(y)) and abs(f(x) + fc(y) - c(x, y)) <= eps:
                pairs.append((x, y))
    return tuple(pairs)


def c_subdifferential_quantified(f: ExtFunction, c: Coupling,
                                 eps: float = DEFAULT_EPS) -> SubdiffGraph:
    """First form of the definition: y is in the subdifferential at x iff
    f(x) + c(x', y) <= f(x') + c(x, y) for every x'.  O(|X|^2 |Y|) oracle."""
    f.require_proper("subdifferential input")
    if f.index.labels != c.domain.labels:
        raise IndexMismatchError("function is not indexed by the coupling domain")
    pairs = []
    for x in range(c.domain.size):
        if not math.isfinite(f(x)):
            continue
        for y in range(c.codomain.size):
            ok = all(
                f(xp) == INF or f(x) + c(xp, y) <= f(xp) + c(x, y) + eps
                for xp in range(c.domain.size)
            )
            if ok:
                pairs.append((x, y))
    return SubdiffGraph(MultiMapping(c.domain, c.codomain, tuple(pairs)))


def lifted_by_table(values, lifted, reverse=False):
    """The table route of a lifted transform: ``_transform`` over the lines
    of a plain ``Coupling`` copy of C's table."""
    table = Coupling(lifted.domain, lifted.codomain, lifted.values)
    return _transform(values, table.values if reverse else table.columns)


def lifted_route_bound(base, values):
    """The stated bound between the separable kernel and the table route:
    2**-51 * (1 + 2**-53) * (2 max |c| + max finite |h|)."""
    c_top = max(max(map(abs, row)) for row in base.values)
    h_top = max((abs(v) for v in values if math.isfinite(v)), default=0.0)
    return 2.0 ** -51 * (1 + 2.0 ** -53) * (2 * c_top + h_top)


#: Entry pools of ``lifted_draw``'s kinds: uniform reals, small integers
#: (exact arithmetic), and magnitudes up to 2**900.
LIFTED_KINDS = ("reals", "integers", "one -inf", "all +inf", "one point",
                "2**900")


def lifted_draw(rng, kind=None):
    """(C, h, g, exact): the lift C of a seeded |X| x |Y| coupling (sides
    drawn apart, so a swapped index order shows), functions h on its
    domain and g on its codomain with some +inf entries, and whether the
    arithmetic is exact (small integers).
    ``kind`` indexes ``LIFTED_KINDS``: one -inf entry, all +inf and
    one-point sets take uniform reals."""
    kind = LIFTED_KINDS[rng.randrange(len(LIFTED_KINDS))] if kind is None else kind
    nx, ny = rng.randint(1, 5), rng.randint(1, 5)
    if kind == "one point":
        nx, ny = rng.choice(((1, 1), (1, ny), (nx, 1)))
    big = 2.0 ** 900
    pools = {"integers": (-3.0, -2.0, -1.0, -0.0, 0.0, 1.0, 2.0, 3.0),
             "2**900": (big, -big, 0.0, 1.0, -1.0, 2.0 ** 899)}
    pool = pools.get(kind, ())
    c = kernel_coupling(rng, nx, ny, pool)
    lifted = product_coupling(c)

    def side(n):
        values = [INF if kind == "all +inf" or rng.random() < 0.3
                  else rng.choice(pool) if pool else rng.uniform(-10.0, 10.0)
                  for _ in range(n)]
        if kind == "one -inf":
            values[rng.randrange(n)] = -INF
        return tuple(values)

    side_n = nx * ny
    return (lifted, ExtFunction(lifted.domain, side(side_n)),
            ExtFunction(lifted.codomain, side(side_n)), kind == "integers")


def lifted_lines_agree(rng, lifted):
    """C's rows, columns and entries, built on first read, against the
    per-cell table, bit for bit, each line read in a random order (and
    again, from the cache)."""
    table = product_rows_per_cell(lifted.base, product_coupling(lifted.base))
    side = len(table)
    rows, cols = rng.sample(range(side), side), rng.sample(range(side), side)
    hexes = lambda line: list(map(float.hex, line))  # noqa: E731
    return (len(lifted.values) == len(lifted.columns) == side
            and all(hexes(lifted.values[i]) == hexes(table[i]) for i in rows + rows)
            and all(hexes(lifted.columns[j]) == hexes([row[j] for row in table])
                    for j in cols + cols)
            and all(float.hex(lifted(i, j)) == float.hex(table[i][j])
                    for i in rows for j in cols))


def lifted_routes_agree(lifted, h, g, exact):
    """The separable kernel against the table route, forward and reverse:
    the same infinities, and finite values equal when ``exact``, else
    within the stated bound."""
    routes = ((c_transform(h, lifted).values, lifted_by_table(h.values, lifted), h),
              (c_transform_rev(g, lifted).values,
               lifted_by_table(g.values, lifted, reverse=True), g))
    for got, want, f in routes:
        bound = 0.0 if exact else lifted_route_bound(lifted.base, f.values)
        if len(got) != len(want) or not all(
                a == b or abs(a - b) <= bound for a, b in zip(got, want)):
            return False
    return True


def sup_distance_loop(f, g):
    """``sup_distance`` one pair at a time: |a - b| over finite pairs, inf
    at the first infinite pair that differs."""
    worst = 0.0
    for a, b in zip(f.values, g.values):
        if math.isfinite(a) and math.isfinite(b):
            worst = max(worst, abs(a - b))
        elif a != b:
            return INF
    return worst


def pointwise_le_per_pair(f, g, eps):
    """``pointwise_le`` one pair at a time by the extended-real rule:
    a <= b + eps where both are finite, a <= b where either is not."""
    return all(a <= b + eps if math.isfinite(a) and math.isfinite(b) else a <= b
               for a, b in zip(f.values, g.values))


def mix_per_point(rng, lows, highs):
    """6B's mix one point at a time: lo + lam * (hi - lo), one draw per
    point where both are finite, lo elsewhere."""
    out = []
    for lo, hi in zip(lows, highs):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            out.append(lo)
            continue
        lam = rng.random()
        out.append(lo + lam * (hi - lo))
    return tuple(out)


def family_bounds_per_pair(h, lifted):
    """The last two checks of 6B's ``_family_member``, one pair at a time:
    c <= h + eps on all of X x Y, and |h - c| <= eps on G(T)."""
    pc, eps = lifted.pc, lifted.eps
    if any(pc.base(x, y) > h(pc.xy_index(x, y)) + eps for x, y in pc.xy_pairs):
        return False
    return all(abs(h(pc.xy_index(x, y)) - pc.base(x, y)) <= eps
               for x, y in lifted.t_map.graph)


def gain_graph_per_cell(m, c):
    """(nodes, gain, witness): the witness is the first best image."""
    nodes = tuple(sorted({x for x, _ in m.graph}))
    gain, witness = [], []
    for u in nodes:
        images = [y for x, y in m.graph if x == u]
        grow, wrow = [], []
        for v in range(c.domain.size):
            best, besty = -INF, images[0]
            for y in images:
                g = c(v, y) - c(u, y)
                if g > best:
                    best, besty = g, y
            grow.append(best)
            wrow.append(besty)
        gain.append(tuple(grow))
        witness.append(tuple(wrow))
    return nodes, tuple(gain), tuple(witness)


def closure_per_cell(a, limit):
    """The max-plus closure, None once a diagonal entry exceeds ``limit``."""
    k = len(a)
    d = [row[:] for row in a]
    if any(d[u][u] > limit for u in range(k)):
        return None
    for w in range(k):
        for u in range(k):
            if u == w:
                continue
            for v in range(k):
                if v != w:
                    d[u][v] = max(d[u][v], d[u][w] + d[w][v])
            if d[u][u] > limit:
                return None
    return d


def anchored_antiderivatives(m, c, anchors, eps=DEFAULT_EPS):
    """The closure route, per site: Rockafellar's antiderivative for each
    anchor in dom(M), in order, read per (x, node) cell from
    ``_cyclic_walks``' table B of best walks, as max over the nodes i of
    B_s(i) + gain(i, x), B_s being row s of B with B_s(s) raised to 0 (the
    empty walk) and the first of equal maxima winning.  The cross-check of
    ``chain_suprema``.

    Raises ``AbstractConvexError`` for an anchor outside dom(M) before any
    cycle check, and ``NotCyclicallyMonotoneError`` with the witness cycle
    when M is not c-cyclically monotone.
    """
    gg = build_gain_graph(m, c)
    for s in anchors:
        if s not in gg.nodes:
            raise AbstractConvexError(f"anchor {s} is not in dom(M)")
    verdict, walks = _cyclic_walks(gg, eps)
    if not verdict:
        raise NotCyclicallyMonotoneError(verdict.witness, m)
    out = []
    for s in anchors:
        spos = gg.nodes.index(s)
        best = walks[spos][:]
        best[spos] = max(best[spos], 0.0)
        out.append(ExtFunction(c.domain, tuple(
            max(b + row[x] for b, row in zip(best, gg.gain))
            for x in range(c.domain.size))))
    return out


def closure_suprema(m, c, sites, shifts, eps=EPS):
    """The per-site oracle of ``chain_suprema``'s table route: max over
    the sites, in order, of R_s(x) + shift(s), each R_s read per cell from
    the closure table, the first of equal maxima winning."""
    rows = anchored_antiderivatives(m, c, sites, eps)
    return tuple(max(row(x) + f for row, f in zip(rows, shifts))
                 for x in range(c.domain.size))


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


def table_labels_per_cell(gg, eps, seed=None):
    """The table route's labels per cell: for each node i, the best
    seed[u] + B[u][i] over the nodes u in order, B being ``_cyclic_walks``'
    table of best walks with B[i][i] raised to 0 (the empty walk), the
    first of equal sums winning; the seed defaults to all zeros."""
    seed = [0.0] * len(gg.nodes) if seed is None else seed
    walks = _cyclic_walks(gg, eps)[1]
    labels = []
    for i in range(len(gg.nodes)):
        best = -INF
        for u, shift in enumerate(seed):
            b = max(walks[u][i], 0.0) if u == i else walks[u][i]
            if shift + b > best:
                best = shift + b
        labels.append(best)
    return labels


def labels_first_per_cell(m, c, sites, shifts, eps=EPS):
    """``chain_suprema``'s table route per cell: the labels
    ``table_labels_per_cell`` from the sites' seed, then
    max_i [L_i + gain(i, x)] for each x, the first of equal maxima
    winning."""
    gg = build_gain_graph(m, c)
    labels = table_labels_per_cell(gg, eps, site_seed(gg, sites, shifts))
    out = []
    for x in range(c.domain.size):
        best = -INF
        for label, row in zip(labels, gg.gain):
            if label + row[x] > best:
                best = label + row[x]
        out.append(best)
    return tuple(out)


def reference_closed_walks(a, max_len):
    """Best closed-walk gains by exact length 1..max_len and a node cycle
    achieving each, from plain relaxation rounds with a predecessor table:
    the reference for the witnesses of the exact-length route."""
    k_nodes = len(a)
    walk = [row[:] for row in a]
    preds = [[[u for _ in range(k_nodes)] for u in range(k_nodes)]]
    diag_best, cycles = [], []

    def record():
        best, where = -INF, 0
        for u in range(k_nodes):
            if walk[u][u] > best:
                best, where = walk[u][u], u
        diag_best.append(best)
        path = [where]
        v = where
        for k in range(len(preds) - 1, 0, -1):
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
                for v in range(k_nodes):
                    g = base + a[w][v]
                    if g > nxt[u][v]:
                        nxt[u][v] = g
                        pred[u][v] = w
        walk = nxt
        preds.append(pred)
        record()
    return diag_best, cycles


def witness_table(gg):
    """``gg.witness(u, v)`` at every node u and ground-set point v, laid out
    as ``gain_graph_per_cell``'s witness table."""
    points = range(gg.coupling.domain.size)
    return tuple(tuple(gg.witness(u, v) for v in points) for u in gg.nodes)


def reference_verdict(gg, best, cycle, eps):
    """(holds, witness) for a closed walk of gain ``best`` along the node
    positions ``cycle``, its images read from the per-cell witness table."""
    if best <= eps:
        return True, None
    witness = gain_graph_per_cell(gg.mapping, gg.coupling)[2]
    n = len(cycle)
    return False, tuple((gg.nodes[cycle[i]],
                         witness[cycle[i]][gg.nodes[cycle[(i + 1) % n]]])
                        for i in range(n))


def reference_cyclic_verdict(gg, eps):
    """(holds, witness) at the first of the lengths 1..k whose best closed
    walk gains over eps."""
    k = len(gg.nodes)
    diag_best, cycles = reference_closed_walks(gg.restricted(), k)
    return next((reference_verdict(gg, diag_best[i], cycles[i], eps)
                 for i in range(k) if diag_best[i] > eps), (True, None))


def _chain_gain(pairs, c: Coupling) -> float:
    """Sum of c(x_{i+1}, y_i) - c(x_i, y_i) over the cyclic selection."""
    n = len(pairs)
    total = 0.0
    for i in range(n):
        x, y = pairs[i]
        xn = pairs[(i + 1) % n][0]
        total += c(xn, y) - c(x, y)
    return total


def n_monotone_oracle(m: MultiMapping, c: Coupling, n: int,
                      eps: float = DEFAULT_EPS) -> MonotonicityResult:
    """Pure exhaustive enumeration of the |G(M)|^n selections.  Test
    oracle."""
    m.require_proper()
    if len(m.graph) ** n > ENUMERATION_BUDGET:
        raise BudgetExceededError(
            f"{len(m.graph)}^{n} tuples exceed the enumeration budget")
    for sel in itertools.product(m.graph, repeat=n):
        if _chain_gain(sel, c) > eps:
            return MonotonicityResult(False, sel)
    return MonotonicityResult(True)


def maximal_by_recheck(m, c, eps, candidates=None):
    """Order-2 maximality by the enumeration oracle's recheck of every
    extension."""
    return _is_maximal(lambda t: n_monotone_oracle(t, c, 2, eps), m, candidates)


def product_rows_per_cell(c, pc):
    return tuple(tuple(c(x, t) + c(s, y) for t, s in pc.ts_pairs)
                 for x, y in pc.xy_pairs)


def fitzpatrick_per_cell(t_map, c):
    return tuple(max(c(x, t) + c(s, y) - c(s, t) for s, t in t_map.graph)
                 for x in range(c.domain.size) for y in range(c.codomain.size))


def fitzpatrick_family_member(h: ExtFunction, t_map: MultiMapping, c: Coupling,
                              eps: float = DEFAULT_EPS) -> bool:
    """C-convex, majorizes c everywhere, equals c on G(T)."""
    return _family_member(h, _Lifted(t_map, c, eps))


def random_metric_per_cell(rng, n, edge_prob=0.5):
    """``random_metric``'s reference: its draws, then min-plus
    Floyd-Warshall one cell at a time."""
    weights = [[math.inf] * n for _ in range(n)]
    for i in range(n):
        weights[i][i] = 0.0
    order = list(range(n))
    rng.shuffle(order)
    for a, b in zip(order, order[1:]):
        w = rng.uniform(0.5, 3.0)
        weights[a][b] = weights[b][a] = w
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                w = rng.uniform(0.5, 3.0)
                if w < weights[i][j]:
                    weights[i][j] = weights[j][i] = w
    for k in range(n):
        for i in range(n):
            for j in range(n):
                through = weights[i][k] + weights[k][j]
                if through < weights[i][j]:
                    weights[i][j] = through
    return weights


def first_triangle_failure(d, eps):
    """The per-triple loop the triangle kernel replaced."""
    n = len(d)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if d[i][k] > d[i][j] + d[j][k] + eps:
                    return i, j, k
    return None


def axiom_failure(d, eps, pseudometric):
    """The per-cell loop the metric-axiom kernels replaced."""
    n = len(d)
    for i in range(n):
        if abs(d[i][i]) > eps:
            return f"d({i},{i}) != 0"
        for j in range(n):
            if not math.isfinite(d[i][j]) or d[i][j] < -eps:
                return f"d({i},{j}) must be finite and nonnegative"
            if abs(d[i][j] - d[j][i]) > eps:
                return f"asymmetry at ({i},{j})"
            if i != j and not pseudometric and d[i][j] <= eps:
                return f"zero distance between distinct points ({i},{j})"
    return None


def reference_metric_error(d, eps, pseudometric=False):
    """The message of the first failing cell or triple, or None."""
    error = axiom_failure(d, eps, pseudometric)
    if error is None and (first := first_triangle_failure(d, eps)):
        error = "triangle inequality fails at ({},{},{})".format(*first)
    return error


def metric_error(d, eps, pseudometric=False):
    """The message ``MetricInstance`` raises on d, or None."""
    points = GroundSet(tuple(map(str, range(len(d)))))
    try:
        MetricInstance(points, tuple(map(tuple, d)), pseudometric, eps)
    except MetricError as exc:
        return str(exc)
    return None


def public_verify_text(doc_text, seed):
    """What ``verify`` prints for mapping T of a document, assembled from
    the public wrappers alone."""
    doc = parse_instance(doc_text)
    m, c = doc.mapping("T"), doc.coupling
    report_a = verify_theorem6A(m, c, DEFAULT_EPS)
    out = {"command": "verify",
           "theorem_a": {**asdict(report_a), "agree": report_a.agree}}
    if report_a.t_monotone:
        out["theorem_b"] = asdict(verify_theorem6B(m, c, DEFAULT_EPS, seed=seed))
    if doc.metric is not None and doc.negate:
        try:
            out["inequality_chain"] = asdict(
                verify_inequality_chain(m, doc.metric, eps=DEFAULT_EPS))
        except AbstractConvexError as exc:
            out["inequality_chain"] = {"skipped": str(exc)}
    return dumps(out)
