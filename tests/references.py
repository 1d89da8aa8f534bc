"""Reference forms and seeded generators shared by the tests and the sweep.

Each reference is written once, straight from a definition (one Python
step per cell, triple or walk) or from the public wrappers alone.  Per-cell
forms must match the row kernels bit for bit.  Nothing here imports pytest,
so ``scripts/random_verification.py`` runs the sweep without it.
"""

import math
from dataclasses import asdict

from abconvex import (
    DEFAULT_EPS,
    INF,
    AbstractConvexError,
    Coupling,
    ExtFunction,
    GroundSet,
    InstanceDocument,
    MetricError,
    MetricInstance,
    MultiMapping,
    build_gain_graph,
    c_transform,
    coupling_from_rows,
    emit_document,
    is_n_monotone,
    n_monotone_oracle,
    parse_instance,
    random_cyclically_monotone_mapping,
    verify_inequality_chain,
    verify_theorem6A,
    verify_theorem6B,
)
from abconvex.instance_io import dumps
from abconvex.monotone import _cyclic_walks, _is_maximal, _max_plus_closure
from abconvex.rockafellar import (
    NotCyclicallyMonotoneError,
    _closure_rows,
    _require_anchors,
)

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


def is_antiderivative_full(f, m, c, eps):
    """``is_antiderivative`` with f^c over all of Y, one full transform:
    the reference for its read of f^c on M's image only."""
    f.require_proper("antiderivative candidate")
    m.require_proper()
    fv, fc = f.values, c_transform(f, c).values
    return all(x < len(fv) and y < len(fc)
               and math.isfinite(fv[x]) and math.isfinite(fc[y])
               and abs(fv[x] + fc[y] - c.values[x][y]) <= eps
               for x, y in m.graph)


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
    """The closure route: Rockafellar's antiderivative for each anchor in
    dom(M), in order, from one gain graph and ``_cyclic_walks``' table of
    best walks.  The cross-check of ``chain_suprema``'s potential route.

    Raises ``NotCyclicallyMonotoneError`` with the witness cycle when M is
    not c-cyclically monotone.
    """
    _require_anchors(m, anchors)
    gg = build_gain_graph(m, c)
    verdict, walks = _cyclic_walks(gg, eps)
    if not verdict:
        raise NotCyclicallyMonotoneError(verdict.witness, m)
    return [ExtFunction(c.domain, tuple(row))
            for row in _closure_rows(gg, walks, anchors)]


def anchored_per_cell(m, c, anchors, eps):
    """R_s per anchor, read per (x, node) cell from the cyclic verdict's
    table of best walks: the column kernel's adds, the first of equal
    maxima."""
    gg = build_gain_graph(m, c)
    walks = _cyclic_walks(gg, eps)[1]
    out = []
    for s in anchors:
        spos = gg.nodes.index(s)
        best = walks[spos][:]
        best[spos] = max(best[spos], 0.0)
        out.append(tuple(max(b + row[x] for b, row in zip(best, gg.gain))
                         for x in range(c.domain.size)))
    return out


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


def reference_verdict(gg, best, cycle, eps):
    if best <= eps:
        return True, None
    n = len(cycle)
    return False, tuple((gg.nodes[cycle[i]],
                         gg.witness[cycle[i]][gg.nodes[cycle[(i + 1) % n]]])
                        for i in range(n))


def reference_cyclic_verdict(gg, eps):
    """(holds, witness) at the first of the lengths 1..k whose best closed
    walk gains over eps."""
    k = len(gg.nodes)
    diag_best, cycles = reference_closed_walks(gg.restricted(), k)
    return next((reference_verdict(gg, diag_best[i], cycles[i], eps)
                 for i in range(k) if diag_best[i] > eps), (True, None))


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
