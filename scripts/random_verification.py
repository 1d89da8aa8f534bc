"""Randomized verification sweep over the package's structural identities.

Draws seeded random instances and checks, per draw: the triple-transform
collapse, agreement of the chain-supremum antiderivative with its
enumeration oracle, agreement of the closure-first cyclic-monotonicity
verdict and witness with the exact-length walk rounds 1..k alone, agreement
of the antiderivative with its oracle when a cycle gains between eps/k and
eps (the exact-length route passes, the closure does not), bit-identity of
the row kernels (transforms, subdifferential, gain graph with witnesses,
closure, R_s, lifted product, Fitzpatrick function) with per-cell forms,
``is_n_monotone`` against its oracle (the verdict, the witness at order 2
and a violating witness at other orders), the triangle check's first
failing triple (on exactly symmetric matrices, which scan half the
columns, and on matrices symmetric only within eps), the order-2 half scan
against the oracle on ties, signed zeros, one-pair graphs and eps < 0,
transform duality of the envelopes, the four-way Lipschitz
characterization, the lifted-space equivalences, the order-2 maximality
kernel against a full recheck of every extension, and ``abconvex verify``'s
output against the reports of the public wrappers.

Run:  python3 scripts/random_verification.py --seed 0 --trials 50
"""

import argparse
import io
import itertools
import math
import random
import sys
import tempfile
from contextlib import redirect_stdout
from dataclasses import asdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from abconvex import (
    DEFAULT_EPS,
    AbstractConvexError,
    GroundSet,
    InstanceDocument,
    MetricError,
    MultiMapping,
    alpha,
    build_gain_graph,
    c_subdifferential,
    as_coupling,
    coupling_from_rows,
    c_transform,
    emit_document,
    c_transform_rev,
    fitzpatrick,
    gamma,
    identity_mapping,
    inject_positive_two_cycle,
    is_cyclically_monotone,
    is_maximal_n_monotone,
    is_n_monotone,
    lipschitz_characterize,
    metric_from_rows,
    product_coupling,
    random_constraint_problem,
    random_coupling,
    random_cyclically_monotone_mapping,
    random_lipschitz_function,
    random_metric,
    random_proper_function,
    rockafellar,
    rockafellar_oracle,
    sup_distance,
    n_monotone_oracle,
    parse_instance,
    verify_inequality_chain,
    verify_theorem6A,
    verify_theorem6B,
)
from abconvex.cli import main as cli_main
from abconvex.fitzpatrick import delta_mapping, full_diagonal
from abconvex.instance_io import dumps
from abconvex.monotone import (
    _chain_gain,
    _cycle_to_pairs,
    _cyclic_verdict,
    _cyclic_walks,
    _is_maximal,
    _max_plus_closure,
    _walk_rounds,
)
from abconvex.rockafellar import (
    NotCyclicallyMonotoneError,
    anchored_antiderivatives,
    chain_suprema,
)

EPS = 1e-9
#: Which route decided the passing verdicts of the potential check.
ROUTES = {"potential": 0, "closure": 0}


def check_transform(rng):
    c = random_coupling(rng, rng.randint(1, 8), rng.randint(1, 8))
    f = random_proper_function(rng, c.domain)
    fc = c_transform(f, c)
    fccc = c_transform(c_transform_rev(fc, c), c)
    return sup_distance(fccc, fc) <= EPS


def check_antiderivative(rng):
    c = random_coupling(rng, rng.randint(2, 6), rng.randint(2, 5))
    m = random_cyclically_monotone_mapping(rng, c, max_pairs=5)
    s = rng.choice(m.dom)
    fast = rockafellar(m, c, s)
    slow = rockafellar_oracle(m, c, s, max_len=len(m.dom) + 2)
    return sup_distance(fast, slow) <= EPS


def check_closure_route(rng):
    n = rng.randint(2, 12)
    c = random_coupling(rng, n, n)
    m = random_cyclically_monotone_mapping(rng, c)
    kind = rng.randrange(3)
    if kind == 1:
        pairs = {(rng.randrange(n), rng.randrange(n))
                 for _ in range(rng.randint(1, 2 * n))}
        m = MultiMapping(c.domain, c.codomain, tuple(pairs))
    elif kind == 2:
        m, c = inject_positive_two_cycle(rng, m, c)
    got = is_cyclically_monotone(m, c, EPS)
    return (got.holds, got.witness) == _exact_length_verdict(m, c)


def _exact_length_verdict(m, c):
    """(holds, witness) from the walk rounds 1..|dom(M)| alone, failing at
    the first round whose best closed walk gains over eps."""
    gg = build_gain_graph(m, c)
    rounds = itertools.islice(_walk_rounds(gg.restricted()), len(gg.nodes))
    return next(((False, _cycle_to_pairs(gg, cycle))
                 for best, cycle, _ in rounds if best > EPS), (True, None))


def check_band_antiderivative(rng):
    # c(x, y) = a_x + b_y + noise: every cycle gains at most a few noise
    # terms; drawn until the best one lies between eps/k and eps
    m, c = _band_instance(rng)
    k = len(m.dom)
    return all(sup_distance(r, rockafellar_oracle(m, c, s, max_len=k + 1)) <= EPS
               for s, r in zip(m.dom, anchored_antiderivatives(m, c, m.dom, EPS)))


def _band_instance(rng):
    """A coupling c(x, y) = a_x + b_y + noise and a mapping whose best cycle
    gains between eps/k and eps: the walk rounds pass it, the closure not."""
    while True:
        n = rng.randint(3, 5)
        scale = rng.choice([2e-10, 4e-10, 8e-10])
        a = [rng.uniform(-10, 10) for _ in range(n)]
        b = [rng.uniform(-10, 10) for _ in range(n)]
        x = GroundSet(tuple(f"p{i}" for i in range(n)))
        c = coupling_from_rows(x, x, [
            [a[i] + b[j] + rng.uniform(-scale, scale) for j in range(n)]
            for i in range(n)])
        pairs = {(rng.randrange(n), rng.randrange(n)) for _ in range(n + 1)}
        m = MultiMapping(x, x, tuple(pairs))
        gg = build_gain_graph(m, c)
        if (_max_plus_closure(gg.restricted(), EPS / len(gg.nodes)) is None
                and _cyclic_walks(gg, EPS)[0]):
            return m, c


def _route_bound(gg, shifts):
    """The stated bound between the two routes' max_s [shift(s) + R_s]:
    2**-52 * (k + 2)**2 * (max |shift| + (k + 1) * max |gain|)."""
    k = len(gg.nodes)
    g = max(max(map(abs, row)) for row in gg.gain)
    return 2.0 ** -52 * (k + 2) ** 2 * (max(map(abs, shifts)) + (k + 1) * g)


def _potential_draw(rng):
    """(mapping, coupling): cyclically monotone, random graph or injected
    2-cycle on ties and signed zeros; the eps/k-eps band; +-2**900 entries,
    where a cycle's small gains can be lost in sums with 2**900 (also
    lifted to Delta_T); or c(x, y) = a_x + b_y, whose cycles gain 0 up to
    rounding."""
    kind = rng.randrange(6)
    n = rng.randint(1, 7)
    big = 2.0 ** 900
    if kind == 2:
        return _band_instance(rng)
    if kind == 3:
        # M the identity, gain(i, j) = c(j, i) = big * (phi_i - phi_j) plus a
        # small gain inside a level of phi: cycles that cross levels gain
        # those small gains exactly, but sums through +-2**900 lose them
        n = rng.randint(3, 5)
        phi = [rng.randrange(2) for _ in range(n)]
        x = GroundSet(tuple(f"p{i}" for i in range(n)))
        c = coupling_from_rows(x, x, [
            [0.0 if i == j else big * (phi[i] - phi[j]) + (
                rng.choice((1.0, -2.0, -3.0, 1e-9)) if phi[i] == phi[j] else 0.0)
             for j in range(n)] for i in range(n)])
        return MultiMapping(x, x, tuple((i, i) for i in range(n))), c
    if kind == 4:
        pool = (big, -big, 0.0, 1.0, -1.0, 1e-9, 3.0)
        n = rng.randint(2, 3)
        c = coupling_from_rows(*(GroundSet(tuple(f"{s}{i}" for i in range(n)))
                                 for s in "xy"),
                               [[rng.choice(pool) for _ in range(n)]
                                for _ in range(n)])
        m = MultiMapping(c.domain, c.codomain, tuple(
            {(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)}))
        pc = product_coupling(c)
        return delta_mapping(m, pc), pc.lifted
    if kind == 5:
        n = rng.randint(3, 8)
        a = [rng.uniform(-10, 10) for _ in range(n)]
        b = [rng.uniform(-10, 10) for _ in range(n)]
        x = GroundSet(tuple(f"p{i}" for i in range(n)))
        c = coupling_from_rows(x, x, [[a[i] + b[j] for j in range(n)]
                                      for i in range(n)])
    else:
        pool = rng.choice(((), (-2.0, -1.0, -0.0, 0.0, 1.0, 2.0), (-0.0, 0.0)))
        c = coupling_from_rows(
            *(GroundSet(tuple(f"{s}{i}" for i in range(n))) for s in "xy"),
            [[rng.choice(pool) if pool else rng.uniform(-10.0, 10.0)
              for _ in range(n)] for _ in range(n)])
    draw = rng.randrange(3)
    if draw == 0:
        return random_cyclically_monotone_mapping(rng, c), c
    m = MultiMapping(c.domain, c.codomain, tuple(
        {(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)}))
    if draw == 2 and n >= 2:
        return inject_positive_two_cycle(rng, random_cyclically_monotone_mapping(
            rng, c), c)
    return m, c


def check_potential_route(rng):
    """The potential-first verdict and witness against ``_cyclic_walks``
    (eps < 0 too); on a pass, alpha's max_s [f(s) + R_s] and one R_s within
    the stated bound of the closure route."""
    m, c = _potential_draw(rng)
    eps = rng.choice((EPS, EPS, EPS, 0.0, -EPS))
    gg = build_gain_graph(m, c)
    verdict, walks = _cyclic_verdict(gg, eps)
    want, _ = _cyclic_walks(gg, eps)
    if ((verdict.holds, verdict.witness) != (want.holds, want.witness)
            or is_cyclically_monotone(m, c, eps) != want):
        return False
    sites = [s for s in m.dom if rng.random() < 0.5] or [m.dom[0]]
    shifts = [rng.uniform(-10.0, 10.0) for _ in sites]
    if not verdict:
        try:
            chain_suprema(m, c, sites, shifts, eps)
        except NotCyclicallyMonotoneError as exc:
            return exc.witness == want.witness
        return False
    ROUTES["potential" if walks is None else "closure"] += 1
    rows = anchored_antiderivatives(m, c, sites, eps)
    closure = [max(r(x) + f for r, f in zip(rows, shifts))
               for x in range(c.domain.size)]
    got = chain_suprema(m, c, sites, shifts, eps).values
    one = rockafellar(m, c, sites[0], eps).values
    return (max(abs(a - b) for a, b in zip(got, closure))
            <= _route_bound(gg, shifts)
            and max(abs(a - b) for a, b in zip(one, rows[0].values))
            <= _route_bound(gg, [0.0]))


def _per_cell_transform(values, line):
    best = -math.inf
    for v, cv in zip(values, line):
        if v == math.inf:
            continue
        if v == -math.inf:
            return math.inf
        best = max(best, cv - v)
    return best


def _per_cell_gain_graph(m, c):
    gain, witness = [], []
    for u in m.dom:
        images = [y for x, y in m.graph if x == u]
        grow, wrow = [], []
        for v in range(c.domain.size):
            best, besty = -math.inf, images[0]
            for y in images:
                g = c(v, y) - c(u, y)
                if g > best:
                    best, besty = g, y
            grow.append(best)
            wrow.append(besty)
        gain.append(grow)
        witness.append(tuple(wrow))
    return gain, tuple(witness)


def _per_cell_closure(a, limit):
    k = len(a)
    d = [row[:] for row in a]
    if any(d[u][u] > limit for u in range(k)):
        return None
    for w in range(k):
        for u in range(k):
            if u != w:
                for v in range(k):
                    if v != w:
                        d[u][v] = max(d[u][v], d[u][w] + d[w][v])
                if d[u][u] > limit:
                    return None
    return d


def _per_cell_anchored(gg, walks, s, nx):
    spos = gg.nodes.index(s)
    best = walks[spos][:]
    best[spos] = max(best[spos], 0.0)
    return [max(b + row[x] for b, row in zip(best, gg.gain)) for x in range(nx)]


def _first_triangle_failure(d, eps):
    n = len(d)
    return next(((i, j, k) for i in range(n) for j in range(n) for k in range(n)
                 if d[i][k] > d[i][j] + d[j][k] + eps), None)


def _bits(rows):
    """Nested float rows as float.hex strings, which tell -0.0 from 0.0."""
    return None if rows is None else [list(map(float.hex, row)) for row in rows]


def check_row_kernels(rng):
    c = random_coupling(rng, rng.randint(1, 9), rng.randint(1, 9))
    f = random_proper_function(rng, c.domain)
    g = random_proper_function(rng, c.codomain)
    fc = c_transform(f, c)
    want_fc = [_per_cell_transform(f.values, [row[y] for row in c.values])
               for y in range(c.codomain.size)]
    want_gc = [_per_cell_transform(g.values, row) for row in c.values]
    want_sub = tuple((x, y) for x in range(c.domain.size) if math.isfinite(f(x))
                     for y in range(c.codomain.size)
                     if abs(f(x) + fc(y) - c(x, y)) <= EPS)
    transforms_ok = (
        list(map(float.hex, fc.values)) == list(map(float.hex, want_fc))
        and list(map(float.hex, c_transform_rev(g, c).values))
        == list(map(float.hex, want_gc))
        and c_subdifferential(f, c, EPS).graph == want_sub)
    m = random_cyclically_monotone_mapping(rng, c, max_pairs=6)
    if rng.random() < 0.5 and min(c.domain.size, c.codomain.size) >= 2:
        m, c = inject_positive_two_cycle(rng, m, c)
    n = rng.randint(1, 4)
    got, want = is_n_monotone(m, c, n, EPS), n_monotone_oracle(m, c, n, EPS)
    # gain graph, closure, R_s and the lifted product against per-cell loops
    gg = build_gain_graph(m, c)
    gain, witness = _per_cell_gain_graph(m, c)
    a = gg.restricted()
    gain_ok = _bits(gg.gain) == _bits(gain) and gg.witness == witness and all(
        _bits(_max_plus_closure(a, limit)) == _bits(_per_cell_closure(a, limit))
        for limit in (math.inf, EPS / len(a), -EPS))
    verdict, walks = _cyclic_walks(gg, EPS)
    if verdict:
        gain_ok = gain_ok and _bits(
            r.values for r in anchored_antiderivatives(m, c, m.dom, EPS)) == _bits(
            _per_cell_anchored(gg, walks, s, c.domain.size) for s in m.dom)
    pc = product_coupling(c)
    lifted_ok = (
        _bits(pc.lifted.values) == _bits(
            [c(x, t) + c(s, y) for t, s in pc.ts_pairs] for x, y in pc.xy_pairs)
        and _bits([fitzpatrick(m, c).values]) == _bits([[
            max(c(x, t) + c(s, y) - c(s, t) for s, t in m.graph)
            for x in range(c.domain.size) for y in range(c.codomain.size)]]))
    # a metric with one edge stretched to exactly eps past a triangle, or
    # one float further: the error names the per-triple loop's first triple
    d = [list(row) for row in random_metric(rng, rng.randint(2, 8)).dist]
    i, j, k = rng.sample(range(len(d)), 2) + [rng.randrange(len(d))]
    edge = d[i][k] + d[k][j] + EPS
    d[i][j] = d[j][i] = edge if rng.random() < 0.5 else math.nextafter(edge, math.inf)
    first = _first_triangle_failure(d, EPS)
    try:
        metric_from_rows(GroundSet(tuple(map(str, range(len(d))))), d)
        metric_ok = first is None
    except MetricError as exc:
        metric_ok = str(exc) == "triangle inequality fails at ({},{},{})".format(*first)
    # the oracle's witness at order 2; elsewhere walk round n's, which
    # must be a violating selection of n pairs from G(M)
    if got.holds or n == 2:
        order_ok = (got.holds, got.witness) == (want.holds, want.witness)
    else:
        order_ok = (not want.holds and len(got.witness) == n
                    and set(got.witness) <= set(m.graph)
                    and _chain_gain(got.witness, c) > EPS)
    return transforms_ok and gain_ok and lifted_ok and metric_ok and order_ok


def _metric_message(d, eps):
    try:
        metric_from_rows(GroundSet(tuple(map(str, range(len(d))))), d, eps=eps)
    except MetricError as exc:
        return str(exc)
    return None


def check_triangle_half_scan(rng):
    """An exactly symmetric metric with a stretched edge (the half scan), or
    d(i, k) at the eps margin of its least detour (or one float past it)
    with d(k, i) up to eps/2 below (the full scan): the error names the
    per-triple loop's first failing triple."""
    n = rng.randint(3, 9)
    d = [list(row) for row in random_metric(rng, n).dist]
    eps = rng.choice((EPS, 0.25, 2.0 ** -10))
    i, j, k = rng.sample(range(n), 3)
    if rng.random() < 0.5:
        edge = d[i][j] + d[j][k] + eps
        d[i][k] = d[k][i] = (edge if rng.random() < 0.5
                             else math.nextafter(edge, math.inf))
    else:
        least = min(d[i][m] + d[m][k] for m in range(n) if m not in (i, k))
        d[i][k] = least + eps
        if rng.random() < 0.5:
            d[i][k] = math.nextafter(d[i][k], math.inf)
        d[k][i] = d[i][k] - rng.choice((eps / 2, math.ulp(d[i][k])))
    first = _first_triangle_failure(d, eps)
    return _metric_message(d, eps) == (
        None if first is None
        else "triangle inequality fails at ({},{},{})".format(*first))


def check_order_two_half_scan(rng):
    """The order-2 scan, which meets each unordered pair of G(M) once,
    against the oracle's verdict and witness: ties, signed zeros, one-pair
    graphs and eps below zero."""
    nx, ny = rng.randint(1, 5), rng.randint(1, 5)
    pool = rng.choice(((), (-1.0, -0.0, 0.0, 1.0), (-0.0, 0.0)))
    rows = [[rng.choice(pool) if pool else rng.uniform(-10.0, 10.0)
             for _ in range(ny)] for _ in range(nx)]
    c = coupling_from_rows(GroundSet(tuple(f"x{i}" for i in range(nx))),
                           GroundSet(tuple(f"y{i}" for i in range(ny))), rows)
    pairs = {(rng.randrange(nx), rng.randrange(ny))
             for _ in range(rng.choice((1, rng.randint(1, 2 * nx * ny))))}
    m = MultiMapping(c.domain, c.codomain, tuple(pairs))
    eps = rng.choice((EPS, 0.0, -0.0, -EPS, 1.0))
    got, want = is_n_monotone(m, c, 2, eps), n_monotone_oracle(m, c, 2, eps)
    return (got.holds, got.witness) == (want.holds, want.witness)


def check_duality(rng):
    p = random_constraint_problem(rng, rng.randint(2, 5), rng.randint(2, 5))
    d = p.dual()
    return (sup_distance(c_transform(alpha(p), p.coupling), gamma(d)) <= EPS
            and sup_distance(c_transform(gamma(p), p.coupling), alpha(d)) <= EPS)


def check_lipschitz(rng):
    d = random_metric(rng, rng.randint(2, 10))
    f = random_lipschitz_function(rng, d)
    return lipschitz_characterize(f, d).unanimous


def check_lifted(rng):
    c = random_coupling(rng, rng.randint(1, 4), rng.randint(1, 4))
    if rng.random() < 0.5:
        t = random_cyclically_monotone_mapping(rng, c, max_pairs=4)
    else:
        nx, ny = c.domain.size, c.codomain.size
        pairs = {(rng.randrange(nx), rng.randrange(ny))
                 for _ in range(rng.randint(1, 4))}
        t = MultiMapping(c.domain, c.codomain, tuple(pairs))
    return verify_theorem6A(t, c).agree


def _grown(rng, m, c):
    """m extended by a random number of the absent pairs that keep it
    2-monotone, tried in random order: maximal or short of it."""
    pool = [(x, y) for x in range(c.domain.size) for y in range(c.codomain.size)]
    rng.shuffle(pool)
    for p in pool[:rng.randint(0, len(pool))]:
        if p not in m and is_n_monotone(m.with_pair(*p), c, 2, EPS):
            m = m.with_pair(*p)
    return m


def check_order_two_maximality(rng):
    c = random_coupling(rng, rng.randint(1, 5), rng.randint(1, 5))
    t = _grown(rng, random_cyclically_monotone_mapping(rng, c), c)
    if rng.random() < 0.25 and min(c.domain.size, c.codomain.size) >= 2:
        t, c = inject_positive_two_cycle(rng, t, c)
    ok = is_maximal_n_monotone(t, c, 2, EPS) == _is_maximal(
        lambda m: n_monotone_oracle(m, c, 2, EPS), t)
    if c.domain.size * c.codomain.size <= 9:
        # the lifted diagonal pool of Theorem 6A's primed readings
        pc = product_coupling(c)
        delta, pool = delta_mapping(t, pc), full_diagonal(pc)
        ok = ok and is_maximal_n_monotone(delta, pc.lifted, 2, EPS, pool) == \
            _is_maximal(lambda m: n_monotone_oracle(m, pc.lifted, 2, EPS), delta, pool)
    return ok


def _public_verify_text(doc_text, seed):
    """What ``verify`` prints, assembled from the public wrappers."""
    doc = parse_instance(doc_text)
    m, c = doc.mapping("T"), doc.coupling
    rep = verify_theorem6A(m, c, DEFAULT_EPS)
    out = {"command": "verify", "theorem_a": {**asdict(rep), "agree": rep.agree}}
    if rep.t_monotone:
        out["theorem_b"] = asdict(verify_theorem6B(m, c, DEFAULT_EPS, seed=seed))
    if doc.metric is not None and doc.negate:
        try:
            out["inequality_chain"] = asdict(
                verify_inequality_chain(m, doc.metric, eps=DEFAULT_EPS))
        except AbstractConvexError as exc:
            out["inequality_chain"] = {"skipped": str(exc)}
    return dumps(out)


def check_verify_context(rng):
    n = rng.randint(2, 4)
    if rng.random() < 0.5:
        c = random_coupling(rng, n, n)
        t = _grown(rng, random_cyclically_monotone_mapping(rng, c), c)
        if rng.random() < 0.3:
            t, c = inject_positive_two_cycle(rng, t, c)
        doc = InstanceDocument("1", {"X": c.domain, "Y": c.codomain}, c,
                               coupling_names=("X", "Y"), mappings={"T": t})
    else:
        metric = random_metric(rng, n)
        c = as_coupling(metric)
        t = _grown(rng, identity_mapping(metric), c)
        if rng.random() < 0.3:
            t = MultiMapping(c.domain, c.codomain, ((0, 1), (1, 0)))
        doc = InstanceDocument("1", {"P": metric.points}, c, metric=metric,
                               negate=True, coupling_names=("P", "P"),
                               mappings={"T": t})
    text, seed = emit_document(doc), rng.randrange(100)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(text)
        printed = io.StringIO()
        with redirect_stdout(printed):
            status = cli_main(["verify", "--instance", str(path), "--mapping", "T",
                               "--seed", str(seed)])
    return status == 0 and printed.getvalue() == _public_verify_text(text, seed)


CHECKS = [
    ("triple transform", check_transform),
    ("chain supremum vs oracle", check_antiderivative),
    ("closure vs exact-length route", check_closure_route),
    ("band antiderivative vs chain oracle", check_band_antiderivative),
    ("potential route vs closure route", check_potential_route),
    ("row kernels vs per-cell forms", check_row_kernels),
    ("triangle half scan vs per-triple", check_triangle_half_scan),
    ("order-2 half scan vs oracle", check_order_two_half_scan),
    ("envelope duality", check_duality),
    ("lipschitz four-way", check_lipschitz),
    ("lifted equivalences", check_lifted),
    ("order-2 maximality vs full recheck", check_order_two_maximality),
    ("verify output vs public wrappers", check_verify_context),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=50)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    failures = 0
    for name, check in CHECKS:
        ok = sum(check(rng) for _ in range(args.trials))
        status = "ok" if ok == args.trials else "FAIL"
        print(f"{name:<36} {ok}/{args.trials} {status}")
        failures += args.trials - ok
    print("passing potential-route draws decided by the potential: "
          f"{ROUTES['potential']}, by the closure fallback: {ROUTES['closure']}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
