"""Randomized verification sweep over the package's structural identities.

Each check in ``CHECKS`` draws one seeded instance from the shared
``random.Random`` and returns whether a fast route agreed with its oracle,
closed form or per-cell reference (``references.py``) on it; the names
and docstrings say what each compares.  ``tests/test_sweep.py`` runs every
check at seed 0, 50 trials each; ``scripts/random_verification.py --seed N
--trials T`` runs deeper sweeps.
"""

import io
import math
import random
import tempfile
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

from abconvex import (
    DEFAULT_EPS,
    GroundSet,
    Lifted,
    MultiMapping,
    alpha,
    as_coupling,
    build_gain_graph,
    c_subdifferential,
    c_transform,
    c_transform_rev,
    coupling_from_rows,
    fitzpatrick,
    gamma,
    identity_mapping,
    inject_positive_two_cycle,
    is_antiderivative,
    is_cyclically_monotone,
    is_maximal_n_monotone,
    is_n_monotone,
    lipschitz_characterize,
    product_coupling,
    random_coupling,
    random_cyclically_monotone_mapping,
    random_lipschitz_function,
    random_metric,
    random_proper_function,
    rockafellar,
    sup_distance,
)
from abconvex.cli import main as cli_main
from abconvex.fitzpatrick import delta_mapping, full_diagonal
from abconvex.monotone import _cyclic_verdict, _cyclic_walks, _max_plus_closure
from abconvex.rockafellar import NotCyclicallyMonotoneError, chain_suprema

from references import (
    EPS,
    TIE_KINDS,
    _chain_gain,
    anchored_antiderivatives,
    band_instance,
    c_transform_per_cell,
    c_transform_rev_per_cell,
    closure_per_cell,
    fitzpatrick_per_cell,
    gain_graph_per_cell,
    grown_mapping,
    kernel_coupling,
    lifted_draw,
    lifted_lines_agree,
    lifted_routes_agree,
    line_antiderivative,
    line_instance,
    maximal_by_recheck,
    metric_error,
    n_monotone_oracle,
    partly_grown,
    product_rows_per_cell,
    public_verify_text,
    random_constraint_problem,
    random_graph,
    reference_closed_walks,
    reference_cyclic_verdict,
    reference_metric_error,
    reference_verdict,
    rockafellar_oracle,
    route_bound,
    seeded_route,
    separable_coupling,
    site_seed,
    verify_document,
    witness_table,
)


def _bits(rows):
    """Nested float rows as float.hex strings, which tell -0.0 from 0.0."""
    return None if rows is None else [list(map(float.hex, row)) for row in rows]


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
    """The cyclic verdict and witness against the reference walk rounds,
    and ``is_n_monotone`` at every order 1..k + 1 against them (against
    the oracle at order 2)."""
    n = rng.randint(2, 12)
    c = random_coupling(rng, n, n)
    m = random_cyclically_monotone_mapping(rng, c)
    kind = rng.randrange(3)
    if kind == 1:
        m = random_graph(rng, c, 2 * n)
    elif kind == 2:
        m, c = inject_positive_two_cycle(rng, m, c)
    gg = build_gain_graph(m, c)
    got = is_cyclically_monotone(m, c, EPS)
    k = len(gg.nodes)
    diag_best, cycles = reference_closed_walks(gg.restricted(), k + 1)

    def order_ok(order):
        res = is_n_monotone(m, c, order, EPS)
        if order == 2:
            want = n_monotone_oracle(m, c, 2, EPS)
            return (res.holds, res.witness) == (want.holds, want.witness)
        return (res.holds, res.witness) == reference_verdict(
            gg, diag_best[order - 1], cycles[order - 1], EPS)

    return ((got.holds, got.witness) == reference_cyclic_verdict(gg, EPS)
            and all(map(order_ok, range(1, k + 2))))


def check_band_antiderivative(rng):
    # c(x, y) = a_x + b_y + noise: every cycle gains at most a few noise
    # terms; drawn until the best one lies between eps/k and eps
    m, c = band_instance(rng)
    k = len(m.dom)
    return all(sup_distance(r, rockafellar_oracle(m, c, s, max_len=k + 1)) <= EPS
               for s, r in zip(m.dom, anchored_antiderivatives(m, c, m.dom, EPS)))


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
        return band_instance(rng)
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
        n = rng.randint(2, 3)
        c = kernel_coupling(rng, n, n, (big, -big, 0.0, 1.0, -1.0, 1e-9, 3.0))
        m = MultiMapping(c.domain, c.codomain, tuple(
            {(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)}))
        pc = product_coupling(c)
        return delta_mapping(m, pc), pc
    if kind == 5:
        n = rng.randint(3, 8)
        c = separable_coupling(rng, n)
    else:
        c = kernel_coupling(rng, n, n, rng.choice(TIE_KINDS))
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
    """The potential-first verdict and witness from ``chain_suprema``'s
    seed, shift(s) at some sites, against ``_cyclic_walks`` (eps < 0 too);
    on a pass, alpha's max_s [f(s) + R_s] and one R_s within the stated
    bound of the closure route.  The closure itself matches its per-cell
    form bit for bit on these draws, whose signed zeros tell which of two
    equal sums a max keeps.  A passing draw whose mapping passes returns
    the route the seeded run took, "potential" or "closure"."""
    m, c = _potential_draw(rng)
    eps = rng.choice((EPS, EPS, EPS, 0.0, -EPS))
    gg = build_gain_graph(m, c)
    sites = [s for s in m.dom if rng.random() < 0.5] or [m.dom[0]]
    shifts = [rng.uniform(-10.0, 10.0) for _ in sites]
    seed = site_seed(gg, sites, shifts)
    verdict, _ = _cyclic_verdict(gg, eps, seed)
    want, _ = _cyclic_walks(gg, eps)
    gains = gg.restricted()
    if ((verdict.holds, verdict.witness) != (want.holds, want.witness)
            or is_cyclically_monotone(m, c, eps) != want
            or _bits(_max_plus_closure(gains, math.inf))
            != _bits(closure_per_cell(gains, math.inf))):
        return False
    if not verdict:
        try:
            chain_suprema(m, c, sites, shifts, eps)
        except NotCyclicallyMonotoneError as exc:
            return exc.witness == want.witness
        return False
    rows = anchored_antiderivatives(m, c, sites, eps)
    closure = [max(r(x) + f for r, f in zip(rows, shifts))
               for x in range(c.domain.size)]
    got = chain_suprema(m, c, sites, shifts, eps).values
    one = rockafellar(m, c, sites[0], eps).values
    return (max(abs(a - b) for a, b in zip(got, closure))
            <= route_bound(gg, shifts)
            and max(abs(a - b) for a, b in zip(one, rows[0].values))
            <= route_bound(gg, [0.0])
            and seeded_route(gg, eps, seed))


def check_row_kernels(rng):
    """Each row kernel against its per-cell form, bit for bit, on uniform
    reals or on ties and signed zeros, which tell which of two equal sums a
    fold keeps."""
    nx, ny = rng.randint(1, 9), rng.randint(1, 9)
    if rng.random() < 0.5:
        c = random_coupling(rng, nx, ny)
    else:
        c = kernel_coupling(rng, nx, ny, rng.choice(TIE_KINDS))
    f = random_proper_function(rng, c.domain)
    g = random_proper_function(rng, c.codomain)
    sub = c_subdifferential(f, c, EPS).graph
    transforms_ok = (
        _bits([c_transform(f, c).values]) == _bits([c_transform_per_cell(f, c)])
        and _bits([c_transform_rev(g, c).values])
        == _bits([c_transform_rev_per_cell(g, c)]))
    # is_antiderivative against G(M) inside the subdifferential's graph, on
    # pairs of that graph and a stray pair or not
    pairs = set(rng.sample(sub, rng.randint(1, len(sub))))
    if rng.random() < 0.5:
        pairs.add((rng.randrange(nx), rng.randrange(ny)))
    held = MultiMapping(c.domain, c.codomain, tuple(pairs))
    antiderivative_ok = (is_antiderivative(f, held, c, EPS)
                == all(pair in sub for pair in held.graph))
    m = random_cyclically_monotone_mapping(rng, c, max_pairs=6)
    if rng.random() < 0.5 and min(c.domain.size, c.codomain.size) >= 2:
        m, c = inject_positive_two_cycle(rng, m, c)
    n = rng.randint(1, 4)
    got, want = is_n_monotone(m, c, n, EPS), n_monotone_oracle(m, c, n, EPS)
    # gain graph, closure and the lifted product against per-cell loops
    gg = build_gain_graph(m, c)
    _, gain, witness = gain_graph_per_cell(m, c)
    a = gg.restricted()
    gain_ok = (_bits(gg.gain) == _bits(gain) and witness_table(gg) == witness
               and all(_bits(_max_plus_closure(a, limit))
                       == _bits(closure_per_cell(a, limit))
                       for limit in (math.inf, EPS / len(a), -EPS)))
    pc = product_coupling(c)
    lifted_ok = (_bits(pc.values) == _bits(product_rows_per_cell(c, pc))
                 and _bits([fitzpatrick(m, c).values])
                 == _bits([fitzpatrick_per_cell(m, c)]))
    # a metric with one edge stretched to exactly eps past a triangle, or
    # one float further: the error names the per-triple loop's first triple
    d = [list(row) for row in random_metric(rng, rng.randint(2, 8)).dist]
    i, j, k = rng.sample(range(len(d)), 2) + [rng.randrange(len(d))]
    edge = d[i][k] + d[k][j] + EPS
    d[i][j] = d[j][i] = edge if rng.random() < 0.5 else math.nextafter(edge, math.inf)
    metric_ok = metric_error(d, EPS) == reference_metric_error(d, EPS)
    # the oracle's witness at order 2; elsewhere walk round n's, which
    # must be a violating selection of n pairs from G(M)
    if got.holds or n == 2:
        order_ok = (got.holds, got.witness) == (want.holds, want.witness)
    else:
        order_ok = (not want.holds and len(got.witness) == n
                    and set(got.witness) <= set(m.graph)
                    and _chain_gain(got.witness, c) > EPS)
    return (transforms_ok and antiderivative_ok and gain_ok and lifted_ok
            and metric_ok and order_ok)


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
    return metric_error(d, eps) == reference_metric_error(d, eps)


def check_order_two_half_scan(rng):
    """The order-2 scan, which meets each unordered pair of G(M) once,
    against the oracle's verdict and witness: ties, signed zeros, one-pair
    graphs and eps below zero."""
    nx, ny = rng.randint(1, 5), rng.randint(1, 5)
    c = kernel_coupling(rng, nx, ny, rng.choice(
        ((), (-1.0, -0.0, 0.0, 1.0), (-0.0, 0.0))))
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
        t = random_graph(rng, c, 4)
    return Lifted(t, c).theorem6A().agree


def check_order_two_maximality(rng):
    c = random_coupling(rng, rng.randint(1, 5), rng.randint(1, 5))
    t = partly_grown(rng, c, EPS)
    if rng.random() < 0.25 and min(c.domain.size, c.codomain.size) >= 2:
        t, c = inject_positive_two_cycle(rng, t, c)
    ok = is_maximal_n_monotone(t, c, 2, EPS) == maximal_by_recheck(t, c, EPS)
    if c.domain.size * c.codomain.size <= 9:
        # the lifted diagonal pool of Theorem 6A's primed readings
        pc = product_coupling(c)
        delta, pool = delta_mapping(t, pc), full_diagonal(pc)
        ok = ok and is_maximal_n_monotone(delta, pc, 2, EPS, pool) == \
            maximal_by_recheck(delta, pc, EPS, pool)
    return ok


def check_verify_context(rng):
    n, metric = rng.randint(2, 4), None
    if rng.random() < 0.5:
        c = random_coupling(rng, n, n)
        t = partly_grown(rng, c, EPS)
        if rng.random() < 0.3:
            t, c = inject_positive_two_cycle(rng, t, c)
    else:
        metric = random_metric(rng, n)
        c = as_coupling(metric)
        t = grown_mapping(rng, identity_mapping(metric), c, EPS,
                          rng.randint(0, n * n))
        if rng.random() < 0.3:
            t = MultiMapping(c.domain, c.codomain, ((0, 1), (1, 0)))
    text, seed = verify_document(t, c, metric), rng.randrange(100)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(text)
        printed = io.StringIO()
        with redirect_stdout(printed):
            status = cli_main(["verify", "--instance", str(path), "--mapping", "T",
                               "--seed", str(seed)])
    return status == 0 and printed.getvalue() == public_verify_text(text, seed)


def check_lifted_transforms(rng):
    """The separable kernel of the lifted transforms against the table
    route, forward and reverse: |X| != |Y|, +inf entries,
    one -inf entry, all +inf, one-point sets and entries near 2**900
    within the stated bound, small integers exactly."""
    return lifted_routes_agree(*lifted_draw(rng))


def check_lifted_lines(rng):
    """C's rows and columns, built from c on first read, against its
    per-cell table, bit for bit: ``lifted_draw``'s couplings, |X| != |Y|
    on most draws, with ties, signed zeros and entries near 2**900."""
    return lifted_lines_agree(rng, lifted_draw(rng)[0])


def check_line(rng):
    """The classical line (``line_instance``, n <= 30) at eps 0 and
    ``DEFAULT_EPS``: M is cyclically monotone, and is not once
    (x_max, y_min) and (x_min, y_max) join it, and ``rockafellar`` from a
    random site equals the closed form float for float."""
    n = rng.randint(1, 30)
    m, c, xs, ys = line_instance(rng, n)
    s = rng.choice(m.dom)
    want = _bits([line_antiderivative(m, xs, ys, s)])
    crossed = m.with_pair(n - 1, 0).with_pair(0, n - 1)
    return all(is_cyclically_monotone(m, c, eps)
               and (n < 2 or not is_cyclically_monotone(crossed, c, eps))
               and _bits([rockafellar(m, c, s, eps).values]) == want
               for eps in (0.0, DEFAULT_EPS))


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
    ("verify output vs fresh contexts", check_verify_context),
    ("lifted transforms vs table route", check_lifted_transforms),
    ("lifted lines vs per-cell table", check_lifted_lines),
    ("line antiderivative vs closed form", check_line),
]


def sweep(seed: int, trials: int):
    """Yield (name, passing trials, census) per check, in ``CHECKS`` order,
    all drawn from one ``random.Random(seed)``.  A check passes a draw by
    returning True or the name of the route that decided it; ``census``
    counts those names for this check in this call alone."""
    rng = random.Random(seed)
    for name, check in CHECKS:
        outcomes = [check(rng) for _ in range(trials)]
        yield name, sum(map(bool, outcomes)), Counter(
            o for o in outcomes if isinstance(o, str))
