import itertools
import math
from collections import Counter

import pytest

from abconvex import (
    AbstractConvexError,
    ExtFunction,
    GroundSet,
    MultiMapping,
    NotCyclicallyMonotoneError,
    c_convexify,
    c_subdifferential,
    coupling_from_rows,
    inject_positive_two_cycle,
    is_antiderivative,
    is_c_convex,
    is_cyclically_monotone,
    pointwise_le,
    random_coupling,
    random_cyclically_monotone_mapping,
    rockafellar,
    sup_distance,
)
from abconvex import monotone
from abconvex.monotone import _cyclic_verdict, _passes, build_gain_graph
from abconvex.rockafellar import chain_suprema
from conftest import (
    assert_same_floats,
    mixed_mappings,
    one_point_couplings,
    two_cycle_instance,
)
from references import (
    TIE_KINDS,
    _chain_gain,
    anchored_antiderivatives,
    band_instance,
    closure_suprema,
    kernel_coupling,
    labels_first_per_cell,
    rockafellar_oracle,
    route_bound,
    seeded_route,
    separable_coupling,
    site_seed,
)

EPS = 1e-9


def test_fixture_example_anchored_at_origin(two_point):
    # M = identity-to-a on {0, 1, 2}, anchored at the point labelled 0:
    # every chain gain telescopes to x - 0, so R(x) = x
    r = rockafellar(two_point.m, two_point.c, 2)
    assert r.values == tuple(two_point.points)
    assert r(2) == 0.0


def test_anchor_shift_only_changes_constant(two_point):
    r0 = rockafellar(two_point.m, two_point.c, 2)
    r1 = rockafellar(two_point.m, two_point.c, 3)
    diffs = {r0(x) - r1(x) for x in range(5)}
    assert len(diffs) == 1
    assert r1(3) == 0.0


def test_result_is_c_convex_antiderivative(two_point):
    r = rockafellar(two_point.m, two_point.c, 2)
    assert is_c_convex(r, two_point.c)
    assert is_antiderivative(r, two_point.m, two_point.c)


def test_anchor_outside_domain_rejected(two_point):
    with pytest.raises(AbstractConvexError):
        rockafellar(two_point.m, two_point.c, 0)  # label -2 not in dom(M)


def test_matches_oracle_on_random_instances(rng):
    for _ in range(100):
        c = random_coupling(rng, 5, 4)
        m = random_cyclically_monotone_mapping(rng, c, max_pairs=5)
        s = rng.choice(m.dom)
        fast = rockafellar(m, c, s)
        slow = rockafellar_oracle(m, c, s, max_len=len(m.dom) + 2)
        assert sup_distance(fast, slow) <= EPS


def test_positive_cycle_raises_with_witness(rng):
    for _ in range(100):
        c = random_coupling(rng, 5, 4)
        m = random_cyclically_monotone_mapping(rng, c, max_pairs=5)
        bad_m, bad_c = inject_positive_two_cycle(rng, m, c)
        s = rng.choice(bad_m.dom)
        with pytest.raises(NotCyclicallyMonotoneError) as err:
            rockafellar(bad_m, bad_c, s)
        assert _chain_gain(err.value.witness, bad_c) > EPS


def test_minimality_among_antiderivatives(two_point):
    # any antiderivative h with h(anchor) = 0 majorizes R
    r = rockafellar(two_point.m, two_point.c, 2)
    for h in (two_point.f_id, two_point.f_abs):
        assert is_antiderivative(h, two_point.m, two_point.c)
        assert h(2) == 0.0
        assert pointwise_le(r, h, EPS)


def test_minimality_on_random_instances(rng):
    for _ in range(50):
        c = random_coupling(rng, 5, 4)
        m = random_cyclically_monotone_mapping(rng, c, max_pairs=4)
        s = rng.choice(m.dom)
        r = rockafellar(m, c, s)
        # build antiderivatives by convexifying R plus a bump vanishing at s
        for _ in range(10):
            bump = [rng.uniform(0.0, 3.0) for _ in range(c.domain.size)]
            bump[s] = 0.0
            cand = c_convexify(
                ExtFunction(c.domain, tuple(r(x) + bump[x] for x in range(c.domain.size))),
                c)
            h = cand.shifted(-cand(s))
            if is_antiderivative(h, m, c) and abs(h(s)) <= EPS:
                assert pointwise_le(r, h, 1e-7)


def test_full_subdifferential_recovers_function(two_point):
    # for the full subdifferential of a c-convex f, R + f(s) equals f wherever
    # f is subdifferentiable
    f = two_point.f_abs
    sub = c_subdifferential(f, two_point.c)
    r = rockafellar(sub.mapping, two_point.c, 2)
    for x in sub.mapping.dom:
        assert abs(r(x) + f(2) - f(x)) <= EPS


def test_values_are_finite_everywhere(rng):
    for _ in range(20):
        c = random_coupling(rng, 4, 4)
        m = random_cyclically_monotone_mapping(rng, c, max_pairs=3)
        r = rockafellar(m, c, m.dom[0])
        assert all(math.isfinite(r(x)) for x in range(4))


def test_every_anchor_matches_oracle_or_raises_the_verdict_witness(rng):
    anchors = raised = 0
    for m, c in mixed_mappings(rng, 240, max_pairs=4):
        verdict = is_cyclically_monotone(m, c, EPS)
        if not verdict:
            raised += 1
            with pytest.raises(NotCyclicallyMonotoneError) as err:
                rockafellar(m, c, m.dom[0], EPS)
            assert err.value.witness == verdict.witness
            continue
        for s in m.dom:
            anchors += 1
            fast = rockafellar(m, c, s, EPS)
            slow = rockafellar_oracle(m, c, s, max_len=len(m.dom) + 1)
            assert sup_distance(fast, slow) <= EPS
    assert anchors >= 200 and raised >= 60


def test_multi_anchor_entry_matches_single_anchors(rng):
    for m, c in mixed_mappings(rng, 60):
        if not is_cyclically_monotone(m, c, EPS):
            continue
        many = anchored_antiderivatives(m, c, m.dom, EPS)
        assert [r.values for r in many] == [
            rockafellar(m, c, s, EPS).values for s in m.dom]


def test_anchor_check_precedes_cycle_check():
    # a positive 2-cycle on {0, 1} and an anchor 2 outside dom(M)
    x = GroundSet(("0", "1", "2"))
    c = coupling_from_rows(x, x, [[0.0, 1.0, 0.0], [0.0] * 3, [0.0] * 3])
    m = MultiMapping(x, x, ((0, 0), (1, 1)))
    with pytest.raises(NotCyclicallyMonotoneError):
        rockafellar(m, c, 0)
    for call in (lambda: rockafellar(m, c, 2),
                 lambda: chain_suprema(m, c, [0, 2], [0.0, 0.0])):
        with pytest.raises(AbstractConvexError) as err:
            call()
        assert not isinstance(err.value, NotCyclicallyMonotoneError)


@pytest.mark.parametrize("gain", [EPS / 2, 0.8 * EPS, EPS])
def test_cycles_within_eps_stay_within_eps_of_zero_gain(gain):
    # both routes (closure below eps/k, relaxation rounds above) return
    # finite values close to those of the same mapping with a 0-gain cycle
    m, c = two_cycle_instance(gain)
    m0, c0 = two_cycle_instance(0.0)
    for s in (0, 1):
        r = rockafellar(m, c, s, EPS)
        assert sup_distance(r, rockafellar(m0, c0, s, EPS)) <= 2 * 2 * EPS


def test_near_zero_cycles_are_not_pumped(rng):
    # c(x, y) = a_x + b_y makes every cycle gain 0; noise of size `scale`
    # turns them into cycles of gain up to 2*scale per step, many inside
    # eps.  Walks found by at most k rounds stay within 2*scale per step of
    # the noiseless telescoping value a_x - a_s.
    checked = 0
    for _ in range(60):
        n = rng.randint(8, 16)
        scale = rng.choice([1e-11, 3e-11, 1e-10])
        a = [rng.uniform(-10, 10) for _ in range(n)]
        b = [rng.uniform(-10, 10) for _ in range(n)]
        x = GroundSet(tuple(f"p{i}" for i in range(n)))
        c = coupling_from_rows(x, x, [
            [a[i] + b[j] + rng.uniform(-scale, scale) for j in range(n)]
            for i in range(n)])
        pairs = {(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)}
        m = MultiMapping(x, x, tuple(pairs))
        if not is_cyclically_monotone(m, c, EPS):
            continue
        k = len(m.dom)
        for s, r in zip(m.dom, anchored_antiderivatives(m, c, m.dom, EPS)):
            checked += 1
            worst = max(abs(r(i) - (a[i] - a[s])) for i in range(n))
            assert worst <= (k * k + 1) * 2 * scale + 1e-12
    assert checked >= 100


def test_band_antiderivatives_match_chain_oracle(rng):
    # walks of at most k steps, as the oracle enumerates with max_len = k + 1
    for m, c in [band_instance(rng) for _ in range(100)]:
        k = len(m.dom)
        for s, r in zip(m.dom, anchored_antiderivatives(m, c, m.dom, EPS)):
            slow = rockafellar_oracle(m, c, s, max_len=k + 1)
            assert sup_distance(r, slow) <= EPS


def test_band_call_runs_the_verdict_rounds_once(rng, monkeypatch):
    # every node a site with shift 0 seeds the passes with zero labels,
    # which never settle on a band instance: the table of best walks is
    # the verdict's own k rounds, not a rerun
    instances = [band_instance(rng) for _ in range(20)]
    real, drawn = monotone._walk_rounds, []

    def counting(a):
        for one in real(a):
            drawn.append(1)
            yield one

    monkeypatch.setattr(monotone, "_walk_rounds", counting)
    for m, c in instances:
        drawn.clear()
        chain_suprema(m, c, m.dom, [0.0] * len(m.dom), EPS)
        assert len(drawn) == len(m.dom)


def test_rockafellar_on_one_point_sets():
    # a one-pair mapping {(s, y)}: R_s(x) = c(x, y) - c(s, y) bit for bit,
    # as the shift -0.0 adds exactly nothing, and the per-site closure
    # reading agrees
    for c in one_point_couplings():
        for s, y in itertools.product(range(c.domain.size),
                                      range(c.codomain.size)):
            m = MultiMapping(c.domain, c.codomain, ((s, y),))
            want = tuple(c(x, y) - c(s, y) for x in range(c.domain.size))
            assert_same_floats(rockafellar(m, c, s, EPS).values, want)
            assert anchored_antiderivatives(m, c, [s], EPS)[0].values == want


# ----------------------------------------------------------- potential route
# chain_suprema reads max_s [shift(s) + R_s] from one run of the passes
# seeded with shift(s) at the sites when they settle under the guard, and
# from the closure table otherwise, labels first.  The per-site reading
# of the closure table (``closure_suprema``, or ``anchored_antiderivatives``
# for one site each) is its oracle.  ``seeded_route`` tells the routes
# apart by running the passes on the same seed.

@pytest.fixture(params=["potential", "table"])
def route(request, monkeypatch):
    """Force the table route when ``request.param`` says so, by making the
    passes never settle."""
    if request.param == "table":
        monkeypatch.setattr(monotone, "_passes", lambda cols, labels: None)


def test_chain_suprema_lie_within_the_stated_bound_of_the_closure_route(rng):
    draws = mixed_mappings(rng, 150)
    for trial in range(90):
        n = rng.randint(1, 7)
        c = kernel_coupling(rng, n, n, ties=TIE_KINDS[trial % 3])
        draws.append((random_cyclically_monotone_mapping(rng, c), c))
    potential = 0
    for m, c in draws:
        gg = build_gain_graph(m, c)
        verdict = _cyclic_verdict(gg, EPS)[0]
        if not verdict:
            with pytest.raises(NotCyclicallyMonotoneError) as err:
                chain_suprema(m, c, m.dom, [0.0] * len(m.dom), EPS)
            assert err.value.witness == verdict.witness
            continue
        sites = [s for s in m.dom if rng.random() < 0.5] or [m.dom[0]]
        shifts = [rng.uniform(-10.0, 10.0) for _ in sites]
        potential += seeded_route(gg, EPS, site_seed(gg, sites, shifts)) == \
            "potential"
        got = chain_suprema(m, c, sites, shifts, EPS).values
        want = closure_suprema(m, c, sites, shifts)
        bound = route_bound(gg, shifts)
        assert max(abs(a - b) for a, b in zip(got, want)) <= bound
        for s in sites:
            r = rockafellar(m, c, s, EPS)
            want = closure_suprema(m, c, [s], [0.0])
            assert max(abs(a - b) for a, b in zip(r.values, want)) <= \
                route_bound(gg, [0.0])
    assert potential >= 100


def test_potential_route_runs_the_passes_once(rng, monkeypatch):
    # the verdict's run from the sites' seed gives the labels too
    real, runs = monotone._passes, []

    def counting(cols, labels):
        runs.append(1)
        return real(cols, labels)

    draws = [(m, c) for m, c in mixed_mappings(rng, 120)
             if is_cyclically_monotone(m, c, EPS)]
    monkeypatch.setattr(monotone, "_passes", counting)
    checked = 0
    for m, c in draws:
        gg = build_gain_graph(m, c)
        shifts = [rng.uniform(-10.0, 10.0) for _ in m.dom]
        seed = site_seed(gg, m.dom, shifts)
        if seeded_route(gg, EPS, seed) != "potential":
            continue
        runs.clear()
        chain_suprema(m, c, m.dom, shifts, EPS)
        assert len(runs) == 1
        checked += 1
    assert checked >= 40


@pytest.mark.parametrize("shift", [-1e12, 1e12])
def test_seed_past_the_guard_takes_the_table_route(rng, shift):
    # a shift of +-1e12 makes max |p| large enough that the guard refuses
    # the seeded labels, while the zero seed still decides the verdict on
    # the potential route
    checked = 0
    for m, c in mixed_mappings(rng, 120):
        gg = build_gain_graph(m, c)
        if seeded_route(gg, EPS) != "potential":
            continue
        sites, shifts = [m.dom[-1]], [shift]
        assert seeded_route(gg, EPS, site_seed(gg, sites, shifts)) == "closure"
        got = chain_suprema(m, c, sites, shifts, EPS).values
        assert_same_floats(got, labels_first_per_cell(m, c, sites, shifts))
        want = closure_suprema(m, c, sites, shifts)
        assert max(abs(a - b) for a, b in zip(got, want)) <= route_bound(
            gg, shifts)
        assert is_cyclically_monotone(m, c, EPS)
        assert seeded_route(gg, EPS) == "potential"
        checked += 1
    assert checked >= 40


def test_repeated_site_keeps_its_largest_shift(rng, route):
    for m, c in mixed_mappings(rng, 60):
        if not is_cyclically_monotone(m, c, EPS):
            continue
        s = m.dom[0]
        want = chain_suprema(m, c, [s], [2.0], EPS).values
        for shifts in ([2.0, 1.0], [1.0, 2.0]):
            assert_same_floats(
                chain_suprema(m, c, [s, s], shifts, EPS).values, want)


@pytest.mark.parametrize("sites, shifts", [([], []), ([0], []),
                                           ([0, 0], [1.0]), ([], [1.0])])
def test_sites_without_one_shift_each_are_domain_errors(route, sites, shifts):
    x = GroundSet(("0", "1"))
    c = coupling_from_rows(x, x, [[0.0, 1.0], [2.0, 0.5]])
    m = MultiMapping(x, x, ((0, 0), (1, 1)))
    with pytest.raises(AbstractConvexError) as err:
        chain_suprema(m, c, sites, shifts, EPS)
    assert "shift" in str(err.value)


def sum_separable_instances(rng, count):
    """Mappings on c(x, y) = a_x + b_y, rounded: every cycle gains 0 up to
    rounding, some a few ulps over it, so the passes from zero labels
    never settle while the closure passes M."""
    out = []
    while len(out) < count:
        n = rng.randint(3, 8)
        c = separable_coupling(rng, n)
        pairs = {(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)}
        m = MultiMapping(c.domain, c.domain, tuple(pairs))
        gg = build_gain_graph(m, c)
        if _passes([gg.columns[v] for v in gg.nodes],
                   [0.0] * len(gg.nodes)) is None:
            out.append((m, c))
    return out


def assert_closure_read(m, c, rng):
    """Each call on the table route reads the closure table bit for bit:
    rockafellar as the per-site closure route, chain_suprema as the
    labels-first reading per cell; on either route within the stated bound
    of the per-site reading.  Returns the routes the calls took."""
    gg = build_gain_graph(m, c)
    routes = []
    for s, r in zip(m.dom, anchored_antiderivatives(m, c, m.dom, EPS)):
        got = rockafellar(m, c, s, EPS).values
        routes.append(seeded_route(gg, EPS, site_seed(gg, [s], [-0.0])))
        if routes[-1] == "closure":
            assert_same_floats(got, r.values)
        assert max(abs(a - b) for a, b in zip(got, r.values)) <= route_bound(
            gg, [0.0])
    shifts = [rng.choice((-0.0, 0.0, rng.uniform(-1.0, 1.0))) for _ in m.dom]
    got = chain_suprema(m, c, m.dom, shifts, EPS).values
    routes.append(seeded_route(gg, EPS, site_seed(gg, m.dom, shifts)))
    if routes[-1] == "closure":
        assert_same_floats(got, labels_first_per_cell(m, c, m.dom, shifts))
    want = closure_suprema(m, c, m.dom, shifts)
    assert max(abs(a - b) for a, b in zip(got, want)) <= route_bound(gg, shifts)
    return routes


def test_unsettled_passes_fall_back_to_the_closure_table(rng):
    # the zero seed never settles; seeds at one or all sites may, as on
    # sum-separable c R_s(s) can read 0.0 where the closure reads an ulp
    routes = Counter()
    for m, c in sum_separable_instances(rng, 30):
        gg = build_gain_graph(m, c)
        assert seeded_route(gg, EPS) == "closure"
        assert is_cyclically_monotone(m, c, EPS)
        routes.update(assert_closure_read(m, c, rng))
    assert set(routes) == {"potential", "closure"}


def test_unsettled_seeded_passes_fall_back_to_the_closure_table(rng,
                                                                monkeypatch):
    # the passes are made never to settle; the ties and signed zeros tell
    # which of two equal labels the relaxation step keeps
    monkeypatch.setattr(monotone, "_passes", lambda cols, labels: None)
    draws = mixed_mappings(rng, 60)
    for trial in range(60):
        n = rng.randint(1, 6)
        c = kernel_coupling(rng, n, n, ties=TIE_KINDS[1 + trial % 2])
        draws.append((random_cyclically_monotone_mapping(rng, c, 6), c))
    checked = 0
    for m, c in draws:
        if is_cyclically_monotone(m, c, EPS):
            assert set(assert_closure_read(m, c, rng)) == {"closure"}
            checked += 1
    assert checked >= 60


def test_site_fold_keeps_the_first_of_equal_labels(rng, monkeypatch):
    # on signed zeros, two sites can tie at a node as 0.0 and -0.0, and a
    # gain of -0.0 out of it tells which one the relaxation step kept
    monkeypatch.setattr(monotone, "_passes", lambda cols, labels: None)
    for _ in range(600):
        n = rng.randint(1, 5)
        c = kernel_coupling(rng, n, n, ties=TIE_KINDS[2])
        m = random_cyclically_monotone_mapping(rng, c, 6)
        shifts = [rng.choice((-0.0, 0.0)) for _ in m.dom]
        assert_same_floats(chain_suprema(m, c, m.dom, shifts, EPS).values,
                           labels_first_per_cell(m, c, m.dom, shifts))
