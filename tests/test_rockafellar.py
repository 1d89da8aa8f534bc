import importlib
import math

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
    rockafellar_oracle,
    sup_distance,
)
from abconvex.monotone import (
    _chain_gain,
    _cyclic_verdict,
    _cyclic_walks,
    _passes,
    build_gain_graph,
)
from abconvex.rockafellar import chain_suprema
from conftest import (
    assert_same_floats,
    mixed_mappings,
    one_point_couplings,
    two_cycle_instance,
)
from references import (
    TIE_KINDS,
    anchored_antiderivatives,
    anchored_per_cell,
    band_instance,
    kernel_coupling,
    route_bound,
    separable_coupling,
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
        anchored_antiderivatives(m, c, [0])
    with pytest.raises(AbstractConvexError) as err:
        anchored_antiderivatives(m, c, [0, 2])
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
    # the table of best walks is the verdict's own k rounds, not a rerun
    # the package's ``rockafellar`` attribute is the function, not the module
    mono = importlib.import_module("abconvex.monotone")
    rock = importlib.import_module("abconvex.rockafellar")
    instances = [band_instance(rng) for _ in range(20)]
    real, drawn = mono._walk_rounds, []

    def counting(a):
        for one in real(a):
            drawn.append(1)
            yield one

    monkeypatch.setattr(mono, "_walk_rounds", counting)
    monkeypatch.setattr(rock, "_walk_rounds", counting, raising=False)
    for m, c in instances:
        drawn.clear()
        anchored_antiderivatives(m, c, m.dom, EPS)
        assert len(drawn) == len(m.dom)


# ---------------------------------------------------------------- row kernel
# ``anchored_per_cell`` (in ``references.py``) reads R_s per cell from the
# verdict's table of best walks.  The column kernel must match it bit for
# bit: the same adds, and the first of equal maxima.

def test_anchored_antiderivatives_match_per_cell_form(rng):
    draws = mixed_mappings(rng, 150, max_pairs=6)
    for trial in range(150):
        nx = rng.randint(1, 6)
        c = kernel_coupling(rng, nx, rng.randint(1, 6), ties=TIE_KINDS[trial % 3])
        draws.append((random_cyclically_monotone_mapping(rng, c, 6), c))
    draws += [band_instance(rng) for _ in range(20)]
    checked = 0
    for m, c in draws:
        if not is_cyclically_monotone(m, c, EPS):
            continue
        got = anchored_antiderivatives(m, c, m.dom, EPS)
        for r, want in zip(got, anchored_per_cell(m, c, m.dom, EPS)):
            assert_same_floats(r.values, want)
        checked += 1
    assert checked >= 200


def test_anchored_antiderivatives_on_one_point_sets():
    for c in one_point_couplings():
        m = MultiMapping(c.domain, c.codomain, ((0, 0),))
        (r,) = anchored_antiderivatives(m, c, [0], EPS)
        assert_same_floats(r.values, anchored_per_cell(m, c, [0], EPS)[0])


# ----------------------------------------------------------- potential route
# chain_suprema reads max_s [shift(s) + R_s] from seeded label-correcting
# passes when the potential decided the verdict, and from the closure
# table otherwise.  The closure route (anchored_antiderivatives, or the
# per-cell reader ``anchored_per_cell``) is its oracle.

def closure_suprema(m, c, sites, shifts):
    """max over the sites, in order, of shift(s) + R_s on the closure
    table, read per cell."""
    rows = anchored_per_cell(m, c, sites, EPS)
    return tuple(max(row[x] + f for row, f in zip(rows, shifts))
                 for x in range(c.domain.size))


def test_chain_suprema_lie_within_the_stated_bound_of_the_closure_route(rng):
    draws = mixed_mappings(rng, 150)
    for trial in range(90):
        n = rng.randint(1, 7)
        c = kernel_coupling(rng, n, n, ties=TIE_KINDS[trial % 3])
        draws.append((random_cyclically_monotone_mapping(rng, c), c))
    potential = 0
    for m, c in draws:
        gg = build_gain_graph(m, c)
        verdict, walks = _cyclic_verdict(gg, EPS)
        if not verdict:
            with pytest.raises(NotCyclicallyMonotoneError) as err:
                chain_suprema(m, c, m.dom, [0.0] * len(m.dom), EPS)
            assert err.value.witness == verdict.witness
            continue
        potential += walks is None
        sites = [s for s in m.dom if rng.random() < 0.5] or [m.dom[0]]
        shifts = [rng.uniform(-10.0, 10.0) for _ in sites]
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
    """rockafellar and chain_suprema equal the closure route bit for bit."""
    for s, r in zip(m.dom, anchored_antiderivatives(m, c, m.dom, EPS)):
        assert_same_floats(rockafellar(m, c, s, EPS).values, r.values)
    shifts = [rng.choice((-0.0, 0.0, rng.uniform(-1.0, 1.0))) for _ in m.dom]
    assert_same_floats(chain_suprema(m, c, m.dom, shifts, EPS).values,
                       closure_suprema(m, c, m.dom, shifts))


def test_unsettled_passes_fall_back_to_the_closure_table(rng):
    for m, c in sum_separable_instances(rng, 30):
        gg = build_gain_graph(m, c)
        verdict, walks = _cyclic_verdict(gg, EPS)
        assert verdict and walks == _cyclic_walks(gg, EPS)[1]
        assert_closure_read(m, c, rng)


def test_unsettled_seeded_passes_fall_back_to_the_closure_table(rng,
                                                                monkeypatch):
    # the verdict's passes settle, the seeded ones are made not to
    rock = importlib.import_module("abconvex.rockafellar")
    monkeypatch.setattr(rock, "_passes", lambda cols, labels: None)
    checked = 0
    for m, c in mixed_mappings(rng, 60):
        gg = build_gain_graph(m, c)
        verdict, walks = _cyclic_verdict(gg, EPS)
        if verdict and walks is None:
            assert_closure_read(m, c, rng)
            checked += 1
    assert checked >= 20
