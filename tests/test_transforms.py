import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abconvex import (
    INF,
    Coupling,
    ExtFunction,
    GroundSet,
    ImproperFunctionError,
    IndexMismatchError,
    IndexSubset,
    MultiMapping,
    c_convexify,
    c_subdifferential,
    c_transform,
    c_transform_rev,
    convex_combination,
    coupling_from_rows,
    indicator,
    is_antiderivative,
    is_c_convex,
    pointwise_le,
    pointwise_max,
    sup_distance,
)

from conftest import assert_same_floats, grid_function
from references import (
    TIE_KINDS,
    c_subdifferential_per_cell,
    c_subdifferential_quantified,
    c_transform_per_cell,
    c_transform_rev_per_cell,
    kernel_coupling,
)

EPS = 1e-9

finite = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)


@st.composite
def instances(draw, max_side=5, inf_allowed=True):
    nx = draw(st.integers(1, max_side))
    ny = draw(st.integers(1, max_side))
    x = GroundSet(tuple(f"x{i}" for i in range(nx)))
    y = GroundSet(tuple(f"y{j}" for j in range(ny)))
    rows = draw(st.lists(st.lists(finite, min_size=ny, max_size=ny),
                         min_size=nx, max_size=nx))
    c = coupling_from_rows(x, y, rows)
    entry = st.one_of(finite, st.just(INF)) if inf_allowed else finite
    vals = draw(st.lists(entry, min_size=nx, max_size=nx))
    if all(v == INF for v in vals):
        vals[draw(st.integers(0, nx - 1))] = draw(finite)
    f = ExtFunction(x, tuple(vals))
    return c, f


def test_transform_of_singleton_indicator_is_coupling_column(two_point):
    # the transform of an indicator of {y0} on Y is c(., y0) on X
    g = indicator(IndexSubset(two_point.y, (0,)))
    back = c_transform_rev(g, two_point.c)
    assert back.values == tuple(two_point.points)


def test_transform_of_restricted_identity(two_point):
    f = ExtFunction(two_point.x, (INF, INF, 0.0, 1.0, 2.0))
    fc = c_transform(f, two_point.c)
    assert fc.values == (0.0, 0.0)


def test_transform_of_zero_is_column_max(two_point):
    zero = ExtFunction(two_point.x, (0.0,) * 5)
    fc = c_transform(zero, two_point.c)
    assert fc.values == (2.0, 2.0)


def test_transform_of_all_infinite_is_all_negative_infinite(two_point):
    f = ExtFunction(two_point.x, (INF,) * 5)
    assert c_transform(f, two_point.c).values == (-INF, -INF)


def test_transform_hits_plus_infinity_only_from_minus_infinity(two_point):
    f = ExtFunction(two_point.x, (-INF, 0.0, 0.0, 0.0, 0.0))
    assert c_transform(f, two_point.c).values == (INF, INF)


def test_convexify_fixed_point_for_c_convex(two_point):
    fcc = c_convexify(two_point.f_id, two_point.c)
    assert sup_distance(fcc, two_point.f_id) <= EPS


def test_convexify_of_mix_is_shifted_absolute_value(two_point):
    mix = convex_combination(two_point.f_id, two_point.f_abs, 0.5)
    fcc = c_convexify(mix, two_point.c)
    # the largest c-convex minorant of the mix is |x + 1| - 1
    expect = grid_function("abs", -1.0, 1.0)
    assert sup_distance(fcc, expect) <= EPS
    assert is_c_convex(fcc, two_point.c)
    assert pointwise_le(fcc, mix, EPS)


def test_convexify_of_singleton_indicator(two_point):
    f = indicator(IndexSubset(two_point.x, (4,)))
    fcc = c_convexify(f, two_point.c)
    # two applications of the definition: the transform of c(x0, .)
    expect = c_transform_rev(c_transform(f, two_point.c), two_point.c)
    assert fcc.values == expect.values


def test_convexify_rejects_improper(two_point):
    f = ExtFunction(two_point.x, (INF,) * 5)
    with pytest.raises(ImproperFunctionError):
        c_convexify(f, two_point.c)


@pytest.mark.parametrize("kind,params", [
    ("pos", (0.7,)), ("neg", (-1.3,)), ("abs", (0.5, 2.0)), ("abs", (-1.5, 0.0)),
])
def test_closed_forms_are_c_convex(two_point, kind, params):
    assert is_c_convex(grid_function(kind, *params), two_point.c)


def test_mix_fails_c_convexity(two_point):
    mix = convex_combination(two_point.f_id, two_point.f_abs, 0.5)
    assert not is_c_convex(mix, two_point.c)


def test_transforms_of_proper_functions_are_c_convex(two_point):
    # the transform of any proper f on X is itself a double-transform fixed
    # point on Y, so the codomain side has its own c-convex functions
    for vals in [(0.0,) * 5, (3.0, -1.0, 0.0, 2.0, -2.0), (INF, INF, 1.0, 1.0, 5.0)]:
        g = c_transform(ExtFunction(two_point.x, vals), two_point.c)
        gcc = c_transform(c_transform_rev(g, two_point.c), two_point.c)
        assert sup_distance(g, gcc) <= EPS
    # a function with a +inf value cannot be c-convex here
    spiked = ExtFunction(two_point.y, (INF, 2.0))
    gcc = c_transform(c_transform_rev(spiked, two_point.c), two_point.c)
    assert math.isfinite(gcc(0))


def test_subdifferential_of_coupling_column_is_total(two_point):
    f = ExtFunction(two_point.x, tuple(two_point.points))  # c(., a)
    sub = c_subdifferential(f, two_point.c)
    assert all((x, 0) in sub for x in range(5))


def test_subdifferential_of_absolute_value(two_point):
    sub = c_subdifferential(two_point.f_abs, two_point.c)
    got = set(sub.graph)
    assert {(3, 0), (4, 0), (1, 1), (0, 1), (2, 0), (2, 1)} == got


def test_no_subgradient_above_convexification(two_point):
    mix = convex_combination(two_point.f_id, two_point.f_abs, 0.5)
    sub = c_subdifferential(mix, two_point.c)
    fcc = c_convexify(mix, two_point.c)
    for x in range(5):
        if mix(x) > fcc(x) + EPS:
            assert not [y for u, y in sub.graph if u == x]


def test_antiderivative_of_own_subdifferential(two_point):
    sub = c_subdifferential(two_point.f_id, two_point.c)
    assert is_antiderivative(two_point.f_id, sub.mapping, two_point.c)


def test_fixture_antiderivatives(two_point):
    assert is_antiderivative(two_point.f_id, two_point.m, two_point.c)
    assert is_antiderivative(two_point.f_abs, two_point.m, two_point.c)
    neg = ExtFunction(two_point.x, tuple(-v for v in two_point.points))
    assert not is_antiderivative(neg, two_point.m, two_point.c)


@settings(max_examples=150, deadline=None)
@given(data=instances())
def test_triple_transform_collapse(data):
    c, f = data
    fc = c_transform(f, c)
    fccc = c_transform(c_transform_rev(fc, c), c)
    assert sup_distance(fccc, fc) <= 1e-9


@settings(max_examples=100, deadline=None)
@given(data=instances(inf_allowed=False), shift=st.floats(0.0, 5.0))
def test_transform_reverses_order(data, shift):
    c, f = data
    g = ExtFunction(f.index, tuple(v + shift for v in f.values))
    assert pointwise_le(c_transform(g, c), c_transform(f, c), 1e-9)


@settings(max_examples=100, deadline=None)
@given(data=instances())
def test_convexification_minorizes(data):
    c, f = data
    assert pointwise_le(c_convexify(f, c), f, 1e-9)


@settings(max_examples=100, deadline=None)
@given(data=instances())
def test_young_fenchel_inequality(data):
    c, f = data
    fc = c_transform(f, c)
    for x in range(c.domain.size):
        for y in range(c.codomain.size):
            if math.isfinite(f(x)) and math.isfinite(fc(y)):
                assert c(x, y) <= f(x) + fc(y) + 1e-9
            # +inf on either side dominates any finite coupling value


@settings(max_examples=100, deadline=None)
@given(data=instances())
def test_sup_and_quantified_subdifferential_forms_agree(data):
    c, f = data
    # the two forms coincide exactly in real arithmetic; allow a rounding
    # margin far below eps so ties at the boundary cannot flip either way
    slack = 1e-9 * 1e-3
    fast = set(c_subdifferential(f, c, eps=1e-9).graph)
    slow = set(c_subdifferential_quantified(f, c, eps=1e-9).graph)
    fast_wide = set(c_subdifferential(f, c, eps=1e-9 + slack).graph)
    slow_wide = set(c_subdifferential_quantified(f, c, eps=1e-9 + slack).graph)
    assert fast <= slow_wide
    assert slow <= fast_wide


@settings(max_examples=75, deadline=None)
@given(data=instances(), bump=st.floats(0.0, 3.0))
def test_subdifferential_monotone_inclusion(data, bump):
    c, f = data
    g_vals = list(f.values)
    # raise g somewhere while keeping equality at every other point
    touched = set()
    for i in range(len(g_vals)):
        if i % 2 == 1 and math.isfinite(g_vals[i]):
            g_vals[i] += bump
            touched.add(i)
    g = ExtFunction(f.index, tuple(g_vals))
    sub_f = set(c_subdifferential(f, c).graph)
    sub_g = set(c_subdifferential(g, c).graph)
    for x, y in sub_f:
        if x not in touched:
            assert (x, y) in sub_g


def test_inverse_rule_for_c_convex(two_point):
    f = two_point.f_abs
    assert is_c_convex(f, two_point.c)
    fc = c_transform(f, two_point.c)
    sub_fc = c_subdifferential_rev_graph(fc, two_point.c)
    sub_f = set(c_subdifferential(f, two_point.c).graph)
    assert sub_fc == {(y, x) for x, y in sub_f}


def c_subdifferential_rev_graph(g, c):
    """Subdifferential of a function on the codomain, as a set of (y, x)."""
    gc = c_transform_rev(g, c)
    out = set()
    for y in range(c.codomain.size):
        if not math.isfinite(g(y)):
            continue
        for x in range(c.domain.size):
            if math.isfinite(gc(x)) and abs(g(y) + gc(x) - c(x, y)) <= EPS:
                out.add((y, x))
    return out


@settings(max_examples=75, deadline=None)
@given(data=instances())
def test_inverse_rule_inclusion_for_general_proper(data):
    c, f = data
    fc = c_transform(f, c)
    if not fc.proper:
        return
    sub_f = set(c_subdifferential(f, c).graph)
    sub_fc = c_subdifferential_rev_graph(fc, c)
    assert {(y, x) for x, y in sub_f} <= sub_fc


def test_upper_envelope_of_c_convex_is_c_convex(two_point):
    parts = [grid_function("pos", 1.0), grid_function("neg", 0.5),
             grid_function("abs", 0.5, 1.0)]
    env = pointwise_max(parts)
    assert is_c_convex(env, two_point.c)


def test_upper_envelope_of_antiderivatives(two_point):
    env = pointwise_max([two_point.f_id, two_point.f_abs])
    assert is_antiderivative(env, two_point.m, two_point.c)


@pytest.mark.parametrize("shift", [-3.0, 0.25, 7.0])
def test_constant_shift_preserves_predicates(two_point, shift):
    f = two_point.f_id
    shifted = f.shifted(shift)
    assert is_c_convex(shifted, two_point.c) == is_c_convex(f, two_point.c)
    assert is_antiderivative(shifted, two_point.m, two_point.c) == \
        is_antiderivative(f, two_point.m, two_point.c)


def test_convex_combination_stays_antiderivative_but_not_convex(two_point):
    mix = convex_combination(two_point.f_id, two_point.f_abs, 0.5)
    assert is_antiderivative(mix, two_point.m, two_point.c)
    assert not is_c_convex(mix, two_point.c)


# ---------------------------------------------------------------- row kernels
# The per-cell reference forms live in ``references.py``.  The row kernels
# must match them bit for bit: == and also float.hex, which tells -0.0
# from 0.0.

def _kernel_draw(rng, nx, ny, kind):
    """A coupling and a function on each side.  ``kind`` picks the entries:
    0 uniform reals, 1 small integers and signed zeros (ties everywhere),
    2 a single -inf entry, 3 all +inf."""
    ties = TIE_KINDS[1] if kind == 1 else ()

    def function(size):
        vals = [INF if rng.random() < 0.3 else
                rng.choice(ties) if ties else rng.uniform(-10.0, 10.0)
                for _ in range(size)]
        if kind == 2:
            vals[rng.randrange(size)] = -INF
        elif kind == 3:
            vals = [INF] * size
        return vals

    c = kernel_coupling(rng, nx, ny, ties)
    return (c, ExtFunction(c.domain, tuple(function(nx))),
            ExtFunction(c.codomain, tuple(function(ny))))


def test_transform_kernels_match_per_cell_form(rng):
    for trial in range(400):
        nx, ny = rng.randint(1, 7), rng.randint(1, 7)
        c, f, g = _kernel_draw(rng, nx, ny, trial % 4)
        assert_same_floats(c_transform(f, c).values, c_transform_per_cell(f, c))
        assert_same_floats(c_transform_rev(g, c).values,
                           c_transform_rev_per_cell(g, c))


def test_transform_kernels_on_one_point_sets():
    one = GroundSet(("p",))
    many = GroundSet(("a", "b", "c"))
    c = Coupling(one, many, ((1.5, -0.0, 2.0),))
    for vals in ((0.5,), (INF,), (-INF,), (0.0,)):
        f = ExtFunction(one, vals)
        assert_same_floats(c_transform(f, c).values, c_transform_per_cell(f, c))
    for vals in ((INF, 1.0, INF), (INF,) * 3, (0.0, -INF, 1.0)):
        g = ExtFunction(many, vals)
        assert_same_floats(c_transform_rev(g, c).values,
                           c_transform_rev_per_cell(g, c))


def test_subdifferential_matches_per_cell_form(rng):
    for trial in range(300):
        nx, ny = rng.randint(1, 7), rng.randint(1, 7)
        c, f, _ = _kernel_draw(rng, nx, ny, trial % 2)
        if not f.proper:
            continue
        for eps in (0.0, EPS, 0.5):
            assert c_subdifferential(f, c, eps).graph == \
                c_subdifferential_per_cell(f, c, eps)


def test_transform_kernels_on_functions_without_plus_infinity(rng):
    # no entry to mask: the kernel subtracts the whole line at once
    for trial in range(200):
        nx, ny = rng.randint(1, 7), rng.randint(1, 7)
        ties = TIE_KINDS[trial % 3]
        c = kernel_coupling(rng, nx, ny, ties)
        def real():
            return rng.choice(ties) if ties else rng.uniform(-10.0, 10.0)

        f = ExtFunction(c.domain, tuple(real() for _ in range(nx)))
        g = ExtFunction(c.codomain, tuple(real() for _ in range(ny)))
        assert_same_floats(c_transform(f, c).values, c_transform_per_cell(f, c))
        assert_same_floats(c_transform_rev(g, c).values,
                           c_transform_rev_per_cell(g, c))


def is_antiderivative_via_subdifferential(f, m, c, eps):
    """The whole subdifferential graph, then G(M) inside it: the reference
    for ``is_antiderivative``'s test on the pairs of G(M) alone."""
    f.require_proper("antiderivative candidate")
    m.require_proper()
    sub = c_subdifferential(f, c, eps)
    return all(pair in sub for pair in m.graph)


def test_antiderivative_pair_test_matches_subdifferential_form(rng):
    verdicts = set()
    for trial in range(400):
        nx, ny = rng.randint(1, 6), rng.randint(1, 6)
        c, f, _ = _kernel_draw(rng, nx, ny, trial % 2)
        if not f.proper:
            continue
        fc = c_transform(f, c)
        sub = c_subdifferential(f, c, EPS).graph
        # G(M) from the subdifferential, with a stray pair half of the time
        pairs = set(rng.sample(sub, rng.randint(0, len(sub))))
        if rng.random() < 0.5 or not pairs:
            pairs.add((rng.randrange(nx), rng.randrange(ny)))
        m = MultiMapping(c.domain, c.codomain, tuple(pairs))
        # eps 0.0, EPS, and each pair's own margin and the float below it
        margins = [abs(f(x) + fc(y) - c(x, y)) for x, y in m.graph
                   if math.isfinite(f(x)) and math.isfinite(fc(y))]
        for eps in [0.0, EPS] + [e for g in margins[:2]
                                 for e in (g, math.nextafter(g, -INF))]:
            got = is_antiderivative(f, m, c, eps)
            assert got == is_antiderivative_via_subdifferential(f, m, c, eps)
            verdicts.add(got)
    assert verdicts == {True, False}


def test_antiderivative_of_a_mapping_past_the_coupling_range():
    # M runs from the 3-point codomain to the 2-point domain; (0, 0) lies in
    # the subdifferential of f, (2, 1) past the coupling's rows
    x, y = GroundSet(("a", "b")), GroundSet(("p", "q", "r"))
    c = Coupling(x, y, ((0.0, 1.0, 2.0), (1.0, 0.0, 3.0)))
    f = ExtFunction(x, (0.0, 1.0))
    for pairs, want in ((((0, 0),), True), (((0, 0), (2, 1)), False)):
        m = MultiMapping(y, x, pairs)
        assert is_antiderivative(f, m, c) is want
        assert is_antiderivative_via_subdifferential(f, m, c, EPS) is want


def _verdict(test, f, m, c, eps):
    try:
        return test(f, m, c, eps)
    except ImproperFunctionError:
        return "improper"


def test_antiderivative_matches_subdifferential_with_infs_and_stray_pairs(rng):
    # G(M) inside the subdifferential's graph, a separate scan after the
    # same transform: ties and signed zeros, +-inf entries, one-point
    # images, eps at a pair's own margin and the float below it, pairs past
    # the coupling's range
    verdicts = set()
    for trial in range(600):
        nx, ny = rng.randint(1, 6), rng.randint(1, 6)
        ties = TIE_KINDS[trial % 3]
        c = kernel_coupling(rng, nx, ny, ties)
        vals = [INF if rng.random() < 0.3 else
                rng.choice(ties) if ties else rng.uniform(-10.0, 10.0)
                for _ in range(nx)]
        if all(v == INF for v in vals):
            vals[rng.randrange(nx)] = 0.0
        fin = ExtFunction(c.domain, tuple(vals))
        if rng.random() < 0.1:
            vals[rng.randrange(nx)] = -INF
        f = ExtFunction(c.domain, tuple(vals))
        sub = c_subdifferential(fin, c, EPS).graph
        pairs = set(rng.sample(sub, rng.randint(1, len(sub))))
        if rng.random() < 0.5:
            pairs.add((rng.randrange(nx), rng.randrange(ny)))
        if rng.random() < 0.3:  # a one-point image
            y = rng.choice([y for _, y in pairs])
            pairs = {(x, y) for x, _ in pairs}
        source, target = c.domain, c.codomain
        if rng.random() < 0.2:  # M on larger ground sets, past the range
            source = GroundSet(tuple(f"s{i}" for i in range(nx + 2)))
            target = GroundSet(tuple(f"t{j}" for j in range(ny + 2)))
            pairs.add((rng.randrange(nx + 2), ny + rng.randrange(2)))
        m = MultiMapping(source, target, tuple(pairs))
        fc = c_transform(fin, c)
        margins = [abs(f(x) + fc(y) - c(x, y)) for x, y in m.graph
                   if x < nx and y < ny
                   and math.isfinite(f(x)) and math.isfinite(fc(y))]
        for eps in [0.0, EPS] + [e for g in margins[:2]
                                 for e in (g, math.nextafter(g, -INF))]:
            got = _verdict(is_antiderivative, f, m, c, eps)
            assert got == _verdict(is_antiderivative_via_subdifferential,
                                   f, m, c, eps)
            verdicts.add(got)
    assert verdicts == {True, False, "improper"}


def test_antiderivative_keeps_index_mismatch_error(two_point):
    f = ExtFunction(two_point.y, (0.0, 1.0))
    with pytest.raises(IndexMismatchError):
        is_antiderivative(f, two_point.m, two_point.c)
