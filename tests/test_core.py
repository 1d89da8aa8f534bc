import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from abconvex import (
    INF,
    AbstractConvexError,
    ExtFunction,
    GroundSet,
    IndexMismatchError,
    IndexSubset,
    MultiMapping,
    UndefinedSumError,
    convex_combination,
    coupling_from_rows,
    ext_add,
    indicator,
    pointwise_le,
    restrict_sum,
    sup_distance,
)

from conftest import assert_same_floats, grid_labels
from references import pointwise_le_per_pair, sup_distance_loop


def test_ground_set_rejects_duplicates():
    with pytest.raises(AbstractConvexError):
        GroundSet(("a", "a"))


def test_coupling_rejects_infinite_entries():
    x = GroundSet(("u",))
    with pytest.raises(AbstractConvexError):
        coupling_from_rows(x, x, [[INF]])


def test_coupling_finiteness_matches_per_entry_scan():
    # the row sum screens each row; inf, -inf and nan poison it, and an
    # all-finite row whose sum overflows falls back to the per-entry scan
    big, nan = 1.7e308, float("nan")
    x, y = GroundSet(("u",)), GroundSet(("a", "b", "c"))
    rows = ([1.0, INF, 2.0], [-INF, 0.0, 0.0], [nan, 1.0, 1.0],
            [INF, -INF, 0.0], [big, big, 0.0], [-big, -big, -big],
            [big, -big, big], [0.0, -0.0, 5e-324])
    for row in rows:
        finite = all(math.isfinite(v) for v in row)
        if finite:
            assert coupling_from_rows(x, y, [row]).values == (tuple(row),)
        else:
            with pytest.raises(AbstractConvexError):
                coupling_from_rows(x, y, [row])
    assert [all(map(math.isfinite, row)) for row in rows] == [False] * 4 + [True] * 4


def test_ext_add_rejects_opposite_infinities():
    with pytest.raises(UndefinedSumError):
        ext_add(INF, -INF)
    assert ext_add(INF, 5.0) == INF
    assert ext_add(-INF, -INF) == -INF


def test_properness():
    x = grid_labels()
    assert ExtFunction(x, (1.0, 2.0, INF, 0.0, -3.0)).proper
    assert not ExtFunction(x, (INF,) * 5).proper
    assert not ExtFunction(x, (1.0, -INF, 0.0, 0.0, 0.0)).proper


def test_indicator_full_set_is_zero():
    x = grid_labels()
    s = IndexSubset(x, tuple(range(5)))
    assert indicator(s).values == (0.0,) * 5


def test_indicator_singleton():
    x = grid_labels()
    assert indicator(IndexSubset(x, (2,))).values == (INF, INF, 0.0, INF, INF)


def test_indicator_example_subset():
    x = grid_labels()
    assert indicator(IndexSubset(x, (2, 3, 4))).values == (INF, INF, 0.0, 0.0, 0.0)


def test_restrict_sum_examples():
    x = grid_labels()
    s = IndexSubset(x, (2, 3, 4))
    zero = ExtFunction(x, (0.0,) * 5)
    assert restrict_sum(zero, IndexSubset(x, tuple(range(5)))).values == (0.0,) * 5
    ident = ExtFunction(x, (-2.0, -1.0, 0.0, 1.0, 2.0))
    assert restrict_sum(ident, s).values == (INF, INF, 0.0, 1.0, 2.0)
    spiked = ExtFunction(x, (0.0, 0.0, INF, 1.0, 2.0))
    assert restrict_sum(spiked, s).values == (INF, INF, INF, 1.0, 2.0)


def test_restrict_sum_index_mismatch():
    x = grid_labels()
    other = GroundSet(("a", "b"))
    f = ExtFunction(other, (0.0, 0.0))
    with pytest.raises(IndexMismatchError):
        restrict_sum(f, IndexSubset(x, (0,)))


def test_convex_combination_fixture_example(two_point):
    mix = convex_combination(two_point.f_id, two_point.f_abs, 0.5)
    assert mix.values == (0.0, 0.0, 0.0, 1.0, 2.0)


def test_convex_combination_idempotent(two_point):
    assert convex_combination(two_point.f_id, two_point.f_id, 0.3).values == \
        two_point.f_id.values


def test_convex_combination_absorbs_infinity():
    x = grid_labels()
    g = ExtFunction(x, (1.0,) * 5)
    h = ExtFunction(x, (1.0, INF, 1.0, 1.0, 1.0))
    assert convex_combination(g, h, 0.5).values[1] == INF


@pytest.mark.parametrize("lam", [0.0, 1.0, -0.2, 1.5])
def test_convex_combination_rejects_boundary_lambda(two_point, lam):
    with pytest.raises(AbstractConvexError):
        convex_combination(two_point.f_id, two_point.f_abs, lam)


def test_inverse_is_involution(two_point):
    m = two_point.m
    assert m.inverse().inverse().graph == m.graph


def test_inverse_swaps_domain_and_image(two_point):
    m = two_point.m
    assert m.inverse().dom == m.image
    assert m.inverse().image == m.dom


@given(pairs=st.sets(st.tuples(st.integers(0, 4), st.integers(0, 1)), min_size=1))
def test_inverse_involution_random(pairs):
    x = grid_labels()
    y = GroundSet(("a", "b"))
    m = MultiMapping(x, y, tuple(pairs))
    assert m.inverse().inverse().graph == m.graph
    assert m.inverse().dom == m.image


def test_subset_rejects_empty():
    with pytest.raises(AbstractConvexError):
        IndexSubset(grid_labels(), ())


def test_mapping_rejects_out_of_range():
    x = grid_labels()
    y = GroundSet(("a",))
    with pytest.raises(AbstractConvexError):
        MultiMapping(x, y, ((0, 3),))


def test_coupling_columns_transpose_values(rng):
    from abconvex import random_coupling
    c = random_coupling(rng, 3, 4)
    assert len(c.columns) == 4
    assert all(c.columns[y][x] == c(x, y) for x in range(3) for y in range(4))
    assert c.columns is c.columns  # computed once
    t = c.transpose()
    assert t.values == c.columns and t.transpose() == c


def test_ground_set_index_and_unknown_labels():
    x = GroundSet(("b", "a", "c"))
    assert [x.index(lab) for lab in ("a", "b", "c")] == [1, 0, 2]
    for bad in ("d", 1, ["a"]):  # a list label from JSON is unhashable
        with pytest.raises(AbstractConvexError, match=r"unknown label"):
            x.index(bad)
    assert x == GroundSet(("b", "a", "c")) and hash(x) == hash(GroundSet(x.labels))


def test_membership_of_subsets_and_mappings():
    x = GroundSet(("0", "1", "2"))
    s = IndexSubset(x, (2, 0))
    assert [i in s for i in range(3)] == [True, False, True]
    m = MultiMapping(x, x, ((1, 2), (0, 0), (1, 2)))
    assert (1, 2) in m and (0, 0) in m and (2, 1) not in m
    assert (2, 1) in m.with_pair(2, 1) and (2, 1) not in m


def test_sup_distance_kernel_matches_the_loop():
    # all-finite sides take one kernel, any infinity the loop; the pools
    # hold +-inf, signed zeros, equal values and sums that overflow
    rng = random.Random(0)
    big = 1.5e308
    pools = ((-0.0, 0.0, 1.0, -1.0), (-0.0, 0.0, 2.0, INF, -INF),
             (big, -big, 0.0, 1.0), (1.0, 2.0, INF))
    finite = 0
    for trial in range(600):
        n = rng.randint(1, 6)
        x = GroundSet(tuple(f"p{i}" for i in range(n)))
        pool = pools[trial % len(pools)]

        def draw():
            return rng.choice(pool) if rng.random() < 0.8 else rng.uniform(-5, 5)

        a = [draw() for _ in range(n)]
        b = [v if rng.random() < 0.3 else draw() for v in a]
        f, g = ExtFunction(x, tuple(a)), ExtFunction(x, tuple(b))
        assert_same_floats([sup_distance(f, g)], [sup_distance_loop(f, g)])
        finite += all(map(math.isfinite, a + b))
    assert finite >= 200


def test_pointwise_le_matches_the_per_pair_rule():
    # +-inf on either side against finite values, equal values, signed
    # zeros and the values one float either side of g + eps
    rng = random.Random(0)
    seen = set()
    for trial in range(600):
        n = rng.randint(1, 5)
        x = GroundSet(tuple(f"p{i}" for i in range(n)))
        eps = rng.choice((0.0, -0.0, 1e-9, -1e-9, 1.0))
        b = [rng.choice((INF, -INF, 0.0, -0.0, 1.0, rng.uniform(-5, 5)))
             for _ in range(n)]
        a = [rng.choice((INF, -INF, v, v + eps, math.nextafter(v + eps, INF),
                         math.nextafter(v + eps, -INF)))
             for v in b]
        f, g = ExtFunction(x, tuple(a)), ExtFunction(x, tuple(b))
        want = pointwise_le_per_pair(f, g, eps)
        assert pointwise_le(f, g, eps) == want
        seen.add((want, all(map(math.isfinite, a + b))))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}
