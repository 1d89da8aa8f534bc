import math

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
    restrict_sum,
)

from conftest import grid_labels


def test_ground_set_rejects_duplicates():
    with pytest.raises(AbstractConvexError):
        GroundSet(("a", "a"))


def test_coupling_rejects_infinite_entries():
    x = GroundSet(("u",))
    with pytest.raises(AbstractConvexError):
        coupling_from_rows(x, x, [[INF]])


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
