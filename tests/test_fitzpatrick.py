import importlib
import random

import pytest

from abconvex import (
    AbstractConvexError,
    ExtFunction,
    MultiMapping,
    alpha,
    as_coupling,
    c_subdifferential,
    delta_mapping,
    fitzpatrick,
    fitzpatrick_family_member,
    gamma,
    identity_fitzpatrick,
    identity_mapping,
    is_c_convex,
    is_n_monotone,
    lifted_problem,
    parse_instance,
    pointwise_le,
    product_coupling,
    random_coupling,
    random_cyclically_monotone_mapping,
    random_lipschitz_function,
    random_metric,
    sup_distance,
    verify_inequality_chain,
    verify_theorem6A,
    verify_theorem6B,
)
from abconvex.cli import main as cli_main
from abconvex.fitzpatrick import (
    MAX_LIFTED_ENTRIES,
    MAX_LIFTED_SIDE,
    THEOREM_6B_SAMPLES,
    _family_member,
    _Lifted,
    _sampled_members,
    coupling_as_function,
    full_diagonal,
    graph_anchor,
    swap_to_domain,
)
from conftest import assert_same_floats, one_point_couplings
from references import (
    TIE_KINDS,
    fitzpatrick_per_cell,
    grown_mapping,
    kernel_coupling,
    product_rows_per_cell,
    random_graph,
    verify_document,
)

EPS = 1e-9


def random_monotone_mapping(rng, c):
    return random_cyclically_monotone_mapping(rng, c, max_pairs=4)


def random_arbitrary_mapping(rng, c):
    return random_graph(rng, c, 4)


def test_product_coupling_structure(two_point):
    pc = product_coupling(two_point.c)
    assert pc.lifted.domain.size == 10
    assert pc.lifted.codomain.size == 10
    # C((x,y),(t,s)) = c(x,t) + c(s,y), spot-checked
    c = two_point.c
    for x, y in [(0, 0), (3, 1), (4, 0)]:
        for t, s in [(0, 0), (1, 2), (0, 4)]:
            got = pc.lifted(pc.xy_index(x, y), pc.ts_index(t, s))
            assert got == c(x, t) + c(s, y)
    assert pc.lifted.domain.labels[pc.xy_index(0, 1)] == "(-2,b)"
    assert pc.lifted.codomain.labels[pc.ts_index(1, 0)] == "(b,-2)"


def test_delta_mapping_graph(two_point):
    pc = product_coupling(two_point.c)
    delta = delta_mapping(two_point.m, pc)
    assert set(delta.graph) == {(pc.xy_index(x, y), pc.ts_index(y, x))
                                for x, y in two_point.m.graph}
    assert set(delta.graph) <= set(full_diagonal(pc))


def test_swap_reindexing_roundtrip(two_point):
    pc = product_coupling(two_point.c)
    g = ExtFunction(pc.lifted.codomain,
                    tuple(float(i) for i in range(10)))
    swapped = swap_to_domain(g, pc)
    for x, y in pc.xy_pairs:
        assert swapped(pc.xy_index(x, y)) == g(pc.ts_index(y, x))


def test_fitzpatrick_majorizes_coupling_and_touches_graph(two_point):
    # majorization of c needs a maximal monotone mapping; the full
    # subdifferential of |x| is one
    t = c_subdifferential(two_point.f_abs, two_point.c).mapping
    f = fitzpatrick(t, two_point.c)
    pc = product_coupling(two_point.c)
    base = coupling_as_function(pc)
    for i in range(10):
        assert f(i) >= base(i) - EPS
    for x, y in t.graph:
        assert abs(f(pc.xy_index(x, y)) - two_point.c(x, y)) <= EPS
    assert fitzpatrick_family_member(f, t, two_point.c)
    # the smaller mapping still pins F to c on its graph
    small_f = fitzpatrick(two_point.m, two_point.c)
    for x, y in two_point.m.graph:
        assert abs(small_f(pc.xy_index(x, y)) - two_point.c(x, y)) <= EPS


def test_fitzpatrick_equals_lifted_minimal_member(two_point):
    f = fitzpatrick(two_point.m, two_point.c)
    a = alpha(lifted_problem(two_point.m, two_point.c))
    assert sup_distance(f, a) <= EPS


def test_theorem_votes_agree_on_monotone_and_arbitrary(rng):
    for _ in range(40):
        c = random_coupling(rng, 3, 3)
        t = (random_monotone_mapping(rng, c) if rng.random() < 0.5
             else random_arbitrary_mapping(rng, c))
        rep = verify_theorem6A(t, c)
        assert rep.agree
        if not rep.t_monotone:
            # the doubling identity value at the witness is negative exactly
            # when the two-pair defining sum is positive
            assert rep.violation_identity_value is not None
            assert rep.violation_identity_value < 0.0


def test_maximality_votes_agree_small(rng):
    for _ in range(6):
        c = random_coupling(rng, 2, 2)
        t = (random_monotone_mapping(rng, c) if rng.random() < 0.5
             else random_arbitrary_mapping(rng, c))
        rep = verify_theorem6A(t, c, check_maximality=True)
        assert rep.agree
        assert rep.primed_agree


def test_minimal_member_equality_with_member_sampling(rng):
    for _ in range(15):
        c = random_coupling(rng, 3, 3)
        t = random_monotone_mapping(rng, c)
        rep = verify_theorem6B(t, c, seed=rng.randrange(10 ** 6))
        assert rep.equal
        assert not rep.family_inclusion_falsified
        if rep.maximality_checked:
            assert rep.sampled_members > 0


def test_theorem_b_rejects_non_monotone(rng):
    for _ in range(40):
        c = random_coupling(rng, 3, 3)
        t = random_arbitrary_mapping(rng, c)
        if is_n_monotone(t, c, 2):
            continue
        with pytest.raises(AbstractConvexError):
            verify_theorem6B(t, c)
        return
    pytest.fail("never drew a non-monotone mapping")


def test_identity_fitzpatrick_is_negative_distance(rng):
    for _ in range(10):
        d = random_metric(rng, rng.randint(2, 6))
        f = identity_fitzpatrick(d)
        pc = product_coupling(as_coupling(d))
        for x, y in pc.xy_pairs:
            assert abs(f(pc.xy_index(x, y)) + d(x, y)) <= EPS


def test_inequality_chain_for_identity(rng):
    # the identity is the subdifferential of the zero function under c = -d
    for _ in range(10):
        d = random_metric(rng, rng.randint(2, 5))
        zero = ExtFunction(d.points, (0.0,) * d.points.size)
        rep = verify_inequality_chain(identity_mapping(d), d,
                                      lipschitz_witness=zero)
        assert rep.holds
        assert rep.max_violation <= EPS


def test_inequality_chain_with_subdifferential_witness(rng):
    for _ in range(10):
        d = random_metric(rng, 5)
        g = random_lipschitz_function(rng, d)
        c = as_coupling(d)
        assert is_c_convex(g, c)
        t = c_subdifferential(g, c).mapping
        rep = verify_inequality_chain(t, d, lipschitz_witness=g)
        assert rep.holds


def test_inequality_chain_refuses_without_hypotheses(rng):
    d = random_metric(rng, 4)
    c = as_coupling(d)
    # a single identity pair is -d-monotone but not finitely maximal
    t = MultiMapping(c.domain, c.codomain, ((0, 0),))
    with pytest.raises(AbstractConvexError):
        verify_inequality_chain(t, d)


def test_lifted_side_guard():
    rng = random.Random(0)
    c = random_coupling(rng, 150, 150)  # 22500 cells a side
    t = MultiMapping(c.domain, c.codomain, ((0, 0),))
    with pytest.raises(AbstractConvexError):
        fitzpatrick(t, c)


def test_lifted_entry_guard_bounds_the_table_not_f():
    # 60 x 60: C would hold 3600^2 entries, F only 3600 values
    c = random_coupling(random.Random(0), 60, 60)
    with pytest.raises(AbstractConvexError, match="entry guard"):
        product_coupling(c)
    t = MultiMapping(c.domain, c.codomain, ((0, 0), (5, 7)))
    assert fitzpatrick(t, c).values == fitzpatrick_per_cell(t, c)
    side = int(MAX_LIFTED_ENTRIES ** 0.5)
    assert 3600 ** 2 > MAX_LIFTED_ENTRIES and side < MAX_LIFTED_SIDE


def test_anchor_restricts_coupling_to_graph(two_point):
    pc = product_coupling(two_point.c)
    anchor = graph_anchor(two_point.m, pc)
    present = set(two_point.m.graph)
    for x, y in pc.xy_pairs:
        v = anchor(pc.xy_index(x, y))
        if (x, y) in present:
            assert v == two_point.c(x, y)
        else:
            assert v == float("inf")


# ---------------------------------------------------------------- row kernels
# The row kernels must match the per-cell references for the lifted
# product and the Fitzpatrick function (``references.py``) bit for bit.

def test_lifted_kernels_match_per_cell_form(rng):
    for trial in range(200):
        nx, ny = rng.randint(1, 6), rng.randint(1, 6)
        c = kernel_coupling(rng, nx, ny, ties=TIE_KINDS[trial % 3])
        pc = product_coupling(c)
        want = product_rows_per_cell(c, pc)
        assert len(pc.lifted.values) == len(want)
        for got_row, want_row in zip(pc.lifted.values, want):
            assert_same_floats(got_row, want_row)
        t = random_graph(rng, c, 8)
        assert_same_floats(fitzpatrick(t, c).values, fitzpatrick_per_cell(t, c))


def test_lifted_kernels_on_one_point_sets():
    for c in one_point_couplings():
        pc = product_coupling(c)
        for got_row, want_row in zip(pc.lifted.values, product_rows_per_cell(c, pc)):
            assert_same_floats(got_row, want_row)
        for t in (MultiMapping(c.domain, c.codomain, ((0, 0),)),
                  MultiMapping(c.domain, c.codomain, tuple(
                      (x, y) for x in range(c.domain.size)
                      for y in range(c.codomain.size)))):
            assert_same_floats(fitzpatrick(t, c).values, fitzpatrick_per_cell(t, c))


# ---------------------------------------------------------- 6B's sampler
# Members are drawn on the conjugate side: the C-transform of a pointwise
# mix of gamma^C (the anchor's transform) and alpha^C.

def maximal_documents(rng, count):
    """(T, c) parsed from seeded ``verify`` documents, coupling documents
    and -d documents in turn, T grown until finitely maximal."""
    for i in range(count):
        metric = random_metric(rng, rng.randint(2, 6)) if i % 2 else None
        c = (as_coupling(metric) if metric else
             random_coupling(rng, rng.randint(1, 5), rng.randint(1, 5)))
        t = grown_mapping(rng, random_monotone_mapping(rng, c), c, EPS)
        doc = parse_instance(verify_document(t, c, metric))
        yield doc.mapping("T"), doc.coupling


def lifted_contexts(rng, count):
    """(context, alpha) for the maximal T whose Delta_T has an alpha."""
    for t, c in maximal_documents(rng, count):
        lifted = _Lifted(t, c, EPS)
        assert lifted.t_maximal
        if isinstance(lifted.delta_alpha, ExtFunction):
            yield lifted, lifted.delta_alpha


def test_sampled_members_lie_between_alpha_and_gamma(rng):
    drawn = 0
    for lifted, a in lifted_contexts(rng, 24):
        g = gamma(lifted.problem)
        for h in _sampled_members(lifted, a, random.Random(rng.randrange(10 ** 6)),
                                  THEOREM_6B_SAMPLES):
            assert pointwise_le(a, h, EPS) and pointwise_le(h, g, EPS)
            assert _family_member(h, lifted)
            drawn += 1
    assert drawn >= 10 * THEOREM_6B_SAMPLES


class ConstantDraws:
    """Stands in for ``random.Random``: every draw is ``lam``."""

    def __init__(self, lam):
        self.lam = lam

    def random(self):
        return self.lam


def test_sampler_draws_gamma_at_zero_and_alpha_at_one(rng):
    # the mix runs from gamma^C (lam = 0) to alpha^C (lam = 1), so its
    # transform runs from gamma to alpha
    apart = 0
    for lifted, a in lifted_contexts(rng, 40):
        g = gamma(lifted.problem)
        (at_zero,) = _sampled_members(lifted, a, ConstantDraws(0.0), 1)
        (at_one,) = _sampled_members(lifted, a, ConstantDraws(1.0), 1)
        assert sup_distance(at_zero, g) <= EPS
        assert sup_distance(at_one, a) <= EPS
        apart += sup_distance(a, g) > EPS
    assert apart >= 5


def test_maximal_verify_runs_34_lifted_transforms(tmp_path, monkeypatch, rng):
    # 6A's anchor reading, the lifted problem's validation, gamma^C and
    # alpha^C once each, then per member its transform and the two of the
    # C-convexity test: 34, where convexifying each mix took 44
    transforms = importlib.import_module("abconvex.transforms")
    real, sides = transforms._transform, []

    def counting(values, lines):
        sides.append(len(values))
        return real(values, lines)

    monkeypatch.setattr(transforms, "_transform", counting)
    for t, c in maximal_documents(rng, 6):
        path = tmp_path / "t.json"
        path.write_text(verify_document(t, c))
        sides.clear()
        assert cli_main(["verify", "--instance", str(path), "--mapping", "T",
                         "--output", str(tmp_path / "out.json")]) == 0
        lifted = c.domain.size * c.codomain.size
        assert sides.count(lifted) == 4 + 3 * THEOREM_6B_SAMPLES == 34
