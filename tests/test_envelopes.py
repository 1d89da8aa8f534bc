import pytest

from abconvex import (
    AbstractConvexError,
    ConstraintProblem,
    ExtFunction,
    IndexSubset,
    alpha,
    alpha_closed_form,
    build_gain_graph,
    c_convexify,
    gamma,
    gamma_dual_route,
    is_antiderivative,
    is_c_convex,
    is_member,
    pointwise_le,
    pointwise_max,
    rockafellar,
    sandwich_check,
    sup_distance,
)
from references import random_constraint_problem, route_bound

EPS = 1e-9


def fixture_problem(two_point) -> ConstraintProblem:
    return ConstraintProblem(two_point.c, two_point.m, two_point.f_id,
                             two_point.s)


def test_fixture_envelopes_exact(two_point):
    p = fixture_problem(two_point)
    assert alpha(p).values == (-2.0, -1.0, 0.0, 1.0, 2.0)
    assert gamma(p).values == (2.0, 1.0, 0.0, 1.0, 2.0)


def test_envelopes_are_members(two_point):
    p = fixture_problem(two_point)
    assert is_member(alpha(p), p)
    assert is_member(gamma(p), p)


def test_closed_form_agrees_with_chain_route(two_point):
    p = fixture_problem(two_point)
    assert sup_distance(alpha(p), alpha_closed_form(p)) <= EPS


def test_gamma_routes_agree(two_point):
    p = fixture_problem(two_point)
    assert sup_distance(gamma(p), gamma_dual_route(p)) <= EPS


def test_member_between_envelopes(two_point):
    p = fixture_problem(two_point)
    # |x| = x on S = {0, 1, 2}, so the absolute value belongs to the family
    assert is_member(two_point.f_abs, p)
    assert sandwich_check(two_point.f_abs, p)
    # shifting the anchor breaks agreement on S
    assert not is_member(two_point.f_id.shifted(1.0), p)
    # the shifted family has its own envelopes
    q = ConstraintProblem(two_point.c, two_point.m, two_point.f_id.shifted(1.0),
                          two_point.s)
    assert is_member(alpha(q), q)
    assert is_member(gamma(q), q)


def test_anchor_validation(two_point):
    # -x is not an antiderivative of M (subgradient a only holds at x = 2)
    bad = ExtFunction(two_point.x, tuple(-v for v in two_point.points))
    with pytest.raises(AbstractConvexError):
        ConstraintProblem(two_point.c, two_point.m, bad,
                          IndexSubset(two_point.x, (2,)))


def test_sites_outside_domain_rejected(two_point):
    with pytest.raises(AbstractConvexError):
        ConstraintProblem(two_point.c, two_point.m, two_point.f_id,
                          IndexSubset(two_point.x, (0, 2)))


def test_sandwich_requires_full_domain(two_point):
    p = ConstraintProblem(two_point.c, two_point.m, two_point.f_id,
                          IndexSubset(two_point.x, (2,)))
    assert not p.full_domain
    with pytest.raises(AbstractConvexError):
        sandwich_check(two_point.f_id, p)


def test_envelope_order_and_membership_random(rng):
    for _ in range(60):
        p = random_constraint_problem(rng, 5, 4)
        lo, hi = alpha(p), gamma(p)
        assert pointwise_le(lo, hi, 1e-7)
        assert is_member(lo, p)
        assert is_member(hi, p)
        assert is_c_convex(lo, p.coupling)
        assert is_antiderivative(hi, p.mapping, p.coupling)


def test_anchor_convexification_is_member(rng):
    # the anchor itself is c-convex by construction, hence a member
    for _ in range(30):
        p = random_constraint_problem(rng, 4, 4)
        assert is_member(p.anchor, p)
        assert pointwise_le(alpha(p), p.anchor, 1e-7)
        assert pointwise_le(p.anchor, gamma(p), 1e-7)


def test_duality_involution(rng):
    for _ in range(60):
        p = random_constraint_problem(rng, 5, 4)
        d = p.dual()
        dd = d.dual()
        assert dd.mapping.graph == p.mapping.graph
        # sites come back as M^{-1}(M(S)), which contains S
        assert set(p.sites) <= set(dd.sites)
        # the double-dual anchor is the convexification of the original
        assert sup_distance(dd.anchor, c_convexify(p.anchor, p.coupling)) <= 1e-7


def test_envelope_duality(rng):
    # the transform of the minimal member solves the dual maximally and
    # vice versa
    for _ in range(40):
        p = random_constraint_problem(rng, 4, 4)
        d = p.dual()
        from abconvex import c_transform
        assert sup_distance(c_transform(alpha(p), p.coupling), gamma(d)) <= 1e-7
        assert sup_distance(c_transform(gamma(p), p.coupling), alpha(d)) <= 1e-7


def test_closed_forms_on_random_full_domain(rng):
    for _ in range(40):
        p = random_constraint_problem(rng, 5, 4, full_domain=True)
        assert sup_distance(alpha(p), alpha_closed_form(p)) <= 1e-7
        assert sup_distance(gamma(p), gamma_dual_route(p)) <= 1e-7


def test_closed_form_rejects_partial_sites(rng):
    for _ in range(20):
        p = random_constraint_problem(rng, 5, 4)
        if p.full_domain:
            continue
        with pytest.raises(AbstractConvexError):
            alpha_closed_form(p)
        return


def test_sandwich_equals_membership(rng):
    for _ in range(40):
        p = random_constraint_problem(rng, 4, 4, full_domain=True)
        lo, hi = alpha(p), gamma(p)
        for _ in range(10):
            lam = rng.random()
            mix = ExtFunction(
                p.coupling.domain,
                tuple(lam * lo(x) + (1 - lam) * hi(x)
                      for x in range(p.coupling.domain.size)))
            h = c_convexify(mix, p.coupling)
            assert is_member(h, p) == sandwich_check(h, p)


def test_single_site_alpha_is_anchored_chain_supremum(two_point):
    p = ConstraintProblem(two_point.c, two_point.m, two_point.f_id,
                          IndexSubset(two_point.x, (3,)))
    r = rockafellar(two_point.m, two_point.c, 3)
    assert sup_distance(alpha(p), r.shifted(two_point.f_id(3))) <= EPS


def test_alpha_is_max_of_per_site_chain_suprema(rng):
    partial = 0
    for _ in range(200):
        p = random_constraint_problem(rng, rng.randint(2, 9), rng.randint(2, 9))
        partial += not p.full_domain
        per_site = pointwise_max([
            rockafellar(p.mapping, p.coupling, s, p.eps).shifted(p.anchor(s))
            for s in p.sites])
        # the potential route adds in another order than per-site R_s
        bound = route_bound(build_gain_graph(p.mapping, p.coupling),
                            [p.anchor(s) for s in p.sites])
        assert sup_distance(alpha(p), per_site) <= bound
    assert partial >= 50
