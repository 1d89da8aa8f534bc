import importlib
import math
from collections import Counter

import pytest

from abconvex import (
    AbstractConvexError,
    ConstraintProblem,
    ExtFunction,
    GroundSet,
    IndexSubset,
    MultiMapping,
    alpha,
    alpha_closed_form,
    build_gain_graph,
    c_convexify,
    c_subdifferential,
    c_transform,
    c_transform_rev,
    coupling_from_rows,
    emit_document,
    gamma,
    gamma_dual_route,
    identity_on,
    is_antiderivative,
    is_c_convex,
    is_member,
    pointwise_le,
    pointwise_max,
    random_c_convex_function,
    random_coupling,
    random_lipschitz_function,
    random_metric,
    random_proper_function,
    restrict_sum,
    rockafellar,
    sandwich_check,
    sup_distance,
)
from abconvex.cli import main as cli_main
from abconvex.instance_io import InstanceDocument
from conftest import assert_same_floats
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


def test_gamma_dual_route_on_a_margin_that_rounds_past_eps():
    # (x1, y0) lies in the subdifferential of f with a margin of exactly
    # eps; f^cc(x1) = 2 - fl(2 - 1e-9) reads 1.00000008e-9, so a float
    # recheck of the dual's anchor would reject this valid problem
    x, y = GroundSet(("x0", "x1")), GroundSet(("y0", "y1"))
    c = coupling_from_rows(x, y, [[0, 0], [0, 2]])
    f = ExtFunction(x, (0.0, 1e-9))
    m = c_subdifferential(f, c).mapping
    assert m.graph == ((0, 0), (1, 0), (1, 1))
    p = ConstraintProblem(c, m, f, IndexSubset(x, (0,)))
    assert not p.full_domain
    g = gamma(p)
    assert g.values == (0.0, 0.0)
    assert is_member(g, p) and pointwise_le(alpha(p), g, EPS)


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


# ------------------------------------------------- the family's anchor f^c
# A family transforms its anchor once; its validation, dual(), full-domain
# gamma (f already +inf off S) and member with h = f read that transform,
# and member transforms any other h once for both of its tests.

def _with_signed_zeros(rng, f: ExtFunction) -> ExtFunction:
    """f with a random sign on each zero: the same values, other bits."""
    return ExtFunction(f.index, tuple(rng.choice((0.0, -0.0)) if v == 0 else v
                                      for v in f.values))


def _small_integer_instance(rng, nx: int, ny: int):
    """A coupling with entries in {-2, ..., 2} and the transform of a
    function of such values on Y: ties in every max and many zeros."""
    c = coupling_from_rows(
        GroundSet(tuple(f"x{i}" for i in range(nx))),
        GroundSet(tuple(f"y{j}" for j in range(ny))),
        [[float(rng.randint(-2, 2)) for _ in range(ny)] for _ in range(nx)])
    g = ExtFunction(c.codomain,
                    tuple(float(rng.randint(-2, 2)) for _ in range(ny)))
    return c, c_transform_rev(g, c)


def test_anchor_transform_readers_match_their_compositions(rng):
    # gamma, is_member, dual() and the validation against the compositions
    # they replace, bit for bit: c_convexify(restrict_sum(f, S)) and the
    # dual route, is_c_convex with is_antiderivative, c_transform(f); on
    # anchors finite or +inf off the sites, with zeros of both signs, and
    # on an h equal to f in value but not the same object
    seen = Counter()
    for trial in range(300):
        nx, ny = rng.randint(1, 6), rng.randint(1, 6)
        if trial % 2:
            c, f = _small_integer_instance(rng, nx, ny)
        else:
            c = random_coupling(rng, nx, ny)
            f = random_c_convex_function(rng, c, 0.0)
        f = _with_signed_zeros(rng, f)
        pool = c_subdifferential(f, c).graph
        m = MultiMapping(c.domain, c.codomain,
                         tuple(rng.sample(pool, rng.randint(1, len(pool)))))
        if trial % 3 == 0:  # +inf off dom(M), still an antiderivative of M
            f = restrict_sum(f, IndexSubset(c.domain, m.dom))
        if trial % 7 == 0:  # an anchor that may not be one
            f = random_proper_function(rng, c.domain, inf_prob=0.0)
        sites = m.dom if trial % 4 else tuple(
            sorted(rng.sample(m.dom, rng.randint(1, len(m.dom)))))
        sites = IndexSubset(c.domain, sites)
        if not is_antiderivative(f, m, c, EPS):
            with pytest.raises(AbstractConvexError, match="not an antiderivative"):
                ConstraintProblem(c, m, f, sites, EPS)
            seen["refused"] += 1
            continue
        p = ConstraintProblem(c, m, f, sites, EPS)
        dual = p.dual()
        assert_same_floats(dual.anchor.values, c_transform(f, c).values)
        if p.full_domain:
            restricted = restrict_sum(f, sites)
            want = c_convexify(restricted, c)
            seen["full, f = f + i_S" if restricted.values == f.values
                 else "full, f finite off S"] += 1
        else:
            want = c_transform_rev(alpha(dual), c)
            seen["partial"] += 1
        g = gamma(p)
        assert_same_floats(g.values, want.values)
        seen["-0.0"] += any(math.copysign(1.0, v) < 0 for v in f.values
                            if v == 0)
        for h in (f, ExtFunction(f.index, f.values),
                  _with_signed_zeros(rng, f), g, alpha(p),
                  random_c_convex_function(rng, c), f.shifted(1.0)):
            member = (is_c_convex(h, c, EPS)
                      and is_antiderivative(h, m, c, EPS)
                      and all(math.isfinite(h(s)) and abs(h(s) - f(s)) <= EPS
                              for s in sites))
            assert is_member(h, p) is member
            seen[member] += 1
    assert min(seen.values()) >= 15, seen
    assert len(seen) == 7, seen


def _count_transforms(monkeypatch) -> list:
    """The value count of each run of the table kernel, as it runs."""
    transforms = importlib.import_module("abconvex.transforms")
    real, sides = transforms._transform, []

    def counting(values, lines):
        sides.append(len(values))
        return real(values, lines)

    monkeypatch.setattr(transforms, "_transform", counting)
    return sides


def test_constrained_requests_transform_the_anchor_once(tmp_path, monkeypatch,
                                                        rng):
    # f^c once per family (nx values in, the validation's), read by
    # full-domain gamma and member with h = f; member transforms another
    # h once for both of its tests.  Composed, alpha took 1, gamma 3,
    # member 4 and lip-extend --max 3
    sides = _count_transforms(monkeypatch)
    for _ in range(8):
        nx, ny = rng.randint(2, 7), rng.randint(1, 7)
        c = random_coupling(rng, nx, ny)
        f = random_c_convex_function(rng, c)  # finite, so dom(M) = X
        m = c_subdifferential(f, c).mapping
        part = IndexSubset(c.domain, tuple(sorted(rng.sample(m.dom, nx - 1))))
        doc = tmp_path / "family.json"
        doc.write_text(emit_document(InstanceDocument(
            "1", {"X": c.domain, "Y": c.codomain}, c,
            coupling_names=("X", "Y"),
            functions={"f": f, "h": random_c_convex_function(rng, c)},
            mappings={"M": m},
            subsets={"D": IndexSubset(c.domain, m.dom), "P": part})))
        metric = random_metric(rng, rng.randint(2, 7))
        half = IndexSubset(metric.points, tuple(range(metric.points.size // 2
                                                      or 1)))
        lip = tmp_path / "metric.json"
        lip.write_text(emit_document(InstanceDocument(
            "1", {"P": metric.points}, metric.negated, metric=metric,
            negate=True, coupling_names=("P", "P"),
            functions={"f": random_lipschitz_function(rng, metric)},
            mappings={"I_S": identity_on(half)}, subsets={"S": half})))
        family = ("--instance", str(doc), "--mapping", "M",
                  "--site-function", "f")
        n = metric.points.size
        for argv, want in [
                (("alpha", *family, "--subset", "P"), [nx]),
                (("gamma", *family, "--subset", "D"), [nx, ny]),
                (("gamma", *family, "--subset", "P"), [nx, ny]),
                (("member", *family, "--subset", "D", "--function", "f"),
                 [nx, ny]),
                (("member", *family, "--subset", "P", "--function", "h"),
                 [nx, nx, ny]),
                (("lip-extend", "--instance", str(lip), "--mapping", "I_S",
                  "--subset", "S", "--site-function", "f", "--max"),
                 [n, n])]:
            sides.clear()
            assert cli_main([*argv, "--output", str(tmp_path / "out")]) == 0
            assert sides == want, argv
