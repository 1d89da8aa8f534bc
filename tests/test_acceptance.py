"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines inline.
"""

import json
import random
import time

import pytest

from abconvex import (
    ConstraintProblem,
    ExtFunction,
    ExtensionProblem,
    GroundSet,
    IndexSubset,
    MultiMapping,
    NotCyclicallyMonotoneError,
    alpha,
    alpha_closed_form,
    as_coupling,
    c_convexify,
    c_subdifferential,
    c_transform,
    c_transform_rev,
    convex_combination,
    emit_document,
    extend_max,
    extend_max_closed_form,
    extend_min,
    extend_min_closed_form,
    gamma,
    gamma_dual_route,
    identity_fitzpatrick,
    identity_mapping,
    identity_on,
    inject_positive_two_cycle,
    is_1_lipschitz,
    is_antiderivative,
    is_c_convex,
    is_member,
    lipschitz_characterize,
    mcshane_whitney_max,
    mcshane_whitney_min,
    metric_from_rows,
    parse_instance,
    pointwise_le,
    pointwise_max,
    product_coupling,
    random_c_convex_function,
    random_constraint_problem,
    random_coupling,
    random_cyclically_monotone_mapping,
    random_lipschitz_function,
    random_metric,
    random_proper_function,
    rockafellar,
    rockafellar_oracle,
    sandwich_check,
    sup_distance,
    verify_inequality_chain,
    verify_theorem6A,
    verify_theorem6B,
)
from abconvex.cli import EXIT_OK, main

from conftest import FIXTURE_DIR, grid_function, two_point_instance

TOL = 1e-9


def report(number: int, description: str):
    print(f"criterion {number:2d} PASS  {description}")


def test_criterion_01_fixture_exactness():
    inst = two_point_instance()
    problem = ConstraintProblem(inst.c, inst.m, inst.f_id, inst.s)
    start = time.perf_counter()
    lo = alpha(problem)
    hi = gamma(problem)
    elapsed = time.perf_counter() - start
    assert lo.values == (-2.0, -1.0, 0.0, 1.0, 2.0)
    assert hi.values == (2.0, 1.0, 0.0, 1.0, 2.0)
    assert elapsed < 0.1
    report(1, "fixture envelopes exact (tolerance 0, runtime "
              f"{elapsed * 1000:.2f} ms)")


def test_criterion_02_c_convex_classification():
    inst = two_point_instance()
    rng = random.Random(2)
    for _ in range(30):
        kind = rng.choice(["pos", "neg", "abs"])
        if kind == "abs":
            f = grid_function("abs", rng.uniform(-2, 2), rng.uniform(-3, 3))
        else:
            f = grid_function(kind, rng.uniform(-3, 3))
        assert is_c_convex(f, inst.c, TOL)
    for _ in range(30):
        lam = rng.uniform(0.05, 0.95)
        mix = convex_combination(inst.f_id, inst.f_abs, lam)
        assert not is_c_convex(mix, inst.c, TOL)
    report(2, "30 closed-form functions c-convex, 30 proper mixes not")


def test_criterion_03_triple_transform():
    rng = random.Random(3)
    for _ in range(200):
        c = random_coupling(rng, rng.randint(1, 8), rng.randint(1, 8))
        f = random_proper_function(rng, c.domain)
        fc = c_transform(f, c)
        fccc = c_transform(c_transform_rev(fc, c), c)
        assert sup_distance(fccc, fc) <= TOL
    report(3, "triple transform collapses on 200 random instances")


def _monotone_instances(count):
    rng = random.Random(4)
    out = []
    while len(out) < count:
        c = random_coupling(rng, rng.randint(2, 6), rng.randint(2, 5))
        m = random_cyclically_monotone_mapping(rng, c, max_pairs=5)
        if len(m.dom) <= 5:
            out.append((rng, c, m))
    return out


def test_criterion_04_rockafellar_dp_vs_oracle():
    instances = _monotone_instances(100)
    for rng, c, m in instances:
        s = rng.choice(m.dom)
        fast = rockafellar(m, c, s)
        slow = rockafellar_oracle(m, c, s, max_len=len(m.dom) + 2)
        assert sup_distance(fast, slow) <= TOL
    errors = 0
    for rng, c, m in instances:
        bad_m, bad_c = inject_positive_two_cycle(rng, m, c)
        with pytest.raises(NotCyclicallyMonotoneError):
            rockafellar(bad_m, bad_c, rng.choice(bad_m.dom))
        errors += 1
    assert errors == 100
    report(4, "DP matches chain oracle on 100 instances; 100 injected "
              "positive 2-cycles rejected")


def test_criterion_05_rockafellar_minimality():
    for rng, c, m in _monotone_instances(100):
        s = rng.choice(m.dom)
        r = rockafellar(m, c, s)
        anchored = []
        attempts = 0
        while len(anchored) < 20 and attempts < 200:
            attempts += 1
            bump = [rng.uniform(0.0, 3.0) for _ in range(c.domain.size)]
            bump[s] = 0.0
            h = c_convexify(
                ExtFunction(c.domain,
                            tuple(r(x) + bump[x]
                                  for x in range(c.domain.size))), c)
            if is_antiderivative(h, m, c) and abs(h(s)) <= TOL:
                anchored.append(h)
        if len(anchored) < 20:
            # fallback construction: envelopes of re-anchored chain suprema,
            # which stay in the family and vanish at s
            while len(anchored) < 20:
                parts = [r]
                for t in m.dom:
                    if t != s and rng.random() < 0.7:
                        rt = rockafellar(m, c, t)
                        parts.append(rt.shifted(-rt(s) - rng.uniform(0.0, 2.0)))
                anchored.append(pointwise_max(parts))
        for h in anchored:
            assert is_antiderivative(h, m, c)
            assert abs(h(s)) <= TOL
            assert pointwise_le(r, h, TOL)
    report(5, "chain supremum minorizes 20 anchored antiderivatives on each "
              "of 100 instances")


def test_criterion_06_duality_involution():
    rng = random.Random(6)
    for i in range(100):
        p = random_constraint_problem(rng, rng.randint(2, 5),
                                      rng.randint(2, 5),
                                      full_domain=bool(i % 2))
        d = p.dual()
        assert sup_distance(c_transform(alpha(p), p.coupling), gamma(d)) <= TOL
        assert sup_distance(c_transform(gamma(p), p.coupling), alpha(d)) <= TOL
        if p.full_domain:
            assert sup_distance(alpha(p), alpha_closed_form(p)) <= TOL
            assert sup_distance(gamma(p), gamma_dual_route(p)) <= TOL
    report(6, "transform duality and closed forms agree on 100 problems")


def test_criterion_07_membership_sandwich_equivalence():
    rng = random.Random(7)
    for _ in range(10):
        p = random_constraint_problem(rng, rng.randint(2, 5),
                                      rng.randint(2, 5), full_domain=True)
        lo, hi = alpha(p), gamma(p)
        for _ in range(100):
            if rng.random() < 0.5:
                lam = rng.random()
                cand = c_convexify(
                    ExtFunction(p.coupling.domain,
                                tuple(lam * lo(x) + (1 - lam) * hi(x)
                                      for x in range(p.coupling.domain.size))),
                    p.coupling)
            else:
                cand = random_c_convex_function(rng, p.coupling, inf_prob=0.0)
            assert is_member(cand, p) == sandwich_check(cand, p)
    report(7, "membership equals the sandwich criterion for 100 candidates "
              "per instance")


def test_criterion_08_lipschitz_four_way():
    rng = random.Random(8)
    for _ in range(50):
        d = random_metric(rng, rng.randint(2, 12))
        for _ in range(20):
            f = random_lipschitz_function(rng, d)
            if rng.random() < 0.5:
                f = ExtFunction(
                    f.index,
                    tuple(v + (rng.uniform(5.0, 40.0) if i == 0 else 0.0)
                          for i, v in enumerate(f.values)))
            rep = lipschitz_characterize(f, d)
            assert rep.unanimous
        g = random_lipschitz_function(rng, d)
        n = d.points.size
        dom = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
        sites = IndexSubset(d.points, dom)
        problem = ExtensionProblem(d, identity_on(sites), g, sites)
        assert sup_distance(extend_min(problem),
                            mcshane_whitney_min(d, sites, g)) <= TOL
        assert sup_distance(extend_max(problem),
                            mcshane_whitney_max(d, sites, g)) <= TOL
    pts = GroundSet(("0", "1", "3"))
    line = metric_from_rows(pts, [[0, 1, 3], [1, 0, 2], [3, 2, 0]])
    f = ExtFunction(pts, (0.0, 0.0, 2.0))
    sites = IndexSubset(pts, (0, 2))
    problem = ExtensionProblem(line, identity_on(sites), f, sites)
    assert extend_min(problem)(1) == 0.0
    assert extend_max(problem)(1) == 1.0
    report(8, "four-way Lipschitz reading unanimous; extensions match the "
              "classical formulas; line fixture gives (0, 1)")


def test_criterion_09_constrained_extension():
    rng = random.Random(9)
    for _ in range(50):
        d = random_metric(rng, rng.randint(2, 9))
        f = random_lipschitz_function(rng, d)
        n = d.points.size
        dom = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
        sites = IndexSubset(d.points, dom)
        problem = ExtensionProblem(d, identity_on(sites), f, sites)
        lo, hi = extend_min(problem), extend_max(problem)
        c = as_coupling(d)
        for g in (lo, hi):
            assert is_1_lipschitz(g, d, TOL)
            for s in dom:
                assert abs(g(s) - f(s)) <= TOL
            for x, y in problem.mapping.graph:
                for xp in range(n):
                    assert g(x) - g(xp) <= d(xp, y) - d(x, y) + TOL
        assert sup_distance(lo, extend_min_closed_form(problem)) <= TOL
        assert sup_distance(hi, extend_max_closed_form(problem)) <= TOL
        cp = problem.constraint_problem()
        assert sup_distance(lo, alpha(cp)) <= TOL
        assert sup_distance(hi, gamma(cp)) <= TOL
        for _ in range(5):
            lam = rng.random()
            h = c_convexify(
                ExtFunction(d.points,
                            tuple(lam * lo(x) + (1 - lam) * hi(x)
                                  for x in range(n))), c)
            assert pointwise_le(lo, h, TOL)
            assert pointwise_le(h, hi, TOL)
    report(9, "50 constrained extensions valid, sandwiched and equal to the "
              "general envelopes")


def test_criterion_10_product_space_theorems():
    rng = random.Random(10)
    for i in range(100):
        c = random_coupling(rng, rng.randint(1, 4), rng.randint(1, 4))
        if i % 2 == 0:
            t = random_cyclically_monotone_mapping(rng, c, max_pairs=4)
        else:
            nx, ny = c.domain.size, c.codomain.size
            pairs = {(rng.randrange(nx), rng.randrange(ny))
                     for _ in range(rng.randint(1, 4))}
            t = MultiMapping(c.domain, c.codomain, tuple(pairs))
        rep = verify_theorem6A(t, c, TOL)
        assert rep.agree
        if rep.t_monotone:
            rep_b = verify_theorem6B(t, c, TOL, seed=i)
            assert rep_b.max_abs_diff <= TOL
            assert not rep_b.family_inclusion_falsified
    for _ in range(20):
        d = random_metric(rng, rng.randint(2, 5))
        f = identity_fitzpatrick(d)
        pc = product_coupling(as_coupling(d))
        for x, y in pc.xy_pairs:
            assert f(pc.xy_index(x, y)) == -d(x, y)
        zero = ExtFunction(d.points, (0.0,) * d.points.size)
        chain = verify_inequality_chain(identity_mapping(d), d,
                                        lipschitz_witness=zero, eps=TOL)
        assert chain.holds
        g = random_lipschitz_function(rng, d)
        t = c_subdifferential(g, as_coupling(d)).mapping
        chain = verify_inequality_chain(t, d, lipschitz_witness=g, eps=TOL)
        assert chain.holds
    report(10, "lifted-space equivalences, minimal member = F, identity "
               "F = -d, inequality chain")


def test_criterion_11_cli_determinism_and_roundtrip(tmp_path):
    for name in ("two_point.json", "line3.json"):
        text = (FIXTURE_DIR / name).read_text()
        once = emit_document(parse_instance(text))
        twice = emit_document(parse_instance(once))
        assert once == twice
    outs = []
    for run in range(2):
        target = tmp_path / f"verify-{run}.json"
        status = main(["verify",
                       "--instance", str(FIXTURE_DIR / "line3.json"),
                       "--mapping", "I", "--seed", "123",
                       "--output", str(target)])
        assert status == EXIT_OK
        outs.append(target.read_bytes())
    assert outs[0] == outs[1]
    status = main(["alpha",
                   "--instance", str(FIXTURE_DIR / "two_point.json"),
                   "--mapping", "M", "--subset", "S",
                   "--site-function", "f_id",
                   "--output", str(tmp_path / "alpha.json")])
    assert status == EXIT_OK
    payload = json.loads((tmp_path / "alpha.json").read_text())
    assert payload["result"]["values"] == [-2.0, -1.0, 0.0, 1.0, 2.0]
    report(11, "byte-identical seeded runs and stable parse/emit round-trips")
