import importlib
import json
import math
import random

import pytest

from abconvex import (
    AbstractConvexError,
    ConstraintProblem,
    ExtensionProblem,
    ExtFunction,
    GroundSet,
    IndexMismatchError,
    IndexSubset,
    Lifted,
    MultiMapping,
    alpha,
    as_coupling,
    build_gain_graph,
    c_subdifferential,
    c_transform,
    c_transform_rev,
    convex_combination,
    delta_mapping,
    fitzpatrick,
    gamma,
    identity_fitzpatrick,
    identity_mapping,
    is_1_lipschitz,
    is_antiderivative,
    is_c_convex,
    is_cyclically_monotone,
    is_maximal_cyclically_monotone,
    is_maximal_n_monotone,
    is_n_monotone,
    lipschitz_characterize,
    mcshane_whitney_max,
    mcshane_whitney_min,
    metric_from_rows,
    parse_instance,
    pointwise_le,
    pointwise_max,
    product_coupling,
    random_coupling,
    random_cyclically_monotone_mapping,
    random_lipschitz_function,
    random_metric,
    restrict_sum,
    rockafellar,
    sup_distance,
)
from abconvex.cli import main as cli_main
from abconvex.core import MAX_LIFTED_ENTRIES, BudgetExceededError, LiftedCoupling
from abconvex.fitzpatrick import (
    MAX_LIFTED_SIDE,
    THEOREM_6B_SAMPLES,
    _family_member,
    _mix,
    _sampled_members,
    full_diagonal,
    graph_anchor,
)
from abconvex.rockafellar import chain_suprema
from conftest import assert_same_floats, one_point_couplings
from references import (
    LIFTED_KINDS,
    TIE_KINDS,
    family_bounds_per_pair,
    fitzpatrick_family_member,
    fitzpatrick_per_cell,
    grown_mapping,
    inequality_chain_per_cell,
    kernel_coupling,
    lifted_by_table,
    lifted_draw,
    lifted_lines_agree,
    lifted_routes_agree,
    mix_per_point,
    partly_grown,
    product_rows_per_cell,
    random_graph,
    ts_pairs,
    verify_document,
)

EPS = 1e-9


def random_monotone_mapping(rng, c):
    return random_cyclically_monotone_mapping(rng, c, max_pairs=4)


def random_arbitrary_mapping(rng, c):
    return random_graph(rng, c, 4)


def test_product_coupling_structure(two_point):
    pc = product_coupling(two_point.c)
    assert pc.domain.size == 10
    assert pc.codomain.size == 10
    # C((x,y),(t,s)) = c(x,t) + c(s,y), spot-checked
    c = two_point.c
    for x, y in [(0, 0), (3, 1), (4, 0)]:
        for t, s in [(0, 0), (1, 2), (0, 4)]:
            got = pc(pc.xy_index(x, y), pc.ts_index(t, s))
            assert got == c(x, t) + c(s, y)
    assert pc.domain.labels[pc.xy_index(0, 1)] == "(-2,b)"
    assert pc.codomain.labels[pc.ts_index(1, 0)] == "(b,-2)"
    # the coupling carries its own index layout, x-major and t-major
    assert isinstance(pc, LiftedCoupling) and pc.base is c
    assert [pc.xy_index(x, y) for x, y in pc.xy_pairs] == list(range(10))
    assert [pc.ts_index(t, s) for t, s in ts_pairs(pc)] == list(range(10))
    assert pc.xy_pairs[pc.xy_index(3, 1)] == (3, 1)
    assert ts_pairs(pc)[pc.ts_index(1, 3)] == (1, 3)


def test_delta_mapping_graph(two_point):
    pc = product_coupling(two_point.c)
    delta = delta_mapping(two_point.m, pc)
    assert set(delta.graph) == {(pc.xy_index(x, y), pc.ts_index(y, x))
                                for x, y in two_point.m.graph}
    assert set(delta.graph) <= set(full_diagonal(pc))


def test_fitzpatrick_majorizes_coupling_and_touches_graph(two_point):
    # majorization of c needs a maximal monotone mapping; the full
    # subdifferential of |x| is one
    t = c_subdifferential(two_point.f_abs, two_point.c).mapping
    f = fitzpatrick(t, two_point.c)
    lifted = Lifted(t, two_point.c)
    pc, base = lifted.pc, lifted.coupling_function
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
    a = alpha(Lifted(two_point.m, two_point.c).problem)
    assert sup_distance(f, a) <= EPS


def test_theorem_votes_agree_on_monotone_and_arbitrary(rng):
    for _ in range(40):
        c = random_coupling(rng, 3, 3)
        t = (random_monotone_mapping(rng, c) if rng.random() < 0.5
             else random_arbitrary_mapping(rng, c))
        rep = Lifted(t, c).theorem6A()
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
        rep = Lifted(t, c).theorem6A(check_maximality=True)
        assert rep.agree
        assert rep.primed_agree


def test_minimal_member_equality_with_member_sampling(rng):
    for _ in range(15):
        c = random_coupling(rng, 3, 3)
        t = random_monotone_mapping(rng, c)
        rep = Lifted(t, c).theorem6B(seed=rng.randrange(10 ** 6))
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
            Lifted(t, c).theorem6B()
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
        rep = Lifted(identity_mapping(d), as_coupling(d)).inequality_chain(
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
        rep = Lifted(t, c).inequality_chain(lipschitz_witness=g)
        assert rep.holds


def test_inequality_chain_refuses_without_hypotheses(rng):
    d = random_metric(rng, 4)
    c = as_coupling(d)
    # a single identity pair is -d-monotone but not finitely maximal
    t = MultiMapping(c.domain, c.codomain, ((0, 0),))
    with pytest.raises(AbstractConvexError):
        Lifted(t, c).inequality_chain()


def test_inequality_chain_reads_d_as_minus_c(rng):
    # the chain reads d(x, y) as -c(x, y) on c = -d, which is exact, so its
    # worst violation equals the metric's own reading bit for bit, with and
    # without a witness; integer path metrics bring ties and signed zeros
    for trial in range(60):
        n = rng.randint(2, 6)
        d = (metric_from_rows(GroundSet(tuple(map(str, range(n)))),
                              [[abs(i - j) for j in range(n)] for i in range(n)])
             if trial % 3 == 0 else random_metric(rng, n))
        c = as_coupling(d)
        if trial % 2:
            g = random_lipschitz_function(rng, d)
            t = c_subdifferential(g, c).mapping
        else:
            g, t = None, grown_mapping(rng, identity_mapping(d), c, EPS)
        rep = Lifted(t, c, EPS).inequality_chain(lipschitz_witness=g)
        want = inequality_chain_per_cell(t, d, EPS)
        assert rep.max_violation.hex() == want.hex()
        assert rep.holds == (want <= EPS)


def test_inequality_chain_needs_one_point_set():
    c = kernel_coupling(random.Random(0), 2, 3)
    t = MultiMapping(c.domain, c.codomain, ((0, 0),))
    with pytest.raises(AbstractConvexError,
                       match="^the inequality chain needs c = -d on one point set$"):
        Lifted(t, c).inequality_chain()


def test_a_mapping_off_the_coupling_sides_is_a_domain_error():
    # a 3-point T over a 2 x 2 coupling indexed past c, a 2-point T on
    # other labels and T from c's codomain to its domain read c silently
    # or past its range; every call on (T, c) refuses them before any
    # reading
    sides = "^mapping does not run from the coupling's domain to its codomain$"
    c = kernel_coupling(random.Random(0), 2, 2)
    f, sites = ExtFunction(c.domain, (0.0, 0.0)), IndexSubset(c.domain, (0,))
    calls = [fitzpatrick, Lifted, build_gain_graph, is_cyclically_monotone,
             is_maximal_cyclically_monotone,
             lambda t, c: rockafellar(t, c, 0),
             lambda t, c: chain_suprema(t, c, [0], [0.0]),
             lambda t, c: is_antiderivative(f, t, c),
             lambda t, c: ConstraintProblem(c, t, f, sites)]
    calls += [lambda t, c, n=n: is_n_monotone(t, c, n) for n in (1, 2, 3)]
    calls += [lambda t, c, n=n: is_maximal_n_monotone(t, c, n) for n in (2, 3)]
    wide = GroundSet(("x0", "x1", "x2")), GroundSet(("y0", "y1", "y2"))
    others = GroundSet(("p", "q")), GroundSet(("u", "v"))
    for source, target in (wide, others, (c.codomain, c.domain)):
        t = MultiMapping(source, target, ((0, 0), (source.size - 1, 1)))
        for call in calls:
            with pytest.raises(IndexMismatchError, match=sides):
                call(t, c)
    # and ExtensionProblem, with T off the metric's points
    metric = random_metric(random.Random(0), 2)
    points = metric.points
    values, sites = ExtFunction(points, (0.0, 0.0)), IndexSubset(points, (0,))
    for source, target in (wide, others, (points, others[1])):
        t = MultiMapping(source, target, ((0, 0), (source.size - 1, 1)))
        with pytest.raises(IndexMismatchError, match=sides):
            ExtensionProblem(metric, t, values, sites)


def test_a_function_or_subset_off_its_ground_set_is_a_domain_error():
    # every reader of a function or subset on a ground set (c's sides, the
    # lifted domain, the metric's points, the first function's index)
    # refuses one on other labels of the same size, on the other side or
    # on a larger ground set, before any reading
    c = kernel_coupling(random.Random(0), 2, 2)
    x, y = c.domain, c.codomain
    t = MultiMapping(x, y, ((0, 0),))
    f, sites = ExtFunction(x, (0.0, 0.0)), IndexSubset(x, (0,))
    lifted = Lifted(t, c)
    metric = random_metric(random.Random(0), 2)
    points, ident = metric.points, identity_mapping(metric)
    pf, psites = ExtFunction(points, (0.0, 0.0)), IndexSubset(points, (0,))

    def fn(g):
        return ExtFunction(g, (0.0,) * g.size)

    def sub(g):
        return IndexSubset(g, (0,))

    # (ground set, its other side, a call given a ground set g)
    table = [
        (x, y, lambda g: c_transform(fn(g), c)),
        (y, x, lambda g: c_transform_rev(fn(g), c)),
        (x, y, lambda g: ConstraintProblem(c, t, fn(g), sites)),
        (x, y, lambda g: ConstraintProblem(c, t, f, sub(g))),
        (x, y, lambda g: restrict_sum(f, sub(g))),
        (x, y, lambda g: convex_combination(f, fn(g), 0.5)),
        (x, y, lambda g: sup_distance(f, fn(g))),
        (x, y, lambda g: pointwise_le(f, fn(g))),
        (x, y, lambda g: pointwise_max([f, fn(g)])),
        (lifted.pc.domain, lifted.pc.codomain,
         lambda g: _family_member(fn(g), lifted)),
    ]
    # a metric's points are both sides of c = -d; the other side is c's X
    table += [(points, x, call) for call in (
        lambda g: ExtensionProblem(metric, ident, fn(g), psites),
        lambda g: ExtensionProblem(metric, ident, pf, sub(g)),
        lambda g: lipschitz_characterize(fn(g), metric),
        lambda g: is_1_lipschitz(fn(g), metric),
        lambda g: mcshane_whitney_min(metric, sub(g), pf),
        lambda g: mcshane_whitney_min(metric, psites, fn(g)),
        lambda g: mcshane_whitney_max(metric, sub(g), pf),
        lambda g: mcshane_whitney_max(metric, psites, fn(g)),
    )]
    for ground, other_side, call in table:
        relabelled = GroundSet(tuple(f"o{i}" for i in range(ground.size)))
        larger = GroundSet(ground.labels + ("extra",))
        for g in (relabelled, other_side, larger):
            with pytest.raises(IndexMismatchError, match=(
                    "^(function|subset) is not indexed by the ")):
                call(g)


def test_lifted_side_guard():
    rng = random.Random(0)
    c = random_coupling(rng, 150, 150)  # 22500 cells a side
    t = MultiMapping(c.domain, c.codomain, ((0, 0),))
    with pytest.raises(AbstractConvexError):
        fitzpatrick(t, c)


def test_lifted_entry_guard_bounds_the_entries_built_not_f(monkeypatch):
    # 60 x 60: a table of C would hold 3600^2 entries, F only 3600 values;
    # product_coupling builds no line of C
    c = random_coupling(random.Random(0), 60, 60)
    lifted = product_coupling(c)
    t = MultiMapping(c.domain, c.codomain, ((0, 0), (5, 7)))
    assert fitzpatrick(t, c).values == fitzpatrick_per_cell(t, c)
    assert 3600 ** 2 > MAX_LIFTED_ENTRIES and 3600 < MAX_LIFTED_SIDE
    assert lifted.values.built == lifted.columns.built == frozenset()
    # each line built spends 3600 entries, a line read again none; the line
    # that would pass the guard raises and is not built
    core = importlib.import_module("abconvex.core")
    monkeypatch.setattr(core, "MAX_LIFTED_ENTRIES", 3 * 3600)
    for read in (lifted.values, lifted.columns, lifted.values, lifted.values):
        read[0]
    lifted.values[2]
    with pytest.raises(BudgetExceededError, match=(
            f"^lifted rows and columns of {4 * 3600} entries exceed the "
            f"{3 * 3600}-entry guard$")):
        lifted.columns[1]
    assert lifted.values.built == {0, 2} and lifted.columns.built == {0}


def test_lifted_entry_guard_holds_inside_the_line_cache(monkeypatch):
    # verify reads the |G(T)| rows and columns of Delta_T; on a finitely
    # maximal T the maximality readings of 6A read every diagonal row, 36
    # lines of 36 entries, which the guard stops inside the cache, since no
    # up-front count foresees them
    core = importlib.import_module("abconvex.core")
    c = random_coupling(random.Random(1), 6, 6)
    t = grown_mapping(random.Random(1), MultiMapping(c.domain, c.codomain,
                                                     ((2, 3),)), c, EPS)
    lines = 2 * len(t.graph)
    assert lines + 1 < 36
    monkeypatch.setattr(core, "MAX_LIFTED_ENTRIES", (lines + 1) * 36)
    assert Lifted(t, c).theorem6A().agree
    with pytest.raises(BudgetExceededError, match=(
            f"^lifted rows and columns of {(lines + 2) * 36} entries exceed "
            f"the {(lines + 1) * 36}-entry guard$")):
        Lifted(t, c).theorem6A(check_maximality=True)
    # and the up-front count refuses a Delta_T whose lines would pass it
    monkeypatch.setattr(core, "MAX_LIFTED_ENTRIES", (lines - 1) * 36)
    with pytest.raises(BudgetExceededError, match=(
            f"^lifted rows and columns of {lines * 36} entries exceed the "
            f"{(lines - 1) * 36}-entry guard$")):
        Lifted(t, c).theorem6A()


def test_the_lifted_side_guard_is_a_budget_error(tmp_path, capsys):
    # 101 x 100: each lifted side has 10100 cells, one past the guard; the
    # library calls raise the budget error, and the CLI exits 1 with it
    c = random_coupling(random.Random(0), 101, 100)
    t = MultiMapping(c.domain, c.codomain, ((0, 0),))
    message = f"lifted side 10100 exceeds the {MAX_LIFTED_SIDE}-cell guard"
    for call in (lambda: product_coupling(c), lambda: fitzpatrick(t, c),
                 lambda: Lifted(t, c).theorem6A()):
        with pytest.raises(BudgetExceededError, match=f"^{message}$"):
            call()
    path = tmp_path / "doc.json"
    path.write_text(verify_document(t, c))
    capsys.readouterr()
    assert cli_main(["fitzpatrick", "--instance", str(path),
                     "--mapping", "T"]) == 1
    assert json.loads(capsys.readouterr().out) == {"error": "domain",
                                                   "message": message}


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
        assert len(pc.values) == len(want)
        for got_row, want_row in zip(pc.values, want):
            assert_same_floats(got_row, want_row)
        t = random_graph(rng, c, 8)
        assert_same_floats(fitzpatrick(t, c).values, fitzpatrick_per_cell(t, c))


def test_lifted_kernels_on_one_point_sets():
    for c in one_point_couplings():
        pc = product_coupling(c)
        for got_row, want_row in zip(pc.values, product_rows_per_cell(c, pc)):
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
        lifted = Lifted(t, c, EPS)
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


def test_theorem6B_draws_from_seed_0_by_default(rng, monkeypatch):
    # the CLI's --seed defaults to 0, so theorem6B's default reports what
    # verify prints; the draw receives a generator in random.Random(0)'s state
    fitz = importlib.import_module("abconvex.fitzpatrick")
    real, states = fitz._sampled_members, []

    def recording(lifted, a, draws, count):
        states.append(draws.getstate())
        return real(lifted, a, draws, count)

    monkeypatch.setattr(fitz, "_sampled_members", recording)
    t, c = next(maximal_documents(rng, 1))
    assert Lifted(t, c).theorem6B() == Lifted(t, c).theorem6B(seed=0)
    assert states == [random.Random(0).getstate()] * 2


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


def test_mix_kernel_draws_as_the_per_point_mix():
    # the same draws in the same order and the same bits: +-inf, signed
    # zeros and equal ends
    rng = random.Random(0)
    inf = float("inf")
    pool = (-0.0, 0.0, 1.0, -2.0, inf, -inf)
    for trial in range(400):
        n = rng.randint(1, 8)
        lows = [rng.choice(pool) if rng.random() < 0.6 else rng.uniform(-9, 9)
                for _ in range(n)]
        highs = [lo if rng.random() < 0.3 else rng.choice(pool)
                 if rng.random() < 0.5 else rng.uniform(-9, 9) for lo in lows]
        seed = rng.randrange(10 ** 6)
        got_rng, want_rng = random.Random(seed), random.Random(seed)
        assert_same_floats(_mix(got_rng, lows, highs),
                           mix_per_point(want_rng, lows, highs))
        assert got_rng.getstate() == want_rng.getstate()


def test_family_bounds_kernel_matches_the_per_pair_checks(rng, monkeypatch):
    # C-convexity passed as given, the kernel's c <= h + eps and h = c on
    # G(T) against the per-pair loops: h at c, c +- eps and one float past,
    # +inf, and signed zeros, on ties-heavy couplings
    fitz = importlib.import_module("abconvex.fitzpatrick")
    monkeypatch.setattr(fitz, "is_c_convex", lambda h, c, eps: True)
    inf, seen = float("inf"), set()
    for trial in range(300):
        c = kernel_coupling(rng, rng.randint(1, 4), rng.randint(1, 4),
                            ties=TIE_KINDS[trial % 3])
        lifted = Lifted(random_graph(rng, c, 5), c, EPS)
        values = [rng.choice((b, b, -b, b + EPS, b - EPS, inf, 0.0, -0.0,
                              math.nextafter(b - EPS, -inf),
                              math.nextafter(b + EPS, inf)))
                  for b in lifted.coupling_function.values]
        if all(v == inf for v in values):
            values[0] = 0.0
        h = ExtFunction(lifted.pc.domain, tuple(values))
        want = family_bounds_per_pair(h, lifted)
        assert _family_member(h, lifted) == want
        seen.add(want)
    assert seen == {True, False}


def test_maximal_verify_runs_32_lifted_transforms(tmp_path, monkeypatch, rng):
    # anchor^C once, read by 6A's anchor reading (6B reuses its verdict) and
    # by the sampler as gamma^C, alpha^C once, then per member its transform
    # and the two of the C-convexity test: 32 runs of the separable kernel,
    # where transforming the anchor twice made 33, 6B's own anchor check 34
    # and convexifying each mix 44.  verify transforms nothing over c
    # itself, so the table kernel sees no call, and no lifted-side vector.
    transforms = importlib.import_module("abconvex.transforms")
    real_lifted, real_table = transforms._lifted_transform, transforms._transform
    lifted_sides, table_sides = [], []

    def counting_lifted(values, base, *args, **kwargs):
        lifted_sides.append(len(values))
        return real_lifted(values, base, *args, **kwargs)

    def counting_table(values, lines):
        table_sides.append(len(values))
        return real_table(values, lines)

    monkeypatch.setattr(transforms, "_lifted_transform", counting_lifted)
    monkeypatch.setattr(transforms, "_transform", counting_table)
    for t, c in maximal_documents(rng, 6):
        path = tmp_path / "t.json"
        path.write_text(verify_document(t, c))
        lifted_sides.clear()
        table_sides.clear()
        assert cli_main(["verify", "--instance", str(path), "--mapping", "T",
                         "--output", str(tmp_path / "out.json")]) == 0
        side = c.domain.size * c.codomain.size
        assert lifted_sides == [side] * (2 + 3 * THEOREM_6B_SAMPLES)
        assert len(lifted_sides) == 32
        assert table_sides == []


# ------------------------------------------- separable lifted transforms
# Transforms over C((x,y),(t,s)) = c(x,t) + c(s,y) run two max-plus passes
# over c; the table route, ``_transform`` over a plain copy of C's table,
# is their reference: equal on small integers, within the stated bound
# elsewhere.

@pytest.mark.parametrize("kind", LIFTED_KINDS)
def test_separable_kernel_matches_the_table_route(rng, kind):
    apart = 0
    for _ in range(60):
        lifted, h, g, exact = lifted_draw(rng, kind)
        assert lifted_routes_agree(lifted, h, g, exact)
        apart += lifted.base.domain.size != lifted.base.codomain.size
    assert apart >= 15


def test_lifted_lines_match_the_per_cell_table(rng):
    # C builds row (x, y) and column (t, s) from c on first read; each is
    # the table's float sums c(x, t) + c(s, y), bit for bit
    apart = 0
    for kind in LIFTED_KINDS:
        for _ in range(25):
            lifted = lifted_draw(rng, kind)[0]
            assert lifted.values.built == lifted.columns.built == frozenset()
            assert lifted_lines_agree(rng, lifted)
            apart += lifted.base.domain.size != lifted.base.codomain.size
    assert apart >= 50


def test_verify_builds_only_the_lines_of_delta_t(tmp_path, monkeypatch, rng):
    # one verify request builds the rows of dom(Delta_T) = G(T) and the
    # columns of its image, |G(T)| each, and no other line of C
    fitz = importlib.import_module("abconvex.fitzpatrick")
    real, built = fitz.product_coupling, []

    def recording(c):
        built.append(real(c))
        return built[-1]

    monkeypatch.setattr(fitz, "product_coupling", recording)
    for i, (t, c) in enumerate(maximal_documents(rng, 12)):
        if i % 3 == 0:  # a pair short of maximal, or not monotone at all
            t = random_graph(rng, c, 4)
        path = tmp_path / "doc.json"
        path.write_text(verify_document(t, c))
        built.clear()
        # exit 1 when Delta_T of a monotone T is not cyclically monotone
        assert cli_main(["verify", "--instance", str(path), "--mapping", "T",
                         "--output", str(tmp_path / "out.json")]) in (0, 1)
        (pc,) = built
        delta = delta_mapping(t, pc)
        assert pc.values.built == set(delta.dom)
        image = delta.inverse().dom
        assert pc.columns.built == set(image)
        assert len(delta.dom) == len(image) == len(t.graph)


def test_separable_kernel_conventions_and_orientation():
    # |X| = 2, |Y| = 3: h^C(t, s) = max_{x,y} c(s,y) + (c(x,t) - h(x,y)) on
    # the t-major (t, s) order and g^C(x, y) = max_{t,s} c(x,t) + (c(s,y)
    # - g(t,s)) on the x-major order, each the kernel's own sums
    c = kernel_coupling(random.Random(3), 2, 3)
    pc = product_coupling(c)
    lifted = pc
    assert isinstance(lifted, LiftedCoupling) and lifted.base == c
    h = ExtFunction(lifted.domain, tuple(float(i) for i in range(6)))
    hc = c_transform(h, lifted)
    assert hc.values == tuple(
        max(c(s, y) + (c(x, t) - h(pc.xy_index(x, y))) for x, y in pc.xy_pairs)
        for t, s in ts_pairs(pc))
    hcc = c_transform_rev(hc, lifted)
    assert hcc.values == tuple(
        max(c(x, t) + (c(s, y) - hc(pc.ts_index(t, s))) for t, s in ts_pairs(pc))
        for x, y in pc.xy_pairs)
    inf = float("inf")
    for f, transform in ((h, c_transform), (hc, c_transform_rev)):
        outside = ExtFunction(f.index, (inf,) * 6)
        assert transform(outside, lifted).values == (-inf,) * 6
        poles = ExtFunction(f.index, (inf,) * 5 + (-inf,))
        assert transform(poles, lifted).values == (inf,) * 6
    assert lifted_by_table(poles.values, lifted, reverse=True) == (inf,) * 6


def test_lifted_coupling_checks_its_sides():
    c = kernel_coupling(random.Random(0), 2, 3)
    lifted = product_coupling(c)
    # equal and hashed by the sides and c, whatever lines were built
    lifted.values[4]
    again = product_coupling(c)
    assert lifted == again and hash(lifted) == hash(again)
    other = kernel_coupling(random.Random(1), 2, 3)
    assert lifted != product_coupling(other)
    with pytest.raises(AbstractConvexError, match="lifted sides"):
        LiftedCoupling(lifted.domain, lifted.codomain,
                       kernel_coupling(random.Random(0), 3, 3))


# ------------------------------------------ 6B's anchor verdict, held once

def test_lifted_family_needs_only_the_anchor_verdict(rng):
    # the other checks of ConstraintProblem hold by construction: the sites
    # are dom(Delta_T) and the anchor, c on G(T), is finite there
    checked = 0
    for trial in range(40):
        c = random_coupling(rng, rng.randint(1, 4), rng.randint(1, 4))
        t = partly_grown(rng, c, EPS) if trial % 2 else random_graph(rng, c, 5)
        lifted = Lifted(t, c, EPS)
        pc, sites = lifted.pc, lifted.delta.dom
        assert sites == tuple(sorted(pc.xy_index(x, y) for x, y in t.graph))
        assert all(math.isfinite(lifted.anchor(s)) for s in sites)
        if lifted.anchor_is_antiderivative:
            assert lifted.problem.sites.members == sites
            checked += 1
        else:
            with pytest.raises(AbstractConvexError,
                               match="anchor is not an antiderivative"):
                lifted.problem
    assert checked >= 20


def test_theorem_b_raises_the_problem_error_from_the_held_verdict(rng):
    c = random_coupling(rng, 3, 3)
    lifted = Lifted(partly_grown(rng, c, EPS), c, EPS)
    assert lifted.t_monotone
    lifted.anchor_is_antiderivative = False  # fills the cached property
    with pytest.raises(AbstractConvexError,
                       match="^anchor is not an antiderivative of the mapping$"):
        lifted.theorem6B()
