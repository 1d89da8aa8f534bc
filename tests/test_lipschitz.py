import json
import math
import random

import pytest

from abconvex import (
    AbstractConvexError,
    ExtFunction,
    ExtensionProblem,
    GroundSet,
    IndexMismatchError,
    IndexSubset,
    InstanceError,
    MetricError,
    MetricInstance,
    MultiMapping,
    as_coupling,
    extend_max,
    extend_max_closed_form,
    extend_min,
    extend_min_closed_form,
    identity_mapping,
    identity_on,
    is_1_lipschitz,
    lipschitz_characterize,
    mcshane_whitney_max,
    mcshane_whitney_min,
    metric_from_rows,
    parse_instance,
    pointwise_le,
    random_lipschitz_function,
    random_metric,
    sup_distance,
)

from references import (
    first_triangle_failure,
    metric_error,
    random_metric_per_cell,
    reference_metric_error,
)

EPS = 1e-9


def line3_metric() -> MetricInstance:
    pts = GroundSet(("0", "1", "3"))
    return metric_from_rows(pts, [[0, 1, 3], [1, 0, 2], [3, 2, 0]])


def line3_problem() -> ExtensionProblem:
    d = line3_metric()
    f = ExtFunction(d.points, (0.0, 0.0, 2.0))
    m = MultiMapping(d.points, d.points, ((0, 0), (2, 2)))
    return ExtensionProblem(d, m, f, IndexSubset(d.points, (0, 2)))


def test_metric_axioms_enforced():
    pts = GroundSet(("u", "v"))
    with pytest.raises(MetricError):
        metric_from_rows(pts, [[0, 1], [2, 0]])  # asymmetric
    with pytest.raises(MetricError):
        metric_from_rows(pts, [[0, -1], [-1, 0]])  # negative
    with pytest.raises(MetricError):
        metric_from_rows(pts, [[0, 0], [0, 0]])  # zero off-diagonal
    metric_from_rows(pts, [[0, 0], [0, 0]], pseudometric=True)
    tri = GroundSet(("u", "v", "w"))
    with pytest.raises(MetricError):
        metric_from_rows(tri, [[0, 1, 5], [1, 0, 1], [5, 1, 0]])  # triangle


def test_line3_extension_endpoints():
    p = line3_problem()
    lo, hi = extend_min(p), extend_max(p)
    assert lo.values == (0.0, 0.0, 2.0)
    assert hi.values == (0.0, 1.0, 2.0)


def test_line3_matches_closed_forms_and_mcshane_whitney():
    p = line3_problem()
    lo, hi = extend_min(p), extend_max(p)
    assert sup_distance(lo, extend_min_closed_form(p)) <= EPS
    assert sup_distance(hi, extend_max_closed_form(p)) <= EPS
    d, f, s = p.metric, p.values, p.sites
    assert sup_distance(lo, mcshane_whitney_min(d, s, f)) <= EPS
    assert sup_distance(hi, mcshane_whitney_max(d, s, f)) <= EPS


def test_extension_hypothesis_rejected_when_too_steep():
    d = line3_metric()
    too_steep = ExtFunction(d.points, (0.0, 0.0, 4.0))  # slope 4/3 > 1
    m = MultiMapping(d.points, d.points, ((0, 0), (2, 2)))
    with pytest.raises(AbstractConvexError):
        ExtensionProblem(d, m, too_steep, IndexSubset(d.points, (0, 2)))


def test_four_way_characterization(rng):
    for _ in range(30):
        d = random_metric(rng, 8)
        f = random_lipschitz_function(rng, d)
        rep = lipschitz_characterize(f, d)
        assert rep.unanimous and rep.is_lipschitz_1
        # steepen beyond the metric: all four votes must flip together
        spiked = ExtFunction(
            f.index,
            tuple(v + (30.0 if i == 0 else 0.0) for i, v in enumerate(f.values)))
        rep = lipschitz_characterize(spiked, d)
        assert rep.unanimous and not rep.is_lipschitz_1


def test_transform_negation_reading(rng):
    from abconvex import c_transform
    d = random_metric(rng, 6)
    f = random_lipschitz_function(rng, d)
    c = as_coupling(d)
    fc = c_transform(f, c)
    assert sup_distance(fc, ExtFunction(f.index, tuple(-v for v in f.values))) <= EPS


def test_random_extensions_are_constrained_lipschitz(rng):
    for _ in range(40):
        d = random_metric(rng, 7)
        f = random_lipschitz_function(rng, d)
        k = rng.randint(1, 6)
        dom = sorted(rng.sample(range(7), k))
        m = identity_on(IndexSubset(d.points, tuple(dom)))
        p = ExtensionProblem(d, m, f, IndexSubset(d.points, tuple(dom)))
        lo, hi = extend_min(p), extend_max(p)
        for g in (lo, hi):
            assert is_1_lipschitz(g, d)
            for s in dom:
                assert abs(g(s) - f(s)) <= 1e-7
        assert pointwise_le(lo, hi, 1e-7)
        assert pointwise_le(lo, f, 1e-7)
        assert pointwise_le(f, hi, 1e-7)


def test_full_identity_extension_is_the_function_itself(rng):
    d = random_metric(rng, 6)
    f = random_lipschitz_function(rng, d)
    m = identity_mapping(d)
    p = ExtensionProblem(d, m, f, IndexSubset(d.points, tuple(range(6))))
    assert sup_distance(extend_min(p), f) <= 1e-7
    assert sup_distance(extend_max(p), f) <= 1e-7


def test_closed_forms_match_envelopes_random(rng):
    for _ in range(30):
        d = random_metric(rng, 7)
        f = random_lipschitz_function(rng, d)
        dom = tuple(sorted(rng.sample(range(7), rng.randint(1, 5))))
        m = identity_on(IndexSubset(d.points, dom))
        p = ExtensionProblem(d, m, f, IndexSubset(d.points, dom))
        assert sup_distance(extend_min(p), extend_min_closed_form(p)) <= 1e-7
        assert sup_distance(extend_max(p), extend_max_closed_form(p)) <= 1e-7
        assert sup_distance(extend_min(p),
                            mcshane_whitney_min(d, p.sites, f)) <= 1e-7
        assert sup_distance(extend_max(p),
                            mcshane_whitney_max(d, p.sites, f)) <= 1e-7


def test_non_identity_constraints_tighten_the_band(rng):
    # adding a distance-preservation pair (x, y) with x != y can only shrink
    # the family, so the band must narrow or stay put
    for _ in range(40):
        d = random_metric(rng, 6)
        f = random_lipschitz_function(rng, d)
        dom = tuple(sorted(rng.sample(range(6), 3)))
        m = identity_on(IndexSubset(d.points, dom))
        p = ExtensionProblem(d, m, f, IndexSubset(d.points, dom))
        x, y = rng.sample(dom, 2)
        if abs(abs(f(x) - f(y)) - d(x, y)) > EPS:
            continue
        if f(x) > f(y):
            x, y = y, x  # orient so f(x) - f(y) = -d(x, y)
        m2 = m.with_pair(x, y)
        p2 = ExtensionProblem(d, m2, f, IndexSubset(d.points, dom), eps=1e-6)
        assert pointwise_le(extend_min(p), extend_min(p2), 1e-7)
        assert pointwise_le(extend_max(p2), extend_max(p), 1e-7)


def test_characterize_rejects_infinite_values():
    d = line3_metric()
    f = ExtFunction(d.points, (0.0, math.inf, 1.0))
    with pytest.raises(AbstractConvexError):
        lipschitz_characterize(f, d)


# ---------------------------------------------------------------- triangle check
# ``first_triangle_failure`` (in ``references.py``) is the per-triple loop
# the row kernel replaced.  The kernel must accept the same matrices and
# name the same first failing (i, j, k) in loop order.

def test_triangle_check_matches_per_triple_form(rng):
    fails = passes = 0
    for trial in range(300):
        n = rng.randint(1, 8)
        metric = random_metric(rng, n)
        d = [list(row) for row in metric.dist]
        eps = (EPS, 0.0, 0.25)[trial % 3]
        # stretch edges to exactly the eps margin or one float past it
        for _ in range(rng.randint(0, 3)):
            i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            if i != k:
                edge = d[i][j] + d[j][k] + eps
                if rng.random() < 0.5:
                    edge = math.nextafter(edge, math.inf)
                d[i][k] = d[k][i] = edge
        want = first_triangle_failure(d, eps)
        got = metric_error(d, eps)
        if want is None:
            passes += 1
            assert got is None
        else:
            fails += 1
            assert got == "triangle inequality fails at ({},{},{})".format(*want)
    assert fails >= 80 and passes >= 80


def test_triangle_check_at_exactly_eps_in_a_document(fixture_dir):
    raw = json.loads((fixture_dir / "line3.json").read_text())
    rows = raw["coupling"]["metric"]["distances"]
    at_eps = 1.0 + 2.0 + EPS  # d(0,1) + d(1,3) + eps: holds with equality
    for d02, error in ((at_eps, None),
                       (math.nextafter(at_eps, math.inf), "(0,1,2)")):
        rows[0][2] = rows[2][0] = d02
        if error is None:
            parse_instance(json.dumps(raw))
            continue
        with pytest.raises(InstanceError) as err:
            parse_instance(json.dumps(raw))
        assert str(err.value).endswith(f"triangle inequality fails at {error}")


# ------------------------------------------- symmetric half scan and axioms
# An exactly symmetric matrix tests each unordered (i, k) once; one that is
# symmetric only within eps keeps the full scan.  ``axiom_failure`` finds
# each axiom's failing cells on its own and names the first in the check's
# order; with ``first_triangle_failure``, the per-triple loop the triangle
# kernel replaced, it gives ``reference_metric_error``, the reference
# message of any matrix.

def test_triangle_check_on_matrices_asymmetric_within_eps(rng):
    # d(i, k) at the eps margin of its least detour or one float past it,
    # d(k, i) up to eps below: (i, k) fails while (k, i) holds, and when
    # k < i only the full scan of row i finds the failure
    lower = 0
    for trial in range(300):
        n = rng.randint(3, 8)
        d = [list(row) for row in random_metric(rng, n).dist]
        eps = (0.25, EPS, 2.0 ** -10)[trial % 3]
        i, k = rng.sample(range(n), 2)
        least = min(d[i][j] + d[j][k] for j in range(n) if j not in (i, k))
        d[i][k] = least + eps
        if trial % 4:
            d[i][k] = math.nextafter(d[i][k], math.inf)
        d[k][i] = d[i][k] - rng.choice((eps / 2, math.ulp(d[i][k])))
        want = reference_metric_error(d, eps)
        assert metric_error(d, eps) == want
        if want is not None:
            assert want.startswith("triangle") and want.endswith(f",{k})")
            assert all(d[k][i] <= d[k][j] + d[j][i] + eps for j in range(n))
            lower += k < i
    assert lower >= 60


def test_triangle_check_with_failures_only_below_the_diagonal():
    # d(2, 0) exceeds d(2, 1) + d(1, 0) + eps; d(0, 2) does not, and every
    # failing cell lies below the diagonal
    eps = 0.5
    d = [[0.0, 1.0, 2.0 + eps],
         [1.0, 0.0, 1.0],
         [2.0 + 2 * eps, 1.0, 0.0]]
    assert first_triangle_failure(d, eps) == (2, 1, 0)
    assert metric_error(d, eps) == "triangle inequality fails at (2,1,0)"
    d[2][0] = 2.0 + eps  # now exactly symmetric and at the margin
    assert metric_error(d, eps) is None


def test_pseudometric_with_signed_zeros_across_the_diagonal():
    # d(0, 1) = -0.0 and d(1, 0) = 0.0 compare equal, so the half scan runs;
    # 0.0 + x and -0.0 + x are equal, so the verdicts stay the reference's
    eps = EPS
    d = [[0.0, -0.0, 1.0],
         [0.0, -0.0, 1.0],
         [1.0, 1.0, 0.0]]
    assert metric_error(d, eps, True) is None
    assert metric_error(d, eps) == "zero distance between distinct points (0,1)"
    d[1][2], d[2][1] = 0.5, 0.5  # d(0, 2) > d(0, 1) + d(1, 2) + eps
    want = "triangle inequality fails at (0,1,2)"
    assert reference_metric_error(d, eps, True) == want
    assert metric_error(d, eps, True) == want
    flipped = [[-v if v == 0 else v for v in row] for row in d]
    assert metric_error(flipped, eps, True) == want


def test_one_point_metrics():
    for value, eps, want in ((0.0, EPS, None), (-0.0, EPS, None),
                             (EPS, EPS, None), (-EPS, EPS, None),
                             (2 * EPS, EPS, "d(0,0) != 0"),
                             (0.0, -EPS, f"metric eps must be nonnegative, "
                                         f"got {-EPS!r}"),
                             (math.inf, EPS, "d(0,0) != 0"),
                             (math.nan, EPS, "d(0,0) must be finite and nonnegative")):
        assert reference_metric_error([[value]], eps) == want
        assert metric_error([[value]], eps) == want
        assert metric_error([[value]], eps, True) == want


def test_axiom_kernels_match_per_cell_form(rng):
    # one bad cell (or a mirrored pair) of each kind in a valid metric: the
    # axioms, then the triangle kernel, must raise the reference's message
    seen = set()
    bad = (math.inf, -math.inf, math.nan, -1.0, -0.0, 0.0, EPS, 2 * EPS,
           1.7e308, -1.7e308)
    kinds = ("!= 0", "finite", "asymmetry", "zero", "triangle")
    for trial in range(600):
        n = rng.randint(1, 7)
        d = [list(row) for row in random_metric(rng, n).dist]
        eps = (EPS, 0.0, 0.25)[trial % 3]
        pseudo = trial % 4 == 0
        for _ in range(rng.randint(0, 2)):
            i, j = rng.randrange(n), rng.randrange(n)
            d[i][j] = rng.choice(bad)
            if rng.random() < 0.5:
                d[j][i] = d[i][j]
        want = reference_metric_error(d, eps, pseudo)
        assert metric_error(d, eps, pseudo) == want
        seen.add(next((kind for kind in kinds if kind in (want or "")), want))
    assert seen == set(kinds) | {None}


def test_all_finite_rows_whose_sums_overflow_are_accepted():
    # 1.7e308 + 1.7e308 overflows to inf in the triangle kernel, which no
    # entry exceeds
    big = 1.7e308
    d = [[0.0, big, big], [big, 0.0, big], [big, big, 0.0]]
    assert reference_metric_error(d, EPS) is None
    assert metric_error(d, EPS) is None


# ------------------------------------------------------------ random metrics
def test_random_metric_matches_per_cell_floyd_warshall():
    # random_metric negates the max-plus closure of -w: the same sums as
    # min-plus Floyd-Warshall, so the same floats
    for seed in range(90):
        n = (1 + seed % 23) if seed < 60 else (24, 40)[seed % 2]
        edge_prob = (0.5, 0.0, 0.1, 1.0)[seed % 4]
        got = random_metric(random.Random(seed), n, edge_prob).dist
        want = random_metric_per_cell(random.Random(seed), n, edge_prob)
        assert [list(map(float.hex, row)) for row in got] == [
            list(map(float.hex, row)) for row in want]


def test_mcshane_whitney_and_is_1_lipschitz_refuse_data_off_the_points():
    # sites on 4 points read past a 3-point metric's rows (IndexError),
    # and a 4-point f was read as if it lay on the 3 points
    metric = random_metric(random.Random(0), 3)
    four = GroundSet(("p0", "p1", "p2", "p3"))
    f, sites = ExtFunction(metric.points, (0.0,) * 3), IndexSubset(four, (3,))
    f4 = ExtFunction(four, (0.0, 1.0, 2.0, 3.0))
    on_points = IndexSubset(metric.points, (0,))
    for extend in (mcshane_whitney_min, mcshane_whitney_max):
        with pytest.raises(IndexMismatchError, match=(
                "^subset is not indexed by the metric points$")):
            extend(metric, sites, f)
        with pytest.raises(IndexMismatchError, match=(
                "^function is not indexed by the metric points$")):
            extend(metric, on_points, f4)
    with pytest.raises(IndexMismatchError, match=(
            "^function is not indexed by the metric points$")):
        is_1_lipschitz(f4, metric)


def test_a_negative_eps_is_refused_by_name():
    # at eps < 0 the triangle test at j = i reads d(i, k) > d(i, k) + eps,
    # so no matrix passes; the zero diagonal was refused as "d(0,0) != 0"
    points = GroundSet(("a", "b"))
    rows = ((0.0, 1.0), (1.0, 0.0))
    for eps in (-1e-9, -5e-324, -1.0):
        with pytest.raises(MetricError, match=(
                f"^metric eps must be nonnegative, got {eps!r}$")):
            MetricInstance(points, rows, eps=eps)
    assert MetricInstance(points, rows, eps=-0.0).eps == 0.0


def test_a_nan_eps_is_refused_by_the_metric_axioms():
    # every axiom compares with eps, and each comparison with nan is false,
    # so a triangle failure (5 > 1 + 1) passed
    points = GroundSet(("a", "b", "c"))
    rows = ((0.0, 1.0, 5.0), (1.0, 0.0, 1.0), (5.0, 1.0, 0.0))
    with pytest.raises(MetricError, match="triangle"):
        MetricInstance(points, rows)
    with pytest.raises(ValueError, match="^eps must be finite$"):
        MetricInstance(points, rows, eps=math.nan)
