import itertools
import math
import random

import pytest

from abconvex import (
    INF,
    BudgetExceededError,
    GroundSet,
    ImproperFunctionError,
    MultiMapping,
    build_gain_graph,
    c_subdifferential,
    coupling_from_rows,
    inject_positive_two_cycle,
    is_cyclically_monotone,
    is_maximal_cyclically_monotone,
    is_maximal_n_monotone,
    is_monotone,
    is_n_monotone,
    n_monotone_oracle,
    random_coupling,
    random_cyclically_monotone_mapping,
)
from abconvex.monotone import (
    _chain_gain,
    _cyclic_verdict,
    _exact_cyclic_verdict,
    _max_plus_closure,
)
from conftest import mixed_mappings, two_cycle_instance

EPS = 1e-9


def test_gain_graph_on_fixture_mapping(two_point):
    gg = build_gain_graph(two_point.m, two_point.c)
    assert gg.nodes == (2, 3, 4)
    # M maps everything to a, where c(x, a) = x, so gain(u, v) = v - u
    pts = two_point.points
    for i, u in enumerate(gg.nodes):
        for v in range(5):
            assert gg.gain[i][v] == pts[v] - pts[u]
            assert gg.witness[i][v] == 0


def test_fixture_mapping_is_cyclically_monotone(two_point):
    assert is_cyclically_monotone(two_point.m, two_point.c)
    assert is_monotone(two_point.m, two_point.c)
    for n in range(1, 5):
        assert is_n_monotone(two_point.m, two_point.c, n)


def test_subdifferential_graphs_are_cyclically_monotone(two_point):
    for f in (two_point.f_id, two_point.f_abs):
        sub = c_subdifferential(f, two_point.c)
        assert is_cyclically_monotone(sub.mapping, two_point.c)


def test_monotone_but_not_three_monotone():
    # classic 2-but-not-3 example on a 3x3 coupling
    rng = random.Random(7)
    for _ in range(200):
        c = random_coupling(rng, 3, 3)
        m = MultiMapping(c.domain, c.codomain, ((0, 0), (1, 1), (2, 2)))
        two = bool(is_n_monotone(m, c, 2))
        three = bool(is_n_monotone(m, c, 3))
        if two and not three:
            assert not is_cyclically_monotone(m, c)
            return
    pytest.fail("no 2-but-not-3-monotone instance found")


def test_failure_witness_reproduces_violation(two_point, rng):
    m, c = inject_positive_two_cycle(rng, two_point.m, two_point.c)
    res = is_cyclically_monotone(m, c)
    assert not res
    assert res.witness is not None
    assert _chain_gain(res.witness, c) > 1e-9
    assert set(res.witness) <= set(m.graph)


def test_n_monotone_matches_oracle(rng):
    for _ in range(150):
        c = random_coupling(rng, 4, 4)
        m = MultiMapping(
            c.domain, c.codomain,
            tuple({(rng.randrange(4), rng.randrange(4))
                   for _ in range(rng.randint(1, 6))}))
        for n in (1, 2, 3):
            got = is_n_monotone(m, c, n)
            want = n_monotone_oracle(m, c, n)
            assert bool(got) == bool(want)
            if not got:
                assert _chain_gain(got.witness, c) > 1e-9


def test_gain_graph_fallback_matches_enumeration(rng):
    # force the fallback by dropping the budget, then compare to the oracle
    import abconvex.monotone as mono
    for _ in range(50):
        c = random_coupling(rng, 4, 4)
        m = MultiMapping(
            c.domain, c.codomain,
            tuple({(rng.randrange(4), rng.randrange(4))
                   for _ in range(rng.randint(2, 8))}))
        for n in (2, 3):
            want = n_monotone_oracle(m, c, n)
            saved = mono.ENUMERATION_BUDGET
            mono.ENUMERATION_BUDGET = 0
            try:
                got = is_n_monotone(m, c, n)
            finally:
                mono.ENUMERATION_BUDGET = saved
            assert bool(got) == bool(want)
            if not got:
                assert _chain_gain(got.witness, c) > 1e-9


def test_cyclic_equals_all_orders_up_to_domain_size(rng):
    for _ in range(100):
        c = random_coupling(rng, 4, 3)
        m = MultiMapping(
            c.domain, c.codomain,
            tuple({(rng.randrange(4), rng.randrange(3))
                   for _ in range(rng.randint(1, 5))}))
        cyc = bool(is_cyclically_monotone(m, c))
        each = all(bool(n_monotone_oracle(m, c, n))
                   for n in range(1, len(m.dom) + 2))
        assert cyc == each


def test_constructed_mappings_are_cyclically_monotone(rng):
    for _ in range(50):
        c = random_coupling(rng, 5, 4)
        m = random_cyclically_monotone_mapping(rng, c)
        assert is_cyclically_monotone(m, c)


def test_injected_two_cycle_breaks_monotonicity(rng):
    for _ in range(50):
        c = random_coupling(rng, 5, 4)
        m = random_cyclically_monotone_mapping(rng, c)
        bad_m, bad_c = inject_positive_two_cycle(rng, m, c)
        assert not is_monotone(bad_m, bad_c)
        assert not is_cyclically_monotone(bad_m, bad_c)


def test_one_monotone_is_unconditional(rng):
    # a single pair contributes zero gain, so 1-monotonicity always holds
    for _ in range(20):
        c = random_coupling(rng, 3, 3)
        m = MultiMapping(c.domain, c.codomain,
                         ((rng.randrange(3), rng.randrange(3)),))
        assert is_n_monotone(m, c, 1)


def test_maximality_of_full_subdifferential(two_point):
    sub = c_subdifferential(two_point.f_abs, two_point.c)
    assert is_maximal_cyclically_monotone(sub.mapping, two_point.c)


def test_strict_subgraph_of_subdifferential_is_not_maximal(two_point):
    sub = c_subdifferential(two_point.f_abs, two_point.c)
    smaller = MultiMapping(two_point.x, two_point.y, sub.graph[:-1])
    assert not is_maximal_cyclically_monotone(smaller, two_point.c)
    assert is_cyclically_monotone(smaller, two_point.c)


def test_maximal_n_monotone_with_candidate_pool(two_point):
    sub = c_subdifferential(two_point.f_abs, two_point.c)
    pool = [(x, y) for x in range(5) for y in range(2)]
    assert is_maximal_n_monotone(sub.mapping, two_point.c, 2, candidates=pool)


def test_empty_mapping_is_rejected(two_point):
    m = MultiMapping(two_point.x, two_point.y, ())
    with pytest.raises(ImproperFunctionError):
        is_cyclically_monotone(m, two_point.c)


def test_oracle_budget_guard(rng):
    c = random_coupling(rng, 5, 5)
    pairs = tuple((x, y) for x in range(5) for y in range(5))
    m = MultiMapping(c.domain, c.codomain, pairs)
    with pytest.raises(BudgetExceededError):
        n_monotone_oracle(m, c, 5)  # 25^5 > 10^6


def test_n_monotone_rejects_nonpositive_order(two_point):
    with pytest.raises(ValueError):
        is_n_monotone(two_point.m, two_point.c, 0)


def test_closure_verdict_matches_exact_length_route(rng):
    failing = 0
    for m, c in mixed_mappings(rng, 240):
        got = is_cyclically_monotone(m, c, EPS)
        want = _exact_cyclic_verdict(build_gain_graph(m, c), EPS)
        assert (got.holds, got.witness) == (want.holds, want.witness)
        if not got:
            failing += 1
            assert _chain_gain(got.witness, c) > EPS
    assert 80 <= failing <= 200  # both verdicts are exercised


def _best_walks(a, max_len):
    """Best gain of a walk of 1..max_len steps, by repeated max-plus products."""
    k = len(a)
    walk, best = a, [row[:] for row in a]
    for _ in range(max_len - 1):
        walk = [[max(walk[u][w] + a[w][v] for w in range(k)) for v in range(k)]
                for u in range(k)]
        best = [[max(p, q) for p, q in zip(b, w)] for b, w in zip(best, walk)]
    return best


def test_closure_is_best_walk_gain_without_positive_cycles(rng):
    for _ in range(100):
        n = rng.randint(2, 9)
        c = random_coupling(rng, n, n)
        a = build_gain_graph(random_cyclically_monotone_mapping(rng, c), c).restricted()
        got = _max_plus_closure(a, INF)
        want = _best_walks(a, len(a))
        assert max(abs(p - q) for g, w in zip(got, want)
                   for p, q in zip(g, w)) <= 1e-12


def test_closure_keeps_positive_cycles_finite():
    # a 2-cycle of gain 1 traversed once, not pumped by the pivot order
    a = [[0.0, 0.0], [1.0, 0.0]]
    assert _max_plus_closure(a, INF) == [[1.0, 0.0], [1.0, 1.0]]
    assert _max_plus_closure(a, 0.5) is None
    assert _max_plus_closure([[0.0]], 0.0) == [[0.0]]
    assert _max_plus_closure([[0.0]], -EPS) is None


def test_negative_eps_fails_every_mapping(two_point):
    # the one-step walk u -> u gains 0 > eps: the exact route's verdict and witness
    for m in (two_point.m, MultiMapping(two_point.x, two_point.y, ((2, 0),))):
        got = is_cyclically_monotone(m, two_point.c, -EPS)
        want = _exact_cyclic_verdict(build_gain_graph(m, two_point.c), -EPS)
        assert not got and got == want


@pytest.mark.parametrize("gain, closure_passes, holds", [
    (0.0, True, True),
    (EPS / 2, True, True),          # <= eps/k with k = 2
    (0.8 * EPS, False, True),       # in (eps/k, eps]: the exact route passes
    (EPS, False, True),
    (1.1 * EPS, False, False),
])
def test_two_cycle_threshold_routes(gain, closure_passes, holds):
    m, c = two_cycle_instance(gain)
    verdict, closure = _cyclic_verdict(build_gain_graph(m, c), EPS)
    assert (closure is not None) == closure_passes
    assert verdict.holds == holds
    assert is_cyclically_monotone(m, c, EPS) == verdict
    if not holds:
        assert _chain_gain(verdict.witness, c) > EPS
        assert set(verdict.witness) <= set(m.graph)


def test_enumeration_route_matches_oracle_witness(rng):
    # verdict and witness tuple, n = 1..4, on monotone mappings, random
    # graphs and injected 2-cycles, with ties from integer couplings and a
    # negative eps that fails every selection
    draws = mixed_mappings(rng, 90, max_pairs=6)
    x = GroundSet(("0", "1", "2"))
    for _ in range(30):
        c = coupling_from_rows(x, x, [[rng.choice((-1.0, -0.0, 0.0, 1.0))
                                       for _ in range(3)] for _ in range(3)])
        pairs = {(rng.randrange(3), rng.randrange(3)) for _ in range(4)}
        draws.append((MultiMapping(x, x, tuple(pairs)), c))
    for i, (m, c) in enumerate(draws):
        eps = -1.0 if i % 10 == 9 else EPS
        for n in (1, 2, 3, 4):
            got = is_n_monotone(m, c, n, eps)
            want = n_monotone_oracle(m, c, n, eps)
            assert (got.holds, got.witness) == (want.holds, want.witness)


def test_enumeration_route_at_exact_gain_thresholds(rng):
    # eps = a selection's exact chain gain, and the next float below it: a
    # gain summed in another order than _chain_gain's is an ulp off often
    # enough to flip a verdict or move a witness at one of them
    for m, c in mixed_mappings(rng, 60, max_pairs=5):
        for n in (2, 3, 4):
            gains = sorted({_chain_gain(sel, c)
                            for sel in itertools.product(m.graph, repeat=n)})
            for best in rng.sample(gains, min(4, len(gains))) + [gains[-1]]:
                for eps in (best, math.nextafter(best, -INF)):
                    got = is_n_monotone(m, c, n, eps)
                    want = n_monotone_oracle(m, c, n, eps)
                    assert (got.holds, got.witness) == (want.holds, want.witness)
