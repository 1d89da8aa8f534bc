import itertools
import json
import math
import random

import pytest

from abconvex import (
    INF,
    AbstractConvexError,
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
    parse_instance,
    random_coupling,
    random_cyclically_monotone_mapping,
)
from abconvex import monotone
from abconvex.fitzpatrick import delta_mapping, full_diagonal, product_coupling
from abconvex.monotone import _chain_gain, _cyclic_walks, _max_plus_closure
from conftest import (
    assert_same_floats,
    mixed_mappings,
    one_point_couplings,
    two_cycle_instance,
)
from references import (
    TIE_KINDS,
    band_instance,
    closure_per_cell,
    gain_graph_per_cell,
    guard_value,
    kernel_coupling,
    maximal_by_recheck,
    partly_grown,
    random_graph,
    reference_closed_walks,
    reference_cyclic_verdict,
    reference_verdict,
    seeded_route,
    table_labels_per_cell,
    witness_table,
)

EPS = 1e-9


def test_gain_graph_on_fixture_mapping(two_point):
    gg = build_gain_graph(two_point.m, two_point.c)
    assert gg.nodes == (2, 3, 4)
    # M maps everything to a, where c(x, a) = x, so gain(u, v) = v - u
    pts = two_point.points
    for i, u in enumerate(gg.nodes):
        for v in range(5):
            assert gg.gain[i][v] == pts[v] - pts[u]
            assert gg.witness(u, v) == 0


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


def test_order_two_past_a_thousand_pairs():
    # 1024 pairs, so 1024^2 selections: past the oracle's budget
    x = GroundSet(tuple(map(str, range(32))))
    rows = [[0.0] * 32 for _ in range(32)]
    full = tuple(itertools.product(range(32), repeat=2))
    m = MultiMapping(x, x, full)
    assert is_n_monotone(m, coupling_from_rows(x, x, rows), 2, EPS)
    rows[5][7] = 1.0
    c = coupling_from_rows(x, x, rows)
    with pytest.raises(BudgetExceededError):
        n_monotone_oracle(m, c, 2, EPS)
    # the oracle's loop without its guard, which stops at the first hit
    first = next(sel for sel in itertools.product(full, repeat=2)
                 if _chain_gain(sel, c) > EPS)
    assert first == ((0, 7), (5, 0))
    got = is_n_monotone(m, c, 2, EPS)
    assert (got.holds, got.witness) == (False, first)


def test_orders_two_and_three_at_the_largest_document_magnitude(rng):
    # +-2**900 is the largest magnitude a document accepts: no gain or walk
    # overflows there, so the verdicts are the oracle's (at +-1.7e308 an
    # inf - inf nan moved a few round-3 verdicts)
    big, labels = 2.0 ** 900, ["a", "b", "c"]
    for _ in range(3000):
        rows = [[rng.choice((-big, -1.0, 0.0, 1.0, big)) for _ in range(3)]
                for _ in range(3)]
        pairs = {(rng.choice(labels), rng.choice(labels))
                 for _ in range(rng.randint(1, 6))}
        doc = parse_instance(json.dumps({
            "schema_version": "1", "ground_sets": {"P": labels},
            "coupling": {"domain": "P", "codomain": "P", "values": rows},
            "mappings": {"M": {"source": "P", "target": "P",
                               "pairs": sorted(pairs)}}}))
        m, c = doc.mapping("M"), doc.coupling
        for n in (2, 3):
            assert bool(is_n_monotone(m, c, n, EPS)) == bool(
                n_monotone_oracle(m, c, n, EPS))


def test_walk_round_predecessors_are_budgeted(two_point, monkeypatch):
    # k = 3 nodes: order n computes (n - 1) * 9 walk entries
    monkeypatch.setattr(monotone, "ENUMERATION_BUDGET", 18)
    assert is_n_monotone(two_point.m, two_point.c, 3)
    with pytest.raises(BudgetExceededError):
        is_n_monotone(two_point.m, two_point.c, 4)


def test_n_monotone_rejects_nonpositive_order(two_point):
    with pytest.raises(ValueError):
        is_n_monotone(two_point.m, two_point.c, 0)


def test_closure_verdict_matches_exact_length_route(rng):
    failing = 0
    for m, c in mixed_mappings(rng, 240):
        got = is_cyclically_monotone(m, c, EPS)
        want = reference_cyclic_verdict(build_gain_graph(m, c), EPS)
        assert (got.holds, got.witness) == want
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
        want = reference_cyclic_verdict(build_gain_graph(m, two_point.c), -EPS)
        assert not got and (got.holds, got.witness) == want


@pytest.mark.parametrize("gain, closure_passes, holds", [
    (0.0, True, True),
    (EPS / 2, True, True),          # <= eps/k with k = 2
    (0.8 * EPS, False, True),       # in (eps/k, eps]: the exact route passes
    (EPS, False, True),
    (1.1 * EPS, False, False),
])
def test_two_cycle_threshold_routes(gain, closure_passes, holds):
    m, c = two_cycle_instance(gain)
    gg = build_gain_graph(m, c)
    closure = _max_plus_closure(gg.restricted(), EPS / 2)
    verdict, walks = _cyclic_walks(gg, EPS)
    assert (closure is not None) == closure_passes
    assert verdict.holds == holds
    assert (walks is None) == (not holds)
    if closure_passes:
        assert walks == closure
    assert is_cyclically_monotone(m, c, EPS) == verdict
    if not holds:
        assert _chain_gain(verdict.witness, c) > EPS
        assert set(verdict.witness) <= set(m.graph)


def assert_order_route(m, c, n, eps):
    """The oracle's verdict at every order and its witness at order 2; at
    any other order the witness of walk round n, a violating selection of
    n pairs from G(M)."""
    got = is_n_monotone(m, c, n, eps)
    want = n_monotone_oracle(m, c, n, eps)
    assert got.holds == want.holds
    if n == 2:
        assert got.witness == want.witness
        return
    gg = build_gain_graph(m, c)
    diag_best, cycles = reference_closed_walks(gg.restricted(), n)
    assert (got.holds, got.witness) == reference_verdict(
        gg, diag_best[-1], cycles[-1], eps)
    if not got:
        assert len(got.witness) == n and set(got.witness) <= set(m.graph)
        assert _chain_gain(got.witness, c) > eps


def test_enumeration_route_matches_oracle_witness(rng):
    # n = 1..4 on monotone mappings, random graphs and injected 2-cycles,
    # with ties from integer couplings and a negative eps that fails every
    # selection
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
            assert_order_route(m, c, n, eps)


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
                    assert_order_route(m, c, n, eps)


def test_walk_rounds_pin_reference_witnesses(rng):
    # the cyclic verdict (first length over eps after all k rounds), the
    # n-monotone route at orders other than 2 (round n) and the witness
    # rockafellar raises
    from abconvex import NotCyclicallyMonotoneError, rockafellar
    failing = 0
    for m, c in mixed_mappings(rng, 240):
        gg = build_gain_graph(m, c)
        k = len(gg.nodes)
        diag_best, cycles = reference_closed_walks(gg.restricted(), max(k, 3))
        want = next((reference_verdict(gg, diag_best[i], cycles[i], EPS)
                     for i in range(k) if diag_best[i] > EPS), (True, None))
        got = is_cyclically_monotone(m, c, EPS)
        assert (got.holds, got.witness) == want
        if not got:
            failing += 1
            with pytest.raises(NotCyclicallyMonotoneError) as err:
                rockafellar(m, c, m.dom[0], EPS)
            assert err.value.witness == want[1]
        for n in (1, 3):
            got = is_n_monotone(m, c, n, EPS)
            assert (got.holds, got.witness) == reference_verdict(
                gg, diag_best[n - 1], cycles[n - 1], EPS)
    assert 80 <= failing <= 200


def test_rebuilt_cycles_are_the_reference_cycles_at_every_length(rng):
    # a failing round rebuilds its cycle from one row: the same nodes as a
    # full predecessor table at every length, ties and signed zeros included
    lengths = 0
    for trial in range(150):
        n = rng.randint(1, 6)
        c = kernel_coupling(rng, n, n, ties=TIE_KINDS[trial % 3])
        m = random_graph(rng, c, 2 * n)
        gg = build_gain_graph(m, c)
        a = gg.restricted()
        k = len(a)
        diag_best, cycles = reference_closed_walks(a, k + 1)
        rounds = itertools.islice(monotone._walk_rounds(a), k + 1)
        for length, (best, where, _) in enumerate(rounds, 1):
            assert_same_floats([best], [diag_best[length - 1]])
            got = monotone._failure(gg, a, where, length)
            assert (got.holds, got.witness) == reference_verdict(
                gg, best, cycles[length - 1], -INF)
            lengths += length > 2
    assert lengths >= 150  # walks of three steps and more


# ---------------------------------------------------------------- row kernels
# The per-cell reference forms of the gain graph and the closure live in
# ``references.py``.  The row kernels must match them bit for bit,
# witnesses included.

def assert_same_matrix(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_same_floats(g, w)


def test_gain_graph_matches_per_cell_form(rng):
    multi = 0
    for trial in range(300):
        nx, ny = rng.randint(1, 7), rng.randint(1, 7)
        c = kernel_coupling(rng, nx, ny, ties=TIE_KINDS[trial % 3])
        m = random_graph(rng, c, 2 * nx)
        gg = build_gain_graph(m, c)
        nodes, gain, witness = gain_graph_per_cell(m, c)
        assert gg.nodes == nodes == m.dom
        assert witness_table(gg) == witness
        assert_same_matrix(gg.gain, gain)
        multi += any(len(m(u)) > 1 for u in nodes)
    assert multi >= 100  # the fold over several images is exercised


def test_gain_graph_on_one_point_sets():
    for c in one_point_couplings():
        cells = tuple(itertools.product(range(c.domain.size),
                                        range(c.codomain.size)))
        for graph in [(p,) for p in cells] + [cells]:
            m = MultiMapping(c.domain, c.codomain, graph)
            gg = build_gain_graph(m, c)
            nodes, gain, witness = gain_graph_per_cell(m, c)
            assert (gg.nodes, witness_table(gg)) == (nodes, witness)
            assert_same_matrix(gg.gain, gain)


def _closure_input(rng, k, kind):
    """A k x k gain matrix: 0 uniform reals, 1 small integers and signed
    zeros, 2 reals with -inf entries and a node no walk reaches."""
    if kind == 1:
        return [[rng.choice(TIE_KINDS[1]) for _ in range(k)] for _ in range(k)]
    a = [[rng.uniform(-5.0, 1.0) for _ in range(k)] for _ in range(k)]
    if kind == 2:
        for row in a:
            for v in range(k):
                if rng.random() < 0.3:
                    row[v] = -INF
        lost = rng.randrange(k)
        for row in a:
            row[lost] = -INF
    return a


def test_closure_matches_per_cell_form(rng):
    stopped = passed = 0
    for trial in range(300):
        k = rng.randint(1, 7)
        a = _closure_input(rng, k, trial % 3)
        for limit in (INF, 1.0, 0.0, EPS, -0.5):
            got = _max_plus_closure(a, limit)
            want = closure_per_cell(a, limit)
            assert (got is None) == (want is None)
            if got is None:
                stopped += 1
            else:
                passed += 1
                assert_same_matrix(got, want)
    assert stopped >= 300 and passed >= 300  # the early None is exercised


def test_closure_keeps_unreachable_entries_at_minus_infinity():
    # node 1 has no arcs in and node 2 none out; -0.0 on the diagonal stays
    a = [[-0.0, -INF, 1.0], [-1.0, -INF, 2.0], [-INF, -INF, -INF]]
    got = _max_plus_closure(a, INF)
    assert_same_matrix(got, closure_per_cell(a, INF))
    assert [row[1] for row in got] == [-INF] * 3
    assert got[2] == [-INF] * 3
    assert got[0][0] == 0.0 and math.copysign(1.0, got[0][0]) == -1.0


# ------------------------------------------------- order-2 maximality kernel
# The enumeration oracle's recheck of every extension (``maximal_by_recheck``)
# is the reference for the row kernel, which ``is_n_monotone`` at order 2
# also runs.

def best_extension_gains(m, c, x, y):
    """Both orders of every two-pair selection with the candidate (x, y)."""
    return [_chain_gain(sel, c) for q in m.graph
            for sel in (((x, y), q), (q, (x, y)))]


def test_order_two_maximality_kernel_matches_recheck(rng):
    seen = set()
    for trial in range(240):
        nx, ny = rng.randint(1, 5), rng.randint(1, 5)
        c = kernel_coupling(rng, nx, ny, ties=TIE_KINDS[trial % 3])
        eps = (EPS, 0.0, 1.0)[trial % 7 % 3]
        m = (partly_grown(rng, c, eps) if trial % 4
             else random_graph(rng, c, 2 * max(nx, ny)))
        want = maximal_by_recheck(m, c, eps)
        assert is_maximal_n_monotone(m, c, 2, eps) is want
        seen.add((bool(is_n_monotone(m, c, 2, eps)), want))
    # monotone and maximal, monotone and extendable, and not monotone
    assert seen == {(True, True), (True, False), (False, False)}


def test_order_two_kernel_at_exact_gain_thresholds(rng):
    # eps = a candidate's best extension gain passes the candidate, so the
    # mapping is not maximal; one float below it rejects the candidate
    checked = 0
    for trial in range(120):
        c = kernel_coupling(rng, 3, 3, ties=TIE_KINDS[trial % 3])
        m = partly_grown(rng, c, EPS)
        outside = [(x, y) for x in range(3) for y in range(3) if (x, y) not in m]
        if not outside:
            continue
        x, y = rng.choice(outside)
        best = max(best_extension_gains(m, c, x, y))
        own = max(_chain_gain(sel, c)
                  for sel in itertools.product(m.graph, repeat=2))
        for eps in (best, math.nextafter(best, -INF)):
            if own > eps:
                continue  # m itself fails at this eps
            want = maximal_by_recheck(m, c, eps, [(x, y)])
            assert is_maximal_n_monotone(m, c, 2, eps, [(x, y)]) is want
            assert want is (eps < best)
            checked += 1
    assert checked >= 100


def test_order_two_kernel_on_a_two_cycle_gaining_exactly_eps():
    # M = {(0, 0)}; the candidate (1, 1) closes a 2-cycle gaining c(0, 1)
    for gain, rejected in ((EPS, False), (math.nextafter(EPS, INF), True),
                           (-0.0, False)):
        identity, c = two_cycle_instance(gain)
        m = MultiMapping(identity.source, identity.target, ((0, 0),))
        assert is_maximal_n_monotone(m, c, 2, EPS, [(1, 1)]) is rejected
        assert maximal_by_recheck(m, c, EPS, [(1, 1)]) is rejected


def test_order_two_kernel_on_the_lifted_diagonal(rng):
    for trial in range(40):
        c = kernel_coupling(rng, rng.randint(1, 3), rng.randint(1, 3),
                            ties=TIE_KINDS[trial % 3])
        pc = product_coupling(c)
        t = partly_grown(rng, c, EPS) if trial % 2 else random_graph(rng, c, 4)
        delta, diagonal = delta_mapping(t, pc), full_diagonal(pc)
        want = maximal_by_recheck(delta, pc, EPS, diagonal)
        assert is_maximal_n_monotone(delta, pc, 2, EPS,
                                     candidates=diagonal) is want


def test_order_two_kernel_keeps_the_candidate_range_error(two_point):
    sub = c_subdifferential(two_point.f_abs, two_point.c).mapping
    c = two_point.c
    inside = [(x, y) for x in range(5) for y in range(2)]
    # a pool with pairs of G(M), duplicates and, last, a pair out of range
    for pool, bad in ((inside + inside + [(5, 0)], "(5, 0)"),
                      ([(0, -1)], "(0, -1)")):
        message = f"graph pair {bad} out of range"
        with pytest.raises(AbstractConvexError) as want:
            maximal_by_recheck(sub, c, EPS, pool)
        with pytest.raises(AbstractConvexError) as got:
            is_maximal_n_monotone(sub, c, 2, EPS, candidates=pool)
        assert str(got.value) == str(want.value) == message
    # a candidate that keeps the property ends the scan before the bad pair
    small = MultiMapping(two_point.x, two_point.y, sub.graph[:1])
    pool = [(x, y) for x in range(5) for y in range(2)] + [(9, 9)]
    assert maximal_by_recheck(small, c, EPS, pool) is False
    assert is_maximal_n_monotone(small, c, 2, EPS, candidates=pool) is False


def test_every_maximality_route_shares_the_candidate_range_error(two_point):
    # the order-2 kernel and the full rechecks (order 3, cyclic) read one
    # candidate iterator, which skips G(M) and checks each pair as reached
    sub = c_subdifferential(two_point.f_abs, two_point.c).mapping
    c = two_point.c
    outside = [p for p in itertools.product(range(5), range(2)) if p not in sub]
    assert outside and list(sub.extensions()) == outside
    assert list(sub.extensions(sub.graph + tuple(outside[:1]))) == outside[:1]
    pool = list(sub.graph) + [(5, 0)]
    for check in (lambda: is_maximal_n_monotone(sub, c, 2, EPS, candidates=pool),
                  lambda: is_maximal_n_monotone(sub, c, 3, EPS, candidates=pool),
                  lambda: is_maximal_cyclically_monotone(sub, c, EPS,
                                                         candidates=pool)):
        with pytest.raises(AbstractConvexError, match=r"graph pair \(5, 0\) out of range"):
            check()


# ------------------------------------------------------- order-2 half scan
# ``is_n_monotone(m, c, 2)`` meets each unordered pair of G(M) once; the
# enumeration oracle tries both orders, and its verdict and witness are the
# reference.  ``pair_gains_per_cell`` is the gather the kernel replaced.

def pair_gains_per_cell(m, c, x, y):
    return [(c(u, y) - c(x, y)) + (c(x, v) - c(u, v)) for u, v in m.graph]


def assert_oracle_order_two(m, c, eps):
    got, want = is_n_monotone(m, c, 2, eps), n_monotone_oracle(m, c, 2, eps)
    assert (got.holds, got.witness) == (want.holds, want.witness)
    return want


def test_pair_gains_match_per_cell_form(rng):
    for trial in range(120):
        nx, ny = rng.randint(1, 4), rng.randint(1, 4)
        c = kernel_coupling(rng, nx, ny, ties=TIE_KINDS[trial % 3])
        m = random_graph(rng, c, 1 if trial % 4 == 0 else 8)
        gains = monotone._pair_gains(m, c)
        for x in range(nx):
            for y in range(ny):
                want = pair_gains_per_cell(m, c, x, y)
                for start in range(len(m.graph) + 1):
                    assert_same_floats(gains(x, y, start), want[start:])


def test_order_two_half_scan_matches_oracle(rng):
    seen = set()
    for trial in range(600):
        nx, ny = rng.randint(1, 5), rng.randint(1, 5)
        c = kernel_coupling(rng, nx, ny, ties=TIE_KINDS[trial % 3])
        m = (random_graph(rng, c, 1) if trial % 5 == 0
             else partly_grown(rng, c, EPS) if trial % 5 == 1
             else random_graph(rng, c, 2 * max(nx, ny)))
        eps = (EPS, 0.0, -0.0, 1.0, -EPS)[trial % 7 % 5]
        want = assert_oracle_order_two(m, c, eps)
        if eps < 0:
            # (p, p) gains 0 > eps for the first pair p
            assert want.witness == (m.graph[0],) * 2
        seen.add((len(m.graph) == 1, want.holds))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_order_two_on_one_pair_graphs():
    for c in one_point_couplings():
        for p in itertools.product(range(c.domain.size), range(c.codomain.size)):
            m = MultiMapping(c.domain, c.codomain, (p,))
            assert assert_oracle_order_two(m, c, EPS).holds
            assert assert_oracle_order_two(m, c, -EPS).witness == (p, p)
            candidates = list(itertools.product(range(c.domain.size),
                                                range(c.codomain.size)))
            assert is_maximal_n_monotone(m, c, 2, EPS) is maximal_by_recheck(
                m, c, EPS, candidates)


def test_order_two_gains_past_the_float_range(rng):
    # entries near +-1.7e308 make gains of inf and, as inf + -inf, nan,
    # which is never over eps; the witnesses stay the oracle's
    big, x = 1.7e308, GroundSet(("a", "b", "c"))
    nan_gains = 0
    for trial in range(2000):
        c = coupling_from_rows(x, x, [
            [rng.choice((-big, -1.0, -0.0, 0.0, 1.0, big)) for _ in range(3)]
            for _ in range(3)])
        m = random_graph(rng, c, 6)
        eps = EPS if trial % 4 else -EPS
        assert_oracle_order_two(m, c, eps)
        gains = monotone._pair_gains(m, c)
        for i, p in enumerate(m.graph):
            nan_gains += any(map(math.isnan, gains(*p, i)))
    assert nan_gains >= 50


# ------------------------------------------------ potential-first verdict
# One run of label-correcting passes from a seed (zero labels by default)
# finds a potential p; a fixed point that the rounding guard accepts passes
# M with labels p, and every other case is _cyclic_walks' verdict, with
# labels one relaxation step from the seed over its table.

def _node_columns(gg):
    return [gg.columns[v] for v in gg.nodes]


def _zero_passes(gg):
    return monotone._passes(_node_columns(gg), [0.0] * len(gg.nodes))


def _potential_draws(rng):
    draws = mixed_mappings(rng, 120)
    for trial in range(60):
        n = rng.randint(1, 6)
        c = kernel_coupling(rng, n, n, ties=TIE_KINDS[trial % 3])
        m = (random_cyclically_monotone_mapping(rng, c) if trial % 2
             else random_graph(rng, c, 2 * n))
        draws.append((m, c))
    return draws


def test_passes_settle_on_the_best_walk_into_each_node(two_point):
    # gain(u, v) = v - u on the nodes 0, 1, 2: the best walk into v starts
    # at node 0; a positive 2-cycle never settles
    assert _zero_passes(build_gain_graph(two_point.m, two_point.c)) == [
        0.0, 1.0, 2.0]
    m, c = two_cycle_instance(1.0)
    assert _zero_passes(build_gain_graph(m, c)) is None


def assert_route_labels(gg, eps, labels, seed=None):
    """The labels of a passing verdict: the passes' fixed point on the
    potential route, else the table route's relaxation step, bit for bit."""
    if seeded_route(gg, eps, seed) == "potential":
        seed = [0.0] * len(gg.nodes) if seed is None else seed
        assert labels == monotone._passes(_node_columns(gg), seed)
    else:
        assert_same_floats(labels, table_labels_per_cell(gg, eps, seed))


def test_potential_verdict_is_the_walk_rounds_verdict(rng):
    decided = 0
    for m, c in _potential_draws(rng):
        gg = build_gain_graph(m, c)
        verdict, labels = monotone._cyclic_verdict(gg, EPS)
        want, _ = _cyclic_walks(gg, EPS)
        assert (verdict.holds, verdict.witness) == (want.holds, want.witness)
        if verdict:
            assert_route_labels(gg, EPS, labels)
            decided += seeded_route(gg, EPS) == "potential"
        else:
            assert labels is None
        assert is_cyclically_monotone(m, c, EPS) == verdict
    assert decided >= 60


def test_walk_tables_cover_the_empty_walk(rng):
    # the table route reads B[u][u] as the empty walk at u unraised: the
    # one-step walk u -> u gains +0.0 and no entry ever falls
    checked = 0
    for m, c in _potential_draws(rng) + [band_instance(rng) for _ in range(20)]:
        gg = build_gain_graph(m, c)
        for eps in (EPS, 0.0):
            verdict, walks = _cyclic_walks(gg, eps)
            if verdict:
                diag = [row[u] for u, row in enumerate(walks)]
                assert all(d >= 0.0 and math.copysign(1.0, d) == 1.0
                           for d in diag)
                checked += 1
    assert checked >= 100


def test_guard_accepts_at_its_bound_and_falls_back_one_float_below(rng):
    checked = 0
    for m, c in _potential_draws(rng):
        gg = build_gain_graph(m, c)
        p = _zero_passes(gg)
        if p is None:
            continue
        bound = guard_value(gg, p)
        verdict, labels = monotone._cyclic_verdict(gg, bound)
        assert verdict and labels == p
        assert _cyclic_walks(gg, bound)[0]  # what the guard promises
        below = math.nextafter(bound, -INF)
        verdict, labels = monotone._cyclic_verdict(gg, below)
        want, _ = _cyclic_walks(gg, below)
        assert (verdict.holds, verdict.witness) == (want.holds, want.witness)
        if verdict:
            assert_same_floats(labels, table_labels_per_cell(gg, below))
        checked += 1
    assert checked >= 60


@pytest.mark.parametrize("eps", [-EPS, -5e-324, -1.0])
def test_negative_eps_is_decided_by_the_walk_rounds_alone(rng, monkeypatch,
                                                          eps):
    real, calls = monotone._passes, []
    monkeypatch.setattr(monotone, "_passes",
                        lambda *args: calls.append(1) or real(*args))
    for m, c in mixed_mappings(rng, 30):
        gg = build_gain_graph(m, c)
        verdict, labels = monotone._cyclic_verdict(gg, eps)
        want, _ = _cyclic_walks(gg, eps)
        assert (verdict.holds, verdict.witness) == (want.holds, want.witness)
        # the 1-step walk u -> u gains 0 > eps, even at -5e-324, where
        # eps/k would round to -0.0 once k >= 2
        assert not verdict and labels is None
    assert calls == []


def test_guard_refuses_the_fixed_point_of_a_magnitude_bound_coupling():
    # entries of +-2**900 absorb the small gains: the passes settle, yet a
    # cycle of Delta_T gains over eps in the walk rounds' sums
    x, y = GroundSet(("x0", "x1", "x2")), GroundSet(("y0", "y1", "y2"))
    big = 2.0 ** 900
    c = coupling_from_rows(x, y, [[-big, 3, -big], [0, 3, 1],
                                  [1e-9, -1, 1e-9]])
    t = MultiMapping(x, y, ((0, 0), (1, 2), (2, 0), (2, 2)))
    pc = product_coupling(c)
    gg = build_gain_graph(delta_mapping(t, pc), pc)
    assert _zero_passes(gg) is not None
    verdict = is_cyclically_monotone(delta_mapping(t, pc), pc, EPS)
    assert not verdict and verdict.witness == _cyclic_walks(gg, EPS)[0].witness
