"""Randomized verification sweep over the package's structural identities.

Draws seeded random instances and checks, per draw: the triple-transform
collapse, agreement of the chain-supremum antiderivative with its
enumeration oracle, agreement of the closure-first cyclic-monotonicity
verdict and witness with the exact-length route alone, bit-identity of the
row kernels (transforms, subdifferential, n-monotone enumeration) with
per-cell forms, transform duality of the envelopes, the four-way Lipschitz
characterization, and the lifted-space equivalences.

Run:  python3 scripts/random_verification.py --seed 0 --trials 50
"""

import argparse
import math
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from abconvex import (
    MultiMapping,
    alpha,
    build_gain_graph,
    c_subdifferential,
    c_transform,
    c_transform_rev,
    gamma,
    inject_positive_two_cycle,
    is_cyclically_monotone,
    is_n_monotone,
    lipschitz_characterize,
    random_constraint_problem,
    random_coupling,
    random_cyclically_monotone_mapping,
    random_lipschitz_function,
    random_metric,
    random_proper_function,
    rockafellar,
    rockafellar_oracle,
    sup_distance,
    n_monotone_oracle,
    verify_theorem6A,
)
from abconvex.monotone import _exact_cyclic_verdict

EPS = 1e-9


def check_transform(rng):
    c = random_coupling(rng, rng.randint(1, 8), rng.randint(1, 8))
    f = random_proper_function(rng, c.domain)
    fc = c_transform(f, c)
    fccc = c_transform(c_transform_rev(fc, c), c)
    return sup_distance(fccc, fc) <= EPS


def check_antiderivative(rng):
    c = random_coupling(rng, rng.randint(2, 6), rng.randint(2, 5))
    m = random_cyclically_monotone_mapping(rng, c, max_pairs=5)
    s = rng.choice(m.dom)
    fast = rockafellar(m, c, s)
    slow = rockafellar_oracle(m, c, s, max_len=len(m.dom) + 2)
    return sup_distance(fast, slow) <= EPS


def check_closure_route(rng):
    n = rng.randint(2, 12)
    c = random_coupling(rng, n, n)
    m = random_cyclically_monotone_mapping(rng, c)
    kind = rng.randrange(3)
    if kind == 1:
        pairs = {(rng.randrange(n), rng.randrange(n))
                 for _ in range(rng.randint(1, 2 * n))}
        m = MultiMapping(c.domain, c.codomain, tuple(pairs))
    elif kind == 2:
        m, c = inject_positive_two_cycle(rng, m, c)
    got = is_cyclically_monotone(m, c, EPS)
    want = _exact_cyclic_verdict(build_gain_graph(m, c), EPS)
    return (got.holds, got.witness) == (want.holds, want.witness)


def _per_cell_transform(values, line):
    best = -math.inf
    for v, cv in zip(values, line):
        if v == math.inf:
            continue
        if v == -math.inf:
            return math.inf
        best = max(best, cv - v)
    return best


def check_row_kernels(rng):
    c = random_coupling(rng, rng.randint(1, 9), rng.randint(1, 9))
    f = random_proper_function(rng, c.domain)
    g = random_proper_function(rng, c.codomain)
    fc = c_transform(f, c)
    want_fc = [_per_cell_transform(f.values, [row[y] for row in c.values])
               for y in range(c.codomain.size)]
    want_gc = [_per_cell_transform(g.values, row) for row in c.values]
    want_sub = tuple((x, y) for x in range(c.domain.size) if math.isfinite(f(x))
                     for y in range(c.codomain.size)
                     if abs(f(x) + fc(y) - c(x, y)) <= EPS)
    transforms_ok = (
        list(map(float.hex, fc.values)) == list(map(float.hex, want_fc))
        and list(map(float.hex, c_transform_rev(g, c).values))
        == list(map(float.hex, want_gc))
        and c_subdifferential(f, c, EPS).graph == want_sub)
    m = random_cyclically_monotone_mapping(rng, c, max_pairs=6)
    if rng.random() < 0.5 and min(c.domain.size, c.codomain.size) >= 2:
        m, c = inject_positive_two_cycle(rng, m, c)
    n = rng.randint(1, 4)
    got, want = is_n_monotone(m, c, n, EPS), n_monotone_oracle(m, c, n, EPS)
    return transforms_ok and (got.holds, got.witness) == (want.holds, want.witness)


def check_duality(rng):
    p = random_constraint_problem(rng, rng.randint(2, 5), rng.randint(2, 5))
    d = p.dual()
    return (sup_distance(c_transform(alpha(p), p.coupling), gamma(d)) <= EPS
            and sup_distance(c_transform(gamma(p), p.coupling), alpha(d)) <= EPS)


def check_lipschitz(rng):
    d = random_metric(rng, rng.randint(2, 10))
    f = random_lipschitz_function(rng, d)
    return lipschitz_characterize(f, d).unanimous


def check_lifted(rng):
    c = random_coupling(rng, rng.randint(1, 4), rng.randint(1, 4))
    if rng.random() < 0.5:
        t = random_cyclically_monotone_mapping(rng, c, max_pairs=4)
    else:
        nx, ny = c.domain.size, c.codomain.size
        pairs = {(rng.randrange(nx), rng.randrange(ny))
                 for _ in range(rng.randint(1, 4))}
        t = MultiMapping(c.domain, c.codomain, tuple(pairs))
    return verify_theorem6A(t, c).agree


CHECKS = [
    ("triple transform", check_transform),
    ("chain supremum vs oracle", check_antiderivative),
    ("closure vs exact-length route", check_closure_route),
    ("row kernels vs per-cell forms", check_row_kernels),
    ("envelope duality", check_duality),
    ("lipschitz four-way", check_lipschitz),
    ("lifted equivalences", check_lifted),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=50)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    failures = 0
    for name, check in CHECKS:
        ok = sum(check(rng) for _ in range(args.trials))
        status = "ok" if ok == args.trials else "FAIL"
        print(f"{name:<30} {ok}/{args.trials} {status}")
        failures += args.trials - ok
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
