"""Seeded random instance generators for verification and tests.

Everything here is driven by an explicit ``random.Random``, so the tests,
the sweep and the benchmark's set-up get reproducible draws.  The CLI's
--seed does not reach this module: it seeds Theorem 6B's member draw in
``fitzpatrick``.
"""

from __future__ import annotations

import math
import random
from typing import Optional

from .core import (
    Coupling,
    ExtFunction,
    GroundSet,
    MultiMapping,
    coupling_from_rows,
)
from .lipschitz import MetricInstance
from .monotone import _max_plus_closure
from .transforms import c_subdifferential, c_transform_rev


def _labels(prefix: str, n: int) -> GroundSet:
    return GroundSet(tuple(f"{prefix}{i}" for i in range(n)))


def random_coupling(rng: random.Random, nx: int, ny: int) -> Coupling:
    return coupling_from_rows(
        _labels("x", nx), _labels("y", ny),
        [[rng.uniform(-10.0, 10.0) for _ in range(ny)] for _ in range(nx)])


def random_proper_function(rng: random.Random, gs: GroundSet,
                           inf_prob: float = 0.2) -> ExtFunction:
    values = [math.inf if rng.random() < inf_prob else rng.uniform(-10.0, 10.0)
              for _ in range(gs.size)]
    if all(v == math.inf for v in values):
        values[rng.randrange(gs.size)] = rng.uniform(-10.0, 10.0)
    return ExtFunction(gs, tuple(values))


def random_c_convex_function(rng: random.Random, c: Coupling,
                             inf_prob: float = 0.2) -> ExtFunction:
    """A c-convex function on the domain: the transform of a random proper
    function on the codomain."""
    g = random_proper_function(rng, c.codomain, inf_prob=inf_prob)
    return c_transform_rev(g, c)


def random_cyclically_monotone_mapping(rng: random.Random, c: Coupling,
                                       max_pairs: Optional[int] = None
                                       ) -> MultiMapping:
    """A random nonempty subgraph of the subdifferential of a random c-convex
    function; cyclically monotone by construction."""
    f = random_c_convex_function(rng, c)
    pool = list(c_subdifferential(f, c).graph)
    cap = len(pool) if max_pairs is None else min(max_pairs, len(pool))
    k = rng.randint(1, cap)
    return MultiMapping(c.domain, c.codomain, tuple(rng.sample(pool, k)))


def inject_positive_two_cycle(rng: random.Random, m: MultiMapping,
                              c: Coupling) -> tuple[MultiMapping, Coupling]:
    """Mutate (mapping, coupling) so the mapping carries a positive 2-cycle.

    Requires at least two domain and two codomain points."""
    if c.domain.size < 2 or c.codomain.size < 2:
        raise ValueError("need at least 2x2 to inject a 2-cycle")
    x1, y1 = rng.choice(m.graph)
    partner = [(x, y) for x, y in m.graph if x != x1 and y != y1]
    if partner:
        x2, y2 = rng.choice(partner)
        mutated = m
    else:
        x2 = rng.choice([x for x in range(c.domain.size) if x != x1])
        y2 = rng.choice([y for y in range(c.codomain.size) if y != y1])
        mutated = m.with_pair(x2, y2)
    # raise c(x1, y2) until the cycle gain c(x2,y1)-c(x1,y1)+c(x1,y2)-c(x2,y2)
    # is strictly positive
    rows = [list(row) for row in c.values]
    rows[x1][y2] = c(x2, y2) + c(x1, y1) - c(x2, y1) + rng.uniform(0.5, 2.0)
    return mutated, coupling_from_rows(c.domain, c.codomain, rows)


def random_metric(rng: random.Random, n: int,
                  edge_prob: float = 0.5) -> MetricInstance:
    """Shortest-path metric of a random connected weighted graph on n points."""
    weights = [[math.inf] * n for _ in range(n)]
    for i in range(n):
        weights[i][i] = 0.0
    order = list(range(n))
    rng.shuffle(order)
    for a, b in zip(order, order[1:]):  # spanning path keeps it connected
        w = rng.uniform(0.5, 3.0)
        weights[a][b] = weights[b][a] = w
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                w = rng.uniform(0.5, 3.0)
                if w < weights[i][j]:
                    weights[i][j] = weights[j][i] = w
    # shortest paths are the longest walks of -w
    closure = _max_plus_closure([[-v for v in row] for row in weights], math.inf)
    return MetricInstance(_labels("p", n),
                          tuple(tuple(-g for g in row) for row in closure))


def random_lipschitz_function(rng: random.Random,
                              metric: MetricInstance) -> ExtFunction:
    """A random 1-Lipschitz function: a finite min of cones v_i + d(., p_i)."""
    n = metric.points.size
    cones = [(rng.randrange(n), rng.uniform(-5.0, 5.0))
             for _ in range(rng.randint(1, max(1, n // 2 + 1)))]
    values = tuple(min(v + metric(x, p) for p, v in cones) for x in range(n))
    return ExtFunction(metric.points, values)
