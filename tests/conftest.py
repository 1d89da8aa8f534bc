import random
from pathlib import Path
from types import SimpleNamespace

import pytest

from abconvex import (
    Coupling,
    ExtFunction,
    GroundSet,
    IndexSubset,
    MultiMapping,
    coupling_from_rows,
    inject_positive_two_cycle,
    random_coupling,
    random_cyclically_monotone_mapping,
)

from references import random_graph

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def grid_labels():
    return GroundSet(("-2", "-1", "0", "1", "2"))


def two_point_instance() -> SimpleNamespace:
    """X = {-2..2}, Y = {a, b}, c(x, a) = x, c(x, b) = -x.

    The instance the worked examples live on: the c-convex
    functions on X are exactly x - p, -x - q and |x - r| - s.
    """
    x = grid_labels()
    y = GroundSet(("a", "b"))
    pts = [-2.0, -1.0, 0.0, 1.0, 2.0]
    c = coupling_from_rows(x, y, [[v, -v] for v in pts])
    f_id = ExtFunction(x, tuple(pts))
    f_abs = ExtFunction(x, tuple(abs(v) for v in pts))
    m = MultiMapping(x, y, ((2, 0), (3, 0), (4, 0)))  # {(0,a),(1,a),(2,a)}
    s = IndexSubset(x, (2, 3, 4))
    return SimpleNamespace(x=x, y=y, points=pts, c=c,
                           f_id=f_id, f_abs=f_abs, m=m, s=s)


def grid_function(kind: str, *params) -> ExtFunction:
    """One of the instance's three c-convex closed forms on the grid."""
    pts = [-2.0, -1.0, 0.0, 1.0, 2.0]
    if kind == "pos":
        (p,) = params
        vals = [v - p for v in pts]
    elif kind == "neg":
        (q,) = params
        vals = [-v - q for v in pts]
    else:
        r, s = params
        vals = [abs(v - r) - s for v in pts]
    return ExtFunction(grid_labels(), tuple(vals))


def mixed_mappings(rng, count: int, max_pairs=None):
    """Seeded (mapping, coupling) draws on n x n couplings, n = 2..9,
    cycling through three kinds: a cyclically monotone mapping, a random
    graph, and a monotone mapping with an injected positive 2-cycle."""
    out = []
    for i in range(count):
        n = rng.randint(2, 9)
        c = random_coupling(rng, n, n)
        m = random_cyclically_monotone_mapping(rng, c, max_pairs)
        if i % 3 == 1:
            m = random_graph(rng, c, max_pairs or 2 * n)
        elif i % 3 == 2:
            m, c = inject_positive_two_cycle(rng, m, c)
        out.append((m, c))
    return out


def one_point_couplings() -> tuple[Coupling, ...]:
    """Couplings with a 1-point side or two, with ties and a signed zero."""
    one = GroundSet(("p",))
    many = GroundSet(("a", "b", "c"))
    return (coupling_from_rows(one, many, [[1.5, -0.0, 1.5]]),
            coupling_from_rows(many, one, [[0.0], [-0.0], [2.0]]),
            coupling_from_rows(one, one, [[-0.0]]))


def assert_same_floats(got, want):
    """Bit-identical float sequences: == and also float.hex, which tells
    -0.0 from 0.0."""
    got, want = list(got), list(want)
    assert got == want
    assert list(map(float.hex, got)) == list(map(float.hex, want))


def two_cycle_instance(gain: float):
    """M = identity on {0, 1}; its only 2-cycle gains exactly ``gain``."""
    x = GroundSet(("0", "1"))
    c = coupling_from_rows(x, x, [[0.0, gain], [0.0, 0.0]])
    return MultiMapping(x, x, ((0, 0), (1, 1))), c


@pytest.fixture
def two_point():
    return two_point_instance()


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def fixture_dir():
    return FIXTURE_DIR
