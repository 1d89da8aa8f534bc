"""Finite (pseudo)metric spaces and constrained 1-Lipschitz extension.

Instantiating the coupling as c = -d turns 1-Lipschitz functions into the
c-convex functions, distance-preserving pairs into subdifferential pairs,
and the constrained extension problem into an antiderivative-envelope
problem.  The closed-form chain formulas are the -d reading of the general
machinery and are cross-checked against it.

The O(n^3) triangle check is a row kernel: for each i and k it compares
d(i, k) with min_j [d(i, j) + d(j, k)] + eps.  Rounding is monotone, so
fl(a + eps) never decreases as a grows, and some j fails iff the least sum
does.  Only a failing row reruns the per-triple loop, so the error still
names the first failing (i, j, k) in loop order.

When d equals its transpose exactly (by ==, so -0.0 matches 0.0), row i
tests only the columns k >= i, n^2 (n + 1) / 2 sums in place of n^3.  Then
d(i, j) + d(j, k) and d(k, j) + d(j, i) add equal operands in the other
order, which gives equal floats, so (i, k) fails iff (k, i) does.  A
failure at (i, k) with k < i is a failure of the earlier row k, so the
first row with any failure has one at some k >= i, no earlier row fires,
and its per-triple rerun names the same first (i, j, k).  A matrix that is
only symmetric within eps scans every column.

The O(n^2) axioms (zero diagonal, finite, nonnegative, symmetric within
eps, positive off the diagonal) run cell by cell, before the triangle
check, and raise the message for the first failing cell.  A negative eps
is refused first, with its own message: the triangle test at j = i reads
d(i, k) > d(i, k) + eps, so no matrix could pass it (-0.0 is accepted).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import add
from typing import Iterable

from .core import (
    DEFAULT_EPS,
    AbstractConvexError,
    Coupling,
    ExtFunction,
    GroundSet,
    IndexSubset,
    MultiMapping,
    require_eps,
    require_indexed_by,
    restrict_sum,
    sup_distance,
)
from .envelopes import ConstraintProblem, alpha, gamma
from .transforms import c_transform, is_antiderivative, is_c_convex


class MetricError(AbstractConvexError):
    """A distance matrix fails a metric axiom; carries the offending triple."""


@dataclass(frozen=True)
class MetricInstance:
    """A finite pseudometric as a symmetric nonnegative matrix."""

    points: GroundSet
    dist: tuple[tuple[float, ...], ...]
    pseudometric: bool = False
    eps: float = field(default=DEFAULT_EPS)

    def __post_init__(self):
        require_eps(self.eps)
        if self.eps < 0:  # no matrix could pass (module docstring)
            raise MetricError(
                f"metric eps must be nonnegative, got {self.eps!r}")
        n = self.points.size
        d = self.dist
        if len(d) != n or any(len(row) != n for row in d):
            raise MetricError("distance matrix shape != (|X|, |X|)")
        self._check_axioms_per_cell()
        columns = tuple(zip(*d))
        # some j fails the triangle iff the least sum does, and on an
        # exactly symmetric d the columns k >= i suffice (module docstring)
        symmetric = columns == tuple(map(tuple, d))
        for i, row in enumerate(d):
            start = i if symmetric else 0
            least = [min(map(add, row, col)) for col in columns[start:]]
            if any(dik > m + self.eps for dik, m in zip(row[start:], least)):
                for j in range(n):
                    for k in range(n):
                        if row[k] > row[j] + d[j][k] + self.eps:
                            raise MetricError(
                                f"triangle inequality fails at ({i},{j},{k})")

    def _check_axioms_per_cell(self):
        d, n = self.dist, self.points.size
        for i in range(n):
            if abs(d[i][i]) > self.eps:
                raise MetricError(f"d({i},{i}) != 0")
            for j in range(n):
                if not math.isfinite(d[i][j]) or d[i][j] < -self.eps:
                    raise MetricError(f"d({i},{j}) must be finite and nonnegative")
                if abs(d[i][j] - d[j][i]) > self.eps:
                    raise MetricError(f"asymmetry at ({i},{j})")
                if i != j and not self.pseudometric and d[i][j] <= self.eps:
                    raise MetricError(f"zero distance between distinct points ({i},{j})")

    def __call__(self, i: int, j: int) -> float:
        return self.dist[i][j]

    @cached_property
    def negated(self) -> Coupling:
        """c = -d, entry-exact (``as_coupling``)."""
        return Coupling(self.points, self.points,
                        tuple(tuple(-v for v in row) for row in self.dist))


def metric_from_rows(points: GroundSet, rows: Iterable[Iterable[float]],
                     pseudometric: bool = False,
                     eps: float = DEFAULT_EPS) -> MetricInstance:
    return MetricInstance(points,
                          tuple(tuple(float(v) for v in r) for r in rows),
                          pseudometric, eps)


def as_coupling(metric: MetricInstance) -> Coupling:
    """The coupling c = -d on points x points (entry-exact negation), built
    once per metric, so a ``lip-extend`` request's parse and its
    ``ExtensionProblem`` share one."""
    return metric.negated


def identity_mapping(metric: MetricInstance) -> MultiMapping:
    n = metric.points.size
    return MultiMapping(metric.points, metric.points,
                        tuple((i, i) for i in range(n)))


def identity_on(subset: IndexSubset) -> MultiMapping:
    return MultiMapping(subset.parent, subset.parent,
                        tuple((i, i) for i in subset))


@dataclass(frozen=True)
class LipschitzReport:
    is_lipschitz_1: bool
    is_md_convex: bool
    transform_is_neg: bool
    is_identity_antiderivative: bool

    @property
    def unanimous(self) -> bool:
        votes = (self.is_lipschitz_1, self.is_md_convex,
                 self.transform_is_neg, self.is_identity_antiderivative)
        return all(votes) or not any(votes)


def lipschitz_characterize(f: ExtFunction, metric: MetricInstance,
                           eps: float = DEFAULT_EPS) -> LipschitzReport:
    """The four equivalent readings of 1-Lipschitzness, each computed
    independently: the report's ``unanimous`` flag is the executable theorem."""
    lip = is_1_lipschitz(f, metric, eps)  # refuses an f off the points
    if not all(math.isfinite(v) for v in f.values):
        raise AbstractConvexError("characterization requires an everywhere finite f")
    c = as_coupling(metric)
    convex = is_c_convex(f, c, eps)
    neg = ExtFunction(f.index, tuple(-v for v in f.values))
    transform_neg = sup_distance(c_transform(f, c), neg) <= eps
    ident = is_antiderivative(f, identity_mapping(metric), c, eps)
    return LipschitzReport(lip, convex, transform_neg, ident)


@dataclass(frozen=True)
class ExtensionProblem:
    """Constrained Lipschitz extension data.

    ``values`` gives f on dom(mapping) (entries elsewhere are ignored).  The
    distance-compatibility hypothesis f(x) - f(x') <= d(x', y) - d(x, y)
    over G(M) x dom(M) says that f, extended by +inf off dom(M), is a
    -d-antiderivative of the mapping; the constructor checks it by building
    the matching ``ConstraintProblem``, ``family``, which the extensions
    then use.
    """

    metric: MetricInstance
    mapping: MultiMapping
    values: ExtFunction
    sites: IndexSubset
    eps: float = field(default=DEFAULT_EPS)
    family: ConstraintProblem = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        c = as_coupling(self.metric)
        # the anchor needs a nonempty dom(M) on the metric's points
        self.mapping.require_on(c)
        require_indexed_by(self.metric.points, self.values, where="metric points")
        # f extended by +inf off dom(M); a -d-antiderivative of the mapping
        anchor = restrict_sum(self.values,
                              IndexSubset(self.metric.points, self.mapping.dom))
        object.__setattr__(self, "family", ConstraintProblem(
            c, self.mapping, anchor, self.sites, self.eps))


def extend_min(problem: ExtensionProblem) -> ExtFunction:
    """Minimal 1-Lipschitz extension of f|_S preserving the constrained
    distances; the general-machinery lower envelope under c = -d."""
    return alpha(problem.family)


def extend_max(problem: ExtensionProblem) -> ExtFunction:
    """Maximal constrained 1-Lipschitz extension; the upper envelope."""
    return gamma(problem.family)


def extend_min_closed_form(problem: ExtensionProblem) -> ExtFunction:
    """Full-domain formula max_{(s,t) in G(M)} [f(s) + d(s,t) - d(x,t)]."""
    if not problem.family.full_domain:
        raise AbstractConvexError("closed form requires sites = dom(M)")
    d, f = problem.metric, problem.values
    values = tuple(
        max(f(s) + d(s, t) - d(x, t) for s, t in problem.mapping.graph)
        for x in range(d.points.size)
    )
    return ExtFunction(d.points, values)


def extend_max_closed_form(problem: ExtensionProblem) -> ExtFunction:
    """Full-domain formula min_{s in dom(M)} [f(s) + d(x, s)]."""
    if not problem.family.full_domain:
        raise AbstractConvexError("closed form requires sites = dom(M)")
    return mcshane_whitney_max(problem.metric, problem.sites, problem.values)


def mcshane_whitney_min(metric: MetricInstance, sites: IndexSubset,
                        f: ExtFunction) -> ExtFunction:
    """max_{s in S} [f(s) - d(x, s)]: the classical minimal extension."""
    require_indexed_by(metric.points, sites, f, where="metric points")
    values = tuple(max(f(s) - metric(x, s) for s in sites)
                   for x in range(metric.points.size))
    return ExtFunction(metric.points, values)


def mcshane_whitney_max(metric: MetricInstance, sites: IndexSubset,
                        f: ExtFunction) -> ExtFunction:
    """min_{s in S} [f(s) + d(x, s)]: the classical maximal extension."""
    require_indexed_by(metric.points, sites, f, where="metric points")
    values = tuple(min(f(s) + metric(x, s) for s in sites)
                   for x in range(metric.points.size))
    return ExtFunction(metric.points, values)


def is_1_lipschitz(f: ExtFunction, metric: MetricInstance,
                   eps: float = DEFAULT_EPS) -> bool:
    require_eps(eps)
    require_indexed_by(metric.points, f, where="metric points")
    n = metric.points.size
    return all(abs(f(i) - f(j)) <= metric(i, j) + eps
               for i in range(n) for j in range(n))
