"""c-transforms, c-convexification, c-subdifferentials and related predicates.

The forward transform maps functions on the coupling's domain to functions
on its codomain; the reverse transform goes the other way.  The two are kept
as distinct operations with explicit index typing, so a conjugation-direction
mistake fails loudly instead of silently transposing.

Both transforms run one row kernel, ``_transform``: it takes
``max(map(sub, line, values))`` for each output point, where ``line`` is a
column of the coupling (forward) or a row of it (reverse).  A +inf entry
(outside dom f) gives line[i] - inf = -inf, which loses to every finite
difference, so it needs no mask.  The subdifferential scans each coupling
row against the finite entries of f^c; ``is_antiderivative`` makes the same
test on the pairs of G(M) only.  The outputs are bit-identical to a
per-cell loop: every cell is the same subtraction, and ``max`` keeps the
first of equal maxima, as a running ``best = max(best, ...)`` does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import sub

from .core import (
    INF,
    DEFAULT_EPS,
    Coupling,
    ExtFunction,
    IndexMismatchError,
    MultiMapping,
    sup_distance,
)


def _transform(values: tuple[float, ...], lines) -> tuple[float, ...]:
    """max over i of line[i] - values[i] for each line, with the [-inf, inf]
    conventions: a -inf entry makes every output +inf, and +inf entries
    (outside dom) give -inf terms, so an empty domain gives -inf."""
    if -INF in values:
        return (INF,) * len(lines)  # c finite minus -inf
    return tuple(max(map(sub, line, values)) for line in lines)


def c_transform(f: ExtFunction, c: Coupling) -> ExtFunction:
    """The transform of f on X: f^c(y) = max_x [c(x, y) - f(x)] on Y."""
    if f.index.labels != c.domain.labels:
        raise IndexMismatchError("function is not indexed by the coupling domain")
    return ExtFunction(c.codomain, _transform(f.values, c.columns))


def c_transform_rev(g: ExtFunction, c: Coupling) -> ExtFunction:
    """The transform of g on Y: g^c(x) = max_y [c(x, y) - g(y)] on X."""
    if g.index.labels != c.codomain.labels:
        raise IndexMismatchError("function is not indexed by the coupling codomain")
    return ExtFunction(c.domain, _transform(g.values, c.values))


def c_convexify(f: ExtFunction, c: Coupling) -> ExtFunction:
    """f^{cc}: the largest c-convex function majorized by f (f proper)."""
    f.require_proper("convexification input")
    return c_transform_rev(c_transform(f, c), c)


def is_c_convex(f: ExtFunction, c: Coupling, eps: float = DEFAULT_EPS) -> bool:
    """Whether f = f^{cc} within eps (+inf entries must match exactly)."""
    f.require_proper("c-convexity test input")
    return sup_distance(f, c_convexify(f, c)) <= eps


@dataclass(frozen=True)
class SubdiffGraph:
    """The graph of a c-subdifferential, wrapped as a multimapping."""

    mapping: MultiMapping

    @property
    def graph(self) -> tuple[tuple[int, int], ...]:
        return self.mapping.graph

    def __contains__(self, pair) -> bool:
        return pair in self.mapping


def c_subdifferential(f: ExtFunction, c: Coupling,
                      eps: float = DEFAULT_EPS) -> SubdiffGraph:
    """All (x, y) with f(x) + f^c(y) = c(x, y) within eps.

    This is the sup-form of the definition, O(|X||Y|) after one transform.
    ``c_subdifferential_quantified`` is the independent universally-quantified
    form used as a test oracle.
    """
    f.require_proper("subdifferential input")
    if f.index.labels != c.domain.labels:
        raise IndexMismatchError("function is not indexed by the coupling domain")
    fc = c_transform(f, c)
    finite = [(y, g) for y, g in enumerate(fc.values) if math.isfinite(g)]
    pairs = []
    for x, (fx, row) in enumerate(zip(f.values, c.values)):
        if math.isfinite(fx):  # f is finite where it is c-subdifferentiable
            pairs.extend((x, y) for y, g in finite if abs(fx + g - row[y]) <= eps)
    return SubdiffGraph(MultiMapping(c.domain, c.codomain, tuple(pairs)))


def c_subdifferential_quantified(f: ExtFunction, c: Coupling,
                                 eps: float = DEFAULT_EPS) -> SubdiffGraph:
    """First form of the definition: y is in the subdifferential at x iff
    f(x) + c(x', y) <= f(x') + c(x, y) for every x'.  O(|X|^2 |Y|) oracle."""
    f.require_proper("subdifferential input")
    if f.index.labels != c.domain.labels:
        raise IndexMismatchError("function is not indexed by the coupling domain")
    pairs = []
    for x in range(c.domain.size):
        if not math.isfinite(f(x)):
            continue
        for y in range(c.codomain.size):
            ok = all(
                f(xp) == INF or f(x) + c(xp, y) <= f(xp) + c(x, y) + eps
                for xp in range(c.domain.size)
            )
            if ok:
                pairs.append((x, y))
    return SubdiffGraph(MultiMapping(c.domain, c.codomain, tuple(pairs)))


def is_antiderivative(f: ExtFunction, m: MultiMapping, c: Coupling,
                      eps: float = DEFAULT_EPS) -> bool:
    """Whether G(M) is contained in G(subdifferential of f): after one
    transform, the subdifferential's test on the pairs of G(M) alone."""
    f.require_proper("antiderivative candidate")
    m.require_proper()
    if f.index.labels != c.domain.labels:
        raise IndexMismatchError("function is not indexed by the coupling domain")
    fv, fc = f.values, c_transform(f, c).values
    # a pair past the coupling's index range (M on other ground sets) is
    # in no subdifferential of f
    return all(x < len(fv) and y < len(fc)
               and math.isfinite(fv[x]) and math.isfinite(fc[y])
               and abs(fv[x] + fc[y] - c.values[x][y]) <= eps
               for x, y in m.graph)
