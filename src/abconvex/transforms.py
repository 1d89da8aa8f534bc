"""c-transforms, c-convexification, c-subdifferentials and related predicates.

The forward transform maps functions on the coupling's domain to functions
on its codomain; the reverse transform goes the other way.  The two are kept
as distinct operations with explicit index typing, so a conjugation-direction
mistake fails loudly instead of silently transposing.

On a plain coupling both transforms run one row kernel, ``_transform``: it
takes ``max(map(sub, line, values))`` for each output point, where
``line`` is a column of the coupling (forward) or a row of it (reverse).
A +inf entry (outside dom f) gives line[i] - inf = -inf, which loses to
every finite difference, so it needs no mask.  The outputs are
bit-identical to a per-cell loop: every cell is the same subtraction, and
``max`` keeps the first of equal maxima, as a running
``best = max(best, ...)`` does.

A lifted coupling C((x,y),(t,s)) = c(x,t) + c(s,y) (``LiftedCoupling``)
is sum-separable, so its transforms factor through c and never read C's
table: ``_lifted_transform`` runs two max-plus passes over c, O(n^3) for
n = |X| = |Y| in place of the table's O(n^4).  Each term is summed as
c(s,y) + (c(x,t) - h(x,y)) where the table sums (c(x,t) + c(s,y)) - h, so
a lifted value may move in its last bits; the kernel's docstring derives
the bound 2**-51 * (1 + 2**-53) * (2 max |c| + max finite |h|).

The subdifferential scans each coupling row against the finite entries of
f^c; ``is_antiderivative`` makes the same test on the pairs of G(M) only,
after the same full transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add, sub

from .core import (
    DEFAULT_EPS,
    Coupling,
    ExtFunction,
    LiftedCoupling,
    MultiMapping,
    require_eps,
    require_indexed_by,
    sup_distance,
)


def _transform(values: tuple[float, ...], lines) -> tuple[float, ...]:
    """max over i of line[i] - values[i] for each line, with the [-inf, inf]
    conventions by the arithmetic alone, since c is finite: a -inf entry
    gives a +inf term, hence +inf at every output, and +inf entries
    (outside dom) give -inf terms, so an empty domain gives -inf."""
    return tuple(max(map(sub, line, values)) for line in lines)


def _lifted_transform(values: tuple[float, ...], base: Coupling,
                      reverse: bool = False) -> tuple[float, ...]:
    """The transform over the lift C((x,y),(t,s)) = c(x,t) + c(s,y) of
    c = ``base`` as two max-plus passes over c.  ``_transform``'s
    conventions hold by the arithmetic alone, since c is finite: a -inf
    value gives a +inf term to each inner max over it, hence +inf at every
    output, and +inf entries give -inf terms, so an empty domain gives
    -inf; no inf - inf arises.

    Forward, h on (x, y): B[t][y] = max_x [c(x,t) - h(x,y)] over h's
    columns, then h^C(t,s) = max_y [c(s,y) + B[t][y]], in t-major order.
    Reverse, g on (t, s): A[y][t] = max_s [c(s,y) - g(t,s)] over g's rows,
    then g^C(x,y) = max_t [c(x,t) + A[y][t]], in x-major order.

    Rounding.  fl is monotone, so fl(a + max_i w_i) = max_i fl(a + w_i) and
    each output is the max over its terms fl(c(s,y) + fl(c(x,t) - h))
    (reverse: fl(c(x,t) + fl(c(s,y) - g))), where the table takes
    fl(fl(c(x,t) + c(s,y)) - h).  With u = 2**-53, C = max |c| and
    H = max finite |h| (an infinite h gives the same infinity on both
    routes), a term with exact value e = a + b - h errs by at most
    u |a + b| + u |fl(a + b) - h| <= u ((4 + 2u) C + H) on the table route
    and by u |a - h| + u |b + fl(a - h)| <= u ((3 + u) C + (2 + u) H) on
    this one, so the routes differ by at most u ((7 + 3u) C + (3 + u) H)
    <= 2**-51 * (1 + 2**-53) * (2 C + H) per term, and max, being
    1-Lipschitz, keeps that bound.  Entries within 2**900 cannot overflow.
    """
    nx, ny = base.domain.size, base.codomain.size
    cols, rows = base.columns, base.values
    if reverse:
        blocks = [values[t * nx:(t + 1) * nx] for t in range(ny)]
    else:
        blocks = [values[y::ny] for y in range(ny)]
    inner = [[max(map(sub, line, block)) for block in blocks] for line in cols]
    if reverse:
        return tuple([max(map(add, row, a)) for row in rows for a in inner])
    return tuple([max(map(add, row, b)) for b in inner for row in rows])


def c_transform(f: ExtFunction, c: Coupling) -> ExtFunction:
    """The transform of f on X: f^c(y) = max_x [c(x, y) - f(x)] on Y."""
    require_indexed_by(c.domain, f, where="coupling domain")
    if isinstance(c, LiftedCoupling):
        return ExtFunction(c.codomain, _lifted_transform(f.values, c.base))
    return ExtFunction(c.codomain, _transform(f.values, c.columns))


def c_transform_rev(g: ExtFunction, c: Coupling) -> ExtFunction:
    """The transform of g on Y: g^c(x) = max_y [c(x, y) - g(y)] on X."""
    require_indexed_by(c.codomain, g, where="coupling codomain")
    if isinstance(c, LiftedCoupling):
        return ExtFunction(c.domain, _lifted_transform(g.values, c.base,
                                                       reverse=True))
    return ExtFunction(c.domain, _transform(g.values, c.values))


def c_convexify(f: ExtFunction, c: Coupling) -> ExtFunction:
    """f^{cc}: the largest c-convex function majorized by f (f proper)."""
    f.require_proper("convexification input")
    return c_transform_rev(c_transform(f, c), c)


def is_c_convex(f: ExtFunction, c: Coupling, eps: float = DEFAULT_EPS) -> bool:
    """Whether f = f^{cc} within eps (+inf entries must match exactly)."""
    require_eps(eps)
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
    The tests check it against the universally quantified form.
    """
    require_eps(eps)
    f.require_proper("subdifferential input")
    fc = c_transform(f, c)
    finite = [(y, g) for y, g in enumerate(fc.values) if math.isfinite(g)]
    pairs = []
    for x, (fx, row) in enumerate(zip(f.values, c.values)):
        if math.isfinite(fx):  # f is finite where it is c-subdifferentiable
            pairs.extend((x, y) for y, g in finite if abs(fx + g - row[y]) <= eps)
    return SubdiffGraph(MultiMapping(c.domain, c.codomain, tuple(pairs)))


def is_antiderivative(f: ExtFunction, m: MultiMapping, c: Coupling,
                      eps: float = DEFAULT_EPS) -> bool:
    """Whether G(M) is contained in G(subdifferential of f): the
    subdifferential's test on the pairs of G(M) alone.  M must run from
    c's domain to its codomain (``IndexMismatchError`` otherwise)."""
    require_eps(eps)
    f.require_proper("antiderivative candidate")
    m.require_on(c)
    return _in_subdifferential(f, c_transform(f, c), m, c, eps)


def _in_subdifferential(f: ExtFunction, fc: ExtFunction, m: MultiMapping,
                        c: Coupling, eps: float) -> bool:
    """``is_antiderivative``'s pair test given f's transform ``fc``: each
    (x, y) of G(M) has f(x) + f^c(y) = c(x, y) within eps, both finite."""
    fv, gv = f.values, fc.values
    return all(math.isfinite(fv[x]) and math.isfinite(gv[y])
               and abs(fv[x] + gv[y] - c.values[x][y]) <= eps
               for x, y in m.graph)
