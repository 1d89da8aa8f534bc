"""Families of c-convex antiderivatives pinned on a site set, and their
minimal/maximal envelopes.

A ConstraintProblem packages a coupling, a cyclically monotone mapping M, an
anchor antiderivative f and a nonempty site set S inside dom(M).  The family
consists of every c-convex antiderivative of M that agrees with f on S; it
always contains its lower envelope (``alpha``) and upper envelope
(``gamma``).

``alpha`` is max_s [f(s) + R_s], one ``rockafellar.chain_suprema`` call,
which runs ``monotone._cyclic_verdict`` once from f at the sites: its
label-correcting passes when they settle on labels p that the rounding
guard accepts at P = max |p| (O(k^2) per pass for k = |dom(M)|), the
closure route's table of best walks otherwise.  The passes add in another
order than the table, so alpha (and ``gamma``'s dual route and the minimal
Lipschitz extension, which read it) may move in the last bits, within the
bound that module states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .core import (
    DEFAULT_EPS,
    AbstractConvexError,
    Coupling,
    ExtFunction,
    IndexSubset,
    MultiMapping,
    pointwise_le,
    restrict_sum,
)
from .rockafellar import chain_suprema
from .transforms import (
    c_convexify,
    c_transform,
    c_transform_rev,
    is_antiderivative,
    is_c_convex,
)


@dataclass(frozen=True)
class ConstraintProblem:
    """Data of a constrained antiderivative family.

    Construction validates that the anchor really is an antiderivative of the
    mapping (which in particular forces cyclic monotonicity, so site values
    can never be chain-inconsistent) and that it is finite on the sites.
    """

    coupling: Coupling
    mapping: MultiMapping
    anchor: ExtFunction
    sites: IndexSubset
    eps: float = field(default=DEFAULT_EPS)

    def __post_init__(self):
        self.mapping.require_proper()
        self.anchor.require_proper("anchor")
        if self.anchor.index.labels != self.coupling.domain.labels:
            raise AbstractConvexError("anchor must be indexed by the coupling domain")
        if self.sites.parent.labels != self.coupling.domain.labels:
            raise AbstractConvexError("sites must live in the coupling domain")
        dom = set(self.mapping.dom)
        stray = [s for s in self.sites if s not in dom]
        if stray:
            raise AbstractConvexError(f"sites {stray} are outside dom(M)")
        if not is_antiderivative(self.anchor, self.mapping, self.coupling, self.eps):
            raise AbstractConvexError("anchor is not an antiderivative of the mapping")
        bad = [s for s in self.sites if not math.isfinite(self.anchor(s))]
        if bad:
            raise AbstractConvexError(f"anchor is not finite on sites {bad}")

    @property
    def full_domain(self) -> bool:
        return tuple(self.sites.members) == self.mapping.dom

    def dual(self) -> "ConstraintProblem":
        """The reversed problem: transposed coupling, inverted mapping,
        transformed anchor, image sites.

        Built without the constructor's checks, which follow from the
        primal's by duality (f^c is finite on M(dom M) and an antiderivative
        of M^-1).  Rerun in floats, the antiderivative test can reject a
        valid dual: on c = [[0, 0], [0, 2]] and f = (0, 1e-9), the computed
        f^cc(x1) = 2 - fl(2 - 1e-9) sits past eps from f(x1)."""
        dual = object.__new__(ConstraintProblem)
        dual.__dict__.update(
            coupling=self.coupling.transpose(),
            mapping=self.mapping.inverse(),
            anchor=c_transform(self.anchor, self.coupling),
            sites=IndexSubset(self.coupling.codomain,
                              self.mapping.of_set(self.sites)),
            eps=self.eps)
        return dual


def alpha(problem: ConstraintProblem) -> ExtFunction:
    """The minimal member: max over sites s of f(s) + R_s, where R_s is the
    chain-supremum antiderivative anchored at s."""
    sites = problem.sites.members
    return chain_suprema(problem.mapping, problem.coupling, sites,
                         [problem.anchor(s) for s in sites], problem.eps)


def alpha_closed_form(problem: ConstraintProblem) -> ExtFunction:
    """Full-domain formula max_{(s,t) in G(M)} [f(s) + c(x,t) - c(s,t)].

    Only valid when the sites exhaust dom(M)."""
    if not problem.full_domain:
        raise AbstractConvexError("closed form requires sites = dom(M)")
    c, f = problem.coupling, problem.anchor
    values = tuple(
        max(f(s) + c(x, t) - c(s, t) for s, t in problem.mapping.graph)
        for x in range(c.domain.size)
    )
    return ExtFunction(c.domain, values)


def gamma(problem: ConstraintProblem) -> ExtFunction:
    """The maximal member.

    Full-domain case: the convexification of f + indicator(dom(M)).  General
    sites: the transform of the dual problem's minimal member (no primal
    chain formula exists for this case, so none is invented).
    """
    if problem.full_domain:
        return c_convexify(restrict_sum(problem.anchor, problem.sites),
                           problem.coupling)
    return gamma_dual_route(problem)


def gamma_dual_route(problem: ConstraintProblem) -> ExtFunction:
    """The dual-transform route unconditionally; cross-check for ``gamma``."""
    return c_transform_rev(alpha(problem.dual()), problem.coupling)


def is_member(h: ExtFunction, problem: ConstraintProblem) -> bool:
    """Whether h is a c-convex antiderivative of M agreeing with f on S."""
    h.require_proper("membership candidate")
    c, eps = problem.coupling, problem.eps
    if not is_c_convex(h, c, eps):
        return False
    if not is_antiderivative(h, problem.mapping, c, eps):
        return False
    f = problem.anchor
    return all(math.isfinite(h(s)) and abs(h(s) - f(s)) <= eps
               for s in problem.sites)


def sandwich_check(h: ExtFunction, problem: ConstraintProblem) -> bool:
    """alpha <= h <= gamma; equivalent to membership for c-convex h when the
    sites exhaust dom(M) (the only case the criterion is proved for)."""
    if not problem.full_domain:
        raise AbstractConvexError("sandwich criterion requires sites = dom(M)")
    h.require_proper("sandwich candidate")
    if not is_c_convex(h, problem.coupling, problem.eps):
        raise AbstractConvexError("sandwich candidate must be c-convex")
    eps = problem.eps
    return (pointwise_le(alpha(problem), h, eps)
            and pointwise_le(h, gamma(problem), eps))
