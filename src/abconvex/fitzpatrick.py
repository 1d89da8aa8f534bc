"""Product couplings, lifted diagonal mappings and Fitzpatrick functions.

A coupling c on X x Y lifts to C on (X x Y) x (Y x X) by
C((x,y),(t,s)) = c(x,t) + c(s,y); a mapping T lifts to the diagonal mapping
sending (x,y) in G(T) to (y,x).  The Fitzpatrick function of T is then the
minimal C-convex C-antiderivative of the lifted mapping pinned on G(T),
which this module verifies executably.

C has no table.  ``product_coupling`` returns a ``LiftedCoupling`` that
carries c and its index layout (``xy_index``, ``ts_index`` and
``xy_pairs``), and builds row (x, y) or column (t, s) of C on first
read, each entry the float sum c(x, t) + c(s, y) a table would hold, and
keeps it for the request.  Delta_T's gain graph, the order-2 checks,
alpha and the antiderivative test read only the rows of
dom(Delta_T) = G(T) and the columns of its image, |G(T)| each, so
``verify`` builds 2 |G(T)| |X| |Y| entries in place of (|X| |Y|)**2.
``MAX_LIFTED_ENTRIES`` bounds the entries one coupling builds, checked in
its line cache (6A's maximality readings build every diagonal row), and
``Lifted.delta`` checks Delta_T's lines against it before any is built.
C is sum-separable, so every C-transform factors through c as two max-plus
passes (``transforms._lifted_transform``), O(n^3) for n = |X| = |Y| in
place of a table's O(n^4).  A transformed value may move in its last bits
from a table's, by at most
2**-51 * (1 + 2**-53) * (2 max |c| + max finite |h|).  F is a row kernel:
for each x it takes one ``max`` per cell over the rows
(c(x, t) + c(s, .)) - c(s, t), in G(T) order (a one-pair G(T) is its one
row).  Every cell is the same sum as in the per-cell formula, and ``max``
keeps the first of equal maxima as it does, so F is bit-identical to it.

Theorems 6A and 6B and the -d chain have one entry point, ``Lifted`` on
(T, c, eps), whose methods ``theorem6A``, ``theorem6B`` and
``inequality_chain`` read one context.  It checks once, through
``MultiMapping.require_on``, that T is proper and runs from c's domain to
its codomain, and computes each lifted
quantity at most once, on first use: C, Delta_T,
the anchor c + i_{G(T)} and its transform anchor^C, whether the anchor is
an antiderivative of Delta_T (6A's fourth reading, and the one check of
the lifted family that 6B needs: its sites are dom(Delta_T), where the
anchor is c, hence finite), the lifted family's alpha max_s [c(s) + R_s] from
one ``chain_suprema`` call on Delta_T, or the error it raised (6A's cyclic
reading is which of the two it holds, 6B's alpha the value), T's order-2
verdict and maximality, and F (6B and the -d chain both read it).  That
call is seeded with c at the sites and takes ``monotone``'s route, which
gives the cyclic verdict and alpha together; on c = -d, Delta_T can carry
zero-gain cycles that round positive, where the passes do not settle and
the closure decides.  6B's ``max_abs_diff`` may move in its last bits
with alpha.  ``verify`` runs all three on one context; a fresh context
per method reports the same.  The chain reads d(x, y) as -c(x, y), which
is exact, and never builds C, so C's guard does not bind it.

On finitely maximal T, 6B samples members of the lifted family on the
conjugate side.  It reads low = anchor^C, the transform the antiderivative
test read, which is gamma^C (gamma is the anchor's convexification, the
sites being all of dom Delta_T), and runs high = alpha^C once.  Each
member is the C-transform of a pointwise mix of the two.  Conjugation reverses order and alpha and
gamma are C-convex, so low <= g <= high gives alpha <= g^C <= gamma; and
g^C, a C-transform, is C-convex, so it lies in the lifted family by the
full-domain sandwich criterion.  That is one transform per member, and
``_family_member`` then tests it with all of its checks.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import cached_property
from operator import add, sub
from typing import Optional

from .core import (
    DEFAULT_EPS,
    INF,
    AbstractConvexError,
    BudgetExceededError,
    Coupling,
    ExtFunction,
    GroundSet,
    IndexSubset,
    LiftedCoupling,
    MultiMapping,
    pointwise_le,
    require_eps,
    sup_distance,
)
from .envelopes import ConstraintProblem
from .lipschitz import MetricInstance, as_coupling, identity_mapping
from .monotone import (
    _is_maximal,
    _maximal_2_monotone,
    is_maximal_cyclically_monotone,
    is_maximal_n_monotone,
    is_n_monotone,
)
from .rockafellar import NotCyclicallyMonotoneError, chain_suprema
from .transforms import (
    _in_subdifferential,
    c_subdifferential,
    c_transform,
    c_transform_rev,
    is_antiderivative,
    is_c_convex,
)

#: Reject lifted sides larger than this many cells (F has one side).
MAX_LIFTED_SIDE = 10 ** 4
#: Lifted family members that Theorem 6B samples when T is finitely maximal.
THEOREM_6B_SAMPLES = 10


def _pairs_side(first: GroundSet, second: GroundSet) -> GroundSet:
    """The labels of first x second, lex first-major."""
    side = first.size * second.size
    if side > MAX_LIFTED_SIDE:
        raise BudgetExceededError(
            f"lifted side {side} exceeds the {MAX_LIFTED_SIDE}-cell guard")
    return GroundSet(tuple(f"({a},{b})" for a in first.labels
                           for b in second.labels))


def product_coupling(c: Coupling) -> LiftedCoupling:
    """C with its index bookkeeping; its rows and columns are built on
    first read (``LiftedCoupling``)."""
    return LiftedCoupling(_pairs_side(c.domain, c.codomain),
                          _pairs_side(c.codomain, c.domain), c)


def delta_mapping(t_map: MultiMapping, pc: LiftedCoupling) -> MultiMapping:
    """The lifted mapping with graph {((x,y),(y,x)) : (x,y) in G(T)}."""
    pairs = tuple((pc.xy_index(x, y), pc.ts_index(y, x))
                  for x, y in t_map.graph)
    return MultiMapping(pc.domain, pc.codomain, pairs)


def full_diagonal(pc: LiftedCoupling) -> tuple[tuple[int, int], ...]:
    """All lifted index pairs ((x,y),(y,x)); the candidate pool for the
    maximal-within-the-diagonal checks."""
    return tuple((pc.xy_index(x, y), pc.ts_index(y, x)) for x, y in pc.xy_pairs)


def graph_anchor(t_map: MultiMapping, pc: LiftedCoupling) -> ExtFunction:
    """c + indicator(G(T)) on the lifted domain."""
    return ExtFunction(
        pc.domain,
        tuple(pc.base(x, y) if (x, y) in t_map else INF
              for x, y in pc.xy_pairs))


def fitzpatrick(t_map: MultiMapping, c: Coupling) -> ExtFunction:
    """F(x,y) = max over (s,t) in G(T) of c(x,t) + c(s,y) - c(s,t),
    as a function on the lifted domain X x Y."""
    t_map.require_on(c)
    xy_set = _pairs_side(c.domain, c.codomain)
    values = []
    for row_x in c.values:
        # the rows (c(x,t) + c(s,.)) - c(s,t) over G(T), in order, and their
        # max per cell; max of one float would raise, so one pair is read alone
        rows = [map(sub, map(add, itertools.repeat(row_x[t]), c.values[s]),
                    itertools.repeat(c(s, t))) for s, t in t_map.graph]
        values += map(max, *rows) if len(rows) > 1 else rows[0]
    return ExtFunction(xy_set, tuple(values))


@dataclass(frozen=True)
class Theorem6AReport:
    t_monotone: bool
    delta_monotone: bool
    delta_cyclically_monotone: bool
    anchor_is_antiderivative: bool
    #: Value of the doubling identity at the violating pair, when T fails.
    violation_identity_value: Optional[float] = None
    t_maximal: Optional[bool] = None
    delta_maximal_in_diagonal: Optional[bool] = None
    delta_cyclically_maximal_in_diagonal: Optional[bool] = None
    anchor_maximal: Optional[bool] = None

    @property
    def agree(self) -> bool:
        votes = (self.t_monotone, self.delta_monotone,
                 self.delta_cyclically_monotone, self.anchor_is_antiderivative)
        return all(votes) or not any(votes)

    @property
    def primed_agree(self) -> Optional[bool]:
        votes = (self.t_maximal, self.delta_maximal_in_diagonal,
                 self.delta_cyclically_maximal_in_diagonal, self.anchor_maximal)
        if any(v is None for v in votes):
            return None
        return all(votes) or not any(votes)


@dataclass(frozen=True)
class Theorem6BReport:
    max_abs_diff: float
    equal: bool
    maximality_checked: bool
    sampled_members: int
    family_inclusion_falsified: bool


@dataclass(frozen=True)
class InequalityChainReport:
    holds: bool
    max_violation: float


class Lifted:
    """The lifted quantities of one request on (T, c, eps), each computed
    at most once, on first use, and Theorems 6A and 6B and the -d chain
    read from them."""

    def __init__(self, t_map: MultiMapping, c: Coupling,
                 eps: float = DEFAULT_EPS):
        require_eps(eps)
        self.t_map, self.c, self.eps = t_map.require_on(c), c, eps

    @cached_property
    def pc(self) -> LiftedCoupling:
        return product_coupling(self.c)

    @cached_property
    def delta(self) -> MultiMapping:
        """Delta_T; its readers on C build the |G(T)| rows of its domain and
        the |G(T)| columns of its image, so a request that cannot afford
        them fails here, before any is built."""
        self.pc.afford(2 * len(self.t_map.graph))
        return delta_mapping(self.t_map, self.pc)

    @cached_property
    def anchor(self) -> ExtFunction:
        return graph_anchor(self.t_map, self.pc)

    @cached_property
    def anchor_transform(self) -> ExtFunction:
        """anchor^C, which the antiderivative test and 6B's sampler (as
        low = gamma^C) both read."""
        return c_transform(self.anchor, self.pc)

    @cached_property
    def anchor_is_antiderivative(self) -> bool:
        """6A's fourth reading; 6B's only check of the lifted family that
        its construction does not already make (its sites are dom(Delta_T),
        where the anchor is c, hence finite)."""
        return _in_subdifferential(self.anchor, self.anchor_transform,
                                   self.delta, self.pc, self.eps)

    @cached_property
    def delta_alpha(self) -> ExtFunction | NotCyclicallyMonotoneError:
        """max over s in dom(Delta_T) of c(s) + R_s on Delta_T (the lifted
        family's alpha), or the error raised when Delta_T is not cyclically
        monotone."""
        sites = self.delta.dom
        try:
            return chain_suprema(self.delta, self.pc, sites,
                                 [self.anchor(s) for s in sites], self.eps)
        except NotCyclicallyMonotoneError as exc:
            return exc.with_traceback(None)  # its frames would hold self

    @cached_property
    def t_monotone(self):
        return is_n_monotone(self.t_map, self.c, 2, self.eps)

    @cached_property
    def t_maximal(self) -> bool:
        return bool(self.t_monotone) and _maximal_2_monotone(
            self.t_map, self.c, self.eps)

    @cached_property
    def fitzpatrick(self) -> ExtFunction:
        return fitzpatrick(self.t_map, self.c)

    @cached_property
    def coupling_function(self) -> ExtFunction:
        """c viewed as a function on the lifted domain X x Y."""
        pc = self.pc
        return ExtFunction(pc.domain,
                           tuple(pc.base(x, y) for x, y in pc.xy_pairs))

    @cached_property
    def problem(self) -> ConstraintProblem:
        """The lifted constrained family: mapping Delta_T, anchor
        c + i_{G(T)}, sites G(T) = dom(Delta_T)."""
        sites = IndexSubset(self.pc.domain, self.delta.dom)
        return ConstraintProblem(self.pc, self.delta, self.anchor,
                                 sites, self.eps)

    def theorem6A(self, check_maximality: bool = False) -> Theorem6AReport:
        """Independently evaluate the four equivalent monotonicity readings,
        and with ``check_maximality`` their four maximality readings."""
        t_map, c, eps = self.t_map, self.c, self.eps
        pc, delta = self.pc, self.delta

        mono = self.t_monotone
        identity_value = None
        if not mono:
            (x1, y1), (x2, y2) = mono.witness[0], mono.witness[1]
            identity_value = 2 * (c(x1, y1) - c(x1, y2) - c(x2, y1)
                                  + c(x2, y2))

        t_max = d_max = d_cyc_max = a_max = None
        if check_maximality:
            diagonal = full_diagonal(pc)
            t_max = self.t_maximal
            d_max = is_maximal_n_monotone(delta, pc, 2, eps,
                                          candidates=diagonal)
            d_cyc_max = is_maximal_cyclically_monotone(
                delta, pc, eps, candidates=diagonal)
            # 4': no single-point graph extension of T keeps the anchor property
            a_max = _is_maximal(lambda t: is_antiderivative(
                graph_anchor(t, pc), delta_mapping(t, pc), pc, eps), t_map)

        return Theorem6AReport(
            t_monotone=bool(mono),
            delta_monotone=bool(is_n_monotone(delta, pc, 2, eps)),
            delta_cyclically_monotone=isinstance(self.delta_alpha,
                                                 ExtFunction),
            anchor_is_antiderivative=self.anchor_is_antiderivative,
            violation_identity_value=identity_value,
            t_maximal=t_max,
            delta_maximal_in_diagonal=d_max,
            delta_cyclically_maximal_in_diagonal=d_cyc_max,
            anchor_maximal=a_max,
        )

    def theorem6B(self, seed: int = 0) -> Theorem6BReport:
        """Check that the lifted family's minimal member equals the
        Fitzpatrick function, and (for finitely maximal T) sample members
        against the Fitzpatrick family.  Each sampled member is the
        C-transform of a random pointwise mix of gamma^C and alpha^C, which
        conjugation, being antitone, puts between alpha and gamma (module
        docstring).  Sampling can only falsify the inclusion."""
        if not self.t_monotone:
            raise AbstractConvexError("theorem B requires a c-monotone mapping")
        if not self.anchor_is_antiderivative:  # ConstraintProblem's message
            raise AbstractConvexError(
                "anchor is not an antiderivative of the mapping")
        a = self.delta_alpha  # alpha(problem)
        if isinstance(a, NotCyclicallyMonotoneError):  # raise a copy, no cycle
            raise NotCyclicallyMonotoneError(a.witness, a.mapping)
        diff = sup_distance(a, self.fitzpatrick)

        maximal = self.t_maximal
        sampled = THEOREM_6B_SAMPLES if maximal else 0
        falsified = False
        if maximal:
            members = _sampled_members(self, a, random.Random(seed), sampled)
            falsified = not all(_family_member(h, self) for h in members)
        return Theorem6BReport(max_abs_diff=diff, equal=diff <= self.eps,
                               maximality_checked=maximal,
                               sampled_members=sampled,
                               family_inclusion_falsified=falsified)

    def inequality_chain(self, lipschitz_witness: Optional[ExtFunction] = None
                         ) -> InequalityChainReport:
        """-d(x,y) <= F(x,y) <= -F(y,x) <= d(y,x) for the Fitzpatrick
        function of a -d-monotone T that is either finitely maximal or the
        subdifferential of a supplied -d-convex function.  The coupling is
        c = -d, so d(x,y) is read as -c(x,y), which is exact."""
        t_map, c, eps = self.t_map, self.c, self.eps
        if c.domain != c.codomain:
            raise AbstractConvexError(
                "the inequality chain needs c = -d on one point set")
        if not self.t_monotone:
            raise AbstractConvexError("hypothesis fails: T is not -d-monotone")
        if lipschitz_witness is not None:
            if not is_c_convex(lipschitz_witness, c, eps):
                raise AbstractConvexError("witness function is not -d-convex")
            sub = c_subdifferential(lipschitz_witness, c, eps)
            if set(sub.graph) != set(t_map.graph):
                raise AbstractConvexError("hypothesis fails: T is not the "
                                          "subdifferential of the witness")
        elif not self.t_maximal:
            raise AbstractConvexError(
                "hypothesis fails: T is neither finitely maximal nor a "
                "supplied subdifferential")
        n = c.domain.size
        f = self.fitzpatrick
        worst = 0.0
        for x in range(n):
            for y in range(n):
                fxy = f(x * n + y)
                fyx = f(y * n + x)
                # -d(x,y) - F(x,y), F(x,y) - (-F(y,x)), -F(y,x) - d(y,x)
                worst = max(worst, c(x, y) - fxy, fxy + fyx, c(y, x) - fyx)
        return InequalityChainReport(holds=worst <= eps, max_violation=worst)


def _family_member(h: ExtFunction, lifted: Lifted) -> bool:
    pc, eps = lifted.pc, lifted.eps
    h.require_proper("family candidate")
    # is_c_convex refuses an h off the lifted domain (IndexMismatchError)
    if not is_c_convex(h, pc, eps):
        return False
    c = lifted.coupling_function
    # c <= h + eps everywhere, then |h - c| <= eps on G(T) = dom(Delta_T)
    return pointwise_le(c, h, eps) and all(
        abs(h(i) - c(i)) <= eps for i in lifted.delta.dom)


def _sampled_members(lifted: Lifted, a: ExtFunction, rng: random.Random,
                     count: int):
    """``count`` members of the lifted family between alpha = ``a`` and
    gamma: the C-transforms of pointwise mixes of low = anchor^C = gamma^C
    and high = alpha^C (module docstring)."""
    c, low = lifted.pc, lifted.anchor_transform
    high = c_transform(a, c)
    for _ in range(count):
        yield c_transform_rev(ExtFunction(low.index, _mix(
            rng, low.values, high.values)), c)


def _mix(rng: random.Random, lows, highs) -> tuple[float, ...]:
    """lo + lam * (hi - lo) at each point where both are finite, lam drawn
    from ``rng`` there, in order; lo elsewhere."""
    return tuple([lo + rng.random() * (hi - lo)
                  if math.isfinite(lo) and math.isfinite(hi) else lo
                  for lo, hi in zip(lows, highs)])


def identity_fitzpatrick(metric: MetricInstance) -> ExtFunction:
    """F of the identity mapping under c = -d; equals -d by the triangle
    inequality."""
    return fitzpatrick(identity_mapping(metric), as_coupling(metric))
