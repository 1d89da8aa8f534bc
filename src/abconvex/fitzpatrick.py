"""Product couplings, lifted diagonal mappings and Fitzpatrick functions.

A coupling c on X x Y lifts to C on (X x Y) x (Y x X) by
C((x,y),(t,s)) = c(x,t) + c(s,y); a mapping T lifts to the diagonal mapping
sending (x,y) in G(T) to (y,x).  The Fitzpatrick function of T is then the
minimal C-convex C-antiderivative of the lifted mapping pinned on G(T),
which this module verifies executably.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

from .core import (
    DEFAULT_EPS,
    INF,
    AbstractConvexError,
    Coupling,
    ExtFunction,
    GroundSet,
    IndexSubset,
    MultiMapping,
    sup_distance,
)
from .envelopes import ConstraintProblem, alpha, gamma
from .lipschitz import MetricInstance, as_coupling, identity_mapping
from .monotone import (
    is_cyclically_monotone,
    is_maximal_cyclically_monotone,
    is_maximal_n_monotone,
    is_n_monotone,
)
from .transforms import (
    c_convexify,
    c_subdifferential,
    is_antiderivative,
    is_c_convex,
)

#: Reject lifted sides larger than this many cells.
MAX_LIFTED_SIDE = 10 ** 4


@dataclass(frozen=True)
class ProductCoupling:
    """The lifted coupling C, with the index bookkeeping for both sides."""

    base: Coupling
    lifted: Coupling
    xy_pairs: tuple[tuple[int, int], ...]   # lex x-major over X x Y
    ts_pairs: tuple[tuple[int, int], ...]   # lex t-major over Y x X

    def xy_index(self, x: int, y: int) -> int:
        return x * self.base.codomain.size + y

    def ts_index(self, t: int, s: int) -> int:
        return t * self.base.domain.size + s


def _pairs_side(first: GroundSet, second: GroundSet):
    """The lex first-major pairs of first x second and their ground set."""
    side = first.size * second.size
    if side > MAX_LIFTED_SIDE:
        raise AbstractConvexError(
            f"lifted side {side} exceeds the {MAX_LIFTED_SIDE}-cell guard")
    pairs = tuple((a, b) for a in range(first.size) for b in range(second.size))
    labels = tuple(f"({first.labels[a]},{second.labels[b]})" for a, b in pairs)
    return pairs, GroundSet(labels)


def product_coupling(c: Coupling) -> ProductCoupling:
    xy_pairs, xy_set = _pairs_side(c.domain, c.codomain)
    ts_pairs, ts_set = _pairs_side(c.codomain, c.domain)
    rows = tuple(
        tuple(c(x, t) + c(s, y) for t, s in ts_pairs)
        for x, y in xy_pairs
    )
    return ProductCoupling(c, Coupling(xy_set, ts_set, rows), xy_pairs, ts_pairs)


def delta_mapping(t_map: MultiMapping, pc: ProductCoupling) -> MultiMapping:
    """The lifted mapping with graph {((x,y),(y,x)) : (x,y) in G(T)}."""
    pairs = tuple((pc.xy_index(x, y), pc.ts_index(y, x))
                  for x, y in t_map.graph)
    return MultiMapping(pc.lifted.domain, pc.lifted.codomain, pairs)


def full_diagonal(pc: ProductCoupling) -> tuple[tuple[int, int], ...]:
    """All lifted index pairs ((x,y),(y,x)); the candidate pool for the
    maximal-within-the-diagonal checks."""
    return tuple((pc.xy_index(x, y), pc.ts_index(y, x)) for x, y in pc.xy_pairs)


def coupling_as_function(pc: ProductCoupling) -> ExtFunction:
    """c viewed as a function on the lifted domain X x Y."""
    return ExtFunction(pc.lifted.domain,
                       tuple(pc.base(x, y) for x, y in pc.xy_pairs))


def graph_anchor(t_map: MultiMapping, pc: ProductCoupling) -> ExtFunction:
    """c + indicator(G(T)) on the lifted domain."""
    present = set(t_map.graph)
    return ExtFunction(
        pc.lifted.domain,
        tuple(pc.base(x, y) if (x, y) in present else INF
              for x, y in pc.xy_pairs))


def swap_to_domain(g: ExtFunction, pc: ProductCoupling) -> ExtFunction:
    """Reindex a function on Y x X as a function on X x Y via (x,y)->(y,x)."""
    if g.index.labels != pc.lifted.codomain.labels:
        raise AbstractConvexError("function is not indexed by the lifted codomain")
    return ExtFunction(pc.lifted.domain,
                       tuple(g(pc.ts_index(y, x)) for x, y in pc.xy_pairs))


def fitzpatrick(t_map: MultiMapping, c: Coupling) -> ExtFunction:
    """F(x,y) = max over (s,t) in G(T) of c(x,t) + c(s,y) - c(s,t),
    as a function on the lifted domain X x Y."""
    t_map.require_proper()
    xy_pairs, xy_set = _pairs_side(c.domain, c.codomain)
    values = tuple(
        max(c(x, t) + c(s, y) - c(s, t) for s, t in t_map.graph)
        for x, y in xy_pairs
    )
    return ExtFunction(xy_set, values)


def fitzpatrick_family_member(h: ExtFunction, t_map: MultiMapping, c: Coupling,
                              eps: float = DEFAULT_EPS) -> bool:
    """C-convex, majorizes c everywhere, equals c on G(T)."""
    return _family_member(h, t_map, product_coupling(c), eps)


def _family_member(h: ExtFunction, t_map: MultiMapping, pc: ProductCoupling,
                   eps: float) -> bool:
    h.require_proper("family candidate")
    if h.index.labels != pc.lifted.domain.labels:
        raise AbstractConvexError("candidate is not indexed by the lifted domain")
    if not is_c_convex(h, pc.lifted, eps):
        return False
    base = coupling_as_function(pc)
    if any(b > v + eps for b, v in zip(base.values, h.values)):
        return False
    return all(abs(h(pc.xy_index(x, y)) - pc.base(x, y)) <= eps
               for x, y in t_map.graph)


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


def _anchor_is_antiderivative(t_map: MultiMapping, pc: ProductCoupling,
                              eps: float) -> bool:
    return is_antiderivative(graph_anchor(t_map, pc),
                             delta_mapping(t_map, pc), pc.lifted, eps)


def verify_theorem6A(t_map: MultiMapping, c: Coupling,
                     eps: float = DEFAULT_EPS,
                     check_maximality: bool = False) -> Theorem6AReport:
    """Independently evaluate the four equivalent monotonicity readings."""
    t_map.require_proper()
    pc = product_coupling(c)
    delta = delta_mapping(t_map, pc)

    mono = is_n_monotone(t_map, c, 2, eps)
    identity_value = None
    if not mono:
        (x1, y1), (x2, y2) = mono.witness[0], mono.witness[1]
        identity_value = 2.0 * (c(x1, y1) - c(x1, y2) - c(x2, y1) + c(x2, y2))

    t_max = d_max = d_cyc_max = a_max = None
    if check_maximality:
        delta_present = set(delta.graph)
        delta_candidates = [p for p in full_diagonal(pc)
                            if p not in delta_present]
        t_max = is_maximal_n_monotone(t_map, c, 2, eps)
        d_max = is_maximal_n_monotone(delta, pc.lifted, 2, eps,
                                      candidates=delta_candidates)
        d_cyc_max = is_maximal_cyclically_monotone(
            delta, pc.lifted, eps, candidates=delta_candidates)
        # 4': no single-point graph extension of T keeps the anchor property
        t_present = set(t_map.graph)
        a_max = _anchor_is_antiderivative(t_map, pc, eps) and all(
            not _anchor_is_antiderivative(t_map.with_pair(x, y), pc, eps)
            for x in range(c.domain.size) for y in range(c.codomain.size)
            if (x, y) not in t_present)

    return Theorem6AReport(
        t_monotone=bool(mono),
        delta_monotone=bool(is_n_monotone(delta, pc.lifted, 2, eps)),
        delta_cyclically_monotone=bool(is_cyclically_monotone(delta, pc.lifted, eps)),
        anchor_is_antiderivative=_anchor_is_antiderivative(t_map, pc, eps),
        violation_identity_value=identity_value,
        t_maximal=t_max,
        delta_maximal_in_diagonal=d_max,
        delta_cyclically_maximal_in_diagonal=d_cyc_max,
        anchor_maximal=a_max,
    )


@dataclass(frozen=True)
class Theorem6BReport:
    max_abs_diff: float
    equal: bool
    maximality_checked: bool
    sampled_members: int
    family_inclusion_falsified: bool


def lifted_problem(t_map: MultiMapping, c: Coupling,
                   eps: float = DEFAULT_EPS) -> ConstraintProblem:
    """The lifted constrained family: mapping Delta_T, anchor c + i_{G(T)},
    sites = G(T) = dom(Delta_T)."""
    return _lifted_problem(t_map, product_coupling(c), eps)


def _lifted_problem(t_map: MultiMapping, pc: ProductCoupling,
                    eps: float) -> ConstraintProblem:
    delta = delta_mapping(t_map, pc)
    sites = IndexSubset(pc.lifted.domain, delta.dom)
    return ConstraintProblem(pc.lifted, delta, graph_anchor(t_map, pc),
                             sites, eps)


def verify_theorem6B(t_map: MultiMapping, c: Coupling,
                     eps: float = DEFAULT_EPS,
                     seed: Optional[int] = None,
                     samples: int = 10) -> Theorem6BReport:
    """Check that the lifted family's minimal member equals the Fitzpatrick
    function, and (for finitely maximal T) sample members against the
    Fitzpatrick family.  Sampling can only falsify the inclusion."""
    if not is_n_monotone(t_map, c, 2, eps):
        raise AbstractConvexError("theorem B requires a c-monotone mapping")
    pc = product_coupling(c)
    problem = _lifted_problem(t_map, pc, eps)
    a = alpha(problem)
    f = fitzpatrick(t_map, c)
    diff = sup_distance(a, f)

    maximal = is_maximal_n_monotone(t_map, c, 2, eps)
    sampled = 0
    falsified = False
    if maximal and samples > 0:
        rng = random.Random(seed)
        g = gamma(problem)
        for _ in range(samples):
            mix = ExtFunction(a.index,
                              tuple(_mix(rng, lo, hi)
                                    for lo, hi in zip(a.values, g.values)))
            member = c_convexify(mix, problem.coupling)
            sampled += 1
            if not _family_member(member, t_map, pc, eps):
                falsified = True
    return Theorem6BReport(max_abs_diff=diff, equal=diff <= eps,
                           maximality_checked=maximal,
                           sampled_members=sampled,
                           family_inclusion_falsified=falsified)


def _mix(rng: random.Random, lo: float, hi: float) -> float:
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return lo
    lam = rng.random()
    return lo + lam * (hi - lo)


@dataclass(frozen=True)
class InequalityChainReport:
    holds: bool
    max_violation: float


def verify_inequality_chain(t_map: MultiMapping, metric: MetricInstance,
                            lipschitz_witness: Optional[ExtFunction] = None,
                            eps: float = DEFAULT_EPS) -> InequalityChainReport:
    """-d(x,y) <= F(x,y) <= -F(y,x) <= d(y,x) for the Fitzpatrick function of
    a -d-monotone T that is either finitely maximal or the subdifferential of
    a supplied -d-convex function."""
    c = as_coupling(metric)
    if not is_n_monotone(t_map, c, 2, eps):
        raise AbstractConvexError("hypothesis fails: T is not -d-monotone")
    if lipschitz_witness is not None:
        if not is_c_convex(lipschitz_witness, c, eps):
            raise AbstractConvexError("witness function is not -d-convex")
        sub = c_subdifferential(lipschitz_witness, c, eps)
        if set(sub.graph) != set(t_map.graph):
            raise AbstractConvexError(
                "hypothesis fails: T is not the subdifferential of the witness")
    elif not is_maximal_n_monotone(t_map, c, 2, eps):
        raise AbstractConvexError(
            "hypothesis fails: T is neither finitely maximal nor a supplied "
            "subdifferential")
    n = metric.points.size
    f = fitzpatrick(t_map, c)
    worst = 0.0
    for x in range(n):
        for y in range(n):
            fxy = f(x * n + y)
            fyx = f(y * n + x)
            d = metric(x, y)
            worst = max(worst, -d - fxy, fxy - (-fyx), -fyx - metric(y, x))
    return InequalityChainReport(holds=worst <= eps, max_violation=worst)


def identity_fitzpatrick(metric: MetricInstance) -> ExtFunction:
    """F of the identity mapping under c = -d; equals -d by the triangle
    inequality."""
    return fitzpatrick(identity_mapping(metric), as_coupling(metric))
