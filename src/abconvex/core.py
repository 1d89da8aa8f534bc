"""Finite ground sets, couplings, extended-real functions and multimappings.

Everything downstream (transforms, monotonicity, envelopes, Lipschitz
extension, Fitzpatrick functions) operates on the small immutable types
defined here.  Ground sets are finite and explicitly enumerated, so every
supremum in the theory becomes a finite max.  Element labels are opaque
strings; any numeric structure lives purely in the coupling matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

INF = math.inf

#: Default absolute tolerance for equality tests of finite reals.
DEFAULT_EPS = 1e-9


class AbstractConvexError(Exception):
    """Base class for all domain errors raised by this package."""


class IndexMismatchError(AbstractConvexError):
    """A function or subset is indexed by the wrong ground set."""


class ImproperFunctionError(AbstractConvexError):
    """An operation requiring a proper function received an improper one."""


class UndefinedSumError(AbstractConvexError):
    """The extended-real sum (+inf) + (-inf) was requested."""


class BudgetExceededError(AbstractConvexError):
    """An exhaustive enumeration would exceed its tuple budget."""


def ext_add(a: float, b: float) -> float:
    """Extended-real addition; (+inf) + (-inf) is a surfaced error."""
    if (a == INF and b == -INF) or (a == -INF and b == INF):
        raise UndefinedSumError("undefined extended-real sum (+inf) + (-inf)")
    return a + b


@dataclass(frozen=True)
class GroundSet:
    """An ordered finite set of distinct opaque labels."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if not self.labels:
            raise AbstractConvexError("ground set must be nonempty")
        if len(set(self.labels)) != len(self.labels):
            raise AbstractConvexError("ground set labels must be distinct")

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise AbstractConvexError(f"unknown label {label!r}") from None

    def __iter__(self):
        return iter(range(len(self.labels)))

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class Coupling:
    """A finite real coupling c on domain x codomain.

    Entries must be finite: the standing assumption is c: X x Y -> R.
    """

    domain: GroundSet
    codomain: GroundSet
    values: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if len(self.values) != self.domain.size:
            raise AbstractConvexError("coupling row count != |domain|")
        for row in self.values:
            if len(row) != self.codomain.size:
                raise AbstractConvexError("coupling column count != |codomain|")
            if not all(map(math.isfinite, row)):
                raise AbstractConvexError("coupling entries must be finite")

    def __call__(self, x: int, y: int) -> float:
        return self.values[x][y]

    @cached_property
    def columns(self) -> tuple[tuple[float, ...], ...]:
        """The matrix by columns: ``columns[y][x] == values[x][y]``."""
        return tuple(zip(*self.values))

    def transpose(self) -> "Coupling":
        """The reversed coupling c'(y, x) = c(x, y) on codomain x domain."""
        return Coupling(self.codomain, self.domain, self.columns)


def coupling_from_rows(domain: GroundSet, codomain: GroundSet,
                       rows: Iterable[Iterable[float]]) -> Coupling:
    return Coupling(domain, codomain, tuple(tuple(float(v) for v in r) for r in rows))


@dataclass(frozen=True)
class ExtFunction:
    """A vector of extended-real values indexed by a ground set.

    +inf marks points outside the effective domain; -inf is representable
    (transforms of improper functions produce it) but any result that is
    contractually proper rejects it.
    """

    index: GroundSet
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) != self.index.size:
            raise IndexMismatchError("value count != ground set size")
        for v in self.values:
            if math.isnan(v):
                raise AbstractConvexError("NaN is not an extended real")

    def __call__(self, i: int) -> float:
        return self.values[i]

    @property
    def proper(self) -> bool:
        return all(v > -INF for v in self.values) and any(
            math.isfinite(v) for v in self.values)

    @property
    def dom(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.values) if math.isfinite(v))

    def require_proper(self, what: str = "function") -> "ExtFunction":
        if not self.proper:
            raise ImproperFunctionError(f"{what} must be proper")
        return self

    def same_index(self, other: "ExtFunction") -> None:
        if self.index.labels != other.index.labels:
            raise IndexMismatchError("functions indexed by different ground sets")

    def shifted(self, constant: float) -> "ExtFunction":
        return ExtFunction(self.index, tuple(ext_add(v, constant) for v in self.values))


def ext_function(index: GroundSet, values: Iterable[float]) -> ExtFunction:
    return ExtFunction(index, tuple(float(v) for v in values))


@dataclass(frozen=True)
class IndexSubset:
    """A nonempty subset of a ground set, stored as sorted indices."""

    parent: GroundSet
    members: tuple[int, ...]

    def __post_init__(self):
        if not self.members:
            raise AbstractConvexError("subset must be nonempty")
        if len(set(self.members)) != len(self.members):
            raise AbstractConvexError("subset members must be distinct")
        for i in self.members:
            if not 0 <= i < self.parent.size:
                raise AbstractConvexError(f"subset member {i} out of range")
        object.__setattr__(self, "members", tuple(sorted(self.members)))

    def __contains__(self, i: int) -> bool:
        return i in set(self.members)

    def __iter__(self):
        return iter(self.members)


def subset_from_labels(parent: GroundSet, labels: Iterable[str]) -> IndexSubset:
    return IndexSubset(parent, tuple(parent.index(lab) for lab in labels))


@dataclass(frozen=True)
class MultiMapping:
    """A multivalued mapping stored as its (sorted) graph of index pairs."""

    source: GroundSet
    target: GroundSet
    graph: tuple[tuple[int, int], ...]

    def __post_init__(self):
        pairs = sorted(set(self.graph))
        for x, y in pairs:
            if not (0 <= x < self.source.size and 0 <= y < self.target.size):
                raise AbstractConvexError(f"graph pair ({x}, {y}) out of range")
        object.__setattr__(self, "graph", tuple(pairs))

    @property
    def proper(self) -> bool:
        return bool(self.graph)

    def require_proper(self, what: str = "mapping") -> "MultiMapping":
        if not self.proper:
            raise ImproperFunctionError(f"{what} must be proper (nonempty graph)")
        return self

    @property
    def dom(self) -> tuple[int, ...]:
        return tuple(sorted({x for x, _ in self.graph}))

    @property
    def image(self) -> tuple[int, ...]:
        return tuple(sorted({y for _, y in self.graph}))

    def __call__(self, x: int) -> tuple[int, ...]:
        return tuple(y for u, y in self.graph if u == x)

    def of_set(self, xs: Iterable[int]) -> tuple[int, ...]:
        xs = set(xs)
        return tuple(sorted({y for x, y in self.graph if x in xs}))

    def inverse(self) -> "MultiMapping":
        return MultiMapping(self.target, self.source,
                            tuple((y, x) for x, y in self.graph))

    def with_pair(self, x: int, y: int) -> "MultiMapping":
        return MultiMapping(self.source, self.target, self.graph + ((x, y),))

    def __contains__(self, pair: tuple[int, int]) -> bool:
        return pair in set(self.graph)

    def __len__(self) -> int:
        return len(self.graph)


def indicator(subset: IndexSubset) -> ExtFunction:
    """The indicator function: 0 on the subset, +inf elsewhere."""
    members = set(subset.members)
    return ExtFunction(subset.parent,
                       tuple(0.0 if i in members else INF
                             for i in range(subset.parent.size)))


def restrict_sum(f: ExtFunction, subset: IndexSubset) -> ExtFunction:
    """Pointwise f + indicator(subset)."""
    if f.index.labels != subset.parent.labels:
        raise IndexMismatchError("function and subset indexed by different sets")
    members = set(subset.members)
    return ExtFunction(f.index,
                       tuple(v if i in members else INF
                             for i, v in enumerate(f.values)))


def convex_combination(g: ExtFunction, h: ExtFunction, lam: float) -> ExtFunction:
    """Pointwise lam*g + (1-lam)*h for lam strictly inside (0, 1)."""
    g.same_index(h)
    if not 0.0 < lam < 1.0:
        raise AbstractConvexError("lambda must lie strictly in (0, 1)")
    vals = []
    for a, b in zip(g.values, h.values):
        # lam*inf keeps the sign of inf since lam is strictly positive
        sa = a if not math.isfinite(a) else lam * a
        sb = b if not math.isfinite(b) else (1.0 - lam) * b
        vals.append(ext_add(sa, sb))
    return ExtFunction(g.index, tuple(vals))


def sup_distance(f: ExtFunction, g: ExtFunction) -> float:
    """Sup-norm distance; +inf entries must match exactly, else distance inf."""
    f.same_index(g)
    worst = 0.0
    for a, b in zip(f.values, g.values):
        if math.isfinite(a) and math.isfinite(b):
            worst = max(worst, abs(a - b))
        elif a != b:
            return INF
    return worst


def pointwise_le(f: ExtFunction, g: ExtFunction, eps: float = 0.0) -> bool:
    """Whether f <= g + eps pointwise under the extended-real order."""
    f.same_index(g)
    return all(a <= b + eps if math.isfinite(a) and math.isfinite(b) else a <= b
               for a, b in zip(f.values, g.values))


def pointwise_max(fs: Sequence[ExtFunction]) -> ExtFunction:
    if not fs:
        raise AbstractConvexError("pointwise max of an empty family")
    base = fs[0]
    for f in fs[1:]:
        base.same_index(f)
    return ExtFunction(base.index,
                       tuple(max(f.values[i] for f in fs)
                             for i in range(base.index.size)))


def pointwise_min(fs: Sequence[ExtFunction]) -> ExtFunction:
    if not fs:
        raise AbstractConvexError("pointwise min of an empty family")
    base = fs[0]
    for f in fs[1:]:
        base.same_index(f)
    return ExtFunction(base.index,
                       tuple(min(f.values[i] for f in fs)
                             for i in range(base.index.size)))
