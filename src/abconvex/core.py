"""Finite ground sets, couplings, extended-real functions and multimappings.

Everything downstream (transforms, monotonicity, envelopes, Lipschitz
extension, Fitzpatrick functions) operates on the small immutable types
defined here.  Ground sets are finite and explicitly enumerated, so every
supremum in the theory becomes a finite max.  Element labels are opaque
strings; any numeric structure lives purely in the coupling matrix.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from operator import add, le, sub
from typing import Iterable, Iterator

INF = math.inf

#: Default absolute tolerance for equality tests of finite reals.
DEFAULT_EPS = 1e-9


class AbstractConvexError(Exception):
    """Base class for all domain errors raised by this package."""


class IndexMismatchError(AbstractConvexError):
    """A function or subset is indexed by the wrong ground set, or a
    mapping does not run from a coupling's domain to its codomain."""


class ImproperFunctionError(AbstractConvexError):
    """An operation requiring a proper function received an improper one."""


class UndefinedSumError(AbstractConvexError):
    """The extended-real sum (+inf) + (-inf) was requested."""


class BudgetExceededError(AbstractConvexError):
    """A request would exceed one of three guards: the walk entries of
    ``is_n_monotone`` at an order other than 2 (``ENUMERATION_BUDGET``),
    the entries a lifted coupling builds (``MAX_LIFTED_ENTRIES``), or a
    lifted side's cells (``MAX_LIFTED_SIDE``)."""


def require_eps(eps: float) -> None:
    """Refuse a non-finite ``eps``: every comparison with NaN is false, and
    +-inf accepts or refuses every finite gap, so each would give an
    answer that no tolerance means."""
    if not math.isfinite(eps):
        raise ValueError("eps must be finite")


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

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.labels)}

    def index(self, label: str) -> int:
        try:
            return self._positions[label]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise AbstractConvexError(f"unknown label {label!r}") from None


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
            # inf or nan poisons the sum; an overflowing one rechecks
            if not (math.isfinite(sum(row)) or all(map(math.isfinite, row))):
                raise AbstractConvexError("coupling entries must be finite")

    def __call__(self, x: int, y: int) -> float:
        return self.values[x][y]

    @cached_property
    def columns(self) -> tuple[tuple[float, ...], ...]:
        """The matrix by columns: ``columns[y][x] == values[x][y]``."""
        return tuple(zip(*self.values))

    def transpose(self) -> "Coupling":
        """The reversed coupling c'(y, x) = c(x, y) on codomain x domain (a
        table, also for a lifted coupling, whose columns it builds)."""
        return Coupling(self.codomain, self.domain, tuple(self.columns))


#: The most lifted entries one ``LiftedCoupling`` builds, rows and columns
#: together.  Each entry is a float object (24 bytes) in a tuple slot (8
#: bytes), so the bound holds a request's lifted lines to about 128 MB.
MAX_LIFTED_ENTRIES = 4 * 10 ** 6


class _Budget:
    """The lifted entries one coupling has built, held apart from it so
    that its lines and it form no reference cycle."""

    def __init__(self):
        self.entries = 0

    def afford(self, entries: int) -> int:
        """The total once ``entries`` more are built; raises
        ``BudgetExceededError`` if that passes ``MAX_LIFTED_ENTRIES``."""
        total = self.entries + entries
        if total > MAX_LIFTED_ENTRIES:
            raise BudgetExceededError(
                f"lifted rows and columns of {total} entries exceed the "
                f"{MAX_LIFTED_ENTRIES}-entry guard")
        return total

    def spend(self, entries: int) -> None:
        self.entries = self.afford(entries)


class _LiftedLines(Sequence):
    """The rows or the columns of a ``LiftedCoupling``, each built from c on
    first read and kept; every build spends its length from the budget."""

    def __init__(self, size: int, build, budget: _Budget):
        self._size, self._build, self._budget = size, build, budget
        self._built = {}

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, i: int) -> tuple[float, ...]:
        line = self._built.get(i)
        if line is None:
            if not 0 <= i < self._size:
                raise IndexError(f"lifted line {i} out of range")
            self._budget.spend(self._size)
            line = self._built[i] = self._build(i)
        return line

    @property
    def built(self) -> frozenset[int]:
        """The indices of the lines built so far."""
        return frozenset(self._built)


@dataclass(frozen=True)
class LiftedCoupling(Coupling):
    """The lifted coupling C((x,y),(t,s)) = c(x,t) + c(s,y) of ``base`` = c,
    on X x Y (x-major: (x, y) at ``xy_index(x, y)``, ``xy_pairs`` by
    index) by Y x X (t-major: (t, s) at ``ts_index(t, s)``), without a table.

    Row (x, y) of ``values`` and column (t, s) of ``columns`` are built
    from c on first read and kept, each entry the float sum
    c(x, t) + c(s, y) that a table would hold; the transforms read c alone,
    since C is sum-separable.  Every line built counts |X| |Y| entries
    against ``MAX_LIFTED_ENTRIES`` (``afford``).  Equality and hashing go
    by the sides and ``base``.
    """

    values: Sequence[tuple[float, ...]] = field(init=False, repr=False,
                                                compare=False)
    base: Coupling

    def __post_init__(self):
        rows, cols = self.base.values, self.base.columns
        nx, ny = len(cols[0]), len(rows[0])
        if self.domain.size != nx * ny or self.codomain.size != nx * ny:
            raise AbstractConvexError("lifted sides != |X| |Y| of the base")
        # every sum c(x, t) + c(s, y) stays finite
        if not math.isfinite(2.0 * max(max(map(abs, row)) for row in rows)):
            raise AbstractConvexError("coupling entries must be finite")
        budget = _Budget()
        object.__setattr__(self, "_budget", budget)
        # row (x, y) over the t-major (t, s); column (t, s) over the
        # x-major (x, y)
        object.__setattr__(self, "values", _LiftedLines(nx * ny, lambda i: tuple(
            [a + b for a in rows[i // ny] for b in cols[i % ny]]), budget))
        object.__setattr__(self, "columns", _LiftedLines(nx * ny, lambda j: tuple(
            [a + b for a in cols[j // nx] for b in rows[j % nx]]), budget))

    def xy_index(self, x: int, y: int) -> int:
        return x * self.base.codomain.size + y

    def ts_index(self, t: int, s: int) -> int:
        return t * self.base.domain.size + s

    @cached_property
    def xy_pairs(self) -> tuple[tuple[int, int], ...]:
        """The (x, y) at each domain index, x-major."""
        return tuple(itertools.product(range(self.base.domain.size),
                                       range(self.base.codomain.size)))

    def afford(self, lines: int) -> int:
        """The entries built once ``lines`` more lines of |X| |Y| are;
        raises ``BudgetExceededError`` if that passes
        ``MAX_LIFTED_ENTRIES``."""
        return self._budget.afford(lines * self.domain.size)


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
        if any(map(math.isnan, self.values)):
            raise AbstractConvexError("NaN is not an extended real")

    def __call__(self, i: int) -> float:
        return self.values[i]

    @property
    def proper(self) -> bool:
        return -INF not in self.values and any(map(math.isfinite, self.values))

    def require_proper(self, what: str = "function") -> "ExtFunction":
        if not self.proper:
            raise ImproperFunctionError(f"{what} must be proper")
        return self

    def shifted(self, constant: float) -> "ExtFunction":
        return ExtFunction(self.index, tuple(ext_add(v, constant) for v in self.values))


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

    def __iter__(self):
        return iter(self.members)


@dataclass(frozen=True)
class MultiMapping:
    """A multivalued mapping stored as its (sorted) graph of index pairs."""

    source: GroundSet
    target: GroundSet
    graph: tuple[tuple[int, int], ...]

    def __post_init__(self):
        pairs = sorted(set(self.graph))
        ys = [y for _, y in pairs]
        # sorted pairs run from the least x to the largest
        if pairs and not (0 <= pairs[0][0] and pairs[-1][0] < self.source.size
                          and 0 <= min(ys) and max(ys) < self.target.size):
            for pair in pairs:
                self._in_range(pair)
        object.__setattr__(self, "graph", tuple(pairs))

    def _in_range(self, pair: tuple[int, int]) -> tuple[int, int]:
        x, y = pair
        if not (0 <= x < self.source.size and 0 <= y < self.target.size):
            raise AbstractConvexError(f"graph pair ({x}, {y}) out of range")
        return pair

    @property
    def proper(self) -> bool:
        return bool(self.graph)

    def require_proper(self, what: str = "mapping") -> "MultiMapping":
        if not self.proper:
            raise ImproperFunctionError(f"{what} must be proper (nonempty graph)")
        return self

    def runs_on(self, c: Coupling) -> bool:
        """Whether M runs from c's domain to its codomain, by their labels
        (the same GroundSet objects compare at once)."""
        return (self.source, self.target) == (c.domain, c.codomain)

    def require_on(self, c: Coupling) -> "MultiMapping":
        """M, running from c's domain to its codomain and proper, as every
        reading of (M, c) needs."""
        if not self.runs_on(c):
            raise IndexMismatchError(
                "mapping does not run from the coupling's domain to its codomain")
        return self.require_proper()

    @property
    def dom(self) -> tuple[int, ...]:
        return tuple(self._images)

    def __call__(self, x: int) -> tuple[int, ...]:
        return self._images.get(x, ())

    def of_set(self, xs: Iterable[int]) -> tuple[int, ...]:
        xs = set(xs)
        return tuple(sorted({y for x, y in self.graph if x in xs}))

    def inverse(self) -> "MultiMapping":
        return MultiMapping(self.target, self.source,
                            tuple((y, x) for x, y in self.graph))

    def with_pair(self, x: int, y: int) -> "MultiMapping":
        return MultiMapping(self.source, self.target, self.graph + ((x, y),))

    def extensions(self, candidates=None) -> Iterator[tuple[int, int]]:
        """The pairs of ``candidates`` (default: X x Y, row by row) outside
        G(M), in order, each checked to lie in X x Y as it is reached."""
        if candidates is None:
            candidates = itertools.product(range(self.source.size),
                                           range(self.target.size))
        return (self._in_range(p) for p in candidates if p not in self)

    @cached_property
    def _pair_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.graph)

    @cached_property
    def _images(self) -> dict[int, tuple[int, ...]]:
        """x -> M(x) for x in dom(M), both sorted (the graph is)."""
        images: dict[int, list[int]] = {}
        for x, y in self.graph:
            images.setdefault(x, []).append(y)
        return {x: tuple(ys) for x, ys in images.items()}

    def __contains__(self, pair: tuple[int, int]) -> bool:
        return pair in self._pair_set


def indexed_by(item: ExtFunction | IndexSubset, ground: GroundSet) -> bool:
    """Whether a function or subset is indexed by ``ground``, by labels
    (the same GroundSet objects compare at once, as in ``runs_on``)."""
    return (item.parent if isinstance(item, IndexSubset) else item.index,) == (ground,)


def require_indexed_by(ground: GroundSet, *items,
                       where: str = "first function's ground set") -> None:
    """Refuse any of ``items``, functions or subsets, not indexed by
    ``ground``, as every library reader does; ``where`` names ``ground``."""
    for item in items:
        if not indexed_by(item, ground):
            kind = "subset" if isinstance(item, IndexSubset) else "function"
            raise IndexMismatchError(f"{kind} is not indexed by the {where}")


def indicator(subset: IndexSubset) -> ExtFunction:
    """The indicator function: 0 on the subset, +inf elsewhere."""
    return restrict_sum(ExtFunction(subset.parent, (0.0,) * subset.parent.size), subset)


def restrict_sum(f: ExtFunction, subset: IndexSubset) -> ExtFunction:
    """Pointwise f + indicator(subset)."""
    require_indexed_by(f.index, subset, where="function's ground set")
    members = set(subset.members)
    return ExtFunction(f.index,
                       tuple(v if i in members else INF
                             for i, v in enumerate(f.values)))


def convex_combination(g: ExtFunction, h: ExtFunction, lam: float) -> ExtFunction:
    """Pointwise lam*g + (1-lam)*h for lam strictly inside (0, 1)."""
    require_indexed_by(g.index, h)
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
    """Sup-norm distance; +inf entries must match exactly, else distance inf.

    When both sides are all finite (a finite sum proves it; an overflowing
    one takes the loop) it is one ``max(map(abs, map(sub, a, b)))``, the
    loop's values: every |a - b| is at least 0.0, where the loop starts."""
    require_indexed_by(f.index, g)
    if math.isfinite(sum(f.values) + sum(g.values)):
        return max(map(abs, map(sub, f.values, g.values)))
    worst = 0.0
    for a, b in zip(f.values, g.values):
        if math.isfinite(a) and math.isfinite(b):
            worst = max(worst, abs(a - b))
        elif a != b:
            return INF
    return worst


def pointwise_le(f: ExtFunction, g: ExtFunction, eps: float = 0.0) -> bool:
    """Whether f <= g + eps pointwise under the extended-real order, for a
    finite eps: there +-inf + eps is +-inf, so one float comparison per
    point decides (a finite g + eps past the float range reads +inf)."""
    require_eps(eps)
    require_indexed_by(f.index, g)
    return all(map(le, f.values, map(add, g.values, itertools.repeat(eps))))


def pointwise_max(fs: Sequence[ExtFunction]) -> ExtFunction:
    if not fs:
        raise AbstractConvexError("pointwise max of an empty family")
    require_indexed_by(fs[0].index, *fs[1:])
    return ExtFunction(fs[0].index, tuple(map(max, zip(*[f.values for f in fs]))))
