"""JSON ingestion and emission of problem instances.

The interchange document names ground sets, a coupling (dense matrix or a
metric block with a negate flag for c = -d), functions (with the string
"inf" standing in for +inf), mappings as label-pair lists and subsets as
label lists.  Parsing either returns a validated document or raises
``InstanceError`` with a JSON-path diagnostic.

Each JSON shape has one reader: ``_section`` walks an optional object of
named entries (ground sets, functions, mappings, subsets), ``_matrix``
reads the metric's distances and the coupling's values, and ``_flag``
reads ``pseudometric`` and ``negate``, which must be JSON booleans.

Numeric rows go through ``_parse_row``: a row of plain JSON ints and floats
whose ``math.hypot`` after ``float()`` is within ``MAX_MAGNITUDE`` is
converted in one pass, and an all-float row is kept as it is, since
``float()`` of a float is that float; any other row (one holding "inf",
say) goes to ``_parse_value`` per cell, which raises at the first bad
cell, so every diagnostic names the same JSON path.  Both routes apply the
same ``float()`` to each cell, so the parsed values are bit-identical.
Ground-set labels and mapping pairs are resolved in bulk the same way, and
anything the bulk pass cannot take goes to the per-item loop, which raises
the message naming the item; subset members are resolved one at a time.

``dumps`` writes strict JSON: it raises ``ValueError`` on a non-finite
float, so +inf reaches it only as the string "inf" that
``function_to_jsonable`` writes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Optional

from .core import (
    AbstractConvexError,
    Coupling,
    ExtFunction,
    GroundSet,
    IndexSubset,
    MultiMapping,
)
from .lipschitz import MetricInstance, as_coupling

SCHEMA_VERSION = "1"


class InstanceError(AbstractConvexError):
    """Malformed or inconsistent instance document (an input error)."""


def _fail(path: str, msg: str):
    raise InstanceError(f"{path}: {msg}")


def _expect(obj, kind, path):
    if not isinstance(obj, kind):
        _fail(path, f"expected {kind.__name__}, got {type(obj).__name__}")
    return obj


#: Largest magnitude of a finite document number.  A gain is the difference
#: of two coupling entries, a lifted entry the sum of two and a lifted gain
#: the difference of two lifted entries, at most 2**902; a walk of at most
#: (n - 1) <= 10**6 < 2**20 steps (the walk-round budget) sums at most
#: 2**922.  So no sum overflows to inf, where inf - inf would give a nan
#: that ``max()`` orders by position instead of by value.
MAX_MAGNITUDE = 2.0 ** 900


def _parse_value(v, path) -> float:
    if v == "inf":
        return math.inf
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _fail(path, "expected a number or \"inf\"")
    try:
        x = float(v)
    except OverflowError:
        _fail(path, "integer literal too large for a float")
    if not math.isfinite(x):
        _fail(path, "non-finite numeric literal; use the string \"inf\"")
    if abs(x) > MAX_MAGNITUDE:
        _fail(path, "finite numbers must have magnitude at most 2**900")
    return x


_FLOATS = frozenset((float,))
_PLAIN_NUMBERS = frozenset((int, float))
_STRINGS = frozenset((str,))
_LISTS = frozenset((list,))


def _as_floats(cells, types) -> Optional[tuple[float, ...]]:
    """``float()`` of each plain number within ``MAX_MAGNITUDE``, or None
    for the per-cell route to name the cell.  ``float()`` of a float is
    that float, so an all-float row is kept as it is."""
    try:
        values = tuple(cells) if types <= _FLOATS else tuple(map(float, cells))
    except OverflowError:  # a huge int
        return None
    # hypot is at least every |v|, and inf or nan on a non-finite cell
    return values if math.hypot(*values) <= MAX_MAGNITUDE else None


def _parse_row(row: list, path: str) -> tuple[float, ...]:
    """``_parse_value`` over a row; ``path`` names the row, cells are
    ``path[j]``."""
    types = set(map(type, row))
    if types <= _PLAIN_NUMBERS:
        values = _as_floats(row, types)
        if values is not None:
            return values
    return tuple(_parse_value(v, f"{path}[{j}]") for j, v in enumerate(row))


def _labels_per_item(labels: list, path: str) -> None:
    """Raise for the first label that is not a string or repeats one."""
    seen = set()
    for i, lab in enumerate(labels):
        _expect(lab, str, f"{path}[{i}]")
        if lab in seen:
            _fail(f"{path}[{i}]", f"duplicate label {lab!r}")
        seen.add(lab)


def _pairs_per_item(raw: list, source: GroundSet, target: GroundSet,
                    path: str) -> list[tuple[int, int]]:
    """The index pairs of ``raw``, one at a time, raising for the first
    that is not a [source, target] list of known labels."""
    pairs = []
    for i, pair in enumerate(raw):
        pair = _expect(pair, list, f"{path}[{i}]")
        if len(pair) != 2:
            _fail(f"{path}[{i}]", "expected a [source, target] pair")
        try:
            pairs.append((source.index(pair[0]), target.index(pair[1])))
        except AbstractConvexError as exc:
            _fail(f"{path}[{i}]", str(exc))
    return pairs


def _members_per_item(members: list, parent: GroundSet,
                      path: str) -> tuple[int, ...]:
    """The indices of ``members``, raising at the first unknown label."""
    try:
        return tuple(parent.index(lab) for lab in members)
    except AbstractConvexError as exc:
        _fail(path, str(exc))


@dataclass
class InstanceDocument:
    schema_version: str
    ground_sets: dict[str, GroundSet]
    coupling: Coupling
    metric: Optional[MetricInstance] = None
    negate: bool = False
    coupling_names: tuple[str, str] = ("", "")
    functions: dict[str, ExtFunction] = field(default_factory=dict)
    mappings: dict[str, MultiMapping] = field(default_factory=dict)
    subsets: dict[str, IndexSubset] = field(default_factory=dict)

    def function(self, name: str) -> ExtFunction:
        return _named(self.functions, "function", name)

    def mapping(self, name: str) -> MultiMapping:
        return _named(self.mappings, "mapping", name)

    def subset(self, name: str) -> IndexSubset:
        return _named(self.subsets, "subset", name)


def _named(table: dict, kind: str, name: str):
    if name not in table:
        raise InstanceError(f"unknown {kind} {name!r}")
    return table[name]


def _section(raw: dict, key: str, kind: type):
    """(name, path, entry) for each entry of the optional object ``key``,
    each entry checked to be a ``kind``."""
    for name, entry in _expect(raw.get(key, {}), dict, f"$.{key}").items():
        path = f"$.{key}.{name}"
        yield name, path, _expect(entry, kind, path)


def _matrix(rows, path: str, shape: tuple[int, int], sides: tuple[str, str],
            finite: bool = False) -> tuple[tuple[float, ...], ...]:
    """The ``shape`` rows of numbers at ``path``; ``sides`` names the row
    and column counts in the messages, and ``finite`` refuses "inf"."""
    rows = _expect(rows, list, path)
    if len(rows) != shape[0]:
        _fail(path, f"row count != |{sides[0]}|")
    parsed = []
    for i, row in enumerate(rows):
        row = _expect(row, list, f"{path}[{i}]")
        if len(row) != shape[1]:
            _fail(f"{path}[{i}]", f"column count != |{sides[1]}|")
        parsed.append(_parse_row(row, f"{path}[{i}]"))
        if finite and math.inf in parsed[i]:
            _fail(f"{path}[{i}][{parsed[i].index(math.inf)}]",
                  "coupling entries must be finite")
    return tuple(parsed)


def _flag(spec: dict, key: str, default: bool, path: str) -> bool:
    """``spec[key]`` (``default`` when absent), which must be a JSON boolean."""
    return _expect(spec.get(key, default), bool, f"{path}.{key}")


def parse_instance(text: str | bytes) -> InstanceDocument:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"malformed JSON: {exc}") from exc
    _expect(raw, dict, "$")

    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        _fail("$.schema_version", f"expected \"{SCHEMA_VERSION}\", got {version!r}")

    ground_sets: dict[str, GroundSet] = {}
    for name, path, labels in _section(raw, "ground_sets", list):
        if not (set(map(type, labels)) <= _STRINGS
                and len(set(labels)) == len(labels)):
            _labels_per_item(labels, path)
        if not labels:
            _fail(path, "ground set must be nonempty")
        ground_sets[name] = GroundSet(tuple(labels))

    def resolve(spec: dict, key: str, path: str) -> GroundSet:
        name = _expect(spec.get(key), str, f"{path}.{key}")
        if name not in ground_sets:
            _fail(f"{path}.{key}", f"unresolved ground set {name!r}")
        return ground_sets[name]

    cspec = _expect(raw.get("coupling"), dict, "$.coupling")
    metric = None
    negate = False
    if "metric" in cspec:
        mspec = _expect(cspec["metric"], dict, "$.coupling.metric")
        points = resolve(mspec, "points", "$.coupling.metric")
        dist = _matrix(mspec.get("distances"), "$.coupling.metric.distances",
                       (points.size, points.size), ("points", "points"))
        pseudo = _flag(mspec, "pseudometric", False, "$.coupling.metric")
        try:
            metric = MetricInstance(points, dist, pseudometric=pseudo)
        except AbstractConvexError as exc:
            _fail("$.coupling.metric", str(exc))
        negate = _flag(cspec, "negate", True, "$.coupling")
        if negate:
            coupling = as_coupling(metric)
        else:
            coupling = Coupling(points, points, metric.dist)
        names = (mspec["points"], mspec["points"])
    else:
        domain = resolve(cspec, "domain", "$.coupling")
        codomain = resolve(cspec, "codomain", "$.coupling")
        vals = _matrix(cspec.get("values"), "$.coupling.values",
                       (domain.size, codomain.size), ("domain", "codomain"),
                       finite=True)
        coupling = Coupling(domain, codomain, vals)
        names = (cspec["domain"], cspec["codomain"])

    doc = InstanceDocument(version, ground_sets, coupling,
                           metric=metric, negate=negate, coupling_names=names)

    for name, path, fspec in _section(raw, "functions", dict):
        index = resolve(fspec, "index", path)
        vals = _expect(fspec.get("values"), list, f"{path}.values")
        if len(vals) != index.size:
            _fail(f"{path}.values", "value count != ground set size")
        doc.functions[name] = ExtFunction(index, _parse_row(vals, f"{path}.values"))

    for name, path, mspec in _section(raw, "mappings", dict):
        source = resolve(mspec, "source", path)
        target = resolve(mspec, "target", path)
        raw_pairs = _expect(mspec.get("pairs"), list, f"{path}.pairs")
        # lists only, so a 2-character string is not read as a pair; a bad
        # pair takes the per-item route, which names it
        pairs = None
        if set(map(type, raw_pairs)) <= _LISTS:
            at_x, at_y = source._positions, target._positions
            try:
                pairs = [(at_x[a], at_y[b]) for a, b in raw_pairs]
            except (KeyError, TypeError, ValueError):
                pass  # an unknown or unhashable label, or not two of them
        if pairs is None:
            pairs = _pairs_per_item(raw_pairs, source, target, f"{path}.pairs")
        doc.mappings[name] = MultiMapping(source, target, tuple(pairs))

    for name, path, sspec in _section(raw, "subsets", dict):
        parent = resolve(sspec, "parent", path)
        members = _expect(sspec.get("members"), list, f"{path}.members")
        if not members:
            _fail(f"{path}.members", "subset must be nonempty")
        idx = _members_per_item(members, parent, f"{path}.members")
        if len(set(idx)) != len(idx):
            i = next(i for i, j in enumerate(idx) if j in idx[:i])
            _fail(f"{path}.members[{i}]", f"duplicate label {members[i]!r}")
        doc.subsets[name] = IndexSubset(parent, idx)

    return doc


def _num(v: float):
    # 17 significant digits round-trip every double, so float(v) is already
    # the normal form (and turns an int entry into the float it stands for)
    return "inf" if v == math.inf else float(v)


def document_to_jsonable(doc: InstanceDocument) -> dict:
    out: dict[str, Any] = {
        "schema_version": doc.schema_version,
        "ground_sets": {name: list(gs.labels)
                        for name, gs in doc.ground_sets.items()},
    }
    if doc.metric is not None:
        out["coupling"] = {
            "metric": {
                "points": doc.coupling_names[0],
                "distances": [[_num(v) for v in row] for row in doc.metric.dist],
                "pseudometric": doc.metric.pseudometric,
            },
            "negate": doc.negate,
        }
    else:
        out["coupling"] = {
            "domain": doc.coupling_names[0],
            "codomain": doc.coupling_names[1],
            "values": [[_num(v) for v in row] for row in doc.coupling.values],
        }
    names: dict[tuple[str, ...], str] = {}
    for name, gs in doc.ground_sets.items():
        names.setdefault(gs.labels, name)  # shared labels: the first name
    if doc.functions:
        out["functions"] = {
            name: {"index": names[f.index.labels],
                   "values": [_num(v) for v in f.values]}
            for name, f in doc.functions.items()}
    if doc.mappings:
        out["mappings"] = {
            name: {"source": names[m.source.labels],
                   "target": names[m.target.labels],
                   "pairs": label_pairs(m, m.graph)}
            for name, m in doc.mappings.items()}
    if doc.subsets:
        out["subsets"] = {
            name: {"parent": names[s.parent.labels],
                   "members": [s.parent.labels[i] for i in s.members]}
            for name, s in doc.subsets.items()}
    return out


def emit_document(doc: InstanceDocument) -> str:
    # document_to_jsonable already normalised every number
    return json.dumps(document_to_jsonable(doc), indent=2) + "\n"


def dumps(obj) -> str:
    """Strict JSON: a non-finite float raises ``ValueError``."""
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def function_to_jsonable(f: ExtFunction) -> dict:
    return {"labels": list(f.index.labels),
            "values": [_num(v) for v in f.values]}


def label_pairs(m: MultiMapping, pairs) -> list:
    """Index pairs of ``m``'s source and target as label pairs."""
    return [[m.source.labels[x], m.target.labels[y]] for x, y in pairs]
