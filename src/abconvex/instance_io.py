"""JSON ingestion and emission of problem instances.

The interchange document names ground sets, a coupling (dense matrix or a
metric block with a negate flag for c = -d), functions (with the string
"inf" standing in for +inf), mappings as label-pair lists and subsets as
label lists.  Parsing either returns a validated document or raises
``InstanceError`` with a JSON-path diagnostic.

Numeric rows go through ``_parse_row``: a row of plain JSON ints and floats
that are all finite after ``float()`` is converted in one pass; any other row
falls back to ``_parse_value`` per cell, which raises at the first bad cell,
so every diagnostic names the same JSON path.  Both routes apply the same
``float()`` to each cell, so the parsed values are bit-identical.
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
    return x


_PLAIN_NUMBERS = frozenset((int, float))


def _parse_row(row: list, path: str) -> tuple[float, ...]:
    """``_parse_value`` over a row; ``path`` names the row, cells are
    ``path[j]``."""
    if _PLAIN_NUMBERS.issuperset(map(type, row)):
        try:
            values = tuple(map(float, row))
        except OverflowError:
            pass  # a huge int: the per-cell route names it
        else:
            if all(map(math.isfinite, values)):
                return values
    return tuple(_parse_value(v, f"{path}[{j}]") for j, v in enumerate(row))


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
        if name not in self.functions:
            raise InstanceError(f"unknown function {name!r}")
        return self.functions[name]

    def mapping(self, name: str) -> MultiMapping:
        if name not in self.mappings:
            raise InstanceError(f"unknown mapping {name!r}")
        return self.mappings[name]

    def subset(self, name: str) -> IndexSubset:
        if name not in self.subsets:
            raise InstanceError(f"unknown subset {name!r}")
        return self.subsets[name]


def parse_instance(text: str | bytes) -> InstanceDocument:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"malformed JSON: {exc}") from exc
    _expect(raw, dict, "$")

    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        _fail("$.schema_version", f"expected \"{SCHEMA_VERSION}\", got {version!r}")

    gs_raw = _expect(raw.get("ground_sets", {}), dict, "$.ground_sets")
    ground_sets: dict[str, GroundSet] = {}
    for name, labels in gs_raw.items():
        path = f"$.ground_sets.{name}"
        labels = _expect(labels, list, path)
        seen = set()
        for i, lab in enumerate(labels):
            _expect(lab, str, f"{path}[{i}]")
            if lab in seen:
                _fail(f"{path}[{i}]", f"duplicate label {lab!r}")
            seen.add(lab)
        if not labels:
            _fail(path, "ground set must be nonempty")
        ground_sets[name] = GroundSet(tuple(labels))

    def resolve(name, path) -> GroundSet:
        _expect(name, str, path)
        if name not in ground_sets:
            _fail(path, f"unresolved ground set {name!r}")
        return ground_sets[name]

    cspec = _expect(raw.get("coupling"), dict, "$.coupling")
    metric = None
    negate = False
    if "metric" in cspec:
        mspec = _expect(cspec["metric"], dict, "$.coupling.metric")
        points = resolve(mspec.get("points"), "$.coupling.metric.points")
        rows = _expect(mspec.get("distances"), list, "$.coupling.metric.distances")
        if len(rows) != points.size:
            _fail("$.coupling.metric.distances", "row count != |points|")
        dist = []
        for i, row in enumerate(rows):
            row = _expect(row, list, f"$.coupling.metric.distances[{i}]")
            if len(row) != points.size:
                _fail(f"$.coupling.metric.distances[{i}]", "column count != |points|")
            dist.append(_parse_row(row, f"$.coupling.metric.distances[{i}]"))
        pseudo = bool(mspec.get("pseudometric", False))
        try:
            metric = MetricInstance(points, tuple(dist), pseudometric=pseudo)
        except AbstractConvexError as exc:
            _fail("$.coupling.metric", str(exc))
        negate = bool(cspec.get("negate", True))
        if negate:
            coupling = as_coupling(metric)
        else:
            coupling = Coupling(points, points, metric.dist)
        names = (mspec["points"], mspec["points"])
    else:
        domain = resolve(cspec.get("domain"), "$.coupling.domain")
        codomain = resolve(cspec.get("codomain"), "$.coupling.codomain")
        rows = _expect(cspec.get("values"), list, "$.coupling.values")
        if len(rows) != domain.size:
            _fail("$.coupling.values", "row count != |domain|")
        vals = []
        for i, row in enumerate(rows):
            row = _expect(row, list, f"$.coupling.values[{i}]")
            if len(row) != codomain.size:
                _fail(f"$.coupling.values[{i}]", "column count != |codomain|")
            parsed = _parse_row(row, f"$.coupling.values[{i}]")
            if math.inf in parsed:
                _fail(f"$.coupling.values[{i}][{parsed.index(math.inf)}]",
                      "coupling entries must be finite")
            vals.append(parsed)
        coupling = Coupling(domain, codomain, tuple(vals))
        names = (cspec["domain"], cspec["codomain"])

    doc = InstanceDocument(version, ground_sets, coupling,
                           metric=metric, negate=negate, coupling_names=names)

    for name, fspec in _expect(raw.get("functions", {}), dict, "$.functions").items():
        path = f"$.functions.{name}"
        fspec = _expect(fspec, dict, path)
        index = resolve(fspec.get("index"), f"{path}.index")
        vals = _expect(fspec.get("values"), list, f"{path}.values")
        if len(vals) != index.size:
            _fail(f"{path}.values", "value count != ground set size")
        doc.functions[name] = ExtFunction(index, _parse_row(vals, f"{path}.values"))

    for name, mspec in _expect(raw.get("mappings", {}), dict, "$.mappings").items():
        path = f"$.mappings.{name}"
        mspec = _expect(mspec, dict, path)
        source = resolve(mspec.get("source"), f"{path}.source")
        target = resolve(mspec.get("target"), f"{path}.target")
        pairs = []
        for i, pair in enumerate(_expect(mspec.get("pairs"), list, f"{path}.pairs")):
            pair = _expect(pair, list, f"{path}.pairs[{i}]")
            if len(pair) != 2:
                _fail(f"{path}.pairs[{i}]", "expected a [source, target] pair")
            try:
                pairs.append((source.index(pair[0]), target.index(pair[1])))
            except AbstractConvexError as exc:
                _fail(f"{path}.pairs[{i}]", str(exc))
        doc.mappings[name] = MultiMapping(source, target, tuple(pairs))

    for name, sspec in _expect(raw.get("subsets", {}), dict, "$.subsets").items():
        path = f"$.subsets.{name}"
        sspec = _expect(sspec, dict, path)
        parent = resolve(sspec.get("parent"), f"{path}.parent")
        members = _expect(sspec.get("members"), list, f"{path}.members")
        if not members:
            _fail(f"{path}.members", "subset must be nonempty")
        try:
            idx = tuple(parent.index(lab) for lab in members)
        except AbstractConvexError as exc:
            _fail(f"{path}.members", str(exc))
        doc.subsets[name] = IndexSubset(parent, idx)

    return doc


def _num(v: float):
    if v == math.inf:
        return "inf"
    # normalize to 17 significant digits (lossless for doubles)
    return float(format(v, ".17g"))


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
    if doc.functions:
        out["functions"] = {}
        for name, f in doc.functions.items():
            gsname = next(n for n, gs in doc.ground_sets.items()
                          if gs.labels == f.index.labels)
            out["functions"][name] = {"index": gsname,
                                      "values": [_num(v) for v in f.values]}
    if doc.mappings:
        out["mappings"] = {}
        for name, m in doc.mappings.items():
            src = next(n for n, gs in doc.ground_sets.items()
                       if gs.labels == m.source.labels)
            tgt = next(n for n, gs in doc.ground_sets.items()
                       if gs.labels == m.target.labels)
            out["mappings"][name] = {
                "source": src, "target": tgt,
                "pairs": [[m.source.labels[x], m.target.labels[y]]
                          for x, y in m.graph]}
    if doc.subsets:
        out["subsets"] = {}
        for name, s in doc.subsets.items():
            par = next(n for n, gs in doc.ground_sets.items()
                       if gs.labels == s.parent.labels)
            out["subsets"][name] = {"parent": par,
                                    "members": [s.parent.labels[i]
                                                for i in s.members]}
    return out


def emit_document(doc: InstanceDocument) -> str:
    return dumps(document_to_jsonable(doc))


def jsonable(obj):
    """Recursively normalize floats (17 significant digits, "inf" sentinel)."""
    if isinstance(obj, float):
        return _num(obj)
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj


def dumps(obj) -> str:
    return json.dumps(jsonable(obj), indent=2) + "\n"


def function_to_jsonable(f: ExtFunction) -> dict:
    return {"labels": list(f.index.labels),
            "values": [_num(v) for v in f.values]}


def graph_to_jsonable(m: MultiMapping) -> list:
    return [[m.source.labels[x], m.target.labels[y]] for x, y in m.graph]
