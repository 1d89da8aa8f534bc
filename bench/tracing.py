"""Span tracing of the ``abconvex`` layers, installed from outside.

``Tracer.install`` rebinds every ``abconvex.*`` module global that refers to
a traced function (so calls through ``from .x import f`` are caught too)
and patches ``__post_init__`` of the three validating dataclasses;
``uninstall`` restores the originals.  Each call records a span
``[job, parent, name, start, end, cells]`` in memory; ``report`` turns the
spans of the traced jobs into per-job layer metrics, with self time =
duration minus the time covered by child spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict

# ``core`` and ``sampling`` get no spans: core's constructors are charged to
# their callers and sampling only runs during set-up.  (The package
# re-exports functions named ``rockafellar`` and ``fitzpatrick``, which
# shadow the submodules as package attributes, hence ``import_module``.)
LAYERS = {name: importlib.import_module(f"abconvex.{name}") for name in (
    "cli", "instance_io", "transforms", "monotone", "rockafellar",
    "envelopes", "lipschitz", "fitzpatrick")}
#: Recursive helper of ``dumps``; a span per element would only add noise.
UNTRACED = {"instance_io.jsonable"}
#: Span name -> metric bucket where it differs from the module name.
BUCKETS = {
    "instance_io.parse_instance": "instance_io.parse",
    "monotone.is_cyclically_monotone": "monotone.cyclic",
    "monotone.is_maximal_cyclically_monotone": "monotone.cyclic",
    "monotone.build_gain_graph": "monotone.gain_graph",
    "envelopes.ConstraintProblem.__post_init__": "envelopes.problem",
    "lipschitz.MetricInstance.__post_init__": "lipschitz.metric_validate",
}
MODULE_BUCKETS = {"instance_io": "instance_io.dump",
                  "monotone": "monotone.n_monotone"}
#: Per-layer self-time metric -> bucket.
SELF_TIMES = {
    "monotone.cyclic_s": "monotone.cyclic",
    "monotone.gain_graph_s": "monotone.gain_graph",
    "monotone.n_monotone_s": "monotone.n_monotone",
    "rockafellar.self_s": "rockafellar",
    "envelopes.self_s": "envelopes",
    "envelopes.problem_s": "envelopes.problem",
    "transforms.self_s": "transforms",
    "instance_io.parse_s": "instance_io.parse",
    "instance_io.dump_s": "instance_io.dump",
    "lipschitz.self_s": "lipschitz",
    "lipschitz.metric_validate_s": "lipschitz.metric_validate",
    "fitzpatrick.self_s": "fitzpatrick",
    "cli.self_s": "cli",
}
JOB = "job"


def bucket(name: str) -> str:
    if name in BUCKETS:
        return BUCKETS[name]
    layer = name.split(".", 1)[0]
    return MODULE_BUCKETS.get(layer, layer)


def _coupling_cells(f, c, *args, **kwargs) -> int:
    return c.domain.size * c.codomain.size


def _lifted_cells(c) -> int:
    return (c.domain.size * c.codomain.size) ** 2


def _cycle_key(m, c, *args, **kwargs) -> int:
    return hash((m, c))


def _coupling_key(c) -> int:
    return hash(c)


#: Per-span extras: ``cells`` feeds a work count, ``key`` identifies the
#: arguments for the distinct-input counts behind the repeat ratios.
CELLS = {"transforms.c_transform": _coupling_cells,
         "transforms.c_transform_rev": _coupling_cells,
         "fitzpatrick.product_coupling": _lifted_cells}
KEYS = {"monotone.is_cyclically_monotone": _cycle_key,
        "fitzpatrick.product_coupling": _coupling_key}


def _targets():
    """(span name, owner, attribute) of every traced callable."""
    for layer, module in LAYERS.items():
        for attr, fn in vars(module).items():
            name = f"{layer}.{attr}"
            if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                    and not attr.startswith("_") and name not in UNTRACED):
                yield name, module, attr
    for cls in (LAYERS["envelopes"].ConstraintProblem,
                LAYERS["lipschitz"].MetricInstance,
                LAYERS["lipschitz"].ExtensionProblem):
        layer = cls.__module__.rsplit(".", 1)[1]
        yield f"{layer}.{cls.__name__}.__post_init__", cls, "__post_init__"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self._stack: list[int] = []
        self._keys: dict[tuple, set] = defaultdict(set)
        self._patches: list[tuple] = []
        for name, owner, attr in _targets():
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original, wrapper))
                continue
            for module in [m for n, m in sys.modules.items()
                           if n == "abconvex" or n.startswith("abconvex.")]:
                for a, value in vars(module).items():
                    if value is original:
                        self._patches.append((module, a, original, wrapper))

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        cells, key = CELLS.get(name), KEYS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if key is not None:
                self._keys[(self.job, name)].add(key(*args, **kwargs))
            record = [self.job, stack[-1] if stack else None, name, 0.0, 0.0,
                      cells(*args, **kwargs) if cells else 0]
            stack.append(len(spans))
            spans.append(record)
            record[3] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[4] = clock()
                stack.pop()
        return traced

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def run_job(self, job_id: int, fn):
        """Run ``fn()`` traced, under a root span for the job."""
        self.job = job_id
        record = [job_id, None, JOB, 0.0, 0.0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        self.install()
        record[3] = time.perf_counter()
        try:
            return fn()
        finally:
            record[4] = time.perf_counter()
            self.uninstall()
            self._stack.pop()
            self.job = None

    def report(self, untraced_latencies: list[float]) -> dict[str, float]:
        """Per-job means of every per-layer metric over the traced jobs."""
        spans = self.spans
        child = [0.0] * len(spans)
        for job, parent, name, start, end, _ in spans:
            if parent is not None:
                child[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        cells: dict[str, int] = defaultdict(int)
        job_times = []
        for (job, parent, name, start, end, n_cells), covered in zip(spans, child):
            if name == JOB:
                job_times.append(end - start)
                continue
            self_time[bucket(name)] += end - start - covered
            calls[name] += 1
            cells[name] += n_cells
        jobs = max(len(job_times), 1)

        def distinct(name):
            return sum(len(v) for (_, n), v in self._keys.items() if n == name)

        def ratio(num, den):
            return num / den if den else 0.0

        checks = calls["monotone.is_cyclically_monotone"]
        builds = calls["fitzpatrick.product_coupling"]
        metrics = {m: self_time[b] / jobs for m, b in SELF_TIMES.items()}
        metrics.update({
            "monotone.cycle_checks": checks / jobs,
            "monotone.cycle_check_repeat_ratio": ratio(
                checks, distinct("monotone.is_cyclically_monotone")),
            "monotone.n_checks": calls["monotone.is_n_monotone"] / jobs,
            "rockafellar.calls": calls["rockafellar.rockafellar"] / jobs,
            "transforms.calls": (calls["transforms.c_transform"]
                                 + calls["transforms.c_transform_rev"]) / jobs,
            "transforms.cells": (cells["transforms.c_transform"]
                                 + cells["transforms.c_transform_rev"]) / jobs,
            "fitzpatrick.product_builds": builds / jobs,
            "fitzpatrick.product_build_repeat_ratio": ratio(
                builds, distinct("fitzpatrick.product_coupling")),
            "fitzpatrick.lifted_cells": cells["fitzpatrick.product_coupling"] / jobs,
            "trace.job_s": sum(job_times) / jobs,
            "trace.overhead_ratio": ratio(
                statistics.median(job_times) if job_times else 0.0,
                statistics.median(untraced_latencies) if untraced_latencies else 0.0),
        })
        return metrics

    def write(self, path) -> None:
        """Write every span as one JSON line: job, parent, name, start, end, cells."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")
