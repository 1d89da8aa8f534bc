"""Closed-loop benchmark of the ``abconvex`` command line.

One client in one process, no threads: each job runs a family's fixed
sequence of CLI requests through ``abconvex.cli.main(argv)`` in-process,
every request writing its output with ``--output`` into the run's own
directory, and the next job starts only after the previous one finished.
So a request pays parse, compute, serialise and write, but not interpreter
start-up.  Outputs are checked by independent routes after each job's
clock stops.

    python3 bench/run.py --workload envelope --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each job
twice, untraced and traced, and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Run it from the repository
root; it builds nothing and imports the package from ``src/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Set-ups per run; set-up time is their median.
SETUP_REPEATS = 3
#: Seconds the reference kernel takes at reference speed.  Every reported
#: time is scaled by KERNEL_REF_S / (the kernel's time around it), so it
#: reads as seconds on a host where the kernel takes exactly this long.
KERNEL_REF_S = 0.0025
#: A run stops after this many times ``--seconds`` of wall time even when the
#: host is too slow to finish ``--seconds`` of work at reference speed.
WALL_CAP = 1.2
END_TO_END_UNITS = {"setup_s": "s", "job_p50_s": "s", "job_tail_s": "s",
                    "jobs_per_s": "1/s", "peak_rss_mb": "MB"}


def import_abconvex() -> float:
    """Import the package from ``src/`` and return the seconds it took."""
    if not (SRC / "abconvex" / "__init__.py").is_file():
        raise FileNotFoundError(f"no abconvex package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import abconvex
    import abconvex.cli  # noqa: F401
    elapsed = time.perf_counter() - start
    if Path(abconvex.__file__).resolve().parent != SRC / "abconvex":
        raise ImportError(f"abconvex was imported from {abconvex.__file__}")
    return elapsed


_KERNEL_RNG = random.Random(0)
_KERNEL_MATRIX = [[_KERNEL_RNG.random() for _ in range(60)] for _ in range(60)]
_KERNEL_DOC = {"values": [i * 0.25 for i in range(1500)]}


def kernel() -> float:
    """A fixed piece of pure-Python work of the program's kinds: a min-plus
    sweep, a tuple-keyed dict, a sort, and a JSON round trip.  It never
    calls ``abconvex``, so its time measures the host, not the program."""
    m = _KERNEL_MATRIX
    n = len(m)
    best = [min(m[i][j] - m[j][i] for j in range(n)) for i in range(n)]
    graph = {}
    for i, row in enumerate(m):
        for j in range(0, n, 3):
            graph[(i, j)] = row[j] + best[j]
    ranked = sorted(graph.items(), key=lambda kv: kv[1])
    doc = json.loads(json.dumps(_KERNEL_DOC))
    digits = "".join(str(i) for i in range(3000))
    return ranked[0][1] + len(doc["values"]) + len(digits)


def kernel_seconds() -> float:
    """The host's current speed: the kernel's fastest time of three runs."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return min(times)


def unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("ratio"):
        return "ratio"
    return "s" if name.endswith("_s") else "count"


def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile with at least ten
    jobs beyond it; the maximum when there are ten jobs or fewer."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Run:
    """One run of one workload: set-up, then the closed loop."""

    def __init__(self, workload, seed: int, workdir: Path, sizes=None):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.sizes = dict(workload.sizes if sizes is None else sizes)
        self.families = []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def generate(self):
        families = []
        for i in range(self.workload.pool):
            rng = random.Random(f"{self.workload.name}/{self.seed}/{i}")
            family = self.workload.make(rng, **self.sizes)
            for name, text in family.documents.items():
                (self.workdir / f"{i}-{name}.json").write_text(text)
            families.append(family)
        return families

    def digest(self) -> str:
        h = hashlib.sha256()
        for family in self.families:
            for name in sorted(family.documents):
                h.update(family.documents[name].encode())
        return h.hexdigest()[:16]

    def setup(self) -> float:
        """Generate and emit the families, then run one warm-up job; the
        median scaled time of ``SETUP_REPEATS`` such set-ups."""
        times, before = [], kernel_seconds()
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            self.families = self.generate()
            self.job(0, check=False)
            elapsed = time.perf_counter() - start
            after = kernel_seconds()
            times.append(scaled(elapsed, before, after))
            before = after
        return statistics.median(times)

    def _argv(self, index: int, step) -> list[str]:
        return [step.command,
                "--instance", str(self.workdir / f"{index}-{step.document}.json"),
                *step.args,
                "--output", str(self.workdir / f"out-{step.name}.json")]

    def job(self, job_id: int, check: bool = True, runner=None) -> float:
        """Run one job; return its latency.  The clock covers only the CLI
        requests; reading and checking the outputs happens after it stops."""
        from abconvex import cli
        index = job_id % len(self.families)
        family = self.families[index]
        codes, error = [], None

        def requests():
            for step in family.steps:
                codes.append(cli.main(self._argv(index, step)))

        start = time.perf_counter()
        try:
            if runner is None:
                requests()
            else:
                runner(job_id, requests)
        except (Exception, SystemExit) as exc:  # a job that raised is a failed job
            error = f"raised {type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        if check:
            self.attempted += 1
            problems = [error] if error else self._check(family, codes)
            if problems:
                self.failed += 1
                self.problems.extend(f"job {job_id}: {p}" for p in problems[:3])
        return latency

    def _check(self, family, codes) -> list[str]:
        outputs, problems = {}, []
        for step, code in zip(family.steps, codes):
            if code not in step.codes:
                problems.append(f"{step.name}: exit code {code}")
            with open(self.workdir / f"out-{step.name}.json") as fh:
                outputs[step.name] = (code, json.load(fh))
        if problems:
            return problems
        try:
            return self.workload.check(family.data, outputs)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return [f"malformed output: {type(exc).__name__}: {exc}"]

    def loop(self, seconds: float):
        """Closed loop until the jobs' latencies at reference speed add up to
        ``seconds``, so that a run does the same number of jobs whatever the
        host's speed, and the tail percentile stays put; at most
        ``WALL_CAP`` times ``seconds`` of wall time.  Returns the jobs' raw
        latencies and their latencies scaled by the kernel runs just before
        and just after each job."""
        raw, latencies, busy = [], [], 0.0
        deadline = time.perf_counter() + WALL_CAP * seconds
        before = kernel_seconds()
        while not raw or (busy < seconds and time.perf_counter() < deadline):
            latency = self.job(len(raw))
            after = kernel_seconds()
            raw.append(latency)
            latencies.append(scaled(latency, before, after))
            busy += latencies[-1]
            before = after
        return raw, latencies


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at reference speed, given the kernel's time just before
    and just after them."""
    return seconds * KERNEL_REF_S / ((before + after) / 2)


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        import_s: float = 0.0, sizes=None, tracer_out: Path | None = None) -> dict:
    import workloads
    workload = workloads.WORKLOADS[workload_name]
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload_name}-", dir=scratch))
    try:
        bench = Run(workload, seed, workdir, sizes)
        setup_s = import_s + bench.setup()
        meta = {"workload": workload_name, "seed": seed,
                "sizes": bench.sizes, "pool": workload.pool,
                "documents_sha256": bench.digest()}
        if not trace:
            raw, latencies = bench.loop(seconds)
            value, pct = tail(latencies)
            metrics = {
                "setup_s": setup_s,
                "job_p50_s": statistics.median(latencies),
                "job_tail_s": value,
                "jobs_per_s": len(latencies) / sum(latencies),
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            meta.update(jobs=len(latencies), tail_percentile=round(pct, 1),
                        raw_job_p50_s=round(statistics.median(raw), 6),
                        host_speed=round(statistics.median(
                            s / r for s, r in zip(latencies, raw)), 4))
        else:
            from tracing import Tracer
            tracer = Tracer()
            plain, traced, busy, job_id = [], [], 0.0, 0
            while busy < seconds:
                # matched pairs on the same family, in alternating order so
                # that the first job of a pair warming up the second does
                # not bias the overhead ratio
                order = (None, tracer.run_job)[::1 if job_id % 2 else -1]
                for runner in order:
                    latency = bench.job(job_id, runner=runner)
                    (plain if runner is None else traced).append(latency)
                    busy += latency
                job_id += 1
            metrics = tracer.report(plain)
            meta.update(jobs=len(plain) + len(traced), traced_jobs=len(traced))
            if tracer_out is not None:
                tracer.write(tracer_out)
                meta["spans"] = str(tracer_out.relative_to(ROOT))
        return {"correct": bench.failed == 0, "attempted": bench.attempted,
                "failed": bench.failed, "metrics": metrics, "meta": meta,
                "problems": bench.problems}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def source_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((SRC / "abconvex").glob("*.py")))


def report_lines(result: dict) -> list[str]:
    """Human-readable lines: metadata, every metric with its unit, the
    failure ratio and the first problems found."""
    meta = result["meta"]
    lines = ["# " + json.dumps(meta, sort_keys=True)]
    for name, value in result["metrics"].items():
        lines.append(f"{name:40s} {value:.6g} {unit(name)}")
    if "tail_percentile" in meta:
        lines.append(f"{'(job_tail_s percentile)':40s} p{meta['tail_percentile']}"
                     f" of {meta['jobs']} jobs")
    lines.append(f"{'failed_ratio':40s} "
                 f"{result['failed'] / max(result['attempted'], 1):.6g} ratio")
    lines += [f"problem: {p}" for p in result["problems"][:10]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_s = import_abconvex()
        speed = kernel_seconds()
        import_s = scaled(import_s, speed, speed)
    except (ImportError, FileNotFoundError) as exc:
        print(f"cannot load the package under test: {exc}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out = None
    if args.trace:
        out = ROOT / ".bench_out" / f"spans-{args.workload}-{args.seed}.jsonl.gz"
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 import_s=import_s, tracer_out=out)
    result["meta"].update(python=platform.python_version(),
                          nproc=len(os.sched_getaffinity(0)),
                          src_lines=source_lines())
    for line in report_lines(result):
        print(line)
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in result["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
