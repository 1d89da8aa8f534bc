"""Digest the answers to every benchmark request, one sha256 per workload.

For each workload of ``bench/workloads.py`` and each ``--seeds`` seed, it
generates the workload's pool of documents with ``bench/run.py``'s
``Run.generate`` (the documents a benchmark run at that seed sends), runs
every step of every family once through ``abconvex.cli.main`` with the
benchmark's own argv, and hashes each step's exit code and output bytes,
in order.  Two checkouts that print the same digests answer every
benchmark request byte for byte alike, so a change meant to leave the
outputs alone can be checked against its parent.

Run:  python3 scripts/request_digest.py --seeds 1 2 3 4 5
"""

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import run  # noqa: E402

run.import_abconvex()

import workloads  # noqa: E402
from abconvex import cli  # noqa: E402


def workload_digest(workload, seeds) -> tuple[str, int]:
    """(sha256 hex digest, number of requests) over ``workload``'s steps at
    each seed, in pool and step order."""
    h, requests = hashlib.sha256(), 0
    for seed in seeds:
        with tempfile.TemporaryDirectory() as workdir:
            bench = run.Run(workload, seed, Path(workdir))
            bench.families = bench.generate()
            for index, family in enumerate(bench.families):
                for step in family.steps:
                    argv = bench._argv(index, step)
                    code = cli.main(argv)
                    output = Path(argv[-1]).read_bytes()
                    h.update(f"{seed} {index} {step.name} {code} "
                             f"{len(output)}\n".encode())
                    h.update(output)
                    requests += 1
    return h.hexdigest(), requests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    args = parser.parse_args(argv)
    for name, workload in workloads.WORKLOADS.items():
        digest, requests = workload_digest(workload, args.seeds)
        print(f"{name:<10} {digest} ({requests} requests)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
