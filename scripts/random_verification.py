"""Randomized verification sweep over the package's structural identities.

Runs every check of ``tests/sweep.py`` (the list and what each one draws
are described there) for ``--trials`` seeded draws from one
``random.Random(--seed)``, prints one pass-count line per check with the
census of the check that keeps one (which route decided each passing
potential-route draw), and exits 1 on any failing draw.  The tier-1
suite runs the same sweep at seed 0 with 50 trials.

Run:  python3 scripts/random_verification.py --seed 0 --trials 50
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from sweep import sweep  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=50)
    args = parser.parse_args()

    failures = 0
    for name, ok, census in sweep(args.seed, args.trials):
        status = "ok" if ok == args.trials else "FAIL"
        counts = ", ".join(f"{key}: {n}" for key, n in sorted(census.items()))
        print(f"{name:<36} {ok}/{args.trials} {status}"
              + (f" ({counts})" if counts else ""))
        failures += args.trials - ok
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
