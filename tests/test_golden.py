"""The README's CLI commands on the shipped fixtures, byte for byte.

``tests/golden/<command>.json`` holds the stdout of each command.  A change
that alters any of them changes the program's observable output; if that
is intended, rewrite the files with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from abconvex.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

SITE = "--mapping M --subset S --site-function f_id"
COMMANDS = {
    "transform": "transform --instance fixtures/two_point.json --function f_id_on_S",
    "convexify": "convexify --instance fixtures/two_point.json --function f_mix",
    "subdiff": "subdiff --instance fixtures/two_point.json --function f_abs",
    "check-monotone": "check-monotone --instance fixtures/two_point.json --mapping M",
    "rockafellar": "rockafellar --instance fixtures/two_point.json --mapping M --subset origin",
    "alpha": f"alpha --instance fixtures/two_point.json {SITE}",
    "gamma": f"gamma --instance fixtures/two_point.json {SITE}",
    "member": f"member --instance fixtures/two_point.json {SITE} --function f_abs",
    "lip-extend": "lip-extend --instance fixtures/line3.json --mapping I_S --subset S "
                  "--site-function f --min",
    "fitzpatrick": "fitzpatrick --instance fixtures/line3.json --mapping I",
    "verify": "verify --instance fixtures/line3.json --mapping I --seed 0",
}


def stdout_of(command: str) -> str:
    argv = [str(ROOT / a) if a.startswith("fixtures/") else a
            for a in command.split()]
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(argv) == EXIT_OK
    return buf.getvalue()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_golden(name):
    assert stdout_of(COMMANDS[name]).encode() == (GOLDEN / f"{name}.json").read_bytes()


def test_every_golden_file_has_a_command():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(COMMANDS)


if __name__ == "__main__":
    for name, command in COMMANDS.items():
        (GOLDEN / f"{name}.json").write_bytes(stdout_of(command).encode())
    sys.exit(0)
