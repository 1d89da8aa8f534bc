"""Adversarial documents through every CLI command.

Each request on a document of 1-3 points must end in exit code 0, 1 or 2
with one JSON object on stdout, never a traceback.  The documents mix
ties, signed tiny values near the default eps, magnitudes of 2**900 (the
parser's bound), "inf" function values, metric blocks with
``pseudometric`` and ``negate`` toggled, mappings on every pair of sides
(empty ones too) and subsets that repeat a label.  Requests also carry
``--epsilon`` values that are negative, zero or not finite (an input error
naming ``--epsilon``), and sites or site functions on the side that is not
the coupling's domain (an input error).  The search is derandomized, so
the suite stays deterministic.
"""

import io
import json
import math
from contextlib import redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from abconvex.cli import EXIT_DOMAIN, EXIT_INPUT, EXIT_OK, main

B = 2 ** 900
ENTRIES = (0, 1, -1, 1e-9, -1e-9, 5e-10, -5e-10, B, -B)
SIDES = ("X", "Y")
MAPPINGS = tuple(a + b for a in SIDES for b in SIDES)
EPSILONS = ("1e-09", "0", "-1e-09", "0.5", "nan", "inf", "-inf")
SITE_COMMANDS = ("alpha", "gamma", "member", "lip-extend")


@st.composite
def documents(draw):
    entry = st.sampled_from(ENTRIES)
    sides = {s: [f"{s.lower()}{i}" for i in range(draw(st.integers(1, 3)))]
             for s in SIDES}
    xs, ys = sides["X"], sides["Y"]
    metric = draw(st.booleans())
    if metric:
        n = len(xs)
        dist = [[0] * n for _ in range(n)]
        # mostly symmetric and nonnegative, so that some pass validation
        symmetric = draw(st.integers(0, 3)) > 0
        distance = entry.map(abs) if draw(st.integers(0, 3)) > 0 else entry
        for i in range(n):
            for j in range(n):
                if i != j and not (symmetric and j < i):
                    dist[i][j] = draw(distance)
                    if symmetric:
                        dist[j][i] = dist[i][j]
        coupling = {"metric": {"points": "X", "distances": dist,
                               "pseudometric": draw(st.booleans())},
                    "negate": draw(st.booleans())}
    else:
        coupling = {"domain": "X", "codomain": "Y",
                    "values": [[draw(entry) for _ in ys] for _ in xs]}
    value = st.one_of(entry, st.just("inf"))
    functions = {f"f{s}": {"index": s, "values": [draw(value) for _ in labels]}
                 for s, labels in sides.items()}
    mappings = {a + b: {"source": a, "target": b,
                        "pairs": [[p, q] for p in sides[a] for q in sides[b]
                                  if draw(st.booleans())]}
                for a in SIDES for b in SIDES}
    subsets = {}
    for s, labels in sides.items():
        members = draw(st.lists(st.sampled_from(labels), min_size=1,
                                unique=True))
        if draw(st.integers(0, 7)) == 0:
            members.append(draw(st.sampled_from(members)))
        subsets[f"S{s}"] = {"parent": s, "members": members}
    doc = {"schema_version": "1", "ground_sets": sides, "coupling": coupling,
           "functions": functions, "mappings": mappings, "subsets": subsets}
    # the mapping from the coupling's domain to its codomain
    return doc, "XX" if metric else "XY"


def requests(mapping: str, subset: str, function: str) -> list[list[str]]:
    site = ["--mapping", mapping, "--subset", subset,
            "--site-function", function]
    return [
        ["transform", "--function", function],
        ["convexify", "--function", function],
        ["subdiff", "--function", function],
        ["check-monotone", "--mapping", mapping],
        *(["check-monotone", "--mapping", mapping, "--order", order]
          for order in ("1", "2", "3")),
        ["rockafellar", "--mapping", mapping, "--subset", subset],
        ["alpha", *site],
        ["gamma", *site],
        ["member", *site, "--function", function],
        ["lip-extend", *site, "--min"],
        ["lip-extend", *site, "--max"],
        ["fitzpatrick", "--mapping", mapping],
        ["verify", "--mapping", mapping],
    ]


@pytest.fixture(scope="module")
def document_path(tmp_path_factory):
    return tmp_path_factory.mktemp("robustness") / "doc.json"


@settings(max_examples=200, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(drawn=documents(), mapping=st.sampled_from(MAPPINGS),
       subset=st.sampled_from(("SX", "SY")),
       function=st.sampled_from(("fX", "fY")),
       epsilon=st.sampled_from(EPSILONS))
def test_every_command_ends_in_an_exit_code_and_one_json_object(
        document_path, drawn, mapping, subset, function, epsilon):
    doc, own = drawn
    document_path.write_text(json.dumps(doc))
    finite = math.isfinite(float(epsilon))
    for request, eps in [*((r, None) for r in requests(own, "SX", "fX")),
                         *((r, epsilon) for r in requests(mapping, subset,
                                                          function)),
                         *((r, None) for r in requests(own, subset, function))]:
        argv = [request[0], "--instance", str(document_path), *request[1:]]
        if eps is not None:
            argv.append(f"--epsilon={eps}")
        buf = io.StringIO()
        with redirect_stdout(buf):
            status = main(argv)
        out = json.loads(buf.getvalue())
        assert isinstance(out, dict), argv
        if eps is not None and not finite:
            assert status == EXIT_INPUT, argv
            assert "--epsilon" in out["message"], argv
        elif request[0] in SITE_COMMANDS and request[2] == own and (
                request[4] == "SY" or request[6] == "fY"):
            # the coupling's domain is X: sites or values on Y are off it
            assert status == EXIT_INPUT, argv
        if status == EXIT_OK:
            assert out["command"] == request[0], argv
        else:
            assert status in (EXIT_DOMAIN, EXIT_INPUT), argv
            assert "error" in out, argv
