import importlib
import json
import math
import os
import random
import struct
import threading
import time
from dataclasses import asdict
from pathlib import Path

import pytest

from abconvex import (
    DEFAULT_EPS,
    ExtFunction,
    GroundSet,
    InstanceDocument,
    InstanceError,
    Lifted,
    MultiMapping,
    NotCyclicallyMonotoneError,
    as_coupling,
    coupling_from_rows,
    emit_document,
    identity_mapping,
    inject_positive_two_cycle,
    parse_instance,
    random_coupling,
    random_cyclically_monotone_mapping,
    random_metric,
)
from abconvex.cli import EXIT_DOMAIN, EXIT_INPUT, EXIT_OK, _build_parser, main
from abconvex.instance_io import (
    _labels_per_item,
    _members_per_item,
    _num,
    _pairs_per_item,
    _parse_value,
    document_to_jsonable,
    dumps,
)
from references import grown_mapping, public_verify_text, verify_document


def run(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr().out
    return status, (json.loads(out) if out else None)


@pytest.fixture
def two_point_path(fixture_dir):
    return str(fixture_dir / "two_point.json")


@pytest.fixture
def line3_path(fixture_dir):
    return str(fixture_dir / "line3.json")


def test_parse_fixture_contents(fixture_dir):
    doc = parse_instance((fixture_dir / "two_point.json").read_text())
    assert doc.coupling.domain.labels == ("-2", "-1", "0", "1", "2")
    assert doc.function("f_id").values == (-2.0, -1.0, 0.0, 1.0, 2.0)
    assert doc.function("f_id_on_S").values[0] == float("inf")
    assert doc.mapping("M").graph == ((2, 0), (3, 0), (4, 0))
    assert doc.subset("S").members == (2, 3, 4)


def test_parse_metric_fixture(fixture_dir):
    doc = parse_instance((fixture_dir / "line3.json").read_text())
    assert doc.metric is not None and doc.negate
    assert doc.coupling(0, 2) == -3.0
    assert doc.mapping("I").graph == ((0, 0), (1, 1), (2, 2))


@pytest.mark.parametrize("mutate,path_hint", [
    (lambda d: d.update(schema_version="2"), "schema_version"),
    (lambda d: d["coupling"].update(domain="Z"), "coupling.domain"),
    (lambda d: d["functions"]["f_id"].update(values=[1, 2]), "functions.f_id.values"),
    (lambda d: d["mappings"]["M"]["pairs"].append(["0", "zzz"]), "mappings.M.pairs"),
    (lambda d: d["subsets"]["S"].update(members=[]), "subsets.S.members"),
])
def test_parse_diagnostics_carry_json_paths(fixture_dir, mutate, path_hint):
    raw = json.loads((fixture_dir / "two_point.json").read_text())
    mutate(raw)
    with pytest.raises(InstanceError) as err:
        parse_instance(json.dumps(raw))
    assert path_hint in str(err.value)


def test_coupling_rejects_inf_entry(fixture_dir):
    raw = json.loads((fixture_dir / "two_point.json").read_text())
    raw["coupling"]["values"][0][0] = "inf"
    with pytest.raises(InstanceError):
        parse_instance(json.dumps(raw))


@pytest.mark.parametrize("value", ["false", 0, None])
@pytest.mark.parametrize("flag,path", [
    ("pseudometric", "$.coupling.metric.pseudometric"),
    ("negate", "$.coupling.negate"),
])
def test_metric_flags_must_be_json_booleans(capsys, tmp_path, fixture_dir,
                                            flag, path, value):
    # "false" is truthy, so a truthiness read would switch either flag on
    raw = json.loads((fixture_dir / "line3.json").read_text())
    block = raw["coupling"]["metric"] if flag == "pseudometric" else raw["coupling"]
    block[flag] = value
    p = tmp_path / "flag.json"
    p.write_text(json.dumps(raw))
    status, out = run(capsys, "check-monotone", "--instance", str(p),
                      "--mapping", "I")
    assert status == EXIT_INPUT
    assert out == {"error": "input", "message":
                   f"{path}: expected bool, got {type(value).__name__}"}


def test_emit_parse_roundtrip_is_stable(fixture_dir):
    for name in ("two_point.json", "line3.json"):
        text = (fixture_dir / name).read_text()
        once = emit_document(parse_instance(text))
        twice = emit_document(parse_instance(once))
        assert once == twice


def num_reference(v):
    """The number normaliser ``_num`` replaced: a round trip through 17
    significant digits."""
    return "inf" if v == math.inf else float(format(v, ".17g"))


def test_num_is_the_seventeen_digit_round_trip():
    # seeded 64-bit patterns cover subnormals, both zeros, nan and +-inf
    rng = random.Random(17)
    patterns = [rng.getrandbits(64) for _ in range(50_000)]
    patterns += [0, 1, 1 << 63, 0x7FF0 << 48, 0xFFF0 << 48, 0x7FF8 << 48,
                 0x7FEF_FFFF_FFFF_FFFF, 0x000F_FFFF_FFFF_FFFF]
    for bits in patterns:
        v = struct.unpack("<d", bits.to_bytes(8, "little"))[0]
        got, want = _num(v), num_reference(v)
        assert json.dumps(got) == json.dumps(want)
        if v == v and v != math.inf:
            assert got.hex() == want.hex()
    for v in (0, 3, -7, True, 2 ** 60 + 1):
        assert repr(_num(v)) == repr(num_reference(v))


def reference_dumps(obj) -> str:
    """``json.dumps`` at indent 2 with every float through
    ``num_reference``."""
    def normal(obj):
        if isinstance(obj, float):
            return num_reference(obj)
        if isinstance(obj, dict):
            return {k: normal(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [normal(v) for v in obj]
        return obj
    return json.dumps(normal(obj), indent=2) + "\n"


def test_emit_document_matches_normalising_twice(fixture_dir):
    rows = [[0.1, -0.0, 1e-310], [2.0 ** 900, -1.5, 0.0]]
    x, y = GroundSet(("a", "b")), GroundSet(("p", "q", "r"))
    c = coupling_from_rows(x, y, rows)
    f = ExtFunction(x, (math.inf, -0.0))
    docs = [parse_instance((fixture_dir / name).read_text())
            for name in ("two_point.json", "line3.json")]
    docs.append(InstanceDocument("1", {"X": x, "Y": y}, c,
                                 coupling_names=("X", "Y"),
                                 functions={"f": f}))
    for doc in docs:
        assert emit_document(doc) == reference_dumps(document_to_jsonable(doc))


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_dumps_refuses_non_finite_floats(value):
    with pytest.raises(ValueError):
        dumps({"values": [0.0, value]})


def test_transform_command(capsys, two_point_path):
    status, out = run(capsys, "transform", "--instance", two_point_path,
                      "--function", "f_id_on_S")
    assert status == EXIT_OK
    assert out["result"] == {"labels": ["a", "b"], "values": [0.0, 0.0]}


def test_transform_reverse_direction(capsys, tmp_path, fixture_dir):
    raw = json.loads((fixture_dir / "two_point.json").read_text())
    raw["functions"]["g"] = {"index": "Y", "values": [0.0, 0.0]}
    p = tmp_path / "inst.json"
    p.write_text(json.dumps(raw))
    status, out = run(capsys, "transform", "--instance", str(p),
                      "--function", "g")
    assert status == EXIT_OK
    assert out["result"]["labels"] == ["-2", "-1", "0", "1", "2"]
    assert out["result"]["values"] == [2.0, 1.0, 0.0, 1.0, 2.0]


@pytest.mark.parametrize("side", ["X", "Y"])
def test_transform_of_an_improper_function_exits_1(capsys, tmp_path,
                                                   fixture_dir, side):
    # its transform is -inf everywhere, which strict JSON cannot carry
    raw = json.loads((fixture_dir / "two_point.json").read_text())
    size = len(raw["ground_sets"][side])
    raw["functions"]["top"] = {"index": side, "values": ["inf"] * size}
    p = tmp_path / "top.json"
    p.write_text(json.dumps(raw))
    status, out = run(capsys, "transform", "--instance", str(p),
                      "--function", "top")
    assert status == EXIT_DOMAIN
    assert out == {"error": "domain",
                   "message": "transform input must be proper"}


def test_convexify_command(capsys, two_point_path):
    status, out = run(capsys, "convexify", "--instance", two_point_path,
                      "--function", "f_mix")
    assert status == EXIT_OK
    assert out["result"]["values"] == [0.0, -1.0, 0.0, 1.0, 2.0]


def test_subdiff_command(capsys, two_point_path):
    status, out = run(capsys, "subdiff", "--instance", two_point_path,
                      "--function", "f_abs")
    assert status == EXIT_OK
    assert sorted(map(tuple, out["result"])) == [
        ("-1", "b"), ("-2", "b"), ("0", "a"), ("0", "b"), ("1", "a"), ("2", "a")]


def test_check_monotone_command(capsys, two_point_path):
    status, out = run(capsys, "check-monotone", "--instance", two_point_path,
                      "--mapping", "M")
    assert status == EXIT_OK
    assert out["monotone"] is True
    status, out = run(capsys, "check-monotone", "--instance", two_point_path,
                      "--mapping", "M", "--order", "3")
    assert status == EXIT_OK and out["monotone"] is True


def test_check_monotone_huge_order_is_a_budget_error(capsys, two_point_path):
    # 10^9 - 1 walk rounds would keep 9 predecessor entries each
    start = time.perf_counter()
    status, out = run(capsys, "check-monotone", "--instance", two_point_path,
                      "--mapping", "M", "--order", "1000000000")
    assert time.perf_counter() - start < 1.0
    assert status == EXIT_DOMAIN and out["error"] == "domain"
    assert "budget" in out["message"]


def non_monotone_instance(tmp_path, fixture_dir):
    raw = json.loads((fixture_dir / "two_point.json").read_text())
    raw["mappings"]["bad"] = {"source": "X", "target": "Y",
                              "pairs": [["-2", "a"], ["2", "b"]]}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(raw))
    return str(p)


def test_check_monotone_reports_witness(capsys, tmp_path, fixture_dir):
    path = non_monotone_instance(tmp_path, fixture_dir)
    status, out = run(capsys, "check-monotone", "--instance", path,
                      "--mapping", "bad")
    assert status == EXIT_OK
    assert out["monotone"] is False
    assert len(out["witness"]) >= 2


def test_rockafellar_command(capsys, two_point_path):
    status, out = run(capsys, "rockafellar", "--instance", two_point_path,
                      "--mapping", "M", "--subset", "origin")
    assert status == EXIT_OK
    assert out["result"]["values"] == [-2.0, -1.0, 0.0, 1.0, 2.0]


def test_rockafellar_non_monotone_exits_1(capsys, tmp_path, fixture_dir):
    path = non_monotone_instance(tmp_path, fixture_dir)
    raw = json.loads(Path(path).read_text())
    raw["subsets"]["p"] = {"parent": "X", "members": ["-2"]}
    Path(path).write_text(json.dumps(raw))
    status, out = run(capsys, "rockafellar", "--instance", path,
                      "--mapping", "bad", "--subset", "p")
    assert status == EXIT_DOMAIN
    assert out["error"] == "not-cyclically-monotone"
    assert out["witness"]


def test_rockafellar_witness_matches_check_monotone(capsys, tmp_path,
                                                   fixture_dir):
    # both come from the exact-length route, and both print label pairs
    path = non_monotone_instance(tmp_path, fixture_dir)
    raw = json.loads(Path(path).read_text())
    raw["subsets"]["p"] = {"parent": "X", "members": ["-2"]}
    Path(path).write_text(json.dumps(raw))
    status, check = run(capsys, "check-monotone", "--instance", path,
                        "--mapping", "bad")
    assert status == EXIT_OK and check["monotone"] is False
    status, out = run(capsys, "rockafellar", "--instance", path,
                      "--mapping", "bad", "--subset", "p")
    assert status == EXIT_DOMAIN
    assert out["witness"] == check["witness"] == [["-2", "a"], ["2", "b"]]


def test_envelope_domain_errors_print_label_pairs(capsys, tmp_path):
    # the anchor check allows eps per pair, so this 3-cycle of gain 2.7e-9
    # passes it; alpha raises on M and gamma's dual route on M^-1
    labels = ["a", "b", "c"]
    values = [[0.0] * 3 for _ in labels]
    for i in range(3):
        values[(i + 1) % 3][i] = 0.9e-9
    doc = {"schema_version": "1",
           "ground_sets": {"X": labels},
           "coupling": {"domain": "X", "codomain": "X", "values": values},
           "functions": {"f": {"index": "X", "values": [0, 0, 0]}},
           "mappings": {"M": {"source": "X", "target": "X",
                              "pairs": [[v, v] for v in labels]}},
           "subsets": {"S": {"parent": "X", "members": ["a"]}}}
    path = tmp_path / "band.json"
    path.write_text(json.dumps(doc))
    common = ["--instance", str(path), "--mapping", "M", "--subset", "S",
              "--site-function", "f"]
    status, check = run(capsys, "check-monotone", "--instance", str(path),
                        "--mapping", "M")
    assert status == EXIT_OK and check["monotone"] is False
    status, out = run(capsys, "alpha", *common)
    assert status == EXIT_DOMAIN
    assert out["error"] == "not-cyclically-monotone"
    assert out["witness"] == check["witness"]
    status, out = run(capsys, "gamma", *common)
    assert status == EXIT_DOMAIN
    assert out["error"] == "not-cyclically-monotone"
    assert len(out["witness"]) == 3
    graph = doc["mappings"]["M"]["pairs"]
    assert all([x, y] in graph for y, x in out["witness"])


def test_alpha_gamma_commands(capsys, two_point_path):
    status, out = run(capsys, "alpha", "--instance", two_point_path,
                      "--mapping", "M", "--subset", "S",
                      "--site-function", "f_id")
    assert status == EXIT_OK
    assert out["result"]["values"] == [-2.0, -1.0, 0.0, 1.0, 2.0]
    status, out = run(capsys, "gamma", "--instance", two_point_path,
                      "--mapping", "M", "--subset", "S",
                      "--site-function", "f_id")
    assert status == EXIT_OK
    assert out["result"]["values"] == [2.0, 1.0, 0.0, 1.0, 2.0]


def test_gamma_command_on_a_margin_that_rounds_past_eps(capsys, tmp_path):
    # M is the subdifferential of f; its pair (x1, y0) sits at a margin of
    # exactly eps, where the dual anchor f^c reads f^cc(x1) past eps
    doc = {"schema_version": "1",
           "ground_sets": {"X": ["x0", "x1"], "Y": ["y0", "y1"]},
           "coupling": {"domain": "X", "codomain": "Y",
                        "values": [[0, 0], [0, 2]]},
           "functions": {"f": {"index": "X", "values": [0, 1e-9]}},
           "mappings": {"M": {"source": "X", "target": "Y",
                              "pairs": [["x0", "y0"], ["x1", "y0"],
                                        ["x1", "y1"]]}},
           "subsets": {"S": {"parent": "X", "members": ["x0"]}}}
    path = tmp_path / "margin.json"
    path.write_text(json.dumps(doc))
    status, out = run(capsys, "gamma", "--instance", str(path),
                      "--mapping", "M", "--subset", "S",
                      "--site-function", "f")
    assert status == EXIT_OK
    assert out["result"]["values"] == [0.0, 0.0]


def test_member_command(capsys, two_point_path):
    common = ["--instance", two_point_path, "--mapping", "M",
              "--subset", "S", "--site-function", "f_id"]
    status, out = run(capsys, "member", *common, "--function", "f_abs")
    assert status == EXIT_OK and out["member"] is True
    status, out = run(capsys, "member", *common, "--function", "f_mix")
    assert status == EXIT_OK and out["member"] is False


def test_lip_extend_command(capsys, line3_path):
    common = ["--instance", line3_path, "--mapping", "I_S",
              "--subset", "S", "--site-function", "f"]
    status, out = run(capsys, "lip-extend", *common, "--min")
    assert status == EXIT_OK
    assert out["result"]["values"] == [0.0, 0.0, 2.0]
    status, out = run(capsys, "lip-extend", *common, "--max")
    assert status == EXIT_OK
    assert out["result"]["values"] == [0.0, 1.0, 2.0]


def test_lip_extend_flag_validation(capsys, line3_path):
    status, out = run(capsys, "lip-extend", "--instance", line3_path,
                      "--mapping", "I_S", "--subset", "S",
                      "--site-function", "f")
    assert status == EXIT_INPUT
    assert out["error"] == "input"


def test_fitzpatrick_command(capsys, line3_path):
    status, out = run(capsys, "fitzpatrick", "--instance", line3_path,
                      "--mapping", "I")
    assert status == EXIT_OK
    # F of the identity under c = -d is -d
    assert out["result"]["values"] == [
        0.0, -1.0, -3.0, -1.0, 0.0, -2.0, -3.0, -2.0, 0.0]


def test_verify_command(capsys, line3_path):
    status, out = run(capsys, "verify", "--instance", line3_path,
                      "--mapping", "I", "--seed", "7")
    assert status == EXIT_OK
    assert out["theorem_a"]["agree"] is True
    assert out["theorem_a"]["t_monotone"] is True
    assert out["theorem_b"]["equal"] is True
    assert "inequality_chain" in out


def test_verify_builds_one_lifted_product(capsys, line3_path, monkeypatch):
    # both theorems share it, and report what fresh contexts do
    fitz = importlib.import_module("abconvex.fitzpatrick")
    real, builds = fitz.product_coupling, []

    def counting(c):
        builds.append(c)
        return real(c)

    monkeypatch.setattr(fitz, "product_coupling", counting)
    status, out = run(capsys, "verify", "--instance", line3_path,
                      "--mapping", "I", "--seed", "7")
    assert status == EXIT_OK and len(builds) == 1
    monkeypatch.undo()
    with open(line3_path) as fh:
        doc = parse_instance(fh.read())
    m, c = doc.mapping("I"), doc.coupling
    report_a = Lifted(m, c).theorem6A()
    assert out["theorem_a"] == json.loads(dumps(
        {**asdict(report_a), "agree": report_a.agree}))
    assert out["theorem_b"] == json.loads(dumps(
        asdict(Lifted(m, c).theorem6B(seed=7))))


def test_verify_of_an_empty_mapping_exits_1(capsys, tmp_path, fixture_dir):
    raw = json.loads((fixture_dir / "line3.json").read_text())
    raw["mappings"]["I"]["pairs"] = []
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(raw))
    status, out = run(capsys, "verify", "--instance", str(path), "--mapping", "I")
    assert status == EXIT_DOMAIN
    assert out == {"error": "domain", "message": "mapping must be proper (nonempty graph)"}


def test_missing_instance_exits_2(capsys):
    status, out = run(capsys, "transform", "--instance", "/nonexistent.json",
                      "--function", "f")
    assert status == EXIT_INPUT


def test_unknown_function_exits_2(capsys, two_point_path):
    status, out = run(capsys, "transform", "--instance", two_point_path,
                      "--function", "nope")
    assert status == EXIT_INPUT
    assert "nope" in out["message"]


def test_missing_required_flag_exits_2(capsys, two_point_path):
    status, out = run(capsys, "transform", "--instance", two_point_path)
    assert status == EXIT_INPUT
    assert "--function" in out["message"]


def test_output_flag_and_seeded_determinism(capsys, tmp_path, line3_path):
    argv = ["verify", "--instance", line3_path, "--mapping", "I", "--seed"]
    assert main(argv + ["42"]) == EXIT_OK
    stdout = capsys.readouterr().out.encode()
    # a fresh file, one far longer and one shorter than the result, and a
    # link to a longer one: each ends holding exactly stdout's bytes, and
    # the link is still a link
    a, longer, shorter, linked, link = (tmp_path / name for name in (
        "a.json", "longer.json", "shorter.json", "linked.json", "link.json"))
    for path in (longer, linked):
        path.write_bytes(b"x" * 100_000)
    shorter.write_bytes(b"{}")
    link.symlink_to(linked)
    for target in (a, longer, shorter, link):
        assert main(argv + ["42", "--output", str(target)]) == EXIT_OK
        assert target.read_bytes() == stdout
    assert link.is_symlink() and linked.read_bytes() == stdout
    assert main(argv + ["43"]) == EXIT_OK  # a different seed still succeeds
    stdout = capsys.readouterr().out.encode()
    assert main(argv + ["43", "--output", str(a)]) == EXIT_OK
    assert a.read_bytes() == stdout
    assert capsys.readouterr().out == ""


def test_output_to_a_device_or_a_fifo(capsys, tmp_path, two_point_path):
    # neither can be cut to length: /dev/null refuses it, a FIFO cannot seek
    argv = ["convexify", "--instance", two_point_path, "--function", "f_mix"]
    assert main(argv) == EXIT_OK
    stdout = capsys.readouterr().out.encode()
    assert main(argv + ["--output", os.devnull]) == EXIT_OK
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()),
                              daemon=True)
    reader.start()
    assert main(argv + ["--output", str(fifo)]) == EXIT_OK
    reader.join(timeout=10)
    assert not reader.is_alive() and received == [stdout]
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("where", ["missing-directory", "directory",
                                   "under-a-file"])
def test_unwritable_output_is_an_input_error(capsys, tmp_path, two_point_path,
                                             where):
    (tmp_path / "file").write_text("kept")
    target = {"missing-directory": tmp_path / "missing" / "o.json",
              "directory": tmp_path,
              "under-a-file": tmp_path / "file" / "o.json"}[where]
    status, out = run(capsys, "convexify", "--instance", two_point_path,
                      "--function", "f_mix", "--output", str(target))
    assert status == EXIT_INPUT
    assert out["error"] == "input" and "--output" in out["message"]
    assert (tmp_path / "file").read_text() == "kept"


def test_huge_integer_literal_exits_2(capsys, tmp_path, fixture_dir):
    raw = json.loads((fixture_dir / "two_point.json").read_text())
    raw["functions"]["f_id"]["values"][1] = int("1" + "0" * 400)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(raw))
    status, out = run(capsys, "transform", "--instance", str(path),
                      "--function", "f_id")
    assert status == EXIT_INPUT
    assert out["error"] == "input"
    assert "$.functions.f_id.values[1]" in out["message"]


BAD_LITERALS = ["true", '"Infinity"', "NaN", "1e999", "1" + "0" * 400,
                "2e300", "-2e300", str(2 ** 900 + 2 ** 848)]


def _document_with_row(where: str, row: list) -> dict:
    """A 5-point document whose coupling row, metric row or function is
    ``row``; ``where`` picks which."""
    labels = ["a", "b", "c", "d", "e"]
    square = [[float(abs(i - j)) for j in range(5)] for i in range(5)]
    doc = {"schema_version": "1", "ground_sets": {"P": labels}}
    if where == "metric":
        square[1] = row
        doc["coupling"] = {"metric": {"points": "P", "distances": square},
                           "negate": True}
        return doc
    doc["coupling"] = {"domain": "P", "codomain": "P", "values": square}
    if where == "coupling":
        square[1] = row
    else:
        doc["functions"] = {"f": {"index": "P", "values": row}}
    return doc


@pytest.mark.parametrize("literal", BAD_LITERALS,
                         ids=["true", "string", "nan", "1e999", "huge-int",
                              "2e300", "-2e300", "int-over-2**900"])
@pytest.mark.parametrize("where,path", [
    ("coupling", "$.coupling.values[1]"),
    ("metric", "$.coupling.metric.distances[1]"),
    ("function", "$.functions.f.values"),
])
def test_parse_diagnostic_names_first_bad_cell(literal, where, path):
    # the same bad literal at indices 2 and 4 of one row: the diagnostic
    # names index 2, whichever parsing route the row takes
    doc = _document_with_row(where, [1.0, 0.0, "@BAD@", 2, "@BAD@"])
    text = json.dumps(doc).replace('"@BAD@"', literal)
    with pytest.raises(InstanceError) as err:
        parse_instance(text)
    assert str(err.value).startswith(f"{path}[2]: ")


def _raised(fn, *args) -> str:
    with pytest.raises(InstanceError) as err:
        fn(*args)
    return str(err.value)


def _row_per_cell(row, path):
    return tuple(_parse_value(v, f"{path}[{j}]") for j, v in enumerate(row))


def _coupling_row_per_cell(row, path):
    """``_row_per_cell``, then the first "inf", which a coupling refuses."""
    values = _row_per_cell(row, path)
    for j, v in enumerate(values):
        if v == math.inf:
            raise InstanceError(f"{path}[{j}]: coupling entries must be finite")
    return values


P = GroundSet(("a", "b", "c", "d", "e"))
#: (case, where, the JSON at ``where``, the per-item route, the message it
#: raises): each value defeats the bulk pass, where there is one (rows
#: holding "inf" and subset members have none), and the parse must raise
#: the per-item route's message
PARSE_FALLBACKS = [
    ("bool cell", "function", [1.0, True, 0.0, 2, 3.5],
     lambda v: _row_per_cell(v, "$.functions.f.values"),
     '$.functions.f.values[1]: expected a number or "inf"'),
    ("huge int", "coupling", [0.0, 10 ** 400, 1.0, 2.0, 3.0],
     lambda v: _row_per_cell(v, "$.coupling.values[1]"),
     "$.coupling.values[1][1]: integer literal too large for a float"),
    ("inf beside a bool", "function", [1.0, "inf", False, 2, 3.5],
     lambda v: _row_per_cell(v, "$.functions.f.values"),
     '$.functions.f.values[2]: expected a number or "inf"'),
    *[(f"coupling inf at column {j}", "coupling",
       [*[0.5] * j, "inf", *[2] * (4 - j)],
       lambda v: _coupling_row_per_cell(v, "$.coupling.values[1]"),
       f"$.coupling.values[1][{j}]: coupling entries must be finite")
      for j in (0, 2, 4)],
    ("coupling inf before a bool", "coupling", ["inf", 1.0, True, 2, 3.5],
     lambda v: _coupling_row_per_cell(v, "$.coupling.values[1]"),
     '$.coupling.values[1][2]: expected a number or "inf"'),
    ("duplicate label", "labels", ["a", "b", "c", "b", "e"],
     lambda v: _labels_per_item(v, "$.ground_sets.P"),
     "$.ground_sets.P[3]: duplicate label 'b'"),
    ("unknown label", "pairs", [["a", "b"], ["c", "z"]],
     lambda v: _pairs_per_item(v, P, P, "$.mappings.M.pairs"),
     "$.mappings.M.pairs[1]: unknown label 'z'"),
    ("non-list pair", "pairs", [["a", "b"], "cd"],
     lambda v: _pairs_per_item(v, P, P, "$.mappings.M.pairs"),
     "$.mappings.M.pairs[1]: expected list, got str"),
    ("3-element pair", "pairs", [["a", "b", "c"]],
     lambda v: _pairs_per_item(v, P, P, "$.mappings.M.pairs"),
     "$.mappings.M.pairs[0]: expected a [source, target] pair"),
    ("unhashable label", "pairs", [["a", "b"], ["c", ["d"]]],
     lambda v: _pairs_per_item(v, P, P, "$.mappings.M.pairs"),
     "$.mappings.M.pairs[1]: unknown label ['d']"),
    ("unknown member", "members", ["a", "z"],
     lambda v: _members_per_item(v, P, "$.subsets.S.members"),
     "$.subsets.S.members: unknown label 'z'"),
    ("unhashable member", "members", ["a", {"c": 1}],
     lambda v: _members_per_item(v, P, "$.subsets.S.members"),
     "$.subsets.S.members: unknown label {'c': 1}"),
]


@pytest.mark.parametrize("case,where,value,per_item,message", PARSE_FALLBACKS,
                         ids=[case[0] for case in PARSE_FALLBACKS])
def test_bulk_parse_falls_back_to_the_per_item_message(case, where, value,
                                                       per_item, message):
    doc = _document_with_row("function", [1.0, "inf", 0.0, 2, 3.5])
    doc["mappings"] = {"M": {"source": "P", "target": "P",
                             "pairs": [["a", "b"], ["c", "d"]]}}
    doc["subsets"] = {"S": {"parent": "P", "members": ["a", "c"]}}
    parsed = parse_instance(json.dumps(doc))
    assert parsed.function("f").values == (1.0, math.inf, 0.0, 2.0, 3.5)
    assert parsed.mapping("M").graph == ((0, 1), (2, 3))
    target = {"function": (doc["functions"]["f"], "values"),
              "coupling": (doc["coupling"]["values"], 1),
              "labels": (doc["ground_sets"], "P"),
              "pairs": (doc["mappings"]["M"], "pairs"),
              "members": (doc["subsets"]["S"], "members")}[where]
    target[0][target[1]] = value
    assert _raised(parse_instance, json.dumps(doc)) == message
    assert _raised(per_item, value) == message


def test_reused_parser_gives_the_bytes_of_fresh_calls(tmp_path, fixture_dir):
    two_point = str(fixture_dir / "two_point.json")
    line3 = str(fixture_dir / "line3.json")
    site = ["--mapping", "M", "--subset", "S", "--site-function", "f_id"]
    lip = ["--mapping", "I_S", "--subset", "S", "--site-function", "f"]
    calls = [
        ["transform", "--instance", two_point, "--function", "f_id_on_S"],
        ["lip-extend", "--instance", line3, *lip, "--min"],
        ["check-monotone", "--instance", two_point, "--mapping", "M", "--order", "3"],
        ["check-monotone", "--instance", two_point, "--mapping", "M"],
        ["lip-extend", "--instance", line3, *lip, "--max"],
        ["gamma", "--instance", two_point, *site, "--epsilon", "0.5"],
        ["alpha", "--instance", two_point, *site],
        ["verify", "--instance", line3, "--mapping", "I", "--seed", "3"],
        ["lip-extend", "--instance", line3, *lip],
        ["transform", "--instance", two_point, "--function", "nope"],
    ]

    def outputs(fresh: bool) -> list[tuple[int, bytes]]:
        got = []
        for i, argv in enumerate(calls):
            if fresh:
                _build_parser.cache_clear()
            target = tmp_path / f"{fresh}-{i}.json"
            status = main(argv + ["--output", str(target)])
            got.append((status, target.read_bytes()))
        return got

    reused = outputs(fresh=False)
    assert _build_parser() is _build_parser()
    assert reused == outputs(fresh=True)
    assert [status for status, _ in reused] == [0, 0, 0, 0, 0, 0, 0, 0, 2, 2]


# ------------------------------------------------ verify: one lifted context

def lifted_documents(rng, tmp_path):
    """verify documents: a finitely maximal T, a non-maximal T, a T with a
    positive 2-cycle, and -d documents with a maximal, a non-maximal and a
    non-monotone T (the last two skip the inequality chain)."""
    c = random_coupling(rng, 4, 4)
    small = random_cyclically_monotone_mapping(rng, c, max_pairs=2)
    maximal = grown_mapping(rng, small, c, DEFAULT_EPS)
    bad, cbad = inject_positive_two_cycle(rng, maximal, c)
    metric = random_metric(rng, 4)
    d = as_coupling(metric)
    docs = {
        "maximal": (maximal, c), "non_maximal": (small, c),
        "non_monotone": (bad, cbad),
        "metric_maximal": (grown_mapping(rng, identity_mapping(metric), d,
                                         DEFAULT_EPS), d, metric),
        "metric_non_maximal": (MultiMapping(d.domain, d.codomain, ((0, 0),)),
                               d, metric),
        "metric_non_monotone": (MultiMapping(d.domain, d.codomain,
                                             ((0, 1), (1, 0))), d, metric),
    }
    paths = {}
    for name, args in docs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(verify_document(*args))
    return paths


def test_verify_prints_what_fresh_contexts_report(capsys, tmp_path):
    rng = random.Random(7)
    outcomes = {}
    for name, path in lifted_documents(rng, tmp_path).items():
        status = main(["verify", "--instance", str(path), "--mapping", "T",
                       "--seed", "11"])
        text = capsys.readouterr().out
        assert status == EXIT_OK
        assert text == public_verify_text(path.read_text(), 11)
        out = json.loads(text)
        outcomes[name] = (out["theorem_a"]["t_monotone"],
                          out.get("theorem_b", {}).get("maximality_checked"),
                          out.get("inequality_chain", {}).get("skipped"))
    assert outcomes == {
        "maximal": (True, True, None),
        "non_maximal": (True, False, None),
        "non_monotone": (False, None, None),
        "metric_maximal": (True, True, None),
        "metric_non_maximal": (True, False, "hypothesis fails: T is neither "
                               "finitely maximal nor a supplied subdifferential"),
        "metric_non_monotone": (False, None,
                                "hypothesis fails: T is not -d-monotone"),
    }


def test_verify_computes_each_lifted_quantity_once(capsys, tmp_path, monkeypatch):
    # on a maximal -d-monotone T, Theorems 6A and 6B and the inequality
    # chain all run; they share one chain_suprema call on Delta_T (one gain
    # graph of it), one order-2 verdict and maximality of T, and one
    # Fitzpatrick function
    fitz = importlib.import_module("abconvex.fitzpatrick")
    rock = importlib.import_module("abconvex.rockafellar")
    path = lifted_documents(random.Random(7), tmp_path)["metric_maximal"]
    calls = {}

    def counting(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    for name in ("product_coupling", "chain_suprema",
                 "_maximal_2_monotone", "fitzpatrick", "is_n_monotone"):
        counting(fitz, name)
    counting(rock, "build_gain_graph")
    status = main(["verify", "--instance", str(path), "--mapping", "T",
                   "--seed", "11"])
    out = json.loads(capsys.readouterr().out)
    assert status == EXIT_OK
    assert out["theorem_b"]["sampled_members"] == 10
    assert out["inequality_chain"]["holds"] is True
    # is_n_monotone: T's verdict once, Delta_T's once
    assert calls == {"product_coupling": 1, "chain_suprema": 1,
                     "build_gain_graph": 1, "_maximal_2_monotone": 1,
                     "fitzpatrick": 1, "is_n_monotone": 2}


def test_verify_guards_the_lifted_lines_before_building_them(capsys, tmp_path,
                                                           monkeypatch):
    # 100 x 100 gives a 10^4-point lifted side; Delta_T of 201 pairs would
    # build 201 rows and 201 columns, 4.02e6 entries in all
    core = importlib.import_module("abconvex.core")

    def built(*args):
        raise AssertionError("a lifted line was built")

    monkeypatch.setattr(core._LiftedLines, "__getitem__", built)
    rng = random.Random(0)
    c = random_coupling(rng, 100, 100)
    pairs = set()
    while len(pairs) < 201:
        pairs.add((rng.randrange(100), rng.randrange(100)))
    path = tmp_path / "wide.json"
    path.write_text(verify_document(
        MultiMapping(c.domain, c.codomain, tuple(pairs)), c))
    status, out = run(capsys, "verify", "--instance", str(path), "--mapping", "T")
    assert status == EXIT_DOMAIN
    assert out == {"error": "domain", "message":
                   f"lifted rows and columns of {402 * 10 ** 4} entries "
                   f"exceed the {core.MAX_LIFTED_ENTRIES}-entry guard"}


def test_verify_past_the_old_table_guard(capsys, tmp_path):
    # 64 x 64: a table of C would hold 4096^2 ~ 1.7e7 entries, over the
    # guard; verify builds only Delta_T's lines and prints what fresh
    # contexts report
    rng = random.Random(5)
    c = random_coupling(rng, 64, 64)
    t = random_cyclically_monotone_mapping(rng, c, max_pairs=12)
    text = verify_document(t, c)
    path = tmp_path / "wide.json"
    path.write_text(text)
    status = main(["verify", "--instance", str(path), "--mapping", "T"])
    assert status == EXIT_OK
    assert capsys.readouterr().out == public_verify_text(text, 0)


# -------------------------------------------- adversarial documents, pinned
B900 = 2 ** 900

#: T is 2-monotone here but Delta_T is not cyclically monotone, so Theorem
#: 6B's alpha raises the error that 6A's cyclic reading stored.
BIG_VERIFY_DOCUMENT = {
    "schema_version": "1",
    "ground_sets": {"X": ["x0", "x1", "x2"], "Y": ["y0", "y1", "y2"]},
    "coupling": {"domain": "X", "codomain": "Y",
                 "values": [[-B900, 3, -B900], [0, 3, 1], [1e-9, -1, 1e-9]]},
    "mappings": {"M": {"source": "X", "target": "Y",
                       "pairs": [["x0", "y0"], ["x1", "y2"], ["x2", "y0"],
                                 ["x2", "y2"]]}},
}
BIG_VERIFY_OUTPUT = """{
  "error": "not-cyclically-monotone",
  "message": "improper: not c-cyclically monotone",
  "witness": [
    [
      "(x1,y2)",
      "(y2,x1)"
    ],
    [
      "(x0,y0)",
      "(y0,x0)"
    ],
    [
      "(x2,y2)",
      "(y2,x2)"
    ]
  ]
}
"""


def test_verify_at_the_magnitude_bound_prints_the_lifted_witness(capsys,
                                                                 tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(BIG_VERIFY_DOCUMENT))
    status = main(["verify", "--instance", str(path), "--mapping", "M"])
    assert status == EXIT_DOMAIN
    assert capsys.readouterr().out == BIG_VERIFY_OUTPUT
    doc = parse_instance(path.read_text())
    t, c = doc.mapping("M"), doc.coupling
    report = Lifted(t, c).theorem6A()
    assert report.t_monotone and not report.delta_cyclically_monotone
    with pytest.raises(NotCyclicallyMonotoneError):
        Lifted(t, c).theorem6B()


def _two_sided_document() -> dict:
    """A 2 x 3 coupling with one mapping on each pair of sides."""
    sides = {"X": ["p", "q"], "Y": ["a", "b", "c"]}
    mappings = {a + b: {"source": a, "target": b,
                        "pairs": [[sides[a][0], sides[b][-1]]]}
                for a in sides for b in sides}
    return {"schema_version": "1", "ground_sets": sides,
            "coupling": {"domain": "X", "codomain": "Y",
                         "values": [[0.0, 1.0, 2.0], [1.0, 0.0, 5.0]]},
            "functions": {"f": {"index": "X", "values": [0.0, 1.0]}},
            "mappings": mappings,
            "subsets": {"S": {"parent": "X", "members": ["p"]}}}


@pytest.mark.parametrize("mapping", ["YX", "XX", "YY"])
@pytest.mark.parametrize("command,flags", [
    ("check-monotone", ()),
    ("check-monotone", ("--order", "1")),
    ("check-monotone", ("--order", "2")),
    ("check-monotone", ("--order", "3")),
    ("rockafellar", ("--subset", "S")),
    ("alpha", ("--subset", "S", "--site-function", "f")),
    ("gamma", ("--subset", "S", "--site-function", "f")),
    ("member", ("--subset", "S", "--site-function", "f", "--function", "f")),
    ("fitzpatrick", ()),
    ("verify", ()),
])
def test_mapping_off_the_coupling_sides_is_an_input_error(capsys, tmp_path,
                                                          mapping, command,
                                                          flags):
    # each of these used to end in an IndexError traceback, or verify in
    # a domain error about a graph pair out of range
    path = tmp_path / "sides.json"
    path.write_text(json.dumps(_two_sided_document()))
    status, out = run(capsys, command, "--instance", str(path),
                      "--mapping", mapping, *flags)
    assert status == EXIT_INPUT
    assert out == {"error": "input",
                   "message": f"mapping {mapping!r} does not run from the "
                              "coupling's domain to its codomain"}


def test_lip_extend_rejects_a_mapping_off_the_metric_points(capsys, tmp_path,
                                                            fixture_dir):
    raw = json.loads((fixture_dir / "line3.json").read_text())
    raw["ground_sets"]["Z"] = ["z"]
    raw["mappings"]["J"] = {"source": "Z", "target": raw["mappings"]["I_S"]
                            ["target"], "pairs": []}
    path = tmp_path / "line3z.json"
    path.write_text(json.dumps(raw))
    status, out = run(capsys, "lip-extend", "--instance", str(path),
                      "--mapping", "J", "--subset", "S", "--site-function",
                      "f", "--min")
    assert status == EXIT_INPUT
    assert "mapping 'J' does not run" in out["message"]


def test_transform_of_a_function_on_neither_side_is_an_input_error(
        capsys, tmp_path):
    raw = _two_sided_document()
    raw["ground_sets"]["Z"] = ["p", "q", "r"]
    raw["functions"]["fz"] = {"index": "Z", "values": [0.0, 1.0, 2.0]}
    path = tmp_path / "sides.json"
    path.write_text(json.dumps(raw))
    status, out = run(capsys, "transform", "--instance", str(path),
                      "--function", "fz")
    assert (status, out) == (EXIT_INPUT, {
        "error": "input",
        "message": "function 'fz' is indexed by neither coupling side"})


def test_rockafellar_anchor_must_lie_in_the_coupling_domain(capsys, tmp_path):
    raw = _two_sided_document()
    raw["subsets"]["T"] = {"parent": "Y", "members": ["a"]}
    path = tmp_path / "sides.json"
    path.write_text(json.dumps(raw))
    status, out = run(capsys, "rockafellar", "--instance", str(path),
                      "--mapping", "XY", "--subset", "T")
    assert status == EXIT_INPUT
    assert out["message"] == "subset 'T' does not lie in the coupling's domain"


def test_subset_with_a_repeated_label_is_an_input_error(capsys, tmp_path,
                                                        fixture_dir):
    # it used to pass parsing's checks and fail IndexSubset's, a domain
    # error (exit 1) with no JSON path
    raw = json.loads((fixture_dir / "two_point.json").read_text())
    raw["subsets"]["S"]["members"] = ["0", "1", "0", "1"]
    text = json.dumps(raw)
    with pytest.raises(InstanceError) as err:
        parse_instance(text)
    assert str(err.value) == "$.subsets.S.members[2]: duplicate label '0'"
    path = tmp_path / "repeat.json"
    path.write_text(text)
    status, out = run(capsys, "alpha", "--instance", str(path), "--mapping",
                      "M", "--subset", "S", "--site-function", "f_id")
    assert status == EXIT_INPUT
    assert out == {"error": "input",
                   "message": "$.subsets.S.members[2]: duplicate label '0'"}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "-Infinity"])
@pytest.mark.parametrize("command,flags", [
    ("check-monotone", ("--mapping", "M")),
    ("rockafellar", ("--mapping", "M", "--subset", "origin")),
    ("alpha", ("--mapping", "M", "--subset", "S", "--site-function", "f_id")),
    ("subdiff", ("--function", "f_abs")),
])
def test_non_finite_epsilon_is_an_input_error(capsys, two_point_path, value,
                                              command, flags):
    # check-monotone --epsilon nan used to print "monotone": true
    status, out = run(capsys, command, "--instance", two_point_path, *flags,
                      f"--epsilon={value}")
    assert status == EXIT_INPUT
    assert out == {"error": "input", "message":
                   f"--epsilon must be a finite number, not {float(value)!r}"}


def test_negative_epsilon_keeps_its_library_meaning(capsys, two_point_path):
    # every 1-step loop gains 0 > eps: a domain verdict, not an input error;
    # at -5e-324 eps/k rounds to -0.0, where the cyclic check used to print
    # true while --order 1 printed false
    for eps in ("--epsilon=-1e-9", "--epsilon=-5e-324"):
        argv = ("check-monotone", "--instance", two_point_path, "--mapping",
                "M", eps)
        status, out = run(capsys, *argv)
        assert status == EXIT_OK
        assert out["monotone"] is False
        assert run(capsys, *argv, "--order", "1") == (EXIT_OK, out)
        status, out = run(capsys, "rockafellar", "--instance", two_point_path,
                          "--mapping", "M", "--subset", "origin", eps)
        assert status == EXIT_DOMAIN
        assert out["error"] == "not-cyclically-monotone"


@pytest.mark.parametrize("argv, message", [
    (["check-monotone", "--mapping", "M", "--order", "x"],
     "argument --order: invalid int value: 'x'"),
    ([], "the following arguments are required: command"),
    (["bogus"], "argument command: invalid choice: 'bogus'"),
    (["check-monotone", "--mapping", "M", "--bogus"],
     "unrecognized arguments: --bogus"),
])
def test_usage_errors_are_input_errors(capsys, tmp_path, two_point_path, argv,
                                       message):
    # they used to print usage to stderr and no JSON; the document goes to
    # stdout even with --output, which parsing has not read yet
    if argv[:1] == ["check-monotone"]:
        argv = argv + ["--instance", two_point_path, "--output",
                       str(tmp_path / "o")]
    status = main(argv)
    out, err = capsys.readouterr()
    assert status == EXIT_INPUT
    assert err == ""
    assert not (tmp_path / "o").exists()
    doc = json.loads(out)
    assert doc["error"] == "input" and doc["message"].startswith(message)


@pytest.mark.parametrize("command", ["alpha", "gamma", "member"])
def test_sites_and_site_function_off_the_domain_are_input_errors(
        capsys, tmp_path, command):
    # both used to be domain errors (exit 1) raised by ConstraintProblem
    raw = _two_sided_document()
    raw["subsets"]["T"] = {"parent": "Y", "members": ["a"]}
    raw["functions"]["g"] = {"index": "Y", "values": [0.0, 1.0, 2.0]}
    path = tmp_path / "sides.json"
    path.write_text(json.dumps(raw))
    extra = ("--function", "f") if command == "member" else ()
    status, out = run(capsys, command, "--instance", str(path), "--mapping",
                      "XY", "--subset", "T", "--site-function", "f", *extra)
    assert status == EXIT_INPUT
    assert out == {"error": "input", "message":
                   "subset 'T' does not lie in the coupling's domain"}
    status, out = run(capsys, command, "--instance", str(path), "--mapping",
                      "XY", "--subset", "S", "--site-function", "g", *extra)
    assert status == EXIT_INPUT
    assert out == {"error": "input", "message":
                   "site function 'g' is not indexed by the coupling's domain"}


def test_lip_extend_sites_off_the_metric_points_are_input_errors(
        capsys, tmp_path, fixture_dir):
    raw = json.loads((fixture_dir / "line3.json").read_text())
    raw["ground_sets"]["Z"] = ["z"]
    raw["subsets"]["Z1"] = {"parent": "Z", "members": ["z"]}
    raw["functions"]["fz"] = {"index": "Z", "values": [0.0]}
    path = tmp_path / "line3z.json"
    path.write_text(json.dumps(raw))
    lip = ["lip-extend", "--instance", str(path), "--mapping", "I_S", "--min"]
    status, out = run(capsys, *lip, "--subset", "Z1", "--site-function", "f")
    assert (status, out["message"]) == (
        EXIT_INPUT, "subset 'Z1' does not lie in the coupling's domain")
    status, out = run(capsys, *lip, "--subset", "S", "--site-function", "fz")
    assert (status, out["message"]) == (
        EXIT_INPUT, "site function 'fz' is not indexed by the coupling's domain")


def _side_rule_document(metric: bool) -> dict:
    """X = {p, q} and Y = {a, b}, with one item per option on the
    coupling's sides (mapping M, subset S, function f) and one off them
    (mapping YX, subset T and function g on Y), and a function z on
    neither side, on Z = {r}.  Plain, the coupling is 0 on X x Y and
    M = {p -> a}; with ``metric`` it is c = -d on X x X and M = {p -> p}."""
    target = "X" if metric else "Y"
    coupling = ({"metric": {"points": "X", "distances": [[0.0, 1.0],
                                                         [1.0, 0.0]]},
                 "negate": True} if metric else
                {"domain": "X", "codomain": "Y",
                 "values": [[0.0, 0.0], [0.0, 0.0]]})
    return {"schema_version": "1",
            "ground_sets": {"X": ["p", "q"], "Y": ["a", "b"], "Z": ["r"]},
            "coupling": coupling,
            "functions": {"f": {"index": "X", "values": [0.0, 0.0]},
                          "g": {"index": "Y", "values": [0.0, 0.0]},
                          "z": {"index": "Z", "values": [0.0]}},
            "mappings": {
                "M": {"source": "X", "target": target,
                      "pairs": [["p", "p" if metric else "a"]]},
                "YX": {"source": "Y", "target": "X", "pairs": [["a", "p"]]}},
            "subsets": {"S": {"parent": "X", "members": ["p"]},
                        "T": {"parent": "Y", "members": ["a"]}}}


#: Each command and the item options it reads; ``transform`` reads a
#: function on either side, so its wrong side is neither (``_OFF_BOTH``).
_ITEM_OPTIONS = [
    ("transform", ("--function",)),
    ("convexify", ("--function",)),
    ("subdiff", ("--function",)),
    ("check-monotone", ("--mapping",)),
    ("rockafellar", ("--mapping", "--subset")),
    ("alpha", ("--mapping", "--subset", "--site-function")),
    ("gamma", ("--mapping", "--subset", "--site-function")),
    ("member", ("--mapping", "--subset", "--site-function", "--function")),
    ("lip-extend", ("--mapping", "--subset", "--site-function")),
    ("fitzpatrick", ("--mapping",)),
    ("verify", ("--mapping",)),
]
_ON_SIDE = {"--mapping": "M", "--subset": "S", "--site-function": "f",
            "--function": "f"}
_OFF_SIDE = {
    "--mapping": ("YX", "mapping 'YX' does not run from the coupling's "
                        "domain to its codomain"),
    "--subset": ("T", "subset 'T' does not lie in the coupling's domain"),
    "--site-function": ("g", "site function 'g' is not indexed by the "
                             "coupling's domain"),
    "--function": ("g", "function 'g' is not indexed by the coupling's "
                        "domain"),
}
_OFF_BOTH = ("z", "function 'z' is indexed by neither coupling side")


@pytest.mark.parametrize("command,options,off", [
    pytest.param(command, options, off, id=f"{command}{off}")
    for command, options in _ITEM_OPTIONS for off in options])
def test_every_item_off_its_side_is_an_input_error(capsys, tmp_path, command,
                                                   options, off):
    # convexify, subdiff and member --function used to read a function on
    # Y and fail in the library, a domain error (exit 1)
    metric = command == "lip-extend"
    path = tmp_path / "sides.json"
    path.write_text(json.dumps(_side_rule_document(metric)))

    def request(items):
        named = [a for option in options for a in (option, items[option])]
        return run(capsys, command, "--instance", str(path),
                   *["--min"] * metric, *named)

    assert request(_ON_SIDE)[0] == EXIT_OK
    name, message = _OFF_BOTH if command == "transform" else _OFF_SIDE[off]
    assert request({**_ON_SIDE, off: name}) == (
        EXIT_INPUT, {"error": "input", "message": message})
