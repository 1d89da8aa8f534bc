import json

import pytest

from abconvex import InstanceError, emit_document, parse_instance
from abconvex.cli import EXIT_DOMAIN, EXIT_INPUT, EXIT_OK, _build_parser, main


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


def test_emit_parse_roundtrip_is_stable(fixture_dir):
    for name in ("two_point.json", "line3.json"):
        text = (fixture_dir / name).read_text()
        once = emit_document(parse_instance(text))
        twice = emit_document(parse_instance(once))
        assert once == twice


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
    raw = json.loads(open(path).read())
    raw["subsets"]["p"] = {"parent": "X", "members": ["-2"]}
    open(path, "w").write(json.dumps(raw))
    status, out = run(capsys, "rockafellar", "--instance", path,
                      "--mapping", "bad", "--subset", "p")
    assert status == EXIT_DOMAIN
    assert out["error"] == "not-cyclically-monotone"
    assert out["witness"]


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


def test_output_flag_and_seeded_determinism(tmp_path, line3_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        status = main(["verify", "--instance", line3_path, "--mapping", "I",
                       "--seed", "42", "--output", str(target)])
        assert status == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    status = main(["verify", "--instance", line3_path, "--mapping", "I",
                   "--seed", "43", "--output", str(a)])
    assert status == EXIT_OK  # a different seed still succeeds


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


BAD_LITERALS = ["true", '"Infinity"', "NaN", "1e999", "1" + "0" * 400]


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
                         ids=["true", "string", "nan", "1e999", "huge-int"])
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
