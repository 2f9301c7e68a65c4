import json
import multiprocessing
import subprocess
import sys
from pathlib import Path

import pytest

from maltsev import checker, save_algebra
from maltsev.cli import main
from maltsev.identities import MALTSEV_SUITE_IDS

from .support import package_env


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------- list

def test_list_mentions_catalog_and_identities(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    assert "m7" in out
    assert "sagle-yamaguti" in out


def test_list_json_records(capsys):
    code, out, _ = run(capsys, "list", "--json")
    assert code == 0
    payload = json.loads(out)
    by_id = {rec["id"]: rec for rec in payload["identities"]}
    assert set(by_id) == {
        "anticommutativity", "ternary-antisymmetry", "glts-c", "glts-d",
        "sagle-yamaguti", "glts-f", "yamagutian-antisymmetry",
        "yamagutian-constraint", "derivation", "reductivity",
        "hidden-assoc-operator", "ternary-derivation", "maltsev", "jacobi"}
    rec = by_id["glts-f"]
    assert rec["arity"] == 5
    assert rec["multiplicities"] == [1, 1, 1, 1, 1]
    assert rec["formula"].startswith("[x,y,[z,w,v]]")
    assert by_id["jacobi"]["in_all"] is False
    assert any(a["name"] == "m7" for a in payload["algebras"])


# -------------------------------------------------------------------- check

def test_check_so3_all_identities_pass(capsys):
    code, out, _ = run(capsys, "check", "so3", "--identity", "all")
    assert code == 0
    assert out.count("holds") == len(MALTSEV_SUITE_IDS)


def test_check_failure_prints_counterexample_and_exits_1(capsys):
    code, out, _ = run(capsys, "check", "nc3", "--identity", "sagle-yamaguti")
    assert code == 1
    assert "FAILS" in out
    assert "counterexample" in out
    assert "x = e1" in out


def test_check_prints_an_operator_counterexample_as_matrix_rows(capsys):
    code, out, _ = run(capsys, "check", "nc3", "--identity", "reductivity")
    assert code == 1
    assert out.splitlines() == [
        "reductivity on nc3: FAILS (4 substitutions)",
        "  counterexample: x = e1, y = e2, z = e1",
        "  left:",
        "    [0, 0, -2]",
        "    [0, 0, -1]",
        "    [0, 0, 0]",
        "  right:",
        "    [0, 0, 0]",
        "    [0, 0, 0]",
        "    [0, 0, 0]",
    ]


def test_check_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "check", "missing.alg.json")
    assert code == 2
    assert "error:" in err


def test_check_unknown_identity_exits_2(capsys):
    code, _, err = run(capsys, "check", "so3", "--identity", "not-an-identity")
    assert code == 2
    assert "unknown identity" in err


def test_check_unknown_algebra_exits_2(capsys):
    code, _, err = run(capsys, "check", "so9")
    assert code == 2
    assert "unknown builtin algebra" in err


def test_check_usage_error_exits_2(capsys):
    assert main(["check"]) == 2
    capsys.readouterr()


def test_check_loads_algebra_files(tmp_path, capsys, so3):
    path = tmp_path / "mine.alg.json"
    save_algebra(so3, path)
    code, out, _ = run(capsys, "check", str(path), "--identity", "jacobi")
    assert code == 0
    assert "jacobi on so3: holds" in out


def test_check_dsl_file(tmp_path, capsys):
    ident_file = tmp_path / "identities.txt"
    ident_file.write_text(
        "# anticommutativity, which nc3 satisfies\n"
        "[x,y] + [y,x] = 0\n"
        "[x,y] = 0\n",
        encoding="utf-8")
    code, out, _ = run(capsys, "check", "nc3", "--dsl", str(ident_file))
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("[x,y] + [y,x] = 0 on nc3: holds")
    assert "[x,y] = 0 on nc3: FAILS" in out


def test_check_dsl_syntax_error_exits_2(tmp_path, capsys):
    ident_file = tmp_path / "bad.txt"
    ident_file.write_text("[x,y = 0\n", encoding="utf-8")
    code, _, err = run(capsys, "check", "nc3", "--dsl", str(ident_file))
    assert code == 2
    assert "line 1" in err


def test_check_deeply_nested_dsl_exits_2_without_traceback(tmp_path):
    ident_file = tmp_path / "deep.txt"
    ident_file.write_text("[x," * 400 + "y" + "]" * 400 + " = 0\n", encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "maltsev", "check", "so3",
                           "--dsl", str(ident_file)],
                          capture_output=True, text=True, env=package_env())
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "line 1" in proc.stderr and "nested brackets" in proc.stderr


def test_check_ambiguous_algebra_file_exits_2_without_traceback(tmp_path):
    path = tmp_path / "ambiguous.alg.json"
    path.write_text('{"name": "amb", "dim": 2, "basis": ["e1", "e2"], "brackets": '
                    '[{"i": 0, "j": 1, "result": {"1": "1", "1": "2"}}]}', encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "maltsev", "check", str(path),
                           "--identity", "jacobi"],
                          capture_output=True, text=True, env=package_env())
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "duplicate key '1'" in proc.stderr


_BASIS3 = {"name": "bad", "dim": 3, "basis": ["e1", "e2", "e3"]}


@pytest.mark.parametrize("data,location", [
    ([], "top level: expected an object, got list"),
    ({**_BASIS3, "dim": 0}, "dim: expected a positive integer"),
    ({**_BASIS3, "basis": ["e1", "e2"]}, "basis: expected a list of 3 labels"),
    ({**_BASIS3, "basis": ["e1", "e1", "e2"]}, "basis: labels not distinct"),
    ({**_BASIS3, "brackets": {}}, "brackets: expected a list"),
    ({**_BASIS3, "brackets": [[0, 1]]}, "brackets[0]: expected an object"),
    ({**_BASIS3, "brackets": [{"i": 0, "j": 3, "result": {}}]},
     "brackets[0]: indices (0, 3) out of range for dim 3"),
    ({**_BASIS3, "brackets": [{"i": 0, "j": 1, "result": ["1"]}]},
     "brackets[0].result: expected an object"),
    ({**_BASIS3, "brackets": [{"i": 0, "j": 1, "result": {"2": 1}}]},
     "brackets[0].result['2']: expected a rational string"),
], ids=["top-level", "dim", "basis-length", "basis-repeated", "brackets", "entry",
        "indices", "result", "value"])
def test_check_malformed_algebra_file_exits_2_with_its_location(tmp_path, capsys, data,
                                                                location):
    path = tmp_path / "bad.alg.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(capsys, "check", str(path), "--identity", "jacobi")
    assert code == 2
    assert out == ""
    assert location in err
    assert "Traceback" not in err


def test_check_non_ascii_abelian_dimension_exits_2_without_traceback():
    proc = subprocess.run([sys.executable, "-m", "maltsev", "check", "abelian(\u0663)"],
                          capture_output=True, text=True, encoding="utf-8", env=package_env())
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "unknown builtin algebra 'abelian(\u0663)'" in proc.stderr


def test_check_empty_dsl_file_exits_2(tmp_path, capsys):
    ident_file = tmp_path / "empty.txt"
    ident_file.write_text("# nothing here\n", encoding="utf-8")
    code, _, err = run(capsys, "check", "nc3", "--dsl", str(ident_file))
    assert code == 2
    assert "no identities selected" in err


def test_check_invalid_worker_count_exits_2(capsys):
    code = main(["check", "so3", "--identity", "jacobi", "--workers", "0"])
    capsys.readouterr()
    assert code == 2


@pytest.fixture
def started_pools(monkeypatch) -> list:
    """Every real process pool the checker starts from here on."""
    pools = []

    class RecordingPool(checker.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)

    monkeypatch.setattr(checker, "ProcessPoolExecutor", RecordingPool)
    return pools


@pytest.mark.parametrize("code,identities,dsl_text", [
    (0, ("ternary-antisymmetry", "glts-c"), None),
    (1, ("jacobi",), None),  # a violation cancels the chunks after it
    (2, ("ternary-antisymmetry",), "[x,y = 0\n"),  # parsed after the builtin
])
def test_no_worker_outlives_a_pooled_command(started_pools, tmp_path, capsys,
                                             code, identities, dsl_text):
    argv = ["check", "m7", *(a for i in identities for a in ("--identity", i)),
            "--workers", "2"]
    if dsl_text is not None:
        (tmp_path / "bad.txt").write_text(dsl_text, encoding="utf-8")
        argv += ["--dsl", str(tmp_path / "bad.txt")]
    got, _, err = run(capsys, *argv)
    assert got == code
    assert "Traceback" not in err
    assert len(started_pools) == 1
    assert multiprocessing.active_children() == []


def test_check_json_and_text_verdicts_agree(capsys):
    code_t, out_t, _ = run(capsys, "check", "nc3", "--identity", "maltsev",
                           "--identity", "anticommutativity")
    code_j, out_j, _ = run(capsys, "check", "nc3", "--identity", "maltsev",
                           "--identity", "anticommutativity", "--json")
    assert code_t == code_j == 1
    reports = json.loads(out_j)
    # sorted identity order in both modes
    assert [r["identity"] for r in reports] == ["anticommutativity", "maltsev"]
    text_verdicts = [line.split(": ")[1].split(" ")[0]
                     for line in out_t.splitlines() if " on nc3: " in line]
    assert text_verdicts == ["holds", "FAILS"]
    assert [r["holds"] for r in reports] == [True, False]


def test_check_json_report_shape(capsys):
    code, out, _ = run(capsys, "check", "nc3", "--identity", "maltsev", "--json",
                       "--exhaustive")
    assert code == 1
    (report,) = json.loads(out)
    assert report["algebra"] == "nc3"
    assert report["holds"] is False
    assert report["substitutions_checked"] == 54
    assert report["violations"] == 21
    ce = report["counterexample"]
    assert ce["substitution"] == [
        {"var": "x", "coords": ["1", "0", "0"]},
        {"var": "y", "coords": ["0", "1", "0"]},
        {"var": "z", "coords": ["0", "0", "1"]},
    ]
    assert ce["left"] == {"kind": "vector", "coords": ["0", "0", "1"]}
    assert ce["right"] == {"kind": "vector", "coords": ["0", "-1", "-1"]}


def test_check_m7_all_passes(capsys):
    # the full Mal'tsev suite on the octonion-derived algebra
    code, out, _ = run(capsys, "check", "m7", "--identity", "all", "--workers", "4")
    assert code == 0
    assert out.count("holds") == len(MALTSEV_SUITE_IDS)


# -------------------------------------------------------------------- table

def test_table_so3_binary(capsys):
    code, out, _ = run(capsys, "table", "so3")
    assert code == 0
    assert out.splitlines() == [
        "[e1, e2] = e3",
        "[e1, e3] = -e2",
        "[e2, e3] = e1",
    ]


def test_table_so3_ternary_contains_derived_entry(capsys):
    code, out, _ = run(capsys, "table", "so3", "--ternary")
    assert code == 0
    assert "[e1, e2, e1] = 2*e2" in out.splitlines()
    assert len(out.splitlines()) == 27


def test_table_abelian_ternary_all_zero(capsys):
    code, out, _ = run(capsys, "table", "abelian(2)", "--ternary")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 8
    assert all(line.endswith("= 0") for line in lines)


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "sl2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["algebra"] == "sl2"
    assert payload["kind"] == "binary"
    entries = {tuple(e["args"]): e["coords"] for e in payload["entries"]}
    assert entries[("h", "e")] == ["0", "2", "0"]


def test_table_bad_source_exits_2(capsys):
    code, _, err = run(capsys, "table", "nope")
    assert code == 2
    assert "error:" in err


# ------------------------------------------------------------------ scripts

def test_equivalence_sweep_script_runs():
    script = Path(__file__).resolve().parent.parent / "scripts" / "equivalence_sweep.py"
    proc = subprocess.run([sys.executable, str(script), "--count", "3"],
                          capture_output=True, text=True, env=package_env())
    assert proc.returncode == 0, proc.stderr
    assert "8 algebras checked (catalog 5 + 3 random, seed 20260809)" in proc.stdout.splitlines()
    assert "verdicts disagree on 0" in proc.stdout
