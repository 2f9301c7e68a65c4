"""The benchmark's own test: tiny runs of every workload.

Run with ``python3 -m pytest perfbench``.  Each workload runs at its tiny
size, checks its reports and prints every metric BENCHMARK.json names; a
corrupted golden digest or a wrong verdict must count as failed checks.
"""
import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run, workloads

SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _tiny(workload, *, seed=workloads.DEFAULT_SEED, trace=False, golden=None):
    return run.run(workload, seed, 0, trace, size="tiny", golden=golden)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_is_correct_and_reports_every_metric(workload, trace):
    result = _tiny(workload, trace=trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_golden_digest_fails_every_check(workload):
    golden = dict(workloads.GOLDEN)
    golden[(workload, "tiny")] = "0" * 64
    result = _tiny(workload, golden=golden)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


@pytest.mark.parametrize("workload", ["m7-dense-dsl", "equivalence-sweep"])
def test_other_seeds_are_checked_without_digests(workload):
    golden = {key: "0" * 64 for key in workloads.GOLDEN}
    result = _tiny(workload, seed=workloads.DEFAULT_SEED + 1, golden=golden)
    assert result["correct"] and result["failed"] == 0


def test_wrong_verdict_fails_its_check():
    m = workloads.fresh_import()
    inputs = workloads.set_up("m7-dense-dsl", 7, "tiny", m)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert m.cli.main(inputs.argv) == 1
    out = buf.getvalue().encode()
    assert workloads.verify(inputs, 1, out, {})[:2] == (3, 0)
    assert workloads.verify(inputs, 0, out, {})[:2] == (3, 3)  # wrong exit code
    reports = json.loads(out)
    reports[0]["holds"] = False
    assert workloads.verify(inputs, 1, json.dumps(reports).encode(), {})[:2] == (3, 1)


def test_dense_basis_is_seeded_and_dense():
    m7 = workloads.fresh_import().catalog.builtin("m7")
    first = workloads.dense_m7_constants(m7, random.Random(5))
    assert first == workloads.dense_m7_constants(m7, random.Random(5))
    assert first != workloads.dense_m7_constants(m7, random.Random(6))
    values = [c for v in first.values() for c in v]
    assert sum(1 for c in values if c) in workloads.DENSE_NONZEROS
    assert max(map(abs, values)) <= workloads.DENSE_MAX_ABS


def test_traced_counts_repeat_exactly():
    first, second = (_tiny("m7-dense-dsl", trace=True)["metrics"] for _ in range(2))
    counted = [n for n in first if n.endswith(".calls") or n == "checker.subs"]
    assert counted and all(first[n]["value"] == second[n]["value"] for n in counted)
    assert first["checker.pool.chunks"]["value"] > 0
    assert first["dsl.eval.calls"]["value"] > 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "m7-suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
