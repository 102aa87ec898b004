"""Smoke-size runs of the benchmark.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3

sys.path.insert(0, str(BENCH))
from spans import self_times  # noqa: E402


def run(workload, trace, *extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_unit(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    res = last_json(proc)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in wanted}
    lines = proc.stdout.splitlines()
    for m in wanted:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(
            ln.startswith(m["name"] + " ") and ln.endswith(" " + m["unit"]) for ln in lines
        ), m["name"]

    if trace:
        rec = json.loads((BENCH / "out" / f"{workload}-smoke-seed{SEED}-trace1.json").read_text())
        traced_wall = [p for p in rec["passes"] if p["trace"] == 1][0]["wall_s"]
        own = self_times(rec["spans"])
        assert rec["spans"] and all(v >= 0 for v in own.values())
        assert sum(own.values()) <= traced_wall
        assert res["metrics"]["unattributed.s"]["value"] >= 0


def test_wrong_reference_fails_the_gate(tmp_path):
    ref = json.loads((BENCH / "reference.json").read_text())
    ref["counts"]["3"] += 1
    bad = tmp_path / "reference.json"
    bad.write_text(json.dumps(ref))
    proc = run("count", 0, "--reference", str(bad))
    assert proc.returncode == 1
    res = last_json(proc)
    assert not res["correct"] and res["failed"] > 0
    assert res["metrics"]["ok_frac"]["value"] < 1.0
    assert "wall_s" not in res["metrics"]  # a wrong answer gives no timing


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = run("count", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
