"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench

They run a reduced smoke pass of each workload, check that every metric
BENCHMARK.json names is printed with its unit (or marked absent), that the
exact counters repeat between two traced passes, and that a wrong decision
counts as a failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
EXACT_COUNTERS = ("branching.nodes", "branching.rule0_rejects", "branching.rule1",
                  "branching.rule2", "branching.rule3", "branching.accepts",
                  "tcepath.part_size.sum", "tcepath.part_size.max",
                  "twolayer.check.calls", "twolayer.assignment_solves",
                  "kernelize.rules_applied")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def lib():
    module, _ = workloads.load_layeredit(ROOT)
    return module


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_end_to_end_metric(workload):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0.1",
                 "--trace", "0", "--ops", "3")
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    for metric in SPEC["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert got["value"] > 0
        assert f"{metric['name']} " in proc.stdout and f" {metric['unit']}" in proc.stdout
    assert "failed_frac" in proc.stdout and "machine {" in proc.stdout


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_smoke_prints_every_per_layer_metric(workload):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0.1",
                 "--trace", "1", "--ops", "3")
    result = last_json(proc)
    assert result["correct"]
    absent = next((line.split()[1:] for line in proc.stdout.splitlines()
                   if line.strip().startswith("absent:")), [])
    for metric in SPEC["per_layer"]:
        if metric["name"] in absent:
            continue
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"], metric["name"]


def traced_counters(lib, workload) -> dict:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for index in range(4):
            result = workload.run(lib, 0, index, tracer, in_process=True)
            assert result.ok, result.reason
    finally:
        tracer.uninstall()
    metrics, _ = tracer.metrics()
    return {name: metrics[name][0] for name in EXACT_COUNTERS}


@pytest.mark.parametrize("name", ["mlce-planted", "tce-planted", "cli-session"])
def test_exact_counters_repeat(lib, name, tmp_path):
    first = traced_counters(lib, workloads.make_workload(name, 7, tmp_path / "a", ROOT))
    second = traced_counters(lib, workloads.make_workload(name, 7, tmp_path / "b", ROOT))
    assert first == second
    assert any(first.values())


def test_wrong_decision_counts_as_failure(lib):
    entries = workloads.load_pool("tce-planted")[:2]
    flipped = [dict(entries[0], answer="no" if entries[0]["answer"] == "yes" else "yes"),
               entries[1]]
    workload = workloads.PoolWorkload("tce-planted", 3, flipped)
    results = [workload.run(lib, 0, index) for index in range(2)]
    bad = [r for r in results if not r.ok]
    assert len(bad) == 1 and bad[0].reason.startswith("wrong decision")

    report = run.summarize("tce-planted", 3, False, [(0, False, r) for r in results],
                           [1.0], [500.0], {"rss_kb": 1024, "expected": []}, False)
    assert report["failed_frac"] == 0.5 and not report["correct"]


def test_missing_hook_is_absent_not_zero(lib, monkeypatch):
    monkeypatch.setitem(tracing.SPAN_HOOKS, "twolayer.check",
                        ("layeredit.tcepath.no_such_function",))
    monkeypatch.setitem(tracing.SPAN_HOOKS, "kernelize", ("layeredit.no_such_module.kernelize",))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    metrics, absent = tracer.metrics()
    for name in ("twolayer.check.calls", "twolayer.accept_ratio", "twolayer.solves_per_check",
                 "kernelize.calls", "kernelize.rules_applied"):
        assert name in absent and name not in metrics
    assert "core.find_p3.calls" in metrics


def test_tail_percentile_interpolates_and_counts_beyond():
    value, beyond = run.percentile([float(v) for v in range(1, 31)], 67.0)
    assert round(value, 2) == 20.43 and beyond == 10
    assert run.percentile([5.0, 1.0, 3.0], 50.0) == (3.0, 1)


def test_tail_percentile_leaves_ten_beyond_in_a_30_s_run():
    # the fewest ops a 30 s run holds on a 2-vCPU Xeon host: four mlce
    # passes, four tce passes, three cli passes
    fewest = {"mlce-planted": 440, "tce-planted": 112, "cli-session": 30}
    for name, pct in run.TAIL_PCT.items():
        _, beyond = run.percentile([float(v) for v in range(fewest[name])], pct)
        assert beyond >= run.TAIL_BEYOND, name


def test_adjusted_time_scales_by_the_reference():
    assert run.adjusted_ms(workloads.OpResult("a", 30.0, True, "", run.REF_MS * 1.5)) == 20.0
    assert run.adjusted_ms(workloads.OpResult("b", 30.0, False, "timeout")) == 30.0
    assert workloads.reference_ms() > 0


def test_encoding_round_trip():
    edges = [(1, 2), (2, 5), (4, 5)]
    assert workloads.decode_layer(5, workloads.encode_layer(5, edges)) == edges


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "mlce-planted", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout.strip() == ""
