"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench_cmd(workload, trace, root=HERE):
    return [sys.executable, str(root / "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--tiny"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = subprocess.run(bench_cmd(workload, trace), cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    table = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in table}
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())
    detail = json.loads(lines[-2])
    assert detail["setup_s"]["samples"] == bench.SETUP_SAMPLES
    assert all(n == 1 for n in detail["env"]["blas_threads"].values())


def converged_flow(**changes):
    flow = {"reason": "gradient", "fit_radius": 1.0,
            "circle_deviation": 1e-6, "grad_drop": 1e4}
    flow.update(changes)
    return {"flow": flow}


def record(ledger, tmp_path, key, report, rc=0):
    op = workloads.Op(key, "flow", "unused.cfg", str(tmp_path),
                      workloads.check_flow)
    path = tmp_path / "report.json"
    path.write_text(report if isinstance(report, str) else json.dumps(report))
    return ledger.record(op, rc, path)[0]


def test_converged_flow_passes(tmp_path):
    ledger = bench.Ledger(cli=None)
    assert record(ledger, tmp_path, "a", converged_flow())
    assert (ledger.attempted, ledger.failed, ledger.wrong) == (1, 0, 0)


def test_step_collapse_counts_as_failure(tmp_path):
    ledger = bench.Ledger(cli=None)
    assert not record(ledger, tmp_path, "a",
                      converged_flow(reason="step_collapse"))
    assert not record(ledger, tmp_path, "b", None, rc=3)
    assert (ledger.attempted, ledger.failed) == (2, 2)
    # the program said it did not converge: a failure, not a wrong result
    assert ledger.wrong == 0


def test_wrong_circle_is_a_wrong_result(tmp_path):
    ledger = bench.Ledger(cli=None)
    assert not record(ledger, tmp_path, "a", converged_flow(fit_radius=0.9))
    assert (ledger.failed, ledger.wrong) == (1, 1)


def test_changed_digest_counts_as_failure(tmp_path):
    ledger = bench.Ledger(cli=None)
    text = json.dumps(converged_flow())
    assert record(ledger, tmp_path, "a", text)
    assert record(ledger, tmp_path, "a", text)
    assert not record(ledger, tmp_path, "a", text + "\n")
    assert ledger.failures == {"digest": 1}
    assert (ledger.failed, ledger.wrong) == (1, 1)


def test_same_seed_same_inputs_and_other_seed_other_inputs(tmp_path):
    for name, build in workloads.WORKLOADS.items():
        first = build(5, str(tmp_path)).files
        assert build(5, str(tmp_path)).files == first, name
        assert build(6, str(tmp_path)).files != first, name


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(bench_cmd("hessian_routes", 0, tmp_path / "perfbench"),
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
