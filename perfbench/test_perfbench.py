"""Self-tests of the benchmark at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def scratch_out(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUT", tmp_path)
    return tmp_path


def _args(workload, trace=0, seed=3):
    return argparse.Namespace(workload=workload, seed=seed, seconds=0.0, trace=trace,
                              size="tiny", setup_only=False)


@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
def test_smoke_tiny(workload):
    result = bench.measure(_args(workload), setup_samples=1)
    assert result["correct"], result["problems"] or [o["error"] for o in result["ops"]]
    assert result["failed"] == 0 and result["attempted"] >= bench.VARIANTS
    e2e = result["end_to_end"]
    for metric in SPEC["end_to_end"]:
        assert e2e[metric["name"]] > 0.0
    assert e2e["failed_frac"] == 0.0
    assert ("err" in e2e) == (workload != "spectrum-2d")


def test_zero_gamma_op_counts_as_failed():
    result = bench.measure(_args("seed-1d-short"), setup_samples=1,
                           zero_gamma_ops={1})
    assert not result["correct"]
    assert result["failed"] == 1
    assert result["end_to_end"]["failed_frac"] == 1 / result["attempted"]
    assert result["ops"][1]["error"] == "exit code 4"


@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
def test_traced_run(workload):
    result = bench.measure(_args(workload, trace=1), setup_samples=1)
    assert result["correct"], result["problems"] or [o["error"] for o in result["ops"]]
    spans = result["tracer"].spans
    assert spans
    tracing.check_nesting(spans)
    assert min(tracing.self_times_ns(spans)) >= 0
    assert all(s.op is not None for s in spans)
    for metric in SPEC["per_layer"]:
        assert metric["name"] in result["per_layer"]
    assert result["per_layer"]["cli.self_s"] > 0.0


def test_nesting_check_rejects_escaping_child():
    parent = tracing.Span(0, "a", 0, 10, None, 0)
    child = tracing.Span(1, "b", 5, 11, 0, 0)
    with pytest.raises(ValueError):
        tracing.check_nesting([parent, child])


def test_counts_must_repeat_across_runs():
    assert bench._check_counts_across_runs("k", {"kolmogorov.steps": 10}) == []
    assert bench._check_counts_across_runs("k", {"kolmogorov.steps": 10}) == []
    assert bench._check_counts_across_runs("k", {"kolmogorov.steps": 11})


def test_tracer_is_removed_after_traced_op():
    from decrem import cli, fredholm, kolmogorov

    originals = (cli.main, fredholm._march, kolmogorov.build_stencil)
    bench.measure(_args("seed-1d-short", trace=1), setup_samples=1)
    assert (cli.main, fredholm._march, kolmogorov.build_stencil) == originals


def _last_line(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_contract_line(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-1d", "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=bench.ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    out = _last_line(proc.stdout)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in out["metrics"].items()
    }


def test_refuses_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "seed-2d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
