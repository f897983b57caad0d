"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run

assert run.load_chaincore()

import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
RUN_PY = str(Path(run.__file__).resolve())


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, RUN_PY, "--workload", workload, "--seed", "3",
            "--seconds", "0", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=170, check=True)
    summary, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return summary, result


def _units(metrics: dict) -> dict:
    return {name: entry["unit"] for name, entry in metrics.items()}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_reports_every_end_to_end_metric(workload):
    summary, result = _run(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_COMMANDS
    assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert summary["failed_ratio"] == {"value": 0.0, "unit": "ratio"}
    assert summary["load"] == "closed loop, 1 client"


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_traced_run_reports_every_per_layer_metric(workload):
    summary, result = _run(workload, trace=1)
    assert result["correct"], summary["failures"]
    assert summary["traced_output_matches"] and summary["trace_missing"] == []
    metrics = result["metrics"]
    assert _units(metrics) == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    # The dual route runs on every pair of sweep_super and never on sweep_sub.
    dual_calls = metrics["setfun.restrict.calls"]["value"]
    if workload == "sweep_sub":
        assert dual_calls == 0
    elif workload == "sweep_super":
        assert dual_calls > 0


def _flip_exit(commands):
    commands[0].expect_exit ^= 1


def _flip_kind(commands):
    # The oracles then find the instance is not of the kind its slot asks for.
    cmd = next(c for c in commands if c.kind)
    cmd.kind = "sub" if cmd.kind == "non" else "non"


@pytest.mark.parametrize("corrupt", [_flip_exit, _flip_kind])
def test_wrong_expectation_counts_as_failed(monkeypatch, corrupt):
    make_batch = workloads.make_batch

    def corrupted(*args, **kwargs):
        commands = make_batch(*args, **kwargs)
        corrupt(commands)
        return commands

    monkeypatch.setattr(workloads, "make_batch", corrupted)
    summary, result = run.end_to_end("queries", seed=5, seconds=0, tiny=True)
    # The warm-up batch is corrupted too, but it is not counted.
    assert result["failed"] == summary["batches"] > 0
    assert not result["correct"]
    assert summary["failed_ratio"]["value"] == result["failed"] / result["attempted"]


def test_absent_target_is_reported_not_fatal():
    from chaincore import cli, measure

    original = measure.verify_sup_representation
    tracer = spans.Tracer(spans.TARGETS + (
        ("gone", "chaincore.measure", "no_such_function"),
        ("gone", "chaincore.measure", "NoSuchClass.method"),
        ("gone", "chaincore.no_such_module", "function"),
    ))
    tracer.install()
    try:
        assert tracer.missing == ["chaincore.measure.no_such_function",
                                  "chaincore.measure.NoSuchClass.method",
                                  "chaincore.no_such_module.function"]
        # One wrapper in every namespace, so identity checks still agree.
        assert measure.verify_sup_representation is not original
        assert cli.verify_sup_representation is measure.verify_sup_representation
    finally:
        tracer.uninstall()
    assert measure.verify_sup_representation is original
    assert cli.verify_sup_representation is original
