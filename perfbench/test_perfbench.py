"""Self-tests of the benchmark.

    python3 -m pytest perfbench

The baseline test traces the full wide_index fixture and takes about a
minute; the others run the tiny smoke fixtures.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import speed
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def workdir(request) -> Path:
    """A fresh directory under the benchmark's output directory."""
    path = run.OUT_DIR / "selftest" / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def smoke(trace: int) -> dict:
    proc = bench("--workload", "smoke", "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_benchmark_json_matches_the_metrics_the_runner_emits():
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


def test_smoke_emits_every_metric_with_its_unit():
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = smoke(trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        for metric in result["metrics"].values():
            assert isinstance(metric["value"], (int, float))


def test_two_traced_runs_give_identical_call_counts():
    first, second = smoke(1), smoke(1)
    calls = [
        {k: v["value"] for k, v in r["metrics"].items() if k.endswith(".calls")}
        for r in (first, second)
    ]
    assert calls[0] == calls[1]
    assert calls[0]["groups.mul.calls"] > 0


def test_gate_fails_a_wrong_answer():
    outcome = run.Outcome("k", 0, b'{"data": {"order": 8}}', b"", 0.0, 0.0, 0)
    gate = run.Gate({"k": [0, run.data_digest(b'{"data": {"order": 8}}')]})
    gate.check(outcome)
    assert not gate.failures
    for wrong in (
        run.Outcome("k", 2, outcome.stdout, b"", 0.0, 0.0, 0),
        run.Outcome("k", 0, b'{"data": {"order": 9}}', b"", 0.0, 0.0, 0),
        run.Outcome("k", 0, outcome.stdout, b"Traceback (most recent call last):", 0.0, 0.0, 0),
        run.Outcome("k", 0, b'{"data": {"order": 8}, "x": 1}', b"", 0.0, 0.0, 0),
    ):
        before = len(gate.failures)
        gate.check(wrong)
        assert len(gate.failures) == before + 1
    assert gate.attempted == 5


def test_times_are_scaled_to_the_reference_speed():
    half_speed = [2 * speed.REFERENCE_PROBE_S] * 3
    assert speed.at_reference_speed(10.5, 0.5, half_speed) == pytest.approx(5.0)
    slow_then_fast = [4 * speed.REFERENCE_PROBE_S, speed.REFERENCE_PROBE_S]
    assert speed.at_reference_speed(8.0, 0.0, slow_then_fast) == pytest.approx(5.0)


def test_sampler_probes_and_counts_its_own_time():
    sampler = speed.SpeedSampler()
    sampler.start()
    end = time.perf_counter() + 0.3
    while time.perf_counter() < end:
        pass
    sampler.stop()
    assert len(sampler.samples) >= 3
    assert sampler.spent >= sum(sampler.samples) > 0


def test_inputs_depend_only_on_the_seed(workdir):
    for workload in (*workloads.WORKLOADS, workloads.SMOKE):
        a = workloads.generate(workload, 5, workdir / "a")
        b = workloads.generate(workload, 5, workdir / "b")
        assert [i.key for i in a] == [i.key for i in b]
        for name in (workdir / "a").iterdir():
            assert name.read_bytes() == (workdir / "b" / name.name).read_bytes()
        shutil.rmtree(workdir / "a")
        shutil.rmtree(workdir / "b")


def test_relabelled_s3_keeps_the_identity_off_index_zero(workdir):
    for seed in range(workloads.VARIANTS):
        workloads.generate("small_battery", seed, workdir)
        labels, *rows = (workdir / "s3_cayley.csv").read_text().split()
        assert rows[0] != labels  # row 0 is not the identity row


def test_refuses_to_run_without_sources(workdir):
    shutil.copy(run.ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(
        run.BENCH_DIR, workdir / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    start = time.monotonic()
    proc = bench("--workload", "small_battery", "--seed", "1", "--seconds", "1", cwd=workdir)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert time.monotonic() - start < 180


def test_wide_index_trace_reproduces_the_baseline_counts(workdir):
    (inv,) = workloads.generate("wide_index", 0, workdir / "inputs")
    trace = workdir / "trace.json"
    runner = run.Runner(workdir, deadline=time.monotonic() + 170)
    argv = [sys.executable, str(run.BENCH_DIR / "traced_cli.py"), str(trace), "t", *inv.args]
    outcome = runner.run(inv.key, argv)
    assert outcome.code == 0, outcome.stderr
    checks = json.loads(outcome.stdout)["checks"]
    assert len(checks) == 35
    assert sum(c["passed"] is None for c in checks) == 7
    calls = json.loads(trace.read_text())["calls"]
    assert calls["groups.mul"] == 23_748_130
    assert calls["oracle.associativity_witness"] == 5
    assert calls["rees.index_table"] == 2
