#!/usr/bin/env python3
"""Benchmark for the crossconn CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; crossconn is imported from `src/`
(nothing is installed).  The workload's inputs are generated from the
seed (`workloads.py`) and every CLI invocation runs in its own
single-threaded interpreter, one at a time.

With `--trace 0` the benchmark times set-up several times, then runs whole
passes over the workload's invocations while the next pass is expected to
end within `--seconds` (always at least one), and reports the end-to-end
metrics.  Every timed child runs under the speed sampler (`speed.py`), and
its times are reported at the sampler's reference speed, so that a busy
host does not read as a slow program.  With `--trace 1` it runs one
untraced pass and one pass under the tracer (`tracer.py`), whatever
`--seconds` says, and reports the per-layer metrics.  Either way every
invocation goes through the output-correctness gate, and the last line of
stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A full record, with the environment and the gate's findings, goes to
`.perfbench_out/<workload>-seed<N>-trace<T>/result.json`; traced runs
also leave one span file per invocation there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import workloads
from speed import at_reference_speed, mean_speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
GOLDEN_PATH = BENCH_DIR / "golden.json"

SETUP_REPEATS = 21
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "checks_passed": "count",
    "checks_skipped": "count",
    "peak_rss_mb": "MB",
}

# `<layer>.<function>.calls|self_s|s` come from the tracer's counters.
PER_LAYER = {
    "groups.mul.calls": "count",
    "groups.FiniteGroup.self_s": "s",
    "groups.load_cayley_file.calls": "count",
    "rees.mul.calls": "count",
    "rees.index_table.calls": "count",
    "rees.index_table.self_s": "s",
    "rees.load_matrix_file.self_s": "s",
    "oracle.associativity_witness.calls": "count",
    "oracle.associativity_witness.self_s": "s",
    "oracle.GenericSemigroup.self_s": "s",
    "oracle.green_via_ideals.self_s": "s",
    "oracle.is_regular.self_s": "s",
    "oracle.verify_map.self_s": "s",
    "categories.realize_category.self_s": "s",
    "categories.compose_cones.calls": "count",
    "cones.mul_L.calls": "count",
    "cones.mul_R.calls": "count",
    "cones.mul_L.self_s": "s",
    "cones.mul_R.self_s": "s",
    "cones.principal_pair.calls": "count",
    "cones.coset_normalize.calls": "count",
    "cones.coset_normalize.self_s": "s",
    "cones.cone_table.calls": "count",
    "connections.verify_phi.self_s": "s",
    "connections.s_tilde_mul.calls": "count",
    "connections.verify_crossconnection.self_s": "s",
    "connections.gamma_apply.calls": "count",
    "connections.chi.calls": "count",
    **{
        f"verify.{suite}_suite.{kind}": "s"
        for suite in ("rees", "category", "cone", "crossconn")
        for kind in ("s", "self_s")
    },
    "cli.emit.self_s": "s",
    "cli.emit.bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Outcome:
    """One finished child interpreter; `spent` and `samples` come from its speed sampler."""

    key: str
    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    spent: float = 0.0
    samples: list[float] = field(default_factory=list)

    def at_reference_speed(self, seconds: float) -> float:
        if not self.samples:
            raise BenchError(f"{self.key}: no speed samples (exit code {self.code})")
        return at_reference_speed(seconds, self.spent, self.samples)


class Runner:
    """Starts one child at a time and waits for it, within a global deadline."""

    def __init__(self, run_dir: Path, deadline: float):
        self.run_dir = run_dir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.env.update({var: "1" for var in THREAD_VARS})
        self._serial = 0

    def run(self, key: str, argv: list[str]) -> Outcome:
        self._serial += 1
        base = self.run_dir / f"child{self._serial:04d}"
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"out of time before running {key}")
        with open(f"{base}.out", "wb") as out, open(f"{base}.err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            killer = threading.Timer(remaining, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Outcome(
            key,
            proc.returncode,
            Path(f"{base}.out").read_bytes(),
            Path(f"{base}.err").read_bytes(),
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss,
        )

    def run_timed(self, key: str, cli_args) -> Outcome:
        """Run a CLI invocation under the speed sampler (`timed_cli.py`)."""
        path = self.run_dir / f"speed{self._serial + 1:04d}.json"
        argv = [sys.executable, str(BENCH_DIR / "timed_cli.py"), str(path), *cli_args]
        outcome = self.run(key, argv)
        if path.exists():
            speed = json.loads(path.read_text())
            outcome.spent, outcome.samples = speed["spent"], speed["samples"]
        return outcome


def data_digest(report_bytes: bytes) -> str | None:
    """Digest of a report's `data` section, or None when it is not a JSON report."""
    try:
        data = json.loads(report_bytes)["data"]
    except (ValueError, KeyError, TypeError):
        return None
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


class Gate:
    """Output-correctness gate: an invocation fails when any of these holds.

    - its exit code differs from the recorded one;
    - its stderr shows a traceback;
    - its report differs, byte for byte, from an earlier report on the same
      input in this run (the determinism contract);
    - the digest of its `data` section differs from the recorded one.
    """

    def __init__(self, expected: dict[str, list]):
        self.expected = expected
        self.reports: dict[str, bytes] = {}
        self.attempted = 0
        self.failures: list[dict] = []

    def check(self, outcome: Outcome) -> None:
        self.attempted += 1
        problems = []
        recorded = self.expected.get(outcome.key)
        if recorded is None:
            problems.append("no recorded answer for this input")
        else:
            code, digest = recorded
            if outcome.code != code:
                problems.append(f"exit code {outcome.code}, recorded {code}")
            if data_digest(outcome.stdout) != digest:
                problems.append("data section differs from the recorded answer")
        if b"Traceback (most recent call last)" in outcome.stderr:
            problems.append("traceback on stderr")
        first = self.reports.setdefault(outcome.key, outcome.stdout)
        if first != outcome.stdout:
            problems.append("report is not byte-identical to an earlier one on the same input")
        if problems:
            self.failures.append({"key": outcome.key, "problems": problems})


def load_expected(workload: str, seed: int) -> dict[str, list]:
    if not GOLDEN_PATH.exists():
        return {}
    golden = json.loads(GOLDEN_PATH.read_text())
    return golden.get(workload, {}).get(str(workloads.variant_of(seed)), {})


def cli_argv(invocation: workloads.Invocation) -> list[str]:
    return [sys.executable, "-m", "crossconn.cli", *invocation.args]


def run_pass(runner: Runner, gate: Gate, invocations) -> list[Outcome]:
    outcomes = [runner.run_timed(inv.key, inv.args) for inv in invocations]
    for outcome in outcomes:
        gate.check(outcome)
    return outcomes


def count_checks(outcomes: list[Outcome]) -> tuple[int, int, int]:
    """Passed, skipped and failed checks over a pass.

    `iso-check` is left out: its one check is the answer to the query, and
    "no" is a correct answer on some inputs.  The gate already compares it.
    """
    passed = skipped = failed = 0
    for outcome in outcomes:
        try:
            report = json.loads(outcome.stdout)
        except ValueError:
            continue
        if report.get("command") == "iso-check":
            continue
        checks = report.get("checks", [])
        passed += sum(c["passed"] is True for c in checks)
        skipped += sum(c["passed"] is None for c in checks)
        failed += sum(c["passed"] is False for c in checks)
    return passed, skipped, failed


def measure_setup(runner: Runner, invocations, run_dir: Path) -> float:
    """Median over fresh interpreters of the summed per-invocation set-up time.

    Each interpreter's total is taken at reference speed, from its own probes.
    """
    spec = run_dir / "setup_invocations.json"
    spec.write_text(json.dumps([list(inv.args) for inv in invocations]))
    argv = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(spec)]
    totals = []
    for repeat in range(SETUP_REPEATS + 1):
        outcome = runner.run("setup", argv)
        if outcome.code != 0:
            raise BenchError(f"set-up probe failed:\n{outcome.stderr.decode(errors='replace')}")
        probe = json.loads(outcome.stdout)
        if repeat:  # the first run compiles bytecode and warms the file cache
            total = probe["import_s"] * len(invocations) + sum(probe["per_invocation_s"])
            totals.append(at_reference_speed(total, 0.0, probe["samples"]))
    return statistics.median(totals)


def end_to_end(runner, gate, invocations, seconds, run_dir, record) -> dict[str, float]:
    setup_s = measure_setup(runner, invocations, run_dir)
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(runner, gate, invocations))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
    passed, skipped, record["checks_failed"] = count_checks(passes[0])
    record["passes"] = [
        [
            {
                "key": o.key,
                "code": o.code,
                "wall_s": o.wall_s,
                "cpu_s": o.cpu_s,
                "sampler_s": o.spent,
                "speed": mean_speed(o.samples) if o.samples else None,
            }
            for o in p
        ]
        for p in passes
    ]
    return {
        "wall_s": statistics.median(sum(o.at_reference_speed(o.wall_s) for o in p) for p in passes),
        "cpu_s": statistics.median(sum(o.at_reference_speed(o.cpu_s) for o in p) for p in passes),
        "setup_s": setup_s,
        "checks_passed": passed,
        "checks_skipped": skipped,
        "peak_rss_mb": max(o.maxrss_kb for p in passes for o in p) / 1024,
    }


def per_layer(runner, gate, invocations, run_dir, workload, seed) -> dict[str, float]:
    untraced = run_pass(runner, gate, invocations)
    trace_dir = run_dir / "traces"
    trace_dir.mkdir()
    calls: dict[str, float] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    emit_bytes = 0
    traced_wall = 0.0
    for k, inv in enumerate(invocations):
        path = trace_dir / f"{k:02d}-{inv.key.replace('/', '-')}.json"
        trace_id = f"{workload}/{seed}/{inv.key}"
        argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(path), trace_id, *inv.args]
        outcome = runner.run(inv.key, argv)
        gate.check(outcome)
        traced_wall += outcome.wall_s
        if outcome.code not in (0, 2):
            continue
        trace = json.loads(path.read_text())
        for into, part in ((calls, "calls"), (self_s, "self_s"), (total_s, "total_s")):
            for name, value in trace[part].items():
                into[name] = into.get(name, 0) + value
        emit_bytes += trace["emit_bytes"]

    metrics = {}
    for metric in PER_LAYER:
        name, _, kind = metric.rpartition(".")
        if metric == "trace.overhead_ratio":
            metrics[metric] = traced_wall / sum(o.wall_s - o.spent for o in untraced)
        elif metric == "cli.emit.bytes":
            metrics[metric] = emit_bytes
        else:
            source = {"calls": calls, "self_s": self_s, "s": total_s}[kind]
            metrics[metric] = source.get(name, 0)
    return metrics


def environment() -> dict:
    sources = sorted((ROOT / "src" / "crossconn").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "cores": os.cpu_count(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=(*workloads.WORKLOADS, workloads.SMOKE)
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Turn a termination request into SystemExit, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + DEADLINE_S
    try:
        if not (ROOT / "src" / "crossconn" / "cli.py").is_file():
            raise BenchError(f"no crossconn sources under {ROOT / 'src'}")
        run_dir = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        invocations = workloads.generate(
            args.workload, args.seed, (run_dir / "inputs").relative_to(ROOT)
        )
        runner = Runner(run_dir, deadline)
        gate = Gate(load_expected(args.workload, args.seed))
        record: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
        if args.trace:
            values = per_layer(runner, gate, invocations, run_dir, args.workload, args.seed)
            units = PER_LAYER
        else:
            values = end_to_end(runner, gate, invocations, args.seconds, run_dir, record)
            units = END_TO_END
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {
        "correct": not gate.failures,
        "attempted": gate.attempted,
        "failed": len(gate.failures),
        "metrics": metrics,
    }
    record.update(
        result,
        failed_ops_ratio=len(gate.failures) / gate.attempted,
        gate_failures=gate.failures,
        environment=environment(),
    )
    (run_dir / "result.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    for failure in gate.failures:
        print(f"perfbench: {failure['key']}: {'; '.join(failure['problems'])}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
