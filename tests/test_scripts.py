import importlib.util
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import scalar_reference

from crossconn import SandwichMatrix, builtin, connections, oracle
from crossconn.verify import full_suite, rbg_suite

SCRIPTS = Path(__file__).parent.parent / "scripts"


def test_run_verification_script():
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_verification.py"), "--seed", "7"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    lines = [ln for ln in result.stdout.splitlines() if ln.strip()]
    assert lines and all(ln.startswith("PASS") for ln in lines)


def test_z2_matrix_sweep_script():
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "z2_matrix_sweep.py")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "agree everywhere" in result.stdout
    assert result.stdout.count("MISMATCH") == 0


def _load_script(name: str):
    # as when the script runs, its directory is on sys.path for its imports
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    with mock.patch.object(sys, "path", [str(SCRIPTS), *sys.path]):
        spec.loader.exec_module(module)
    return module


def test_run_verification_large_battery_has_a_generic_s5():
    # the large battery's S5 2x2 fixture: non-abelian, 480 elements, and
    # every cone of U-Gamma and of U-Delta distinct
    battery = dict(_load_script("run_verification").fixture_battery(7, include_large=True))
    matrix = battery["S5 2x2 generic"]
    G = matrix.group
    assert G.order * matrix.rows * matrix.cols == 480
    assert any(G.mul(a, b) != G.mul(b, a) for a in G.elements() for b in G.elements())
    conn = connections.CrossConnection(matrix)
    assert len(scalar_reference.u_gamma(conn)) == len(scalar_reference.u_delta(conn)) == 480


def test_run_verification_large_battery_has_the_generic_2048_rung():
    # the generic rung of bench.py's ladder, which the identity ladder hides
    battery = dict(_load_script("run_verification").fixture_battery(7, include_large=True))
    rung = dict(_load_script("bench").rungs(include_large=False))["Z2 32x32 generic"]
    assert battery["Z2 32x32 generic"] == rung


def test_run_verification_runs_rbg_on_the_identity_fixtures():
    # rbg_suite joins full_suite exactly on the constant-identity matrices,
    # the 2048-element M[Z2; 32, 32] and the 4096-element M[Z4; 32, 32] of
    # the large battery among them
    script = _load_script("run_verification")
    battery = script.fixture_battery(7, include_large=True)
    with_rbg = {name for name, matrix in battery if rbg_suite in script.suites(matrix)}
    assert {"klein identity 2x2", "Z2 32x32 identity", "Z4 32x32 identity"} <= with_rbg
    large = dict(battery)["Z4 32x32 identity"]
    assert large.group.order * large.rows * large.cols == 4096
    for name, matrix in battery:
        G = matrix.group
        identity = all(v == G.identity for row in matrix.entries for v in row)
        assert (name in with_rbg) == identity, name
        assert script.suites(matrix)[0] is full_suite


def test_bench_measures_the_smallest_rung():
    bench = _load_script("bench")
    name, matrix = bench.rungs(include_large=False)[0]
    rung = bench.measure(name, matrix, runs=2)
    assert rung["size"] == 8 and rung["peak_rss_mb"] > 0
    # the host's speed, timed on a fixed probe before the rung
    assert rung["host_probe_ms"] > 0
    suites = rung["suites"]
    assert list(suites) == [
        "rees_suite",
        "category_suite",
        "pair_arrays",
        "cone_suite",
        "crossconn_suite",
        "full_suite",
        "rbg_suite",
    ]
    for summary in suites.values():
        assert 0 <= summary["q1_s"] <= summary["median_s"] <= summary["q3_s"]
        assert summary["failed"] == 0
    parts = ("rees_suite", "category_suite", "pair_arrays", "cone_suite", "crossconn_suite")
    assert suites["pair_arrays"]["checks"] == 0
    assert suites["full_suite"]["checks"] == sum(suites[s]["checks"] for s in parts)
    assert suites["full_suite"]["skipped"] == 0
    parts = rung["oracle"]
    assert parts["generators"] == len(oracle.generators(bench._semigroup(matrix).table()))
    assert min(parts["green_via_ideals_s"], parts["associativity_witness_s"]) >= 0
    # the rung's table in kernel.index_dtype(8), 8 x 8 entries of 2 bytes
    assert rung["table"] == {"dtype": "int16", "nbytes": 128}
    # start-up: fresh interpreters time `import crossconn.cli`, which loads
    # none of the modules that only some commands run
    start = bench.startup(runs=3)
    assert start["runs"] == 3 and start["host_probe_ms"] > 0
    times = start["import_cli_ms"]
    assert 0 < times["q1"] <= times["median"] <= times["q3"]
    modules = ["checks", "cli", "errors", "groups", "kernel", "oracle", "rees"]
    assert start["modules"] == [["crossconn", *(f"crossconn.{m}" for m in modules)]]


def test_bench_reads_the_peak_rss_after_the_first_runs(monkeypatch):
    # The peak is read once, after the rung's first full_suite and
    # rbg_suite, not after the last run: a fake peak that grows with every
    # rbg_suite run reads as after one run, however many runs follow.
    bench = _load_script("bench")
    runs, original = [], bench.rbg_suite

    def rbg_suite(*args):
        runs.append(1)
        return original(*args)

    def getrusage(who):
        return SimpleNamespace(ru_maxrss=1024 * len(runs))  # KiB: one MB per run

    monkeypatch.setattr(bench, "rbg_suite", rbg_suite)
    monkeypatch.setattr(bench.resource, "getrusage", getrusage)
    name, matrix = bench.rungs(include_large=False)[0]
    rung = bench.measure(name, matrix, runs=3)
    assert len(runs) == 3
    assert rung["peak_rss_mb"] == 1.0


def test_bench_include_large_adds_only_the_4096_rung():
    bench = _load_script("bench")
    ladder, large = bench.rungs(include_large=False), bench.rungs(include_large=True)
    added = [rung for rung in large if rung not in ladder]
    assert [rung for rung in large if rung not in added] == ladder
    assert [name for name, _ in added] == ["Z4 32x32 identity", "Z4 32x32 generic"]
    for _, matrix in added:
        assert matrix.group.order * matrix.rows * matrix.cols == 4096


def test_bench_generic_rungs_skip_rbg_suite():
    # The generic matrix has the identity in its first row and column only,
    # and on a matrix that is not the constant identity rbg_suite does not run.
    bench = _load_script("bench")
    matrix = dict(bench.rungs(include_large=False))["Z2 32x32 generic"]
    entries = np.array(matrix.entries)
    assert (entries[0] == 0).all() and (entries[:, 0] == 0).all() and entries.any()
    rung = bench.measure("S1", SandwichMatrix(builtin("cyclic", 2), [[0, 0], [0, 1]]), runs=1)
    assert "rbg_suite" not in rung["suites"] and rung["suites"]["full_suite"]["failed"] == 0
