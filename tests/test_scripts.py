import importlib.util
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import scalar_reference

from crossconn import (
    ReesSemigroup,
    SandwichMatrix,
    builtin,
    identity_matrix,
    kernel,
    oracle,
    pair_arrays,
)
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
    assert len(scalar_reference.u_gamma(matrix)) == len(scalar_reference.u_delta(matrix)) == 480


def test_run_verification_large_battery_has_the_generic_2048_rung():
    # the generic rung of bench.py's ladder, which the identity ladder hides
    battery = dict(_load_script("run_verification").fixture_battery(7, include_large=True))
    rung = dict(_load_script("bench").rungs(include_large=False))["Z2 32x32 generic"]
    assert battery["Z2 32x32 generic"] == rung


def test_run_verification_large_battery_ends_with_the_generic_4096_and_s4_rungs():
    # bench.py's generic 4096 rung, on which each U set holds all 4096
    # cones, so phi reads U tables of full size, and after it the largest,
    # run last: bench.py's generic matrix over S4, 16x16, 6,144 elements
    # over a non-abelian group
    script, bench = _load_script("run_verification"), _load_script("bench")
    rung = dict(bench.rungs(include_large=True))["Z4 32x32 generic"]
    s4 = bench.generic_matrix(builtin("symmetric", 4), 16)
    assert script.large_fixtures()[-2:] == [("Z4 32x32 generic", rung), ("S4 16x16 generic", s4)]
    G = s4.group
    assert G.order * s4.rows * s4.cols == 6144
    assert any(G.mul(a, b) != G.mul(b, a) for a in G.elements() for b in G.elements())


def test_run_verification_runs_rbg_on_the_identity_fixtures():
    # rbg_suite joins full_suite exactly on the constant-identity matrices,
    # the 480-element M[S5; 2, 2], right after the generic one, the
    # 2048-element M[Z2; 32, 32] and the 4096-element M[Z4; 32, 32] of the
    # large battery among them: S5 is non-abelian, so a left/right swap in
    # rbg's delta half shows there.  Every fixture runs full_suite first and
    # T_R's tr_suite second.
    script = _load_script("run_verification")
    battery = script.fixture_battery(7, include_large=True)
    with_rbg = {name for name, matrix in battery if rbg_suite in script.suites(matrix)}
    assert {"klein identity 2x2", "Z2 32x32 identity", "Z4 32x32 identity"} <= with_rbg
    names = [name for name, _ in script.large_fixtures()]
    assert names[names.index("S5 2x2 generic") + 1] == "S5 2x2 identity"
    s5 = dict(battery)["S5 2x2 identity"]
    assert s5 == identity_matrix(builtin("symmetric", 5), 2, 2)
    large = dict(battery)["Z4 32x32 identity"]
    assert large.group.order * large.rows * large.cols == 4096
    for name, matrix in battery:
        G = matrix.group
        identity = all(v == G.identity for row in matrix.array.tolist() for v in row)
        assert (name in with_rbg) == identity, name
        assert script.suites(matrix)[:2] == [full_suite, script.tr_suite]


def test_run_verification_checks_t_r_as_t_l_over_the_opposite_group(monkeypatch):
    # T_R(S) is T_L over G^op with |I| objects: its six checks run and pass
    # on S3 2x3, Z3 2x3 and klein 3x2.  mul_L over G, the product on the
    # wrong side for G^op, fails both of T_R's product checks on S3.
    script = _load_script("run_verification")
    s3 = builtin("symmetric", 3)
    for G, n_lambda, n_i in ((s3, 2, 3), (builtin("cyclic", 3), 2, 3), (builtin("klein"), 3, 2)):
        S = ReesSemigroup(identity_matrix(G, n_lambda, n_i))
        checks = script.tr_suite(S)
        assert len(checks) == 6 and all(c.passed for c in checks), checks
    monkeypatch.setattr(kernel, "mul_L", scalar_reference.left_scaled_mul_L)
    by_name = {c.name: c for c in script.tr_suite(ReesSemigroup(identity_matrix(s3, 2, 3)))}
    assert by_name["category.cone_product_agreement"].passed is False
    assert by_name["cones.semidirect_law"].passed is False


def test_bench_measures_the_smallest_rung():
    bench = _load_script("bench")
    name, matrix = bench.rungs(include_large=False)[0]
    rung = bench.measure(name, matrix, runs=2)
    assert rung["size"] == 8 and rung["peak_rss_mb"] > 0
    # the host's speed, timed on a fixed probe after the rung's runs
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
    assert list(parts) == [
        "green_via_ideals_s",
        "ideal_rows_s",
        "associativity_witness_s",
        "generators",
    ]
    assert min(parts[k] for k in list(parts)[:3]) >= 0
    # the rung's table in kernel.index_dtype(8), 8 x 8 entries of 2 bytes
    assert rung["table"] == {"dtype": "int16", "nbytes": 128}
    assert rung["pairs_mb"] > 0
    # the U-Gamma and U-Delta tables, timed inside connections.pair_arrays
    assert list(rung)[list(rung).index("pairs_mb") + 1] == "cone_tables_s"
    assert rung["cone_tables_s"] > 0
    # start-up: fresh interpreters time `import crossconn.cli`, which loads
    # none of the modules that only some commands run
    start = bench.startup(runs=3)
    assert start["runs"] == 3 and start["host_probe_ms"] > 0
    times = start["import_cli_ms"]
    assert 0 < times["q1"] <= times["median"] <= times["q3"]
    modules = ["checks", "cli", "errors", "groups", "kernel", "oracle", "rees"]
    assert start["modules"] == [["crossconn", *(f"crossconn.{m}" for m in modules)]]


def test_bench_pairs_mb_is_the_u_tables_and_little_else():
    # What pair_arrays holds when it returns, on the generic M[Z2; 16, 16],
    # whose U-Gamma and U-Delta hold all 512 cones: the two U tables, and
    # less than one more (n, n) table beside them.
    bench = _load_script("bench")
    S = bench._semigroup(bench.generic_matrix(builtin("cyclic", 2), 16))
    linked = pair_arrays(S)
    assert len(linked.u_gamma.classes) == len(linked.u_delta.classes) == S.size == 512
    core = linked.u_gamma.table.nbytes + linked.u_delta.table.nbytes
    held = bench.pairs_mb(S) * 2**20
    assert core <= held < core + S.table().nbytes


def test_run_verification_prints_the_peak_rss_of_each_large_fixture(monkeypatch, capsys):
    # With --include-large each line of a large fixture, one per suite,
    # ends with the process's peak RSS, so that the CI step logs memory;
    # the small fixtures' lines do not.  A small stand-in keeps the run short.
    script = _load_script("run_verification")
    tiny = SandwichMatrix(builtin("cyclic", 2), [[0, 1]])
    monkeypatch.setattr(script, "large_fixtures", lambda: [("tiny large", tiny)])
    monkeypatch.setattr(sys, "argv", ["run_verification.py", "--seed", "7", "--include-large"])
    assert script.main() == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
    large = [ln for ln in lines if "tiny large" in ln]
    assert len(large) == 2 and all(ln.startswith("PASS") for ln in lines)
    assert "full_suite" in large[0] and "tr_suite" in large[1]
    for line in large:
        assert re.search(r", peak RSS \d+\.\d MB$", line), line
    assert not any("peak RSS" in ln for ln in lines if ln not in large)


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


def test_bench_include_8192_adds_only_the_8192_rungs():
    # The rungs are listed, not measured: each of them takes minutes.
    bench = _load_script("bench")
    large, largest = bench.rungs(include_large=True), bench.rungs(True, include_8192=True)
    added = [rung for rung in largest if rung not in large]
    assert [rung for rung in largest if rung not in added] == large
    assert [name for name, _ in added] == ["Z8 32x32 identity", "Z8 32x32 generic"]
    for _, matrix in added:
        assert matrix.group.order * matrix.rows * matrix.cols == 8192
    assert [name for name, _ in bench.rungs(False, include_8192=True)][-1] == "Z8 32x32 generic"


def test_bench_generic_rungs_skip_rbg_suite():
    # The generic matrix has the identity in its first row and column only,
    # and on a matrix that is not the constant identity rbg_suite does not run.
    bench = _load_script("bench")
    matrix = dict(bench.rungs(include_large=False))["Z2 32x32 generic"]
    entries = matrix.array
    assert (entries[0] == 0).all() and (entries[:, 0] == 0).all() and entries.any()
    rung = bench.measure("S1", SandwichMatrix(builtin("cyclic", 2), [[0, 0], [0, 1]]), runs=1)
    assert "rbg_suite" not in rung["suites"] and rung["suites"]["full_suite"]["failed"] == 0
