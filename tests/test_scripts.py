import importlib.util
import subprocess
import sys
from pathlib import Path

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
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_measures_the_smallest_rung():
    bench = _load_script("bench")
    name, matrix = bench.rungs(include_large=False)[0]
    rung = bench.measure(name, matrix, runs=2)
    assert rung["size"] == 8 and rung["peak_rss_mb"] > 0
    suites = rung["suites"]
    assert list(suites) == [
        "rees_suite",
        "category_suite",
        "cone_suite",
        "crossconn_suite",
        "full_suite",
        "rbg_suite",
    ]
    for summary in suites.values():
        assert 0 <= summary["q1_s"] <= summary["median_s"] <= summary["q3_s"]
        assert summary["failed"] == 0
    parts = ("rees_suite", "category_suite", "cone_suite", "crossconn_suite")
    assert suites["full_suite"]["checks"] == sum(suites[s]["checks"] for s in parts)
    assert suites["full_suite"]["skipped"] == 0


def test_bench_include_large_adds_only_the_4096_rung():
    bench = _load_script("bench")
    ladder, large = bench.rungs(include_large=False), bench.rungs(include_large=True)
    assert large[:-1] == ladder
    name, matrix = large[-1]
    assert name == "Z4 32x32 identity"
    assert matrix.group.order * matrix.rows * matrix.cols == 4096
