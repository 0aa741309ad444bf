#!/usr/bin/env python3
"""Time the verification suites on a ladder of fixtures; write BENCH_<label>.json.

    PYTHONPATH=src python scripts/bench.py --label L [--include-large] [--include-8192]

The ladder is |S| = 8, 64, 480, 512, 1024 and 2048: M[G; n, n] with the
identity matrix over Z2, Z4, S5, Z2, Z4 and Z2, and then the 2048-element
M[Z2; 32, 32] with a generic matrix: first row and first column the
identity, the other entries drawn by random.Random(7).  With the identity
matrix U-Gamma and U-Delta hold |G|*n cones, with the generic one all |S|.
--include-large adds the 4096-element M[Z4; 32, 32] with the identity and
with the generic matrix, and --include-8192 the 8192-element M[Z8; 32, 32]
with each, whose int16 table alone is 128 MiB (not run in CI).  Each
fixture is built with the size guard set to its own size, so it is
checked in full.

Each rung runs in a fresh interpreter, one after another, so that its
peak RSS is its own.  There each of K runs builds the semigroup afresh
and times rees_suite, category_suite, connections.pair_arrays, cone_suite
and crossconn_suite in turn, the last two given the pairs, which is what
full_suite does (the first of them builds the table, and full_suite's time
is their sum).  The pairs judge phi and its two components, the
principal checks, once, for whichever suite asks first, so phi's time
lands in cone_suite's column and crossconn_suite reads the judgment.
Then rbg_suite runs on another fresh semigroup, given its
pairs from connections.pair_arrays, whose build its time includes, on
the identity rungs only: rbg_suite checks the identity's connection.  Then
one call each times the table oracle's largest parts on the rung's
table: oracle.green_via_ideals, which builds its own ideal rows,
oracle.ideal_rows, and oracle.associativity_witness (Light's test), which
reads the table alone; and it counts the generators that Light's test
runs over, the dtype and size in bytes of the rung's table, `S.table()`, the memory
that connections.pair_arrays holds when it returns (pairs_mb: what
tracemalloc counts as allocated during the call and still alive), and
the median over K more calls of connections.pair_arrays of the time each
spends in kernel.cone_product_table, building the U-Gamma and U-Delta
tables (cone_tables_s).  Times are raw wall seconds, in-process.  The
file gives, per rung and per suite, the median and quartiles of the K
times and the number of checks, skips and failures; per rung, the probe's median time, the peak RSS, read once, after the first
full_suite and rbg_suite (later runs in the same interpreter creep
upwards without any one command needing more), the oracle's parts, the table's format,
pairs_mb and cone_tables_s;
and the Python and numpy versions and the CPU count.

The probe is a fixed piece of work with no crossconn code (`host_probe`),
timed PROBES times after a rung's runs, so that its arrays stay out of
the rung's peak RSS, and its median recorded: pure-Python dict and
arithmetic work, and a numpy gather of a few MB in a scattered order, the
two kinds of work the suites do.  The host is shared, other tenants slow
it by up to about 1.8x for tens of seconds at a time, and the probe slows
with it, so two BENCH files taken under different load read apart in it
where a code change leaves it alone.

After the ladder, STARTUPS fresh interpreters each time `import
crossconn.cli` and list the crossconn modules it loaded, as every CLI
process pays it: under PYTHONDONTWRITEBYTECODE=1 from a copy of the
imported package's source with no __pycache__, so each compiles the
package from source, as a fresh checkout does.  The file gives the
median and quartiles in milliseconds, the lists of modules loaded, and
host_probe_ms taken just before.  This comes last because a child
process starts with its parent's peak RSS: the probe's arrays in this
process would raise the peak of every rung started after it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

import crossconn
from crossconn import ReesSemigroup, SandwichMatrix, builtin, identity_matrix, kernel, oracle
from crossconn.checks import failures
from crossconn.connections import pair_arrays
from crossconn.verify import category_suite, cone_suite, crossconn_suite, rbg_suite, rees_suite

ROOT = Path(__file__).resolve().parent.parent
# full_suite's parts, in its order; pair_arrays makes no checks
FULL_SUITE = ("rees_suite", "category_suite", "pair_arrays", "cone_suite", "crossconn_suite")
# (group family, order, n) of M[G; n, n] with the identity matrix
LADDER = (
    ("cyclic", 2, 2),
    ("cyclic", 4, 4),
    ("symmetric", 5, 2),
    ("cyclic", 2, 16),
    ("cyclic", 4, 16),
    ("cyclic", 2, 32),
)
LARGE = ("cyclic", 4, 32)
LARGEST = ("cyclic", 8, 32)
# the same with the generic matrix, after the identity rungs, and then
# LARGE and LARGEST with it
GENERIC = ("cyclic", 2, 32)
RUNS = 5  # timed runs per rung
PROBES = 21  # timings of host_probe per rung
GATHER = 1 << 20  # entries of host_probe's gather: 4 MB of uint32
STARTUPS = 21  # fresh interpreters timing `import crossconn.cli`
# json is imported after the timing: crossconn.cli imports it
STARTUP_SCRIPT = """
import sys, time
start = time.perf_counter()
import crossconn.cli
seconds = time.perf_counter() - start
import json
print(json.dumps([seconds, sorted(m for m in sys.modules if m.split(".")[0] == "crossconn")]))
"""


def generic_matrix(group, n: int) -> SandwichMatrix:
    """The n x n matrix with first row and first column the identity and the
    other entries drawn by random.Random(7), row by row."""
    rng, e = random.Random(7), group.identity
    return SandwichMatrix(
        group,
        [[e if lam == 0 or i == 0 else rng.randrange(group.order) for i in range(n)] for lam in range(n)],
    )


def rungs(include_large: bool, include_8192: bool = False) -> list[tuple[str, SandwichMatrix]]:
    """(name, matrix) of each rung: the identity ladder smallest first, then
    the generic rungs."""
    larger = ((LARGE,) if include_large else ()) + ((LARGEST,) if include_8192 else ())
    identity, generic = LADDER + larger, (GENERIC,) + larger
    out = []
    for kind, make, family_rungs in (
        ("identity", lambda G, n: identity_matrix(G, n, n), identity),
        ("generic", generic_matrix, generic),
    ):
        for family, order, n in family_rungs:
            name = f"{'Z' if family == 'cyclic' else 'S'}{order} {n}x{n} {kind}"
            out.append((name, make(builtin(family, order), n)))
    return out


def _is_identity(matrix: SandwichMatrix) -> bool:
    return bool((matrix.array == matrix.group.identity).all())


def _semigroup(matrix: SandwichMatrix) -> ReesSemigroup:
    return ReesSemigroup(matrix, size_guard=matrix.group.order * matrix.rows * matrix.cols)


def _timed(part, *args) -> tuple[float, object]:
    start = time.perf_counter()
    result = part(*args)
    return time.perf_counter() - start, result


def host_probe() -> int:
    """A fixed mix of work: dict updates with tuple keys, calls of a bound
    method on a small table and integer arithmetic, the kinds of work the
    suites' Python parts do, and a gather of GATHER entries in the order of
    a fixed permutation (an odd multiplier modulo GATHER), the kind their
    array parts do."""
    index = (np.arange(GATHER, dtype=np.uint32) * np.uint32(2654435761)) & np.uint32(GATHER - 1)
    table = [[(a * b + a) % 12 for b in range(12)] for a in range(12)]
    row = table.__getitem__
    counts: dict[tuple[int, int], int] = {}
    total = 0
    for a in range(600):
        key = (a & 15, a % 7)
        counts[key] = counts.get(key, 0) + 1
        total += row(a % 12)[a % 11] * (a ^ 0x5A) % 97
    return total + len(counts) + int(index[index][-1])


def _probe_ms() -> float:
    """The median time of PROBES runs of host_probe, in milliseconds."""
    times = [_timed(host_probe)[0] for _ in range(PROBES)]
    return round(statistics.median(times) * 1000, 4)


def pairs_mb(S: ReesSemigroup) -> float:
    """The MB that connections.pair_arrays(S) holds when it returns: what
    tracemalloc counts as allocated during the call and still alive."""
    tracemalloc.start()
    try:
        linked = pair_arrays(S)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del linked
    return round(held / 2**20, 3)


def cone_tables_s(S: ReesSemigroup, runs: int) -> float:
    """The median over `runs` calls of connections.pair_arrays(S) of the time
    each spends in kernel.cone_product_table: the U-Gamma and U-Delta tables."""
    original, spent = kernel.cone_product_table, []

    def timed(*args, **kwargs):
        start = time.perf_counter()
        table = original(*args, **kwargs)
        spent[-1] += time.perf_counter() - start
        return table

    kernel.cone_product_table = timed
    try:
        for _ in range(runs):
            spent.append(0.0)
            pair_arrays(S)
    finally:
        kernel.cone_product_table = original
    return round(statistics.median(spent), 6)


def _summary(times: list[float], checks: list) -> dict:
    q1, median, q3 = (
        statistics.quantiles(times, n=4, method="inclusive") if len(times) > 1 else times * 3
    )
    return {
        "median_s": round(median, 4),
        "q1_s": round(q1, 4),
        "q3_s": round(q3, 4),
        "checks": len(checks),
        "skipped": sum(1 for c in checks if c.passed is None),
        "failed": len(failures(checks)),
    }


def startup(runs: int) -> dict:
    """`import crossconn.cli` timed in `runs` fresh single-threaded
    interpreters without bytecode, and the crossconn modules they loaded."""
    probe_ms = _probe_ms()
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "OPENBLAS_NUM_THREADS": "1"}
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(crossconn.__file__).parent
        shutil.copytree(
            source, Path(tmp) / "crossconn", ignore=shutil.ignore_patterns("__pycache__")
        )
        children = [
            json.loads(
                subprocess.run(
                    [sys.executable, "-c", STARTUP_SCRIPT],
                    env={**env, "PYTHONPATH": tmp},
                    capture_output=True,
                    text=True,
                    check=True,
                ).stdout
            )
            for _ in range(runs)
        ]
    quartiles = statistics.quantiles([s for s, _ in children], n=4, method="inclusive")
    return {
        "import_cli_ms": {k: round(v * 1000, 2) for k, v in zip(("q1", "median", "q3"), quartiles)},
        "runs": runs,
        "modules": [list(m) for m in sorted({tuple(modules) for _, modules in children})],
        "host_probe_ms": probe_ms,
    }


def measure(name: str, matrix: SandwichMatrix, runs: int) -> dict:
    """One rung in this interpreter: every suite timed `runs` times, the
    interpreter's peak RSS after the first full_suite and rbg_suite, and
    then the host's speed on host_probe.
    rbg_suite runs on the constant-identity matrices only."""
    with_rbg = _is_identity(matrix)
    names = [*FULL_SUITE, "full_suite", *(["rbg_suite"] if with_rbg else [])]
    times: dict[str, list[float]] = {n: [] for n in names}
    checks: dict[str, list] = {"pair_arrays": []}

    def run(name: str, part, *args):
        seconds, result = _timed(part, *args)
        times[name].append(seconds)
        if name != "pair_arrays":
            checks[name] = result
        return result

    def full_suite() -> list:
        # as verify.full_suite: the pairs are freed on return, not held into the next run
        S = _semigroup(matrix)
        full = run("rees_suite", rees_suite, S) + run("category_suite", category_suite, S)
        linked = run("pair_arrays", pair_arrays, S)
        return full + run("cone_suite", cone_suite, S, linked) + run(
            "crossconn_suite", crossconn_suite, S, linked
        )

    def rbg(S: ReesSemigroup) -> list:
        return rbg_suite(S, pair_arrays(S))

    for k in range(runs):
        checks["full_suite"] = full_suite()
        times["full_suite"].append(sum(times[n][-1] for n in FULL_SUITE))
        if with_rbg:
            seconds, checks["rbg_suite"] = _timed(rbg, _semigroup(matrix))
            times["rbg_suite"].append(seconds)
        if k == 0:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    probe_ms = _probe_ms()
    S = _semigroup(matrix)
    T = S.to_generic()
    return {
        "name": name,
        "size": S.size,
        "host_probe_ms": probe_ms,
        "peak_rss_mb": round(peak_kb / 1024, 1),
        "table": {"dtype": str(T.table.dtype), "nbytes": T.table.nbytes},
        "pairs_mb": pairs_mb(S),
        "cone_tables_s": cone_tables_s(S, runs),
        "suites": {n: _summary(times[n], checks[n]) for n in names},
        "oracle": {
            "green_via_ideals_s": round(_timed(oracle.green_via_ideals, T)[0], 4),
            "ideal_rows_s": round(_timed(oracle.ideal_rows, T.table)[0], 4),
            "associativity_witness_s": round(_timed(oracle.associativity_witness, T.table)[0], 4),
            "generators": len(oracle.generators(T.table)),
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", help="write BENCH_<label>.json at the repository root")
    parser.add_argument("--include-large", action="store_true", help="add the 4096-element rungs")
    parser.add_argument("--include-8192", action="store_true", help="add the 8192-element rungs")
    parser.add_argument("--rung", help=argparse.SUPPRESS)  # measure one rung, print its JSON
    args = parser.parse_args()

    if args.rung is not None:
        matrix = dict(rungs(include_large=True, include_8192=True))[args.rung]
        print(json.dumps(measure(args.rung, matrix, RUNS)))
        return 0
    if not args.label:
        parser.error("--label is required")

    results = []
    for name, _ in rungs(args.include_large, args.include_8192):
        child = subprocess.run(
            [sys.executable, __file__, "--rung", name],
            capture_output=True,
            text=True,
            check=True,
        )
        rung = json.loads(child.stdout)
        full = rung["suites"]["full_suite"]
        print(
            f"{name:20s} |S|={rung['size']:<5d} full_suite {full['median_s']:.3f}s "
            f"({full['checks'] - full['skipped']} run, {full['skipped']} skipped), "
            f"peak RSS {rung['peak_rss_mb']} MB, pairs {rung['pairs_mb']} MB, "
            f"U tables {rung['cone_tables_s']:.4f}s, "
            f"probe {rung['host_probe_ms']} ms",
            flush=True,
        )
        results.append(rung)
    start = startup(STARTUPS)
    print(
        f"import crossconn.cli {start['import_cli_ms']['median']:.1f} ms "
        f"({len(start['modules'][0])} crossconn modules), probe {start['host_probe_ms']} ms",
        flush=True,
    )

    bench = {
        "label": args.label,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "runs": RUNS,
        "startup": start,
        "rungs": results,
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(bench, indent=2) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
