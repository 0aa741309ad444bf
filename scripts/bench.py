#!/usr/bin/env python3
"""Time the verification suites on a ladder of fixtures; write BENCH_<label>.json.

    PYTHONPATH=src python scripts/bench.py --label L [--include-large]

The ladder is |S| = 8, 64, 480, 512, 1024 and 2048: M[G; n, n] with the
identity matrix over Z2, Z4, S5, Z2, Z4 and Z2, and then the 2048-element
M[Z2; 32, 32] with a generic matrix: first row and first column the
identity, the other entries drawn by random.Random(7).  With the identity
matrix U-Gamma and U-Delta hold |G|*n cones, with the generic one all |S|.
--include-large adds the 4096-element M[Z4; 32, 32] with the identity and
with the generic matrix.  Each fixture is built with the size guard set
to its own size, so it is checked in full.

Each rung runs in a fresh interpreter, one after another, so that its
peak RSS is its own.  There, each of K runs builds the semigroup afresh
and times rees_suite, category_suite, connections.pair_arrays, cone_suite
and crossconn_suite in turn, the last two given the pairs, which is what
full_suite does (the first of them builds the table, and full_suite's time
is their sum), and then rbg_suite on another fresh semigroup, given its
pairs from connections.pair_arrays, whose build its time includes, on
the identity rungs only: rbg_suite checks the identity's connection.  Then
one call each times the table oracle's two largest parts on the rung's
table, oracle.green_via_ideals and oracle.associativity_witness (Light's
test), and counts the generators that Light's test runs over.  Times
are raw wall seconds, in-process.  The file gives, per rung and per suite,
the median and quartiles of the K times and the number of checks, skips
and failures; per rung, the peak RSS, read once, after the first
full_suite and rbg_suite (later runs in the same interpreter creep
upwards without any one command needing more), and the oracle's parts;
and the Python and numpy versions and the CPU count.  Before each
full_suite and rbg_suite the garbage of the run before is collected: S
and S.opposite refer to each other, so a semigroup, and its table with
it, is freed only by the cyclic collector, and when that runs depends on
how many Python objects the run before made.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from crossconn import ReesSemigroup, SandwichMatrix, builtin, identity_matrix, oracle
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
# the same with the generic matrix, after the identity rungs
GENERIC = ("cyclic", 2, 32)
LARGE_GENERIC = ("cyclic", 4, 32)
RUNS = 5  # timed runs per rung


def generic_matrix(group, n: int) -> SandwichMatrix:
    """The n x n matrix with first row and first column the identity and the
    other entries drawn by random.Random(7), row by row."""
    rng, e = random.Random(7), group.identity
    return SandwichMatrix(
        group,
        [[e if lam == 0 or i == 0 else rng.randrange(group.order) for i in range(n)] for lam in range(n)],
    )


def rungs(include_large: bool) -> list[tuple[str, SandwichMatrix]]:
    """(name, matrix) of each rung: the identity ladder smallest first, then
    the generic rungs."""
    identity = LADDER + ((LARGE,) if include_large else ())
    generic = (GENERIC,) + ((LARGE_GENERIC,) if include_large else ())
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


def measure(name: str, matrix: SandwichMatrix, runs: int) -> dict:
    """One rung in this interpreter: every suite timed `runs` times, and the
    interpreter's peak RSS after the first full_suite and rbg_suite.
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
        gc.collect()
        checks["full_suite"] = full_suite()
        times["full_suite"].append(sum(times[n][-1] for n in FULL_SUITE))
        if with_rbg:
            gc.collect()
            seconds, checks["rbg_suite"] = _timed(rbg, _semigroup(matrix))
            times["rbg_suite"].append(seconds)
        if k == 0:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    S = _semigroup(matrix)
    T = S.to_generic()
    return {
        "name": name,
        "size": S.size,
        "peak_rss_mb": round(peak_kb / 1024, 1),
        "suites": {n: _summary(times[n], checks[n]) for n in names},
        "oracle": {
            "green_via_ideals_s": round(_timed(oracle.green_via_ideals, T)[0], 4),
            "associativity_witness_s": round(_timed(oracle.associativity_witness, T.table)[0], 4),
            "generators": len(oracle.generators(T.table)),
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", help="write BENCH_<label>.json at the repository root")
    parser.add_argument("--include-large", action="store_true", help="add the 4096-element rungs")
    parser.add_argument("--rung", help=argparse.SUPPRESS)  # measure one rung, print its JSON
    args = parser.parse_args()

    if args.rung is not None:
        matrix = dict(rungs(include_large=True))[args.rung]
        print(json.dumps(measure(args.rung, matrix, RUNS)))
        return 0
    if not args.label:
        parser.error("--label is required")

    results = []
    for name, _ in rungs(args.include_large):
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
            f"peak RSS {rung['peak_rss_mb']} MB",
            flush=True,
        )
        results.append(rung)

    bench = {
        "label": args.label,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "runs": RUNS,
        "rungs": results,
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(bench, indent=2) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
