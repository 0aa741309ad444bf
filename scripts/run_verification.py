#!/usr/bin/env python3
"""Run the full verification suite over a battery of fixtures.

Covers the named small fixtures, a batch of seeded random sandwich
matrices, and with --include-large a 512-element fixture over Z2, a
480-element M[S5; 2, 2] with a generic matrix (no two columns differ by a
constant factor, nor two rows, so all 480 cones of U-Gamma and of U-Delta
are distinct, over a non-abelian group) and with the identity matrix,
where rbg_suite runs over a non-abelian group at a size that spans many
blocks of rows, so that a left/right swap in its delta half would show,
the 2048-element M[Z2; 32, 32]
with the identity matrix and with bench.py's generic matrix (first row
and first column the identity, the rest from random.Random(7)), and the
4096-element M[Z4; 32, 32] with each of the two: with the generic one
each U set holds all 4096 cones, so phi reads U tables of full size.
Last comes the 6144-element M[S4; 16, 16] with bench.py's generic
matrix, over a non-abelian group, where a left/right swap in the delta
half of the pairs would show.
Each fixture is built with the size guard set to its own size, so it is
checked in full.  Each line of a large fixture ends with the process's
peak RSS so far, read after its suite: the large fixtures run after the
small ones, the largest last, so that the CI step logs memory.  A
fixture whose matrix is the constant identity is
also checked by rbg_suite, the rectangular band of groups, given the
pairs of connections.pair_arrays, whose build its time includes.  Every
fixture is also checked by tr_suite: T_R(S), the right cone semigroup,
which is T_L over the opposite group with |I| objects (`verify.tl_suite`),
under the same budget as T_L.  Exits nonzero if any check fails.
"""

from __future__ import annotations

import argparse
import random
import resource
import time

from bench import generic_matrix  # this file's directory is on sys.path when it runs
from crossconn import ReesSemigroup, SandwichMatrix, builtin, identity_matrix
from crossconn.checks import failures
from crossconn.connections import pair_arrays
from crossconn.verify import full_suite, rbg_suite, tl_suite


def random_matrix(group, n_lambda, n_i, rng):
    return SandwichMatrix(
        group,
        [[rng.randrange(group.order) for _ in range(n_i)] for _ in range(n_lambda)],
    )


def fixture_battery(seed: int, include_large: bool):
    z2 = builtin("cyclic", 2)
    z3 = builtin("cyclic", 3)
    s3 = builtin("symmetric", 3)
    klein = builtin("klein")
    rng = random.Random(seed)

    fixtures = [
        ("S1 = M[Z2;2,2]", SandwichMatrix(z2, [[0, 0], [0, 1]])),
        ("Z3 2x2", SandwichMatrix(z3, [[0, 1], [2, 0]])),
        ("S3 2x2", SandwichMatrix(s3, [[0, 3], [1, 0]])),
        ("klein identity 2x2", SandwichMatrix(klein, [[0, 0], [0, 0]])),
        ("Z2 1x3", SandwichMatrix(z2, [[0, 1, 1]])),
        ("Z3 3x1", SandwichMatrix(z3, [[1], [2], [0]])),
    ]
    for k in range(6):
        group = (z2, z3, s3)[k % 3]
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        fixtures.append((f"random #{k}", random_matrix(group, rows, cols, rng)))
    if include_large:
        fixtures.extend(large_fixtures())
    return fixtures


def large_fixtures() -> list:
    """The fixtures --include-large adds, smallest first but for the 480-element ones."""
    z2, z4 = builtin("cyclic", 2), builtin("cyclic", 4)
    s4, s5 = builtin("symmetric", 4), builtin("symmetric", 5)
    e, x = s5.identity, next(g for g in s5.elements() if g != s5.identity)
    entries = [[(lam * i) % 2 for i in range(16)] for lam in range(16)]
    return [
        ("Z2 16x16 (|S|=512)", SandwichMatrix(z2, entries)),
        ("S5 2x2 generic", SandwichMatrix(s5, [[e, e], [e, x]])),
        ("S5 2x2 identity", identity_matrix(s5, 2, 2)),
        ("Z2 32x32 identity", identity_matrix(z2, 32, 32)),
        ("Z2 32x32 generic", generic_matrix(z2, 32)),
        ("Z4 32x32 identity", identity_matrix(z4, 32, 32)),
        ("Z4 32x32 generic", generic_matrix(z4, 32)),
        ("S4 16x16 generic", generic_matrix(s4, 16)),
    ]


def tr_suite(S: ReesSemigroup) -> list:
    """The six checks of T_R(S): T_L over G^op with |I| objects."""
    return tl_suite(S.group.opposite, S.n_i)


def suites(matrix: SandwichMatrix) -> list:
    """full_suite and tr_suite, and rbg_suite too where the matrix is the
    constant identity."""
    identity = bool((matrix.array == matrix.group.identity).all())
    return [full_suite, tr_suite, rbg_suite] if identity else [full_suite, tr_suite]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=20260810)
    parser.add_argument("--include-large", action="store_true")
    args = parser.parse_args()

    exit_code = 0
    small = fixture_battery(args.seed, include_large=False)
    large = large_fixtures() if args.include_large else []
    for k, (name, matrix) in enumerate(small + large):
        S = ReesSemigroup(matrix, size_guard=matrix.group.order * matrix.rows * matrix.cols)
        for suite in suites(matrix):
            start = time.perf_counter()
            checks = suite(S, pair_arrays(S)) if suite is rbg_suite else suite(S)
            elapsed = time.perf_counter() - start
            bad = failures(checks)
            skipped = sum(1 for c in checks if c.passed is None)
            status = "PASS" if not bad else "FAIL"
            line = (
                f"{status}  {name:24s}  {suite.__name__:10s}  |S|={S.size:<4d} "
                f"{len(checks) - skipped - len(bad)} ok, {skipped} skipped  ({elapsed:.2f}s)"
            )
            if k >= len(small):
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
                line += f", peak RSS {peak_kb / 1024:.1f} MB"
            print(line)
            for c in bad:
                print(f"      FAIL {c.name}: {c.witness}")
                exit_code = 2
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
