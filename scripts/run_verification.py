#!/usr/bin/env python3
"""Run the full verification suite over a battery of fixtures.

Covers the named small fixtures, a batch of seeded random sandwich
matrices, and with --include-large a 512-element fixture over Z2, a
480-element M[S5; 2, 2] with a generic matrix (no two columns differ by a
constant factor, nor two rows, so all 480 cones of U-Gamma and of U-Delta
are distinct, over a non-abelian group), and the 2048-element
M[Z2; 32, 32] and 4096-element M[Z4; 32, 32] with the identity matrix.
Each fixture is built with the size guard set to its own size, so it is
checked in full.  A fixture whose matrix is the constant identity is
also checked by rbg_suite, the rectangular band of groups, given the
pairs of connections.pair_arrays, whose build its time includes.  Exits
nonzero if any check fails.
"""

from __future__ import annotations

import argparse
import random
import time

from crossconn import ReesSemigroup, SandwichMatrix, builtin, identity_matrix
from crossconn.checks import failures
from crossconn.connections import pair_arrays
from crossconn.verify import full_suite, rbg_suite


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
        entries = [[(lam * i) % 2 for i in range(16)] for lam in range(16)]
        fixtures.append(("Z2 16x16 (|S|=512)", SandwichMatrix(z2, entries)))
        s5 = builtin("symmetric", 5)
        e, x = s5.identity, next(g for g in s5.elements() if g != s5.identity)
        fixtures.append(("S5 2x2 generic", SandwichMatrix(s5, [[e, e], [e, x]])))
        fixtures.append(("Z2 32x32 identity", identity_matrix(z2, 32, 32)))
        fixtures.append(("Z4 32x32 identity", identity_matrix(builtin("cyclic", 4), 32, 32)))
    return fixtures


def suites(matrix: SandwichMatrix) -> list:
    """full_suite, and rbg_suite too where the matrix is the constant identity."""
    identity = all(v == matrix.group.identity for row in matrix.entries for v in row)
    return [full_suite, rbg_suite] if identity else [full_suite]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=20260810)
    parser.add_argument("--include-large", action="store_true")
    args = parser.parse_args()

    exit_code = 0
    for name, matrix in fixture_battery(args.seed, args.include_large):
        S = ReesSemigroup(matrix, size_guard=matrix.group.order * matrix.rows * matrix.cols)
        for suite in suites(matrix):
            start = time.perf_counter()
            checks = suite(S) if suite is full_suite else suite(S, pair_arrays(S))
            elapsed = time.perf_counter() - start
            bad = failures(checks)
            skipped = sum(1 for c in checks if c.passed is None)
            status = "PASS" if not bad else "FAIL"
            print(
                f"{status}  {name:24s}  {suite.__name__:10s}  |S|={S.size:<4d} "
                f"{len(checks) - skipped - len(bad)} ok, {skipped} skipped  ({elapsed:.2f}s)"
            )
            for c in bad:
                print(f"      FAIL {c.name}: {c.witness}")
                exit_code = 2
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
