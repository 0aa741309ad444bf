#!/usr/bin/env python3
"""Sweep every 2x2 sandwich matrix over Z2.

For each of the 16 matrices, compare the column-scaling injectivity
criterion with direct enumeration of the principal left cones, and show
which matrices embed M[Z2;2,2;P] into its cone semigroup.
"""

from __future__ import annotations

from itertools import product

from crossconn import (
    ReesSemigroup,
    SandwichMatrix,
    builtin,
    injectivity_criterion,
    kernel,
    pair_cones,
)


def main() -> int:
    z2 = builtin("cyclic", 2)
    disagreements = 0
    embed = 0
    for a, b, c, d in product(range(2), repeat=4):
        matrix = SandwichMatrix(z2, [[a, b], [c, d]])
        S = ReesSemigroup(matrix)
        holds = injectivity_criterion(matrix) is None
        rho, _ = pair_cones(matrix)  # the principal left cone of each element
        injective = len(set(kernel.row_keys(*rho).tolist())) == S.size
        mark = "ok" if holds == injective else "MISMATCH"
        if holds != injective:
            disagreements += 1
        embed += holds
        print(
            f"P=[[{a},{b}],[{c},{d}]]  criterion={str(holds):5s} "
            f"injective={str(injective):5s}  {mark}"
        )
    print(f"\n{embed}/16 matrices embed; criterion and enumeration "
          f"{'agree everywhere' if not disagreements else 'DISAGREE'}")
    return 0 if disagreements == 0 else 2


if __name__ == "__main__":
    raise SystemExit(main())
