"""Seeded inputs for the three benchmark workloads.

Each workload turns `--seed` into input files (sandwich matrices and, for
S3, a relabelled Cayley table) and a list of crossconn CLI invocations
that name only those files and builtin group specs.  The seed picks one
of `VARIANTS` input sets, so that the output-correctness gate can hold a
recorded answer for every input it may be given (`golden.json`).

Why each workload was chosen:

- wide_index: Z2 with a 16x16 matrix (|S| = 512, the default guard).  The
  scalar O(|S|^2) scans over the index sets dominate: the pair table of
  `verify_phi`, `table_matches_product`, the principal (anti)homomorphism
  checks and `realize_category`.  The seed permutes the rows and columns
  of p[lam][i] = lam*i mod 2; variant 0 is the unpermuted matrix.
- big_group: S5 with a random generic 2x2 matrix (|S| = 480).  |G| = 120 makes the
  group-sized loops dominate (connection functor laws, `fully_faithful`,
  `u_subsemigroups`), and G is non-abelian, so a left/right mirror bug
  changes results here and not on Z2.
- small_battery: six small fixtures through every report command plus
  one `rbg` run, each in a fresh interpreter.  Start-up, loading and
  validation dominate, together with the cone and category checks the
  guards skip on the large fixtures.  The report commands read the
  structures out instead of checking them, so moving work from `verify`
  into construction shows up here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, permutations
from pathlib import Path

WORKLOADS = ("wide_index", "big_group", "small_battery")
SMOKE = "smoke"  # tiny fixtures for the benchmark's own tests; not a benchmark workload
VARIANTS = 16
REPORT_COMMANDS = ("build", "green", "cones", "crossconn", "iso-check", "verify")

Z2_NAMES = ("0", "1")
Z3_NAMES = ("0", "1", "2")
KLEIN_NAMES = ("e", "a", "b", "ab")
S3_LABELS = ("a", "b", "c", "d", "e", "f")


@dataclass(frozen=True)
class Invocation:
    """One CLI run: `key` is unique within a workload, `args` follow `crossconn`."""

    key: str
    args: tuple[str, ...]


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def generate(workload: str, seed: int, directory: Path) -> list[Invocation]:
    """Write the inputs for `workload` under `directory`; return the invocations."""
    variant = variant_of(seed)
    rng = random.Random(f"{workload}:{variant}")
    directory.mkdir(parents=True, exist_ok=True)
    if workload == "wide_index":
        return _wide_index(rng, variant, directory)
    if workload == "big_group":
        return _big_group(rng, directory)
    if workload == "small_battery":
        return _small_battery(rng, directory)
    if workload == SMOKE:
        return _smoke(rng, directory)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def _write_matrix(path: Path, rows) -> str:
    path.write_text("".join(",".join(row) + "\n" for row in rows))
    return str(path)


def _random_matrix(rng: random.Random, names, n_lambda: int, n_i: int, mul=None):
    """Uniform random entries; with a multiplication table `mul`, redrawn until generic."""
    while True:
        rows = [[rng.choice(names) for _ in range(n_i)] for _ in range(n_lambda)]
        if mul is None or _generic(rows, mul):
            return rows


def _generic(rows, mul) -> bool:
    """No two columns differ by a constant right factor, no two rows by a left one.

    Then all |S| principal cones are distinct, so the cone sets the checks
    scan (U-Gamma, U-Delta, the principal image) have the same size on
    every seed, and so does the work.
    """
    elements = {a for a, _ in mul}
    columns = list(zip(*rows))
    return not any(
        all(mul[y, g] == x for x, y in zip(a, b))
        for a, b in combinations(columns, 2)
        for g in elements
    ) and not any(
        all(mul[g, y] == x for x, y in zip(a, b))
        for a, b in combinations(rows, 2)
        for g in elements
    )


def _compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The symmetric-group product crossconn uses: apply b, then a."""
    return tuple(a[b[x]] for x in range(len(a)))


def _permutation_table(perms, label_of) -> dict[tuple[str, str], str]:
    return {(label_of[a], label_of[b]): label_of[_compose(a, b)] for a in perms for b in perms}


def _wide_index(rng: random.Random, variant: int, directory: Path) -> list[Invocation]:
    rows, cols = list(range(16)), list(range(16))
    if variant:
        rng.shuffle(rows)
        rng.shuffle(cols)
    entries = [[Z2_NAMES[(lam * i) % 2] for i in cols] for lam in rows]
    path = _write_matrix(directory / "z2_16x16.csv", entries)
    return [Invocation("z2_16x16/verify", ("--group", "cyclic:2", "--matrix", path, "verify"))]


def _big_group(rng: random.Random, directory: Path) -> list[Invocation]:
    perms = sorted(permutations(range(5)))
    label_of = {p: "".join(str(v) for v in p) for p in perms}
    mul = _permutation_table(perms, label_of)
    matrix = _random_matrix(rng, list(label_of.values()), 2, 2, mul)
    path = _write_matrix(directory / "s5_2x2.csv", matrix)
    return [Invocation("s5_2x2/verify", ("--group", "symmetric:5", "--matrix", path, "verify"))]


def _write_s3_table(rng: random.Random, path: Path):
    """Write S3 as a Cayley-table file with shuffled labels and element order.

    The identity is never at index 0.  Returns the labels in file order and
    the multiplication table on labels.
    """
    perms = list(permutations(range(3)))
    identity = perms.index((0, 1, 2))
    order = list(range(len(perms)))
    rng.shuffle(order)
    if order[0] == identity:
        order[0], order[-1] = order[-1], order[0]
    labels = list(S3_LABELS)
    rng.shuffle(labels)
    label_of = {perms[k]: labels[pos] for pos, k in enumerate(order)}
    file_order = [perms[k] for k in order]
    lines = [",".join(label_of[p] for p in file_order)]
    lines += [",".join(label_of[_compose(a, b)] for b in file_order) for a in file_order]
    path.write_text("\n".join(lines) + "\n")
    return [label_of[p] for p in file_order], _permutation_table(perms, label_of)


def _small_battery(rng: random.Random, directory: Path) -> list[Invocation]:
    s3_path = directory / "s3_cayley.csv"
    s3_names, s3_mul = _write_s3_table(rng, s3_path)
    z2_mul = {(a, b): Z2_NAMES[(int(a) + int(b)) % 2] for a in Z2_NAMES for b in Z2_NAMES}
    # The two fixtures whose verify dominates the pass get generic matrices, so
    # the pass does the same work on every seed; the cheap ones stay uniform,
    # and iso-check answers "no" on some of them.
    fixtures = (
        ("s3_3x3", str(s3_path), s3_names, 3, 3, s3_mul),
        ("s3_2x2", str(s3_path), s3_names, 2, 2, None),
        ("z2_6x6", "cyclic:2", Z2_NAMES, 6, 6, z2_mul),
        ("z2_4x4", "cyclic:2", Z2_NAMES, 4, 4, None),
        ("z3_3x3", "cyclic:3", Z3_NAMES, 3, 3, None),
        ("klein_2x2", "klein", KLEIN_NAMES, 2, 2, None),
    )
    invocations = []
    for name, group, names, n_lambda, n_i, mul in fixtures:
        matrix = _write_matrix(
            directory / f"{name}.csv", _random_matrix(rng, names, n_lambda, n_i, mul)
        )
        invocations += [
            Invocation(f"{name}/{command}", ("--group", group, "--matrix", matrix, command))
            for command in REPORT_COMMANDS
        ]
    invocations.append(
        Invocation("s3_rbg_2x3/rbg", ("--group", str(s3_path), "--matrix", "identity:2x3", "rbg"))
    )
    return invocations


def _smoke(rng: random.Random, directory: Path) -> list[Invocation]:
    matrix = _write_matrix(directory / "z2_2x2.csv", _random_matrix(rng, Z2_NAMES, 2, 2))
    return [
        Invocation(f"z2_2x2/{command}", ("--group", "cyclic:2", "--matrix", matrix, command))
        for command in REPORT_COMMANDS
    ] + [Invocation("z2_rbg_1x2/rbg", ("--group", "cyclic:2", "--matrix", "identity:1x2", "rbg"))]
