"""Command-line driver: load a group and a sandwich matrix, build and verify.

Reports are deterministic: the same inputs produce byte-identical output.
Exit codes: 0 all requested checks pass, 1 operational error (bad input,
size guard), 2 at least one check failed.

Each process runs one command, so `run` imports `cones`, `connections` and
`verify` in the branches that use them: `build` and `green` load none of
them, `iso-check` only `cones`, and `categories` comes in with `connections`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import NamedTuple

from .checks import Check, all_passed, verdict
from .errors import CrossconnError, ParseError
from .groups import FiniteGroup, builtin, load_cayley_file
from .rees import (
    DEFAULT_SIZE_GUARD,
    ReesSemigroup,
    SandwichMatrix,
    check_size,
    identity_matrix,
    load_matrix_file,
)

COMMANDS = ("build", "verify", "green", "cones", "crossconn", "iso-check", "rbg")
ENV_SIZE_GUARD = "CROSSCONN_SIZE_GUARD"


class RunConfig(NamedTuple):
    group_spec: str
    matrix_spec: str | None
    command: str
    size_guard: int
    output: str | None
    fmt: str


class _ArgumentParser(argparse.ArgumentParser):
    """Malformed arguments are input errors (exit 1), not argparse's exit 2,
    which would read as a failed check."""

    def error(self, message: str):
        raise ParseError(message)


def parse_args(argv=None) -> RunConfig:
    parser = _ArgumentParser(
        prog="crossconn",
        description="Rees matrix semigroups, their cone semigroups and cross-connections.",
    )
    parser.add_argument(
        "--group",
        default="cyclic:2",
        help="builtin spec (cyclic:N, symmetric:N, klein) or a Cayley table file",
    )
    parser.add_argument(
        "--matrix",
        default=None,
        help="sandwich matrix CSV path, or identity:RxC for the constant-identity matrix",
    )
    parser.add_argument(
        "--size-guard",
        type=int,
        default=None,
        help=f"element guard (default {DEFAULT_SIZE_GUARD}; env {ENV_SIZE_GUARD} overrides)",
    )
    parser.add_argument("--output", default=None, help="write the report here instead of stdout")
    parser.add_argument("--format", dest="fmt", choices=("json", "text"), default="json")
    parser.add_argument("command", choices=COMMANDS)
    args = parser.parse_args(argv)

    if args.size_guard is not None:
        guard = args.size_guard
    elif os.environ.get(ENV_SIZE_GUARD):
        try:
            guard = int(os.environ[ENV_SIZE_GUARD])
        except ValueError:
            raise ParseError(f"{ENV_SIZE_GUARD} must be an integer") from None
    else:
        guard = DEFAULT_SIZE_GUARD
    if guard < 1:
        raise ParseError(f"size guard must be >= 1, got {guard}")

    return RunConfig(args.group, args.matrix, args.command, guard, args.output, args.fmt)


def load_group(spec: str) -> FiniteGroup:
    if spec == "klein":
        return builtin("klein")
    if ":" in spec and not os.path.exists(spec):
        family, _, tail = spec.partition(":")
        try:
            n = int(tail)
        except ValueError:
            raise ParseError(f"bad group spec {spec!r}: expected family:N") from None
        return builtin(family, n)
    return load_cayley_file(spec)


def _identity_dims(spec: str) -> tuple[int, int] | None:
    """(R, C) of an identity:RxC spec, or None for a matrix file."""
    if not spec.startswith("identity:"):
        return None
    rows, sep, cols = spec[len("identity:"):].partition("x")
    if sep:
        with contextlib.suppress(ValueError):
            return int(rows), int(cols)
    raise ParseError(f"bad matrix spec {spec!r}: expected identity:RxC")


def load_matrix(spec: str, group: FiniteGroup) -> SandwichMatrix:
    dims = _identity_dims(spec)
    return load_matrix_file(spec, group) if dims is None else identity_matrix(group, *dims)


def _cone_json(S: ReesSemigroup, c) -> dict:
    return {"tuple": [S.group.names[v] for v in c.values], "vertex": c.vertex}


def _partition_json(S: ReesSemigroup, partition) -> list[list[str]]:
    return [[S.element_label(S.element(k)) for k in cls] for cls in partition]


def _require_matrix(config: RunConfig) -> str:
    if config.matrix_spec is None:
        raise ParseError(f"command {config.command!r} needs --matrix")
    return config.matrix_spec


def run(config: RunConfig) -> tuple[int, dict]:
    """Execute one command; returns (exit_code, report)."""
    group = load_group(config.group_spec)
    report: dict = {
        "command": config.command,
        "group": {"spec": config.group_spec, "order": group.order, "names": list(group.names)},
        "matrix": None,
    }
    checks: list[Check] = []
    data: dict = {}

    if config.command == "rbg":
        matrix_spec = "identity:2x2" if config.matrix_spec is None else config.matrix_spec
    else:
        matrix_spec = _require_matrix(config)
    dims = _identity_dims(matrix_spec)
    # the guard, before R*C entries are built; SandwichMatrix refuses a dimension below 1
    if dims is not None and min(dims) > 0:
        check_size(group.order * dims[0] * dims[1], config.size_guard)
    matrix = load_matrix(matrix_spec, group)
    if config.command == "rbg" and (matrix.array != group.identity).any():
        raise ParseError("rbg needs the constant-identity matrix; use identity:RxC")
    report["matrix"] = {
        "rows": matrix.rows,
        "cols": matrix.cols,
        "entries": matrix.label_rows(),
    }

    S = ReesSemigroup(matrix, size_guard=config.size_guard)

    if config.command == "build":
        data = {
            "order": S.size,
            "idempotents": [S.element_label(x) for x in S.idempotents()],
            "green_class_counts": {kind: len(p) for kind, p in S.green().items()},
        }
    elif config.command == "verify":
        from . import verify

        data = {"order": S.size}
        checks = verify.full_suite(S)
    elif config.command == "green":
        data = {"partitions": {kind: _partition_json(S, p) for kind, p in S.green().items()}}
    elif config.command == "cones":
        from . import connections

        order = group.order
        # pair a is a's principal cones rho(a) and lambda(a)
        rho, lam = (connections.as_cones(half) for half in connections.pair_cones(matrix))
        principal = [
            {"element": S.element_label(a), "rho": _cone_json(S, r), "lambda": _cone_json(S, l)}
            for a, r, l in zip(S.elements(), rho, lam)
        ]
        data = {
            "tl_size": (order**S.n_lambda) * S.n_lambda,
            "tr_size": (order**S.n_i) * S.n_i,
            "tl_idempotents": (order ** (S.n_lambda - 1)) * S.n_lambda,
            "tr_idempotents": (order ** (S.n_i - 1)) * S.n_i,
            "principal": principal,
        }
    elif config.command == "crossconn":
        from . import connections, verify

        linked = connections.pair_arrays(S)
        ug, ud = (connections.as_cones(u.classes.members) for u in (linked.u_gamma, linked.u_delta))
        pairs = zip(connections.as_cones(linked.gamma), connections.as_cones(linked.delta))
        data = {
            "u_gamma_size": len(ug),
            "u_delta_size": len(ud),
            "s_tilde_size": len(linked.g),
            "u_gamma": [_cone_json(S, c) for c in ug],
            "u_delta": [_cone_json(S, c) for c in ud],
            "s_tilde": [
                {"gamma": _cone_json(S, g), "delta": _cone_json(S, d)} for g, d in pairs
            ],
        }
        checks = verify.crossconn_suite(S, linked)
    elif config.command == "iso-check":
        from . import cones

        found = cones.injectivity_criterion(matrix)
        witness = text = None
        if found is not None:
            g, i1, i2 = found
            witness = {"g": group.names[g], "i1": i1, "i2": i2}
            text = f"columns {i1} and {i2} differ by the constant factor {group.names[g]}"
        data = {"holds": found is None, "witness": witness}
        checks = [verdict("iso.injectivity_criterion", text)]
    elif config.command == "rbg":
        from . import connections, verify

        linked = connections.pair_arrays(S)
        data = {"order": S.size, "s_tilde_size": len(linked.g)}
        checks = verify.rbg_suite(S, linked)
    else:  # pragma: no cover - argparse rejects unknown commands
        raise ParseError(f"unknown command {config.command!r}")

    report["data"] = data
    report["checks"] = [
        {"name": c.name, "passed": c.passed, "witness": c.witness} for c in checks
    ]
    report["passed"] = all_passed(checks)
    return (0 if report["passed"] else 2), report


def emit(report: dict, fmt: str) -> str:
    """Serialize a report: stable key order, byte-identical for identical inputs."""
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    if fmt != "text":
        raise ParseError(f"unknown format {fmt!r}")
    lines = [f"command: {report['command']}"]
    lines.append(f"group: {report['group']['spec']} (order {report['group']['order']})")
    if report["matrix"] is not None:
        m = report["matrix"]
        lines.append(f"matrix: {m['rows']}x{m['cols']}")
        for row in m["entries"]:
            lines.append("  " + " ".join(row))
    for key, value in report["data"].items():
        lines.append(f"{key}: {json.dumps(value, sort_keys=True)}")
    if report["checks"]:
        lines.append("checks:")
        for c in report["checks"]:
            status = "PASS" if c["passed"] else ("SKIP" if c["passed"] is None else "FAIL")
            suffix = f"  ({c['witness']})" if c["witness"] else ""
            lines.append(f"  {status} {c['name']}{suffix}")
    lines.append("result: " + ("PASS" if report["passed"] else "FAIL"))
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    try:
        config = parse_args(argv)
        code, report = run(config)
        text = emit(report, config.fmt)
        if config.output:
            with open(config.output, "w") as handle:
                handle.write(text)
    except (CrossconnError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not config.output:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
