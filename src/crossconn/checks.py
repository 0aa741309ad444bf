"""Pass/fail records shared by the verification suites and the CLI."""

from __future__ import annotations

from typing import Iterable, NamedTuple


class Check(NamedTuple):
    """One named verification outcome.  passed=None means skipped by a size guard."""

    name: str
    passed: bool | None
    witness: str | None = None


def all_passed(checks: Iterable[Check]) -> bool:
    return all(c.passed is not False for c in checks)


def failures(checks: Iterable[Check]) -> list[Check]:
    return [c for c in checks if c.passed is False]
