"""Pass/fail records shared by the verification suites and the CLI."""

from __future__ import annotations

from typing import Iterable, NamedTuple


class Check(NamedTuple):
    """One named verification outcome.  passed=None means skipped by a size guard."""

    name: str
    passed: bool | None
    witness: str | None = None


def verdict(name: str, witness: object) -> Check:
    """The check decided by a scan for a witness: passed exactly when the scan
    found none, with the witness as its text otherwise."""
    return Check(name, witness is None, None if witness is None else str(witness))


def all_passed(checks: Iterable[Check]) -> bool:
    return all(c.passed is not False for c in checks)


def failures(checks: Iterable[Check]) -> list[Check]:
    return [c for c in checks if c.passed is False]
