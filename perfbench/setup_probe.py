"""Time crossconn's set-up for a list of invocations, in a fresh interpreter.

    python perfbench/setup_probe.py INVOCATIONS_JSON

INVOCATIONS_JSON holds a list of CLI argument lists.  Set-up is what every
invocation pays before its command runs: importing crossconn, parsing the
arguments, loading the group and the matrix, and constructing the
`ReesSemigroup`.  The import is timed once, since it is the first thing
this interpreter does; every other step is timed per invocation through
the same public functions the CLI calls.  The speed sampler runs
throughout (`speed.py`) and its handler time is taken out of every step.
Prints one JSON object, with the sampler's probe times.
"""

from __future__ import annotations

import json
import sys
import time

from speed import SpeedSampler


def main(path: str) -> None:
    with open(path) as handle:
        invocations = json.load(handle)

    sampler = SpeedSampler()

    def elapsed(start: float, spent: float) -> float:
        return time.perf_counter() - start - (sampler.spent - spent)

    sampler.start()
    start, spent = time.perf_counter(), sampler.spent
    from crossconn import cli
    from crossconn.rees import ReesSemigroup

    import_s = elapsed(start, spent)

    per_invocation = []
    for args in invocations:
        start, spent = time.perf_counter(), sampler.spent
        config = cli.parse_args(args)
        group = cli.load_group(config.group_spec)
        matrix = cli.load_matrix(config.matrix_spec or "identity:2x2", group)
        ReesSemigroup(matrix, size_guard=config.size_guard)
        per_invocation.append(elapsed(start, spent))
    sampler.stop()

    print(
        json.dumps(
            {"import_s": import_s, "per_invocation_s": per_invocation, "samples": sampler.samples}
        )
    )


if __name__ == "__main__":
    main(sys.argv[1])
