"""Run one crossconn CLI invocation under the speed sampler.

    python perfbench/timed_cli.py SAMPLES_OUT CLI_ARG...

The report goes to stdout exactly as `crossconn` would print it; the
sampler's probe times and handler time go to SAMPLES_OUT as JSON
(`speed.py`).  The exit code is the CLI's.
"""

from __future__ import annotations

import sys

from speed import SpeedSampler


def main(argv: list[str]) -> int:
    out, *cli_args = argv
    sampler = SpeedSampler()
    sampler.start()
    try:
        from crossconn import cli

        code = cli.main(cli_args)
        sys.stdout.flush()
    finally:
        sampler.stop()
        sampler.dump(out)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
