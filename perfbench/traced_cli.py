"""Run one crossconn CLI invocation under the tracer.

    python perfbench/traced_cli.py TRACE_OUT TRACE_ID CLI_ARG...

The report goes to stdout exactly as `crossconn` would print it; the
counts, self times and spans go to TRACE_OUT as JSON.  The exit code is
the CLI's.
"""

from __future__ import annotations

import sys

from tracer import Tracer


def main(argv: list[str]) -> int:
    out, trace_id, *cli_args = argv
    tracer = Tracer(trace_id)
    tracer.install()
    from crossconn import cli

    code = cli.main(cli_args)
    sys.stdout.flush()
    tracer.dump(out)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
