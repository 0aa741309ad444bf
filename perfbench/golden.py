#!/usr/bin/env python3
"""Record the answers the output-correctness gate compares against.

    python3 perfbench/golden.py [WORKLOAD ...]

For every input variant of each named workload (all by default) this runs
every invocation once through the CLI and stores its exit code and the
digest of its report's `data` section in `perfbench/golden.json`.  Run it
only at a commit whose answers are trusted: the gate then fails any later
commit that answers differently.  Two children run at a time.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import workloads
from run import GOLDEN_PATH, OUT_DIR, ROOT, Runner, cli_argv, data_digest

JOBS = 2


def record_variant(workload: str, variant: int) -> dict[str, list]:
    run_dir = OUT_DIR / f"golden-{workload}-{variant}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    invocations = workloads.generate(workload, variant, (run_dir / "inputs").relative_to(ROOT))
    runner = Runner(run_dir, deadline=time.monotonic() + 3600)
    answers = {}
    for inv in invocations:
        outcome = runner.run(inv.key, cli_argv(inv))
        if outcome.code not in (0, 2) or b"Traceback" in outcome.stderr:
            raise SystemExit(f"{workload} variant {variant} {inv.key}: exit {outcome.code}\n"
                             + outcome.stderr.decode(errors="replace"))
        answers[inv.key] = [outcome.code, data_digest(outcome.stdout)]
    shutil.rmtree(run_dir)
    return answers


def main(names: list[str]) -> None:
    names = names or list(workloads.WORKLOADS)
    golden = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    tasks = [(w, v) for w in names for v in range(workloads.VARIANTS)]
    start = time.monotonic()
    with ThreadPoolExecutor(JOBS) as pool:
        results = list(pool.map(lambda task: record_variant(*task), tasks))
    for name in names:
        golden[name] = {}
    for (name, variant), answers in zip(tasks, results):
        golden[name][str(variant)] = answers
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(tasks)} variants in {time.monotonic() - start:.0f} s")


if __name__ == "__main__":
    main(sys.argv[1:])
