"""Record the expected output digests that ``run.py`` checks every run against.

    python3 benchmarks/record_digests.py [--seeds 0-31]

Runs each workload once per seed at one worker, checks the outputs'
structure and writes their SHA-256 digests to ``digests.json``. The
benchmark runs paper-grid and ledger at two workers, so every benchmark run
of a recorded seed also checks that the bytes do not depend on ``--jobs``.
Re-record only for a change that is meant to alter result bytes, and say so
in that change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from run import DIGESTS, RUNS_DIR, WORKLOADS, check_outputs, orgsim_cmd, spawn
from sweep import parse_seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-31")
    args = parser.parse_args()
    work = RUNS_DIR / "record"
    digests: dict = {}
    for name, workload in WORKLOADS.items():
        digests[name] = {}
        for seed in parse_seeds(args.seeds):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            scenario = work / "scenario.json"
            scenario.write_text(json.dumps(workload.scenario(seed)), encoding="utf-8")
            out = work / "out"
            child = spawn(orgsim_cmd(*workload.run_args(scenario, out, 1)), work / "stdout", work / "stderr")
            files, _, problems = check_outputs(workload, seed, out)
            if child.code != 0 or problems:
                print(f"{name} seed {seed}: exit {child.code} {problems}", file=sys.stderr)
                return 1
            digests[name][str(seed)] = files
            print(f"{name} seed {seed}: {child.wall_s:.1f} s", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
