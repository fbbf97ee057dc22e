"""Repeat the benchmark over seeds and report each metric's median and spread.

    python3 benchmarks/sweep.py [--workloads a,b] [--seeds 0-9] [--trace 0]
        [--seconds S] [--out FILE]

Runs ``BENCHMARK.json``'s command once per workload and seed, the way a
comparison of two revisions runs it. For each metric it prints the median
over seeds, the quartiles (``statistics.quantiles(values, n=4)``) and the
distance between them as a share of the median, next to the metric's bound.
``--out`` writes the same table, with the machine context of every run, as
JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    table: dict = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)]
            argv[0] = sys.executable if argv[0] == "python3" else argv[0]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-800:]}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            context = json.loads(lines[-2])["context"]
            runs.append({"seed": seed, "context": context, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
                             if args.trace == 0), flush=True)
        metrics = {
            name: summarize([run["metrics"][name]["value"] for run in runs])
            for name in runs[0]["metrics"]
        }
        table[workload] = {"metrics": metrics, "runs": runs}
        for name, row in metrics.items():
            bound = bounds.get(name) if args.trace == 0 else None
            mark = "" if bound is None else f" bound {bound:.2f}{' OVER' if row['spread'] > bound / 3 else ''}"
            print(f"  {workload:<10} {name:<38} median {row['median']:<12.6g} "
                  f"q1 {row['q1']:<12.6g} q3 {row['q3']:<12.6g} spread {row['spread']:.4f}{mark}")
    if args.out:
        Path(args.out).write_text(json.dumps({"seconds": args.seconds, "trace": args.trace, "workloads": table},
                                             indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
