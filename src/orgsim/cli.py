"""Command line interface.

Subcommands:

``run``       execute one cell or a grid and write results/metadata CSV+JSON
``validate``  check a scenario file and echo the resolved configuration
``oracle``    print the brute-force enumeration of a tiny environment

Exit codes: 0 on success, 2 for configuration problems (bad flags, malformed
or invalid scenario files), 3 when a model invariant breaks mid-run.

The scenario schema (keys, value types, grid expansion, per-cell records)
lives in ``orgsim.simulation``. This module only reads scenario files, reports
JSON syntax errors with their positions, and merges flags over file values.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from contextlib import ExitStack
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, InvariantViolation
from .landscape import generate_landscape, random_matrix
from .oracle import ORACLE_MAX_N, oracle_report
from .organization import INCENTIVE_PRESETS
from .simulation import (
    GRID_INCENTIVES,
    GRID_STRATEGIES,
    GRID_STRUCTURES,
    INPUT_KEYS,
    STRATEGIES,
    ExperimentResult,
    ScenarioConfig,
    expand_grid,
    run_experiment,  # noqa: F401  not called here; benchmarks/tracer.py patches this name (TestTraceTargets)
    run_grid,
    write_beliefs_csv,
    write_metadata_json,
    write_results_csv,
    write_trades_csv,
)

GRID_KEYS = {"structures", "incentives", "strategies"}
# The single-cell keys a grid's axes replace.
CELL_KEYS = ("structure", "incentive", "strategy")
EMIT_TOKENS = {"csv", "json", "beliefs", "trades"}
SUMMARY_CHECKPOINTS = (100, 250, 500)


def load_scenario_file(path: str) -> dict:
    """Read a JSON scenario file and shape-check its grid; scenario keys are checked later."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: scenario file must hold a JSON object")

    if "grid" in data:
        grid = data["grid"]
        if not isinstance(grid, dict):
            raise ConfigError(f"{path}: grid must be an object with {sorted(GRID_KEYS)}")
        unknown = sorted(set(grid) - GRID_KEYS)
        if unknown:
            raise ConfigError(f"{path}: unknown grid keys {unknown}")
        for axis, values in grid.items():
            if not isinstance(values, list) or not values or not all(isinstance(v, str) for v in values):
                raise ConfigError(f"{path}: grid {axis} must be a non-empty list of strings")
    return data


def load_cells(args: argparse.Namespace) -> list[ScenarioConfig]:
    """Merge file values and flags (flags win), expand the grid once, and validate every cell before any work."""
    merged = load_scenario_file(args.scenario) if args.scenario else {}
    grid = merged.pop("grid", None)
    for key in INPUT_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    if getattr(args, "preset", None) == "paper-grid":
        paper = {"structures": list(GRID_STRUCTURES), "incentives": list(GRID_INCENTIVES),
                 "strategies": list(GRID_STRATEGIES)}
        # The preset replaces the file's grid, so a file grid other than the paper's would be dropped.
        if grid is not None and {**paper, **grid} != paper:
            raise ConfigError(f"{args.scenario}: the file's grid {grid} differs from --preset paper-grid's "
                              f"{paper}; remove one")
        grid = {}

    if grid is None:
        scenarios = [ScenarioConfig.from_dict(merged)]
    else:
        # expand_grid sets these three fields in every cell, so a single value would be dropped.
        given = [key for key in CELL_KEYS if key in merged]
        if given:
            raise ConfigError(f"a grid run sets {', '.join(given)} per cell; remove it from the flags and the "
                              "top level of the scenario file, or list it in the grid")
        fill = {"structure": GRID_STRUCTURES[0], "incentive": GRID_INCENTIVES[0], "strategy": GRID_STRATEGIES[0]}
        scenarios = expand_grid(ScenarioConfig.from_dict({**fill, **merged}), **grid)

    problems = [f"{scenario.cell}: {p}" for scenario in scenarios for p in scenario.validate()]
    duplicates = [cell for cell, count in Counter(scenario.cell for scenario in scenarios).items() if count > 1]
    if duplicates:
        problems.append(f"duplicate cell labels: {', '.join(duplicates)}")
    if problems:
        raise ConfigError("; ".join(problems))
    return scenarios


def parse_emit(text: str) -> set[str]:
    tokens = {token.strip() for token in text.split(",") if token.strip()}
    unknown = tokens - EMIT_TOKENS
    if unknown:
        raise ConfigError(f"unknown emit targets {sorted(unknown)}; choose from {sorted(EMIT_TOKENS)}")
    return tokens or {"csv", "json"}


def print_summary(results: list[ExperimentResult]) -> None:
    horizon = len(results[0].mean_norm_perf)
    checkpoints = [t for t in SUMMARY_CHECKPOINTS if t < horizon] + [horizon]
    header = f"{'cell':<40} {'reps':>5}" + "".join(f"{f't={t}':>12}" for t in checkpoints) + f"{'ci99':>12}"
    print(header)
    for result in results:
        row = f"{result.cell:<40} {result.scenario.reps:>5}"
        for t in checkpoints:
            row += f"{result.mean_norm_perf[t - 1]:>12.6f}"
        row += f"{result.final_half_width:>12.6f}"
        print(row)


def output_dir(path: str) -> Path:
    """Create the output directory ``path`` (and its parents) if needed, before any work starts."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory: {exc}") from None
    return out


def cmd_run(args: argparse.Namespace) -> int:
    cells = load_cells(args)
    emit = parse_emit(args.emit)
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    out = output_dir(args.out)

    with ExitStack() as ledgers:
        trades = ledgers.enter_context(write_trades_csv(out / "trades.csv", cells)) if "trades" in emit else None
        beliefs = ledgers.enter_context(write_beliefs_csv(out / "beliefs.csv", cells)) if "beliefs" in emit else None
        results = run_grid(cells, jobs=args.jobs, trades=trades, beliefs=beliefs)

    written = []
    if "csv" in emit:
        write_results_csv(results, out / "results.csv")
        written.append("results.csv")
    if "json" in emit:
        write_metadata_json(results, out / "metadata.json")
        written.append("metadata.json")
    written += [f"{token}.csv" for token in ("trades", "beliefs") if token in emit]

    print_summary(results)
    print(f"wrote {', '.join(written)} to {out}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    scenarios = load_cells(args)
    print(json.dumps({"cells": [scenario.to_dict() for scenario in scenarios]}, indent=2, sort_keys=True))
    print(f"ok: {len(scenarios)} cell(s)", file=sys.stderr)
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    if args.n > ORACLE_MAX_N:
        raise ConfigError(f"oracle enumeration is limited to n <= {ORACLE_MAX_N}, got n={args.n}")
    if args.seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    matrix = random_matrix(args.n, args.k, rng)
    landscape = generate_landscape(matrix, rng)
    report = oracle_report(landscape)
    out = output_dir(args.out) if args.out else None

    print(f"n={report['n']} seed={args.seed} k={args.k}")
    for j in range(report["n"]):
        print(f"decision {j} depends on {report['dependencies'][str(j)]}")
    print()
    print("config " + " ".join(f"{f'f{j}':>19}" for j in range(report["n"])) + f"{'performance':>21}")
    for row in report["configs"]:
        cells = " ".join(f"{value:>19.17f}" for value in row["contributions"])
        print(f"{row['config']:>6} {cells} {row['performance']:>21.17f}")
    print()
    optimum = report["optimum"]
    print(f"optimum config={optimum['config']} performance={optimum['performance']!r}")

    if out is not None:
        with open(out / "oracle.json", "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote oracle.json to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="orgsim", description="Self-organizing task allocation simulator")
    parser.add_argument("--version", action="version", version=f"orgsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one cell or a grid and write results")
    run.add_argument("scenario", nargs="?", help="JSON scenario file (flags override file values)")
    run.add_argument("--preset", choices=["paper-grid"], help="run the full 18-cell reference grid")
    run.add_argument("--structure", help="k2, k5, or file:<path>")
    run.add_argument("--incentive", help=f"one of {sorted(INCENTIVE_PRESETS)} or alpha=<value>")
    run.add_argument("--strategy", choices=list(STRATEGIES), help="auction strategy or benchmark")
    run.add_argument("--n", type=int, help="number of decisions")
    run.add_argument("--m", type=int, help="number of agents")
    run.add_argument("--reps", type=int, help="replications per cell")
    run.add_argument("--horizon", type=int, help="periods per replication")
    run.add_argument("--tau", type=int, help="auction interval")
    run.add_argument("--sigma", type=float, help="bid noise standard deviation")
    run.add_argument("--capacity", help="per-agent capacity: one integer or m comma-separated integers")
    run.add_argument("--seed", type=int, help="master seed")
    run.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    run.add_argument("--out", default="results", help="output directory (default: results)")
    run.add_argument("--emit", default="csv,json", help="comma list from csv,json,beliefs,trades")
    run.set_defaults(func=cmd_run)

    validate = sub.add_parser("validate", help="check a scenario file without running it")
    validate.add_argument("scenario", help="JSON scenario file")
    validate.set_defaults(func=cmd_validate)

    oracle = sub.add_parser("oracle", help="print the brute-force tables for a tiny environment")
    oracle.add_argument("--n", type=int, default=3, help=f"decisions (max {ORACLE_MAX_N})")
    oracle.add_argument("--k", type=int, default=1, help="dependencies per decision")
    oracle.add_argument("--seed", type=int, default=0, help="generator seed")
    oracle.add_argument("--out", help="also write oracle.json to this directory")
    oracle.set_defaults(func=cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
