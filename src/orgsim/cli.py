"""Command line interface.

Subcommands:

``run``       execute one cell or a grid and write results/metadata CSV+JSON
``validate``  check a scenario file and echo the resolved configuration
``oracle``    print the brute-force enumeration of a tiny environment

Exit codes: 0 on success, 2 for configuration problems (bad flags, malformed
or invalid scenario files), 3 when a model invariant breaks mid-run.

The scenario schema, the grid rules and the run check live in
``orgsim.simulation``. This module only makes one ``run`` flag per scenario
field from ``ScenarioConfig``'s declarations, reads scenario files, reports
JSON syntax errors with their positions, and merges flags and presets over them.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from contextlib import ExitStack
from dataclasses import fields
from pathlib import Path

# orgsim does no BLAS work, and an idle BLAS thread pool costs CPU at import; a user's setting is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import __version__
from .errors import ConfigError, InvariantViolation
from .landscape import generate_landscape, random_matrix
from .oracle import ORACLE_MAX_N, oracle_report
from .simulation import (
    INPUT_KEYS,
    INPUT_TYPES,
    ExperimentResult,
    ScenarioConfig,
    cells_from_dict,
    grid_axes,
    run_experiment,  # noqa: F401  not called here; benchmarks/tracer.py patches this name (TestTraceTargets)
    run_grid,
    write_beliefs_csv,
    write_metadata_json,
    write_results_csv,
    write_trades_csv,
)

EMIT_TOKENS = {"csv", "json", "beliefs", "trades"}
SUMMARY_CHECKPOINTS = (100, 250, 500)


def load_cells(args: argparse.Namespace) -> list[ScenarioConfig]:
    """Read the scenario file, merge flags over its values, and turn them into the run's checked cells."""
    merged = {}
    if args.scenario:
        try:
            with open(args.scenario, "r", encoding="utf-8") as fh:
                merged = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read scenario file: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{args.scenario}: not UTF-8 text: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{args.scenario}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
        if not isinstance(merged, dict):
            raise ConfigError(f"{args.scenario}: scenario file must hold a JSON object")
    for key in INPUT_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    if getattr(args, "preset", None) == "paper-grid":
        paper = grid_axes({})
        # The preset stands for the paper grid, so a file grid other than the paper's would be dropped.
        if grid_axes(merged.setdefault("grid", {})) != paper:
            raise ConfigError(f"{args.scenario}: the file's grid {merged['grid']} differs from --preset "
                              f"paper-grid's {paper}; remove one")
    return cells_from_dict(merged)


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
        row = f"{result.scenario.cell:<40} {result.scenario.reps:>5}"
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
    cpus = os.cpu_count()
    if cpus is not None and args.jobs > cpus:
        raise ConfigError(f"--jobs must be at most the CPU count {cpus}, got {args.jobs}")
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
    import numpy as np

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
    for field in fields(ScenarioConfig):
        if field.name in INPUT_KEYS:
            kind = INPUT_TYPES[field.name]
            run.add_argument(f"--{field.name}", type=kind if kind in (int, float) else None,
                             choices=field.metadata.get("choices"), help=field.metadata["help"])
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
    # The imported modules' objects live until exit. Frozen, they are walked by no later collection, here or
    # in a forked worker, whose collections then leave their pages shared.
    gc.freeze()
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
