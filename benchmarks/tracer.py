"""Outside-in tracing of one ``orgsim run`` invocation.

Run as a child process by ``run.py``:

    python3 benchmarks/tracer.py {traced|plain} RECORD.json -- run SCENARIO.json ...

The arguments after ``--`` go to ``orgsim.cli.main`` unchanged. Before the
call, the ``traced`` mode replaces the module-level names the engine calls
with wrappers that record one span per call. No file of the package
changes. The ``plain`` mode wraps only the engine entry points the CLI
calls, once per run. It is the untraced reference, and it gives the engine
wall time that the parallel efficiency is measured against. Spans stay in
memory and go to RECORD.json once the CLI returns.

The parent process imports this module too. It uses only
``layer_metrics``, which turns a record into per-layer figures.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# (module, name, span name). Each name is patched where the caller looks it
# up: generate_landscape calls landscape.global_optimum through its own
# module's globals, and the CLI imported run_grid and the writers by name.
# A dotted name is an attribute of a class in the module.
TRACED_FUNCTIONS = (
    ("orgsim.landscape", "global_optimum", "landscape.global_optimum"),
    ("orgsim.simulation", "generate_landscape", "landscape.generate_landscape"),
    ("orgsim.simulation", "select_offer_utility", "auction.select_offer"),
    ("orgsim.simulation", "select_offer_interdependence", "auction.select_offer"),
    ("orgsim.simulation", "clear_auction", "auction.clear_auction"),
    ("orgsim.simulation", "update_beliefs", "learning.update_beliefs"),
    ("orgsim.simulation", "run_replication", "simulation.run_replication"),
    ("orgsim.simulation", "run_experiment", "simulation.run_experiment"),
    ("orgsim.cli", "run_experiment", "simulation.run_experiment"),
    ("orgsim.simulation", "aggregate_norm_series", "simulation.aggregate"),
    ("orgsim.cli", "write_results_csv", "simulation.write_results"),
    ("orgsim.cli", "write_metadata_json", "simulation.write_metadata"),
    ("orgsim.cli", "write_trades_csv", "simulation.write_trades"),
    ("orgsim.cli", "write_beliefs_csv", "simulation.write_beliefs"),
    ("orgsim.simulation", "ScenarioConfig.validate", "scenario.validate"),
)
ENGINE_FUNCTIONS = (
    ("orgsim.cli", "run_grid", "engine"),
    ("orgsim.cli", "run_experiment", "engine"),
)

# Span fields, in the order a span list holds them.
NAME, START, END, PARENT, CELL, REP, COUNT = range(7)


class Tracer:
    """Span recorder. A span is [name, start_ns, end_ns, parent, cell, rep, count]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.cell = -1
        self.rep = -1
        self.cells: dict[int, dict] = {}

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if name == "simulation.run_experiment":
                self._enter_cell(args[0] if args else kwargs["scenario"])
            elif name == "simulation.run_replication":
                self.rep = args[1] if len(args) > 1 else kwargs["rep_index"]
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self.cell, self.rep, 0]
            spans.append(span)
            stack.append(index)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if name == "auction.clear_auction":
                span[COUNT] = len(result)
            elif name == "auction.select_offer":
                span[COUNT] = int(result is not None)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _enter_cell(self, scenario) -> None:
        self.cell = scenario.cell_index
        self.rep = -1
        self.cells[scenario.cell_index] = {
            "cell": scenario.cell,
            "n": scenario.n,
            "m": scenario.m,
            "tau": scenario.tau,
            "horizon": scenario.horizon,
            "reps": scenario.reps,
            "strategy": scenario.strategy,
        }

    def install(self, targets) -> None:
        for module_name, path, span_name in targets:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            setattr(owner, attr, self.wrap(span_name, getattr(owner, attr)))


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] not in ("traced", "plain") or argv[2] != "--":
        print("usage: tracer.py {traced|plain} RECORD.json -- ORGSIM_ARGS...", file=sys.stderr)
        return 2
    mode, record_path, cli_args = argv[0], argv[1], argv[3:]
    import orgsim.cli

    tracer = Tracer()
    tracer.install(TRACED_FUNCTIONS if mode == "traced" else ENGINE_FUNCTIONS)
    start = time.perf_counter_ns()
    code = orgsim.cli.main(cli_args)
    wall_ns = time.perf_counter_ns() - start
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump({"mode": mode, "exit": code, "wall_ns": wall_ns, "cells": tracer.cells, "spans": tracer.spans}, fh)
    return code


def _durations(spans: list[list]) -> tuple[list[int], list[int]]:
    """Inclusive and self time of every span, in nanoseconds."""
    inclusive = [span[END] - span[START] for span in spans]
    own = list(inclusive)
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            own[span[PARENT]] -= inclusive[index]
    return inclusive, own


def layer_metrics(traced: dict, plain_wall_ns: int, engine_jobs2_ns: int, workers: int, outputs: dict) -> dict:
    """Per-layer figures of one traced run.

    ``plain_wall_ns`` is the untraced CLI wall time of the same run at one
    worker, ``engine_jobs2_ns`` the untraced engine wall time at ``workers``
    workers, and ``outputs`` the run's output facts (``bytes``,
    ``belief_rows``).
    """
    spans = traced["spans"]
    inclusive, own = _durations(spans)
    total: dict[str, int] = {}
    self_total: dict[str, int] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    top_level_ns = 0
    cli_validate_ns = 0
    for index, span in enumerate(spans):
        name = span[NAME]
        total[name] = total.get(name, 0) + inclusive[index]
        self_total[name] = self_total.get(name, 0) + own[index]
        calls[name] = calls.get(name, 0) + 1
        counts[name] = counts.get(name, 0) + span[COUNT]
        if span[PARENT] < 0:
            top_level_ns += inclusive[index]
            if name == "scenario.validate":
                cli_validate_ns += inclusive[index]

    cells = traced["cells"].values()
    reps = sum(cell["reps"] for cell in cells)
    periods = sum(cell["reps"] * cell["horizon"] for cell in cells)
    proposals = 0
    configs = 0
    for cell in cells:
        auctions = 0 if cell["strategy"] == "benchmark" else cell["horizon"] // cell["tau"]
        proposals += cell["reps"] * cell["m"] * (cell["horizon"] - auctions)
        configs += cell["reps"] * (1 << cell["n"])

    def ms(name: str) -> float:
        return total.get(name, 0) / 1e6

    def per_call_us(name: str) -> float:
        return total[name] / calls[name] / 1e3 if calls.get(name) else 0.0

    optimum_ns = total.get("landscape.global_optimum", 0)
    rounds = calls.get("auction.clear_auction", 0)
    offers = counts.get("auction.select_offer", 0)
    trades = counts.get("auction.clear_auction", 0)
    updates = calls.get("learning.update_beliefs", 0)
    beliefs_ns = total.get("simulation.write_beliefs", 0)
    return {
        "landscape.optimum_ms": optimum_ns / 1e6 / reps,
        "landscape.optimum_mconfigs_per_s": configs / (optimum_ns / 1e9) / 1e6 if optimum_ns else 0.0,
        "landscape.draw_ms": self_total.get("landscape.generate_landscape", 0) / 1e6 / reps,
        "simulation.period_us": self_total.get("simulation.run_replication", 0) / 1e3 / periods,
        "simulation.replication_ms": ms("simulation.run_replication") / reps,
        "simulation.flip_accept_ratio": updates / proposals if proposals else 0.0,
        "simulation.aggregate_ms": ms("simulation.aggregate"),
        "cli.validate_ms": cli_validate_ns / 1e6,
        "simulation.parallel_efficiency": total.get("simulation.run_replication", 0) / (workers * engine_jobs2_ns),
        "auction.offer_us": per_call_us("auction.select_offer"),
        "auction.round_ms": per_call_us("auction.clear_auction") / 1e3,
        "auction.rounds": rounds,
        "auction.offers": offers,
        "auction.trades": trades,
        "auction.trade_ratio": trades / offers if offers else 0.0,
        "learning.update_us": per_call_us("learning.update_beliefs"),
        "learning.updates": updates,
        "simulation.write_results_ms": ms("simulation.write_results"),
        "simulation.write_metadata_ms": ms("simulation.write_metadata"),
        "simulation.write_trades_ms": ms("simulation.write_trades"),
        "simulation.write_beliefs_ms": ms("simulation.write_beliefs"),
        "simulation.write_beliefs_rows_per_s": outputs["belief_rows"] / (beliefs_ns / 1e9) if beliefs_ns else 0.0,
        "simulation.bytes_written": outputs["bytes"],
        "trace.coverage_pct": 100.0 * top_level_ns / traced["wall_ns"],
        "trace.overhead_pct": 100.0 * (traced["wall_ns"] - plain_wall_ns) / plain_wall_ns,
    }


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
