"""Replication engine, experiment harness, and result serialization.

A replication draws a fresh landscape, allocates decisions to agents, and runs
``horizon`` periods. In ordinary periods every agent evaluates one random
single-flip neighbor of its own decisions against the status quo (residual
decisions frozen at the previous period), all adopted flips land
simultaneously, and adopting agents book one belief observation per other
owned decision. In auction periods (every ``tau`` periods, unless the strategy
is ``benchmark``) agents trade decisions instead of flipping them; the
configuration carries over unchanged, so performance repeats the previous
period's value exactly.

A replication returns its trajectory as arrays: ``performance`` (one value per
period) and ``sizes`` (each agent's portfolio size per period). Performance is
reported normalized by the landscape's exhaustive optimum, so values live in
(0, 1] and 1.0 means the global optimum was found. Experiments aggregate
``reps`` independent replications into a per-period mean and a 99 percent
confidence half-width.

Randomness is split into per-role streams seeded as
``SeedSequence(master_seed, spawn_key=(cell_index, rep_index, role))``. Every
replication is therefore self-contained: results are byte-identical no matter
how replications are distributed over worker processes.

The period loop is hand-inlined for speed (table lookups on plain lists, no
array allocation per agent). A proposal's verdict depends only on the
configuration, the ownership and the incentive weights, so it is cached per
flipped decision and dropped only when a flip lands or an auction clears. One
``integers(0, highs)`` call draws the hillclimb positions up to the next
auction or the horizon, exactly like one scalar draw per agent and period.
``tests/test_simulation.py`` and ``tests/test_properties.py`` pin the loop to
the op-composed reference replication, to exact float equality.

The scenario schema lives here and nowhere else: ``ScenarioConfig`` holds the
fields, ``ScenarioConfig.from_dict`` the keys a scenario file or the flags may
set and their value types, ``ScenarioConfig.to_dict`` the per-cell record of
``orgsim validate`` and ``metadata.json``, and ``expand_grid`` the cell
enumeration that ``run_grid`` and the command line share. A scenario resolves
its interaction structure once, in ``ScenarioConfig.matrix``; ``validate``, the
replications and ``metadata.json`` all read that one value.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import cached_property
from itertools import product
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import __version__
from .auction import (
    STRATEGY_INTERDEPENDENCE,
    STRATEGY_UTILITY,
    TradeRecord,
    clear_auction,
    select_offer_interdependence,
    select_offer_utility,
)
from .errors import ConfigError, InvariantViolation
from .landscape import (
    DECOMPOSABLE_K2,
    ENUMERATION_LIMIT,
    NONDECOMPOSABLE_K5,
    InteractionMatrix,
    Landscape,
    build_stylized_matrix,
    generate_landscape,
    load_matrix,
)
from .learning import BeliefCounters, init_beliefs, update_beliefs
from .organization import AgentState, IncentiveScheme, initial_allocation, mirrored_allocation

STRATEGY_BENCHMARK = "benchmark"
STRATEGIES = (STRATEGY_UTILITY, STRATEGY_INTERDEPENDENCE, STRATEGY_BENCHMARK)

STRUCTURE_K2 = "k2"
STRUCTURE_K5 = "k5"

# Stream roles: one independent generator per concern and replication.
ROLE_LANDSCAPE = 0
ROLE_INIT = 1
ROLE_HILLCLIMB = 2
ROLE_NOISE = 3
ROLE_TIEBREAK = 4
ROLE_NAMES = {
    ROLE_LANDSCAPE: "landscape",
    ROLE_INIT: "init",
    ROLE_HILLCLIMB: "hillclimb",
    ROLE_NOISE: "bid_noise",
    ROLE_TIEBREAK: "tie_breaks",
}

# z-value for the 99 percent confidence interval.
CI99_Z = 2.576

GRID_STRUCTURES = (STRUCTURE_K2, STRUCTURE_K5)
GRID_INCENTIVES = ("individualistic", "balanced", "altruistic")
GRID_STRATEGIES = (STRATEGY_UTILITY, STRATEGY_INTERDEPENDENCE, STRATEGY_BENCHMARK)


def replication_rng(master_seed: int, cell_index: int, rep_index: int, role: int) -> np.random.Generator:
    """Independent generator for one (cell, replication, role) triple."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(cell_index, rep_index, role)))


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one experiment cell.

    ``structure`` is ``"k2"``, ``"k5"``, or ``"file:<path>"``; ``strategy`` is
    ``"utility"``, ``"interdependence"``, or ``"benchmark"``. All numeric
    defaults follow the reference parameterization.
    """

    structure: str
    incentive: IncentiveScheme
    strategy: str
    n: int = 15
    m: int = 5
    tau: int = 25
    horizon: int = 500
    reps: int = 800
    sigma: float = 0.05
    capacity: int | tuple[int, ...] = 5
    seed: int = 0
    cell_index: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.capacity, (list, tuple)):
            object.__setattr__(self, "capacity", tuple(int(c) for c in self.capacity))

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ScenarioConfig":
        """Scenario from scenario-file or flag values, checking keys and value types.

        ``incentive`` is a token for ``IncentiveScheme.parse``; ``capacity`` is
        one integer, a list of integers, or a comma-separated string of them.
        Value ranges are left to ``validate``.
        """
        unknown = sorted(set(data) - set(INPUT_KEYS))
        if unknown:
            raise ConfigError(f"unknown keys {unknown}; allowed keys are {sorted(INPUT_KEYS)}")
        for key, value in data.items():
            if key in ("structure", "incentive", "strategy"):
                if not isinstance(value, str):
                    raise ConfigError(f"{key} must be a string, got {value!r}")
            elif key == "sigma":
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise ConfigError(f"sigma must be a number, got {value!r}")
            elif key != "capacity" and (isinstance(value, bool) or not isinstance(value, int)):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in data]
        if missing:
            raise ConfigError(f"missing required settings: {', '.join(missing)} (no defaults exist for these)")

        values = dict(data, incentive=IncentiveScheme.parse(data["incentive"]))
        if "capacity" in data:
            values["capacity"] = _parse_capacity(data["capacity"])
        return cls(**values)

    def to_dict(self) -> dict:
        """The cell's resolved settings, as ``orgsim validate`` and ``metadata.json`` print them."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data.update(
            cell=self.cell,
            incentive={"name": self.incentive.name, "alpha": self.incentive.alpha, "beta": self.incentive.beta},
            capacity=list(self.resolved_capacities()),
        )
        return data

    def resolved_capacities(self) -> tuple[int, ...]:
        if isinstance(self.capacity, tuple):
            return self.capacity
        return (int(self.capacity),) * self.m

    @cached_property
    def cell(self) -> str:
        structure = self.structure
        if structure.startswith("file:"):
            structure = Path(structure[5:]).stem
        return f"{structure}-{self.incentive.name}-{self.strategy}"

    @cached_property
    def matrix(self) -> InteractionMatrix:
        """The interaction matrix the structure token names, built or read once per scenario.

        The value travels with the scenario when it is pickled, so worker
        processes simulate the matrix ``validate`` checked without reading a
        ``file:`` structure again.
        """
        token = self.structure
        if token == STRUCTURE_K2:
            return build_stylized_matrix(DECOMPOSABLE_K2, self.n)
        if token == STRUCTURE_K5:
            return build_stylized_matrix(NONDECOMPOSABLE_K5, self.n)
        if token.startswith("file:"):
            return load_matrix(token[5:])
        raise ConfigError(f"unknown structure {token!r}; use 'k2', 'k5', or 'file:<path>'")

    def validate(self) -> list[str]:
        """Collect every violation instead of stopping at the first."""
        problems: list[str] = []
        if self.strategy not in STRATEGIES:
            problems.append(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if self.n < 1:
            problems.append(f"n must be positive, got {self.n}")
        if self.m < 1:
            problems.append(f"m must be positive, got {self.m}")
        if self.n > ENUMERATION_LIMIT:
            problems.append(f"exhaustive optimum supports n <= {ENUMERATION_LIMIT}, got n={self.n}")
        if self.n >= 1 and self.m >= 1 and self.n % self.m != 0:
            problems.append(f"n={self.n} must be divisible by m={self.m} for the equal initial split")
        if self.tau < 2:
            problems.append(f"tau must be at least 2, got {self.tau}")
        if self.horizon < 1:
            problems.append(f"horizon must be positive, got {self.horizon}")
        if self.reps < 1:
            problems.append(f"reps must be positive, got {self.reps}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            problems.append(f"sigma must be finite and nonnegative, got {self.sigma}")
        if self.seed < 0:
            problems.append(f"seed must be nonnegative, got {self.seed}")
        if self.cell_index < 0:
            problems.append(f"cell_index must be nonnegative, got {self.cell_index}")

        caps = self.resolved_capacities()
        if len(caps) != self.m:
            problems.append(f"expected {self.m} capacities, got {len(caps)}")
        elif any(c < 1 for c in caps):
            problems.append(f"capacities must be positive, got {caps}")
        elif self.m >= 1 and self.n % self.m == 0 and min(caps) < self.n // self.m:
            problems.append(
                f"equal share {self.n // self.m} exceeds the smallest capacity {min(caps)}"
            )

        if self.m == 1 and self.incentive.alpha != 1.0:
            problems.append("a single agent has no residual; alpha must be 1.0 when m=1")

        try:
            matrix = self.matrix
        except ConfigError as exc:
            problems.append(str(exc))
        else:
            if matrix.n != self.n:
                problems.append(f"structure defines {matrix.n} decisions but scenario says n={self.n}")
        return problems


# Keys a scenario file or the flags may set; grid expansion assigns cell_index.
INPUT_KEYS = tuple(f.name for f in fields(ScenarioConfig) if f.name != "cell_index")


def _parse_capacity(value) -> int | tuple[int, ...]:
    if isinstance(value, bool):
        raise ConfigError(f"capacity must be an integer or list of integers, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        parts = [p.strip() for p in value.split(",") if p.strip()]
        try:
            numbers = [int(p) for p in parts]
        except ValueError:
            raise ConfigError(f"cannot parse capacity {value!r}") from None
        if not numbers:
            raise ConfigError(f"cannot parse capacity {value!r}")
        return numbers[0] if len(numbers) == 1 else tuple(numbers)
    if isinstance(value, list):
        if not all(isinstance(c, int) and not isinstance(c, bool) for c in value):
            raise ConfigError(f"capacity list must hold integers, got {value!r}")
        return tuple(value)
    raise ConfigError(f"capacity must be an integer or list of integers, got {value!r}")


def expand_grid(
    base: ScenarioConfig,
    structures: Sequence[str] = GRID_STRUCTURES,
    incentives: Sequence[str | IncentiveScheme] = GRID_INCENTIVES,
    strategies: Sequence[str] = GRID_STRATEGIES,
) -> list[ScenarioConfig]:
    """The cross of structures x incentives x strategies over ``base``.

    Cells are enumerated in that nesting order and numbered sequentially, so a
    given grid always maps to the same cell indices and seed streams. An
    incentive is a scheme or a token for ``IncentiveScheme.parse``.
    """
    schemes = [i if isinstance(i, IncentiveScheme) else IncentiveScheme.parse(i) for i in incentives]
    return [
        replace(base, structure=structure, incentive=scheme, strategy=strategy, cell_index=index)
        for index, (structure, scheme, strategy) in enumerate(product(structures, schemes, strategies))
    ]


@dataclass(eq=False)
class ReplicationResult:
    """One replication's trajectory: ``performance`` holds one value per period
    (period t at index t - 1) and ``sizes[t - 1, a]`` is agent a's portfolio size
    at the end of period t."""

    performance: np.ndarray
    sizes: np.ndarray
    trades: list[TradeRecord]
    agents: list[AgentState]
    observation_counts: list[int]
    optimum_performance: float
    belief_snapshots: list[tuple[int, list[BeliefCounters]]] = field(default_factory=list)

    @property
    def normalized_series(self) -> np.ndarray:
        return self.performance / self.optimum_performance


def run_replication(scenario: ScenarioConfig, rep_index: int, collect_beliefs: bool = False) -> ReplicationResult:
    """Run one replication; see the module docstring for the period semantics."""
    matrix = scenario.matrix
    n, m = scenario.n, scenario.m
    tau = scenario.tau
    sigma = scenario.sigma
    strategy = scenario.strategy
    auction_every = scenario.horizon + 1 if strategy == STRATEGY_BENCHMARK else tau  # benchmark: never
    alpha, beta = scenario.incentive.alpha, scenario.incentive.beta

    rng_land = replication_rng(scenario.seed, scenario.cell_index, rep_index, ROLE_LANDSCAPE)
    rng_init = replication_rng(scenario.seed, scenario.cell_index, rep_index, ROLE_INIT)
    rng_hc = replication_rng(scenario.seed, scenario.cell_index, rep_index, ROLE_HILLCLIMB)
    rng_noise = replication_rng(scenario.seed, scenario.cell_index, rep_index, ROLE_NOISE)
    rng_tie = replication_rng(scenario.seed, scenario.cell_index, rep_index, ROLE_TIEBREAK)

    land = generate_landscape(matrix, rng_land)
    optimum = land.optimum_performance
    caps = scenario.resolved_capacities()
    if strategy == STRATEGY_BENCHMARK:
        owned_lists = mirrored_allocation(n, m)
    else:
        owned_lists = initial_allocation(n, m, caps, rng_init)
    agents = [AgentState(a, owned_lists[a], caps[a], init_beliefs(n)) for a in range(m)]
    bits = [int(b) for b in rng_init.integers(0, 2, size=n)]

    # Hot-loop views of the landscape: plain lists beat ndarray indexing here.
    orders = land.orders
    tables = [table.tolist() for table in land.tables]
    dependents = [matrix.dependents(i) for i in range(n)]

    def contribution(j: int) -> float:
        index = 0
        for i in orders[j]:
            index = (index << 1) | bits[i]
        return tables[j][index]

    def utility(values: list[float], owned: list[int], aid: int) -> float:
        own_sum = 0.0
        for d in owned:
            own_sum += values[d]
        res_sum = 0.0
        for d in range(n):
            if owner[d] != aid:
                res_sum += values[d]
        n_res = n - len(owned)
        return alpha * (own_sum / len(owned)) + beta * (res_sum / n_res if n_res else 0.0)

    def improves(agent: AgentState, flip: int) -> bool:
        candidate = contribs.copy()
        bits[flip] ^= 1
        for j in dependents[flip]:
            candidate[j] = contribution(j)
        bits[flip] ^= 1
        return utility(candidate, agent.owned, agent.id) > utility(contribs, agent.owned, agent.id)

    def total() -> float:
        value = 0.0
        for c in contribs:
            value += c
        return value / n

    owner = [0] * n
    contribs = [contribution(j) for j in range(n)]
    current_performance = total()
    verdicts: dict[int, bool] = {}
    positions = None

    performance: list[float] = []
    sizes: list[list[int]] = []
    current_sizes = [len(agent.owned) for agent in agents]
    trades: list[TradeRecord] = []
    snapshots: list[tuple[int, list[BeliefCounters]]] = []
    observations = [0] * m

    for t in range(1, scenario.horizon + 1):
        if t % auction_every == 0:
            offers = []
            for agent in agents:
                if strategy == STRATEGY_UTILITY:
                    offer = select_offer_utility(agent, land, bits, rng_tie)
                else:
                    offer = select_offer_interdependence(agent, rng_tie)
                if offer is not None:
                    offers.append(offer)
            round_trades = clear_auction(offers, agents, strategy, land, bits, sigma, rng_noise, rng_tie, t)
            trades.extend(round_trades)
            current_sizes = [len(agent.owned) for agent in agents]
            _check_allocation(agents, scenario, rep_index, t)
            positions = None
        else:
            if positions is None:
                # New ownership, fixed until the next auction: remap, drop verdicts, draw every position to then.
                for agent in agents:
                    for d in agent.owned:
                        owner[d] = agent.id
                verdicts.clear()
                last = min(scenario.horizon, (t // auction_every + 1) * auction_every - 1)
                positions = iter(rng_hc.integers(0, current_sizes * (last - t + 1)).tolist())
            flips: list[tuple[AgentState, int]] = []
            for agent in agents:
                flip = agent.owned[next(positions)]
                verdict = verdicts.get(flip)
                if verdict is None:
                    verdict = verdicts[flip] = improves(agent, flip)
                if verdict:
                    flips.append((agent, flip))

            if flips:
                previous = contribs
                for _, flip in flips:
                    bits[flip] ^= 1
                contribs = [contribution(j) for j in range(n)]
                current_performance = total()
                verdicts.clear()
                for agent, flip in flips:
                    before = {j: previous[j] for j in agent.owned}
                    after = {j: contribs[j] for j in agent.owned}
                    update_beliefs(agent, flip, before, after)
                    observations[agent.id] += len(agent.owned) - 1

        performance.append(current_performance)
        sizes.append(current_sizes)

        if collect_beliefs and (t % tau == 0 or t == scenario.horizon):
            snapshots.append((t, [agent.beliefs.copy() for agent in agents]))

    result = ReplicationResult(
        np.array(performance, dtype=np.float64), np.array(sizes), trades, agents, observations, optimum, snapshots
    )
    norm = result.normalized_series
    bad = np.flatnonzero(~((norm > 0.0) & (norm <= 1.0)))
    if bad.size:
        t = int(bad[0]) + 1
        raise InvariantViolation(
            f"cell {scenario.cell}, rep {rep_index}, period {t}: "
            f"normalized performance {float(norm[t - 1])!r} outside (0, 1]"
        )
    return result


def _check_allocation(agents: Sequence[AgentState], scenario: ScenarioConfig, rep_index: int, t: int) -> None:
    where = f"cell {scenario.cell}, rep {rep_index}, period {t}"
    held = sorted(d for agent in agents for d in agent.owned)
    if held != list(range(scenario.n)):
        raise InvariantViolation(f"{where}: owned sets do not partition the decisions")
    for agent in agents:
        if not 1 <= len(agent.owned) <= agent.capacity:
            raise InvariantViolation(f"{where}: agent {agent.id} holds {len(agent.owned)} decisions")


@dataclass(eq=False)
class ExperimentResult:
    """Aggregated output of one cell: per-period mean and CI99 half-width.

    ``scenario.matrix`` is the interaction matrix the replications ran on.
    """

    scenario: ScenarioConfig
    mean_norm_perf: np.ndarray
    ci99_half_width: np.ndarray
    trades: list[tuple[int, TradeRecord]] | None = None
    belief_snapshots: list[tuple[int, int, list[BeliefCounters]]] | None = None

    @property
    def cell(self) -> str:
        return self.scenario.cell

    @property
    def final_mean(self) -> float:
        return float(self.mean_norm_perf[-1])

    @property
    def final_half_width(self) -> float:
        return float(self.ci99_half_width[-1])


def aggregate_norm_series(series: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and 99 percent CI half-width across replications (rows)."""
    reps = series.shape[0]
    mean = series.mean(axis=0)
    if reps < 2:
        return mean, np.zeros_like(mean)
    half_width = CI99_Z * series.std(axis=0, ddof=1) / math.sqrt(reps)
    return mean, half_width


def _replication_payload(task: tuple[ScenarioConfig, int, bool, bool]):
    scenario, rep, want_trades, want_beliefs = task
    result = run_replication(scenario, rep, collect_beliefs=want_beliefs)
    trades = result.trades if want_trades else None
    beliefs = result.belief_snapshots if want_beliefs else None
    return result.normalized_series, trades, beliefs


def run_experiment(
    scenario: ScenarioConfig,
    jobs: int = 1,
    collect_trades: bool = False,
    collect_beliefs: bool = False,
    *,
    _executor: ProcessPoolExecutor | None = None,
) -> ExperimentResult:
    """Run all replications of one cell and aggregate them.

    ``jobs`` > 1 distributes replications over worker processes; because every
    replication owns its seed streams, the output does not depend on ``jobs``.
    No more workers start than there are replications. ``run_grid`` hands its
    one pool over as ``_executor``.
    """
    problems = scenario.validate()
    if problems:
        raise ConfigError("invalid scenario: " + "; ".join(problems))

    series = np.empty((scenario.reps, scenario.horizon), dtype=np.float64)
    trades: list[tuple[int, TradeRecord]] = []
    beliefs: list[tuple[int, int, list[BeliefCounters]]] = []
    tasks = [(scenario, rep, collect_trades, collect_beliefs) for rep in range(scenario.reps)]

    def consume(payloads) -> None:
        for rep, (norm, rep_trades, rep_beliefs) in enumerate(payloads):
            series[rep] = norm
            if collect_trades and rep_trades:
                trades.extend((rep, trade) for trade in rep_trades)
            if collect_beliefs and rep_beliefs:
                beliefs.extend((rep, period, counters) for period, counters in rep_beliefs)

    with nullcontext(_executor) if _executor is not None else _worker_pool(jobs, scenario.reps) as executor:
        consume((executor.map if executor else map)(_replication_payload, tasks))

    mean, half_width = aggregate_norm_series(series)
    return ExperimentResult(
        scenario=scenario,
        mean_norm_perf=mean,
        ci99_half_width=half_width,
        trades=trades if collect_trades else None,
        belief_snapshots=beliefs if collect_beliefs else None,
    )


@contextmanager
def _worker_pool(jobs: int, reps: int):
    """``min(jobs, reps)`` worker processes (None if ``jobs`` <= 1); a raising body cancels the queued work."""
    if jobs <= 1:
        yield None
        return
    with ProcessPoolExecutor(max_workers=max(1, min(jobs, reps))) as executor:
        try:
            yield executor
        except BaseException:
            executor.shutdown(cancel_futures=True)
            raise


def run_grid(
    base: ScenarioConfig,
    structures: Sequence[str] = GRID_STRUCTURES,
    incentives: Sequence[str | IncentiveScheme] = GRID_INCENTIVES,
    strategies: Sequence[str] = GRID_STRATEGIES,
    jobs: int = 1,
    collect_trades: bool = False,
    collect_beliefs: bool = False,
) -> list[ExperimentResult]:
    """Run every cell of ``expand_grid(base, structures, incentives, strategies)``, on one worker pool."""
    with _worker_pool(jobs, base.reps) as executor:
        return [
            run_experiment(scenario, jobs=jobs, collect_trades=collect_trades, collect_beliefs=collect_beliefs,
                           _executor=executor)
            for scenario in expand_grid(base, structures, incentives, strategies)
        ]


def write_results_csv(results: Sequence[ExperimentResult], path: str | Path) -> None:
    """Per-period aggregates, one row per (cell, period).

    Floats are written with ``repr`` (shortest round-trip form), which keeps
    repeated runs byte-identical.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["cell", "period", "mean_norm_perf", "ci99_half_width"])
        for result in results:
            cell = result.cell
            for t, (mean, half_width) in enumerate(zip(result.mean_norm_perf, result.ci99_half_width), start=1):
                writer.writerow([cell, t, repr(float(mean)), repr(float(half_width))])


def write_metadata_json(results: Sequence[ExperimentResult], path: str | Path) -> None:
    """Sidecar with everything needed to reproduce the run exactly."""
    cells = []
    for result in results:
        matrix = result.scenario.matrix
        dependencies = {str(j): matrix.dependencies(j) for j in range(matrix.n)}
        cells.append(dict(result.scenario.to_dict(), dependencies=dependencies))
    payload = {
        "version": __version__,
        "rng": {
            "generator": "numpy.random.PCG64 via default_rng",
            "scheme": "SeedSequence(master_seed, spawn_key=(cell_index, rep_index, role))",
            "roles": {str(role): name for role, name in ROLE_NAMES.items()},
        },
        "ci": {"level": 0.99, "z": CI99_Z},
        "cells": cells,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _ledger_cells(writer, results: Sequence[ExperimentResult], header: list[str], attribute: str, flag: str):
    """Write a ledger's header, then yield ``(prefix, collected, result)`` for each cell.

    The rules the trades and beliefs ledgers share: grid runs prefix a ``cell``
    column so rows from different cells stay distinguishable (each row starts
    with ``prefix``), and a cell whose ``attribute`` was not collected raises
    ``ValueError`` naming ``flag``.
    """
    grid = len(results) > 1
    writer.writerow(["cell", *header] if grid else header)
    for result in results:
        collected = getattr(result, attribute)
        if collected is None:
            raise ValueError(f"cell {result.cell} was run without {flag}")
        yield ([result.cell] if grid else []), collected, result


def write_trades_csv(results: Sequence[ExperimentResult], path: str | Path) -> None:
    """Trade ledger; requires experiments run with ``collect_trades=True``."""
    header = ["rep", "period", "decision", "seller", "winner", "winning_bid", "price", "strategy"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for prefix, trades, result in _ledger_cells(writer, results, header, "trades", "collect_trades"):
            strategy = result.scenario.strategy
            for rep, trade in trades:
                writer.writerow([*prefix, rep, trade.period, trade.decision, trade.seller, trade.winner,
                                 repr(float(trade.winning_bid)), repr(float(trade.price)), strategy])


def write_beliefs_csv(results: Sequence[ExperimentResult], path: str | Path) -> None:
    """Belief counter dump; requires experiments run with ``collect_beliefs=True``."""
    header = ["rep", "period", "agent", "i", "j", "p", "q", "belief"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for prefix, snapshots, _ in _ledger_cells(writer, results, header, "belief_snapshots", "collect_beliefs"):
            for rep, period, counters_by_agent in snapshots:
                for agent_id, counters in enumerate(counters_by_agent):
                    n = counters.p.shape[0]
                    for i in range(n):
                        for j in range(n):
                            if i == j:
                                continue
                            p = int(counters.p[i, j])
                            q = int(counters.q[i, j])
                            writer.writerow([*prefix, rep, period, agent_id, i, j, p, q, repr(p / (p + q))])
