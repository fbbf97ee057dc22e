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
period) and ``sizes`` (each agent's portfolio size per period). The loop holds
the trajectory as change points, since performance changes only when flips
land and sizes change only at auctions: a landed flip records the new
performance with the period it starts from, an auction records the new sizes,
and every period is read from them once at the end. Performance is
reported normalized by the landscape's exhaustive optimum, so values live in
(0, 1] and 1.0 means the global optimum was found. Experiments aggregate
``reps`` independent replications into a per-period mean and a 99 percent
confidence half-width.

Randomness is split into per-role streams seeded as
``SeedSequence(master_seed, spawn_key=(cell_index, rep_index, role))``. Every
replication is therefore self-contained: results are byte-identical no matter
how replications are distributed over worker processes. The bid-noise and
tie-break streams are built only when an auction period falls inside the
horizon; no other stream reads them, so skipping them changes no draw.

The period loop keeps incremental index state. ``idx[j]`` is decision j's
current index into its contribution table, and a flip of f XORs one
precomputed bit into ``idx[j]`` for each dependent j of f, so a proposal reads
only its dependents' candidate entries and a landed flip refreshes only their
contributions. A proposal's verdict comes from the local utility change Δ over
those dependents; when |Δ| is within ``VERDICT_GUARD``, a bound on the rounding
of the full sums, ``flip_improves`` compares the utilities of the contribution
vector and of a copy with the candidate entries, so every verdict is the one
``flip_improves`` gives on the full vectors. A period's performance is
``performance`` of the whole vector, the function that scores the optimum. A
verdict depends only on the configuration, the ownership and the incentive
weights, so it is cached per flipped decision and dropped only when a flip
lands or an auction clears. One ``integers(0, highs)`` call draws the hillclimb
positions up to the next auction or the horizon, exactly like one scalar draw
per agent and period. A period that lands no flip with every decision's verdict
cached is stalled: each cached verdict is "no", so the rest of the interval
repeats its performance and sizes, and is recorded without a pass over the
agents (belief snapshots included).
``tests/test_simulation.py`` and ``tests/test_properties.py`` pin the loop to
the op-composed reference replication, to exact float equality.

Belief snapshots, when collected, are taken at every period ``s`` with
``s % tau == 0`` and at the horizon. Each is one ``(s, changes)`` pair, where
``changes[a]`` is what agent a's ``BeliefCounters.pop_changes`` returns then:
the counter entries booked since the agent's previous snapshot, or since the
uniform prior at the first, which are exactly the entries that changed. The
tuple of those pairs, 1-3 KB for a k5 replication of 500 periods, is what a
worker sends and what every sink receives.

The scenario schema lives here and nowhere else: ``ScenarioConfig``'s field
declarations state each key a scenario file may set, with its value type,
default, and the help and choices of the ``orgsim run --<field>`` flag the CLI
makes from it; ``ScenarioConfig.from_dict`` checks file and flag values by the
annotated types, ``ScenarioConfig.to_dict`` the per-cell record of
``orgsim validate`` and ``metadata.json``, ``expand_grid`` the cell
enumeration, ``cells_from_dict`` the grid rules, and ``check_cells`` the run
check that ``orgsim run``, ``run_grid`` and the ledgers share. A scenario
resolves its interaction structure once, in ``ScenarioConfig.matrix``;
``validate``, the replications and ``metadata.json`` all read that one value.

A run is one stream of (cell, rep) tasks on one pool, read back in that order
with at most ``IN_FLIGHT_PER_WORKER`` results per worker submitted and unread.
Each replication's trades and belief snapshots go to the caller's ledger sinks
(``write_trades_csv``, ``write_beliefs_csv``) as it arrives, so a run keeps
only each cell's ``[reps, horizon]`` performance series, and its memory does
not grow with the ledgers. The beliefs ledger keeps each agent's row text
for the replication, starting from the prior's, rewrites only the rows of
the entries a snapshot changed, and writes each snapshot's rows as soon as
they are built.

numpy is imported inside the functions that compute with it, so checking
cells, ``validate`` and every rejected run load none. A run that opens a pool
imports it before the pool starts, so forked workers inherit it.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections import Counter, deque
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import cached_property
from itertools import islice, product
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterator, Mapping, Protocol, Sequence, TextIO, get_type_hints

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
    GAP,
    NONDECOMPOSABLE_K5,
    InteractionMatrix,
    build_stylized_matrix,
    generate_landscape,
    load_matrix,
    performance,
)
from .learning import init_beliefs, update_beliefs
from .organization import (
    INCENTIVE_PRESETS,
    AgentState,
    IncentiveScheme,
    flip_improves,
    initial_allocation,
    mirrored_allocation,
)

if TYPE_CHECKING:
    import numpy as np

STRATEGY_BENCHMARK = "benchmark"
STRATEGIES = (STRATEGY_UTILITY, STRATEGY_INTERDEPENDENCE, STRATEGY_BENCHMARK)

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

# A hillclimb verdict is the float comparison of two utilities, each a
# weighted mean of at most 25 contributions in [0, 1) summed in ascending
# order. By the rounding bound behind GAP the two utilities are, after the
# divisions and weights, within 1.5e-13 of their exact values together. The
# local change Δ, summed over the flipped decision's dependents only, is
# within 1e-13 of its own. When |Δ| exceeds the guard, the sign of Δ is the
# verdict the full sums give; otherwise the full sums decide.
VERDICT_GUARD = GAP

# A cell's [reps, horizon] float64 series is held whole until it is aggregated, so
# validate bounds its size: 10^8 values are 800 MB, 250 times the paper's 800 x 500.
MAX_REP_PERIODS = 100_000_000

GRID_STRUCTURES = (DECOMPOSABLE_K2, NONDECOMPOSABLE_K5)
# The axes a scenario's ``grid`` key may list, each with the per-cell field it sets, and the paper's values.
GRID_AXES = {"structures": "structure", "incentives": "incentive", "strategies": "strategy"}
PAPER_GRID = {"structures": GRID_STRUCTURES, "incentives": tuple(INCENTIVE_PRESETS), "strategies": STRATEGIES}


def replication_rng(master_seed: int, cell_index: int, rep_index: int, role: int) -> np.random.Generator:
    """Independent generator for one (cell, replication, role) triple."""
    import numpy as np

    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(cell_index, rep_index, role)))


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one experiment cell.

    ``structure`` is ``"k2"``, ``"k5"``, or ``"file:<path>"``; ``strategy`` is
    ``"utility"``, ``"interdependence"``, or ``"benchmark"``. All numeric
    defaults follow the reference parameterization. An input field's metadata
    holds its ``--<field>`` flag's help and choices.
    """

    structure: str = field(metadata={"help": "k2, k5, or file:<path>"})
    incentive: IncentiveScheme = field(metadata={"help": f"one of {sorted(INCENTIVE_PRESETS)} or alpha=<value>"})
    strategy: str = field(metadata={"help": "auction strategy or benchmark", "choices": STRATEGIES})
    n: int = field(default=15, metadata={"help": "number of decisions"})
    m: int = field(default=5, metadata={"help": "number of agents"})
    tau: int = field(default=25, metadata={"help": "auction interval"})
    horizon: int = field(default=500, metadata={"help": "periods per replication"})
    reps: int = field(default=800, metadata={"help": "replications per cell"})
    sigma: float = field(default=0.05, metadata={"help": "bid noise standard deviation"})
    capacity: int | tuple[int, ...] = field(
        default=5, metadata={"help": "per-agent capacity: one integer or m comma-separated integers"})
    seed: int = field(default=0, metadata={"help": "master seed"})
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
            rule = _VALUE_RULES.get(INPUT_TYPES[key])
            if rule is not None and (isinstance(value, bool) or not isinstance(value, rule[0])):
                raise ConfigError(f"{key} must be {rule[1]}, got {value!r}")
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
        if token in GRID_STRUCTURES:
            return build_stylized_matrix(token, self.n)
        if token.startswith("file:"):
            return load_matrix(token[5:])
        raise ConfigError(f"unknown structure {token!r}; use 'k2', 'k5', or 'file:<path>'")

    def validate(self) -> list[str]:
        """Collect every violation instead of stopping at the first. Once n exceeds ``ENUMERATION_LIMIT`` the
        structure is neither built nor read, so its own problems, a ``file:`` matrix's included, go unreported."""
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
        elif self.horizon >= 1 and self.reps * self.horizon > MAX_REP_PERIODS:
            problems.append(f"reps x horizon must be at most {MAX_REP_PERIODS}, got {self.reps} x {self.horizon}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            problems.append(f"sigma must be finite and nonnegative, got {self.sigma}")
        if self.seed < 0:
            problems.append(f"seed must be nonnegative, got {self.seed}")
        if self.cell_index < 0:
            problems.append(f"cell_index must be nonnegative, got {self.cell_index}")

        # An integer capacity is repeated m times; an m outside [1, min(n, ENUMERATION_LIMIT)] already has a problem.
        if 1 <= self.m <= min(self.n, ENUMERATION_LIMIT):
            caps = self.resolved_capacities()
            if len(caps) != self.m:
                problems.append(f"expected {self.m} capacities, got {len(caps)}")
            elif any(c < 1 for c in caps):
                problems.append(f"capacities must be positive, got {caps}")
            elif self.n % self.m == 0 and min(caps) < self.n // self.m:
                problems.append(f"equal share {self.n // self.m} exceeds the smallest capacity {min(caps)}")

        if self.m == 1 and self.incentive.alpha != 1.0:
            problems.append("a single agent has no residual; alpha must be 1.0 when m=1")

        if self.n > ENUMERATION_LIMIT:
            # n is already rejected; a matrix of that size costs O(n²) to build or read.
            return problems
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
# Each input key's annotated type. The CLI converts an int or a float flag by it, and from_dict checks a
# value by its rule below: the accepted types and their name. capacity has none; _parse_capacity reads it.
INPUT_TYPES = {key: hint for key, hint in get_type_hints(ScenarioConfig).items() if key in INPUT_KEYS}
_VALUE_RULES = {int: (int, "an integer"), float: ((int, float), "a number"), str: (str, "a string"),
                IncentiveScheme: (str, "a string")}


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
    structures: Sequence[str] = PAPER_GRID["structures"],
    incentives: Sequence[str] = PAPER_GRID["incentives"],
    strategies: Sequence[str] = PAPER_GRID["strategies"],
) -> list[ScenarioConfig]:
    """The cross of structures x incentives x strategies over ``base``.

    Cells are enumerated in that nesting order and numbered sequentially, so a
    given grid always maps to the same cell indices and seed streams. An
    incentive is a token for ``IncentiveScheme.parse``: a preset name or ``alpha=<x>``.
    """
    schemes = [IncentiveScheme.parse(token) for token in incentives]
    return [
        replace(base, structure=structure, incentive=scheme, strategy=strategy, cell_index=index)
        for index, (structure, scheme, strategy) in enumerate(product(structures, schemes, strategies))
    ]


def grid_axes(grid: object) -> dict[str, list[str]]:
    """A ``grid`` value, shape-checked, as ``expand_grid``'s axes; a missing axis takes the paper grid's values."""
    if not isinstance(grid, dict):
        raise ConfigError(f"grid must be an object with {sorted(GRID_AXES)}")
    unknown = sorted(set(grid) - set(GRID_AXES))
    if unknown:
        raise ConfigError(f"unknown grid keys {unknown}")
    for axis, values in grid.items():
        if not isinstance(values, list) or not values or not all(isinstance(v, str) for v in values):
            raise ConfigError(f"grid {axis} must be a non-empty list of strings")
    return {**{axis: list(values) for axis, values in PAPER_GRID.items()}, **grid}


def check_cells(cells: Sequence[ScenarioConfig]) -> None:
    """The run check: one ``ConfigError`` naming every cell's ``validate()`` problems, then duplicate labels."""
    problems = [f"{cell.cell}: {problem}" for cell in cells for problem in cell.validate()]
    # Every output keys its rows by label, so two cells of one label could not be told apart.
    shared = [label for label, count in Counter(cell.cell for cell in cells).items() if count > 1]
    if shared:
        problems.append(f"duplicate cell labels: {', '.join(shared)}")
    if problems:
        raise ConfigError("; ".join(problems))


def cells_from_dict(data: Mapping[str, object]) -> list[ScenarioConfig]:
    """A run's cells, passed by ``check_cells``, from scenario values: one cell, or a ``grid`` key's cells."""
    values = dict(data)
    if "grid" not in values:
        cells = [ScenarioConfig.from_dict(values)]
    else:
        axes = grid_axes(values.pop("grid"))
        given = [key for key in GRID_AXES.values() if key in values]
        if given:
            raise ConfigError(f"a grid run sets {', '.join(given)} per cell; remove it from the flags and the "
                              "top level of the scenario file, or list it in the grid")
        # expand_grid replaces these fields in every cell; from_dict needs a value for each.
        first = {key: axes[axis][0] for axis, key in GRID_AXES.items()}
        cells = expand_grid(ScenarioConfig.from_dict({**first, **values}), **axes)
    check_cells(cells)
    return cells


# One (period, changes) pair per belief snapshot: changes[a] holds agent a's (i * n + j, p, q) counter entries,
# row-major, that differ at the end of period from its previous snapshot, or at the first from the prior p = q = 1.
BeliefSnapshots = tuple[tuple[int, tuple[tuple[tuple[int, int, int], ...], ...]], ...]


@dataclass(eq=False)
class ReplicationResult:
    """One replication's trajectory: ``performance`` holds one value per period
    (period t at index t - 1) and ``sizes[t - 1, a]`` is agent a's portfolio size
    at the end of period t. Agent a's final counters hold its Σ(p + q - 2) belief
    observations. ``belief_snapshots`` holds one ``(period, changes)`` pair per snapshot, and is ``()`` unless
    the run collected beliefs."""

    performance: np.ndarray
    sizes: np.ndarray
    trades: list[TradeRecord]
    agents: list[AgentState]
    optimum_performance: float
    belief_snapshots: BeliefSnapshots

    @property
    def normalized_series(self) -> np.ndarray:
        return self.performance / self.optimum_performance


def run_replication(scenario: ScenarioConfig, rep_index: int, collect_beliefs: bool = False) -> ReplicationResult:
    """Run one replication; see the module docstring for the period semantics."""
    import numpy as np

    matrix = scenario.matrix
    n, m = scenario.n, scenario.m
    tau, horizon = scenario.tau, scenario.horizon
    sigma = scenario.sigma
    strategy = scenario.strategy
    auction_every = horizon + 1 if strategy == STRATEGY_BENCHMARK else tau  # benchmark: never
    incentive = scenario.incentive
    alpha, beta = incentive.alpha, incentive.beta

    rng_land = replication_rng(scenario.seed, scenario.cell_index, rep_index, ROLE_LANDSCAPE)
    rng_init = replication_rng(scenario.seed, scenario.cell_index, rep_index, ROLE_INIT)
    rng_hc = replication_rng(scenario.seed, scenario.cell_index, rep_index, ROLE_HILLCLIMB)
    if auction_every <= horizon:
        rng_noise = replication_rng(scenario.seed, scenario.cell_index, rep_index, ROLE_NOISE)
        rng_tie = replication_rng(scenario.seed, scenario.cell_index, rep_index, ROLE_TIEBREAK)

    land = generate_landscape(matrix, rng_land)
    optimum = land.optimum[1]
    caps = scenario.resolved_capacities()
    if strategy == STRATEGY_BENCHMARK:
        owned_lists = mirrored_allocation(n, m)
    else:
        owned_lists = initial_allocation(n, m, caps, rng_init)
    agents = [AgentState(a, owned_lists[a], caps[a], init_beliefs(n)) for a in range(m)]
    bits = [int(b) for b in rng_init.integers(0, 2, size=n)]

    # Index state: idx[j] indexes tables[j] under the current configuration, and
    # a flip of f XORs bit into idx[j] for each (j, bit) in masks[f], that is for
    # every j in dependents[f], ascending.
    tables = [table.tolist() for table in land.tables]
    masks: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    idx = []
    for j, order in enumerate(matrix.orders):
        index = 0
        for pos, i in enumerate(order):
            masks[i].append((j, 1 << (len(order) - 1 - pos)))
            index = (index << 1) | bits[i]
        idx.append(index)
    contribs = [tables[j][idx[j]] for j in range(n)]

    def improves(agent: AgentState, flip: int) -> bool:
        aid = agent.id
        own_delta = res_delta = 0.0
        for j, bit in masks[flip]:
            change = tables[j][idx[j] ^ bit] - contribs[j]
            if owner[j] == aid:
                own_delta += change
            else:
                res_delta += change
        n_own = len(agent.owned)
        delta = alpha * own_delta / n_own + (beta * res_delta / (n - n_own) if n_own < n else 0.0)
        if abs(delta) > VERDICT_GUARD:
            return delta > 0.0
        # Too close to call from the local change: the full sums decide.
        candidate = contribs.copy()
        for j, bit in masks[flip]:
            candidate[j] = tables[j][idx[j] ^ bit]
        return flip_improves(agent, contribs, candidate, incentive)

    owner = [0] * n
    verdicts: dict[int, bool] = {}
    positions = None

    # The trajectory as change points: perf_values[i] holds from period perf_starts[i] on, the last of equal
    # starts winning, and size_rows[k] from the k-th auction period on.
    perf_values, perf_starts = [performance(contribs)], [1]
    size_rows = [[len(agent.owned) for agent in agents]]
    trades: list[TradeRecord] = []
    periods = tuple(s for s in range(1, horizon + 1) if s % tau == 0 or s == horizon) if collect_beliefs else ()
    snapshots = []  # one (period, changes) pair per snapshot taken so far

    t = 1
    while t <= horizon:
        through = t  # the last period this pass records
        if t % auction_every == 0:
            offers = []
            for agent in agents:
                if strategy == STRATEGY_UTILITY:
                    offer = select_offer_utility(agent, contribs, rng_tie)
                else:
                    offer = select_offer_interdependence(agent, rng_tie)
                if offer is not None:
                    offers.append(offer)
            try:
                round_trades = clear_auction(offers, agents, strategy, contribs, sigma, rng_noise, rng_tie, t)
                _check_allocation(agents, n, t)
            except InvariantViolation as exc:  # its message starts at "period t: "
                raise InvariantViolation(f"cell {scenario.cell}, rep {rep_index}, {exc}") from exc
            trades.extend(round_trades)
            size_rows.append([len(agent.owned) for agent in agents])
            positions = None
        else:
            if positions is None:
                # New ownership, fixed until the next auction: remap, drop verdicts, draw every position to then.
                for agent in agents:
                    for d in agent.owned:
                        owner[d] = agent.id
                verdicts.clear()
                last = min(horizon, (t // auction_every + 1) * auction_every - 1)
                positions = iter(rng_hc.integers(0, size_rows[-1] * (last - t + 1)).tolist())
            flips: list[tuple[AgentState, int]] = []
            for agent in agents:
                flip = agent.owned[next(positions)]
                verdict = verdicts.get(flip)
                if verdict is None:
                    verdict = verdicts[flip] = improves(agent, flip)
                if verdict:
                    flips.append((agent, flip))

            if flips:
                previous = contribs.copy()
                for _, flip in flips:
                    for j, bit in masks[flip]:
                        idx[j] ^= bit
                        contribs[j] = tables[j][idx[j]]
                perf_values.append(performance(contribs))
                perf_starts.append(t)
                verdicts.clear()
                for agent, flip in flips:
                    update_beliefs(agent, flip, previous, contribs)
            elif len(verdicts) == n:
                # Stalled: every proposal is a cached "no", so nothing changes until the interval ends.
                through = last

        while len(snapshots) < len(periods) and periods[len(snapshots)] <= through:
            snapshots.append((periods[len(snapshots)], tuple(agent.beliefs.pop_changes() for agent in agents)))
        t = through + 1

    ts = np.arange(1, horizon + 1)
    series = np.array(perf_values, dtype=np.float64)[np.searchsorted(perf_starts, ts, side="right") - 1]
    sizes = np.array(size_rows, dtype=np.int64)[ts // auction_every]
    result = ReplicationResult(series, sizes, trades, agents, optimum, tuple(snapshots))
    norm = result.normalized_series
    bad = np.flatnonzero(~((norm > 0.0) & (norm <= 1.0)))
    if bad.size:
        t = int(bad[0]) + 1
        raise InvariantViolation(
            f"cell {scenario.cell}, rep {rep_index}, period {t}: "
            f"normalized performance {float(norm[t - 1])!r} outside (0, 1]"
        )
    return result


def _check_allocation(agents: Sequence[AgentState], n: int, t: int) -> None:
    held = sorted(d for agent in agents for d in agent.owned)
    if held != list(range(n)):
        raise InvariantViolation(f"period {t}: owned sets do not partition the decisions")
    for agent in agents:
        if not 1 <= len(agent.owned) <= agent.capacity:
            raise InvariantViolation(f"period {t}: agent {agent.id} holds {len(agent.owned)} decisions")


@dataclass(eq=False)
class ExperimentResult:
    """Aggregated output of one cell: per-period mean and CI99 half-width.

    ``scenario.matrix`` is the interaction matrix the replications ran on.
    """

    scenario: ScenarioConfig
    mean_norm_perf: np.ndarray
    ci99_half_width: np.ndarray

    @property
    def final_mean(self) -> float:
        return float(self.mean_norm_perf[-1])

    @property
    def final_half_width(self) -> float:
        return float(self.ci99_half_width[-1])


def aggregate_norm_series(series: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and 99 percent CI half-width across replications (rows)."""
    import numpy as np

    reps = series.shape[0]
    mean = series.mean(axis=0)
    if reps < 2:
        return mean, np.zeros_like(mean)
    half_width = CI99_Z * series.std(axis=0, ddof=1) / math.sqrt(reps)
    return mean, half_width


class LedgerSink(Protocol):
    """Receives each replication's ``records``, in (cell, rep) order: its ``trades`` list, or its
    ``belief_snapshots``, one ``(period, changes)`` pair per snapshot with each agent's changed counter entries."""

    def write(self, scenario: ScenarioConfig, rep: int, records: list[TradeRecord] | BeliefSnapshots) -> None: ...


# Replication results a pool may hold submitted but not yet read, per worker:
# enough to keep every worker busy while the parent writes ledger rows, few
# enough that a run's memory does not grow with its replications.
IN_FLIGHT_PER_WORKER = 4


def _replication_payload(task: tuple[ScenarioConfig, int, bool, bool]):
    scenario, rep, want_trades, want_beliefs = task
    result = run_replication(scenario, rep, collect_beliefs=want_beliefs)
    return result.normalized_series, result.trades if want_trades else None, result.belief_snapshots


def _in_order(executor, tasks, limit: int):
    """Yield each task's payload from a ``concurrent.futures`` executor in task order, with at most ``limit``
    submitted and not yet read."""
    pending = deque(executor.submit(_replication_payload, task) for task in islice(tasks, limit))
    while pending:
        payload = pending.popleft().result()
        pending.extend(executor.submit(_replication_payload, task) for task in islice(tasks, 1))
        yield payload


@contextmanager
def _replications(scenarios: Sequence[ScenarioConfig], jobs: int, want_trades: bool, want_beliefs: bool):
    """Yield an iterator over the payloads of every (cell, rep) of ``scenarios``, in that order.

    Every cell passes ``check_cells`` before any work starts. The run has one pool of
    ``min(jobs, total reps)`` workers, or none when that is 1: then each
    payload is computed as it is read. A raising body cancels the submitted
    work.
    """
    check_cells(scenarios)
    tasks = ((scenario, rep, want_trades, want_beliefs) for scenario in scenarios for rep in range(scenario.reps))
    workers = min(jobs, sum(scenario.reps for scenario in scenarios))
    if workers <= 1:
        yield map(_replication_payload, tasks)
        return
    # Only a run that opens a pool pays for concurrent.futures. numpy loads before the pool starts, so forked
    # workers inherit it rather than import it again.
    import concurrent.futures

    import numpy  # noqa: F401

    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as executor:
        try:
            yield _in_order(executor, tasks, IN_FLIGHT_PER_WORKER * workers)
        except BaseException:
            executor.shutdown(cancel_futures=True)
            raise


def run_experiment(
    scenario: ScenarioConfig,
    jobs: int = 1,
    trades: LedgerSink | None = None,
    beliefs: LedgerSink | None = None,
    *,
    _payloads=None,
) -> ExperimentResult:
    """Run all replications of one cell and aggregate them.

    ``jobs`` > 1 distributes replications over worker processes; because every
    replication owns its seed streams, the output does not depend on ``jobs``.
    No more workers start than there are replications. Each replication's
    trades and belief snapshots go to the ``trades`` and ``beliefs`` sinks as
    it arrives, in rep order; neither is kept. Without ``_payloads`` it returns
    ``run_grid([scenario], ...)[0]``: ``run_grid`` hands its run-wide payload stream over as ``_payloads``.
    """
    if _payloads is None:
        return run_grid([scenario], jobs, trades, beliefs)[0]
    import numpy as np

    series = np.empty((scenario.reps, scenario.horizon), dtype=np.float64)
    for rep, (norm, rep_trades, rep_beliefs) in zip(range(scenario.reps), _payloads):
        series[rep] = norm
        if trades is not None:
            trades.write(scenario, rep, rep_trades)
        if beliefs is not None:
            beliefs.write(scenario, rep, rep_beliefs)

    mean, half_width = aggregate_norm_series(series)
    return ExperimentResult(scenario=scenario, mean_norm_perf=mean, ci99_half_width=half_width)


def run_grid(
    scenarios: Sequence[ScenarioConfig],
    jobs: int = 1,
    trades: LedgerSink | None = None,
    beliefs: LedgerSink | None = None,
) -> list[ExperimentResult]:
    """Run the given cells in order, as one stream of (cell, rep) tasks on one pool.

    The pool has ``min(jobs, total reps)`` workers, and later cells' replications
    start while earlier cells are still being read. ``expand_grid(base)`` gives
    the reference grid; a single cell is a list of one.
    """
    with _replications(scenarios, jobs, trades is not None, beliefs is not None) as payloads:
        return [run_experiment(scenario, trades=trades, beliefs=beliefs, _payloads=payloads) for scenario in scenarios]


@contextmanager
def _output(path: str | Path) -> Iterator[TextIO]:
    """Every output file, opened under a temporary name and moved into place when the body completes: a write
    that fails part way leaves none and keeps an older one. Line endings are written as given on every platform."""
    path = Path(path)
    partial = path.with_name(path.name + ".partial")
    try:
        with open(partial, "w", encoding="utf-8", newline="") as fh:
            yield fh
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    os.replace(partial, path)


# writerow returns the text of its row, so _LEAD.writerow([cell, ""]) is ``cell,`` quoted as csv.writer quotes it.
_LEAD = csv.writer(SimpleNamespace(write=str), lineterminator="")


def write_results_csv(results: Sequence[ExperimentResult], path: str | Path) -> None:
    """Per-period aggregates, one row per (cell, period).

    Floats are written with ``repr`` (shortest round-trip form), which keeps
    repeated runs byte-identical. Only the label may need quoting, so each
    cell's ``cell,`` lead goes through ``csv.writer`` once and the numbers
    are written as text, as ``csv.writer`` would write them.
    """
    with _output(path) as fh:
        fh.write("cell,period,mean_norm_perf,ci99_half_width\n")
        for result in results:
            lead = _LEAD.writerow([result.scenario.cell, ""])
            rows = zip(result.mean_norm_perf.tolist(), result.ci99_half_width.tolist())
            fh.write("".join(f"{lead}{t},{mean!r},{half_width!r}\n" for t, (mean, half_width) in enumerate(rows, 1)))


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
    with _output(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


class _Ledger:
    """A CSV ledger written one replication at a time.

    A ledger is opened for the cells of one run, which must pass ``check_cells``;
    a replication of a cell outside that run raises ``ValueError``. A run of
    more than one cell prefixes a ``cell`` column so rows from different
    cells stay distinguishable. The header and each cell's ``cell,`` lead go
    through ``csv.writer`` once, because a ``file:`` stem may need quoting;
    the remaining fields are numbers and a strategy name, which
    ``csv.writer`` would write unquoted, so subclasses build them as text
    in ``_rows``, which yields a replication's rows in one or more pieces,
    each written as it comes.
    """

    header: tuple[str, ...] = ()

    def __init__(self, fh: TextIO, cells: Sequence[ScenarioConfig]) -> None:
        check_cells(cells)
        self._fh = fh
        grid = len(cells) > 1
        csv.writer(fh, lineterminator="\n").writerow(("cell", *self.header) if grid else self.header)
        self._leads = {scenario.cell: _LEAD.writerow([scenario.cell, ""]) if grid else "" for scenario in cells}

    def write(self, scenario: ScenarioConfig, rep: int, records: list[TradeRecord] | BeliefSnapshots) -> None:
        cell = scenario.cell
        if cell not in self._leads:
            raise ValueError(f"ledger opened for cells {sorted(self._leads)} got a replication of cell {cell!r}")
        for text in self._rows(f"{self._leads[cell]}{rep},", scenario, records):
            self._fh.write(text)


class _TradesLedger(_Ledger):
    header = ("rep", "period", "decision", "seller", "winner", "winning_bid", "price", "strategy")

    def _rows(self, lead: str, scenario: ScenarioConfig, trades: list[TradeRecord]) -> Iterator[str]:
        strategy = scenario.strategy
        yield "".join(
            f"{lead}{t.period},{t.decision},{t.seller},{t.winner},{float(t.winning_bid)!r},{float(t.price)!r},"
            f"{strategy}\n"
            for t in trades
        )


class _BeliefText(dict):
    """Maps ``(p, q)`` to the row tail ``p,q,<repr(p / (p + q))>``; few distinct pairs recur in a run."""

    def __missing__(self, key: tuple[int, int]) -> str:
        p, q = key
        text = self[key] = f"{p},{q},{p / (p + q)!r}\n"
        return text


class _BeliefsLedger(_Ledger):
    """Rows ``period,agent,i,j,p,q,belief`` for each snapshot, agent and off-diagonal pair, in that order.

    A row body ``i,j,p,q,belief`` depends only on the pair and its counters.
    Each agent's bodies start a replication as the prior's, and a snapshot
    rewrites only the bodies of the entries it changed (a diagonal entry has
    no row), so an agent's rows differ from its previous snapshot's only there
    and in the ``period,agent,`` head. Each snapshot's rows are written as soon
    as they are built.
    """

    header = ("rep", "period", "agent", "i", "j", "p", "q", "belief")

    def __init__(self, fh: TextIO, cells: Sequence[ScenarioConfig]) -> None:
        super().__init__(fh, cells)
        self._text = _BeliefText()
        self._layouts: dict[int, tuple[list[str], list[int], list[str]]] = {}

    def _layout(self, n: int) -> tuple[list[str], list[int], list[str]]:
        """An ``(n, n)`` matrix's off-diagonal ``"i,j,"`` texts, row-major; each entry ``i * n + j``'s position
        among them, -1 on the diagonal; and the prior's row bodies."""
        if n not in self._layouts:
            pairs = [f"{i},{j}," for i in range(n) for j in range(n) if i != j]
            positions = [i * (n - 1) + j - (j > i) if i != j else -1 for i in range(n) for j in range(n)]
            prior = [pair + self._text[1, 1] for pair in pairs]
            self._layouts[n] = (pairs, positions, prior)
        return self._layouts[n]

    def _rows(self, lead: str, scenario: ScenarioConfig, snapshots: BeliefSnapshots) -> Iterator[str]:
        pairs, positions, prior = self._layout(scenario.n)
        if not pairs:  # n = 1: no off-diagonal counters, so no rows
            return
        text = self._text
        bodies = [prior.copy() for _ in range(scenario.m)]
        for period, agents in snapshots:
            parts = []
            for agent_id, (body, entries) in enumerate(zip(bodies, agents)):
                for entry, p, q in entries:
                    position = positions[entry]
                    if position >= 0:
                        body[position] = pairs[position] + text[p, q]
                head = f"{lead}{period},{agent_id},"
                # Every row ends in a newline, so joining on head starts each later row with it.
                parts.append(head + head.join(body))
            yield "".join(parts)


@contextmanager
def _ledger(path: str | Path, kind: type[_Ledger], cells: Sequence[ScenarioConfig]):
    with _output(path) as fh:
        yield kind(fh, cells)


def write_trades_csv(path: str | Path, cells: Sequence[ScenarioConfig]):
    """Trade ledger at ``path`` for a run of ``cells``: a context manager yielding the ``trades`` sink of
    ``run_experiment`` or ``run_grid``. More than one cell adds a leading ``cell`` column."""
    return _ledger(path, _TradesLedger, cells)


def write_beliefs_csv(path: str | Path, cells: Sequence[ScenarioConfig]):
    """Belief counter dump at ``path`` for a run of ``cells``: a context manager yielding the ``beliefs`` sink
    of ``run_experiment`` or ``run_grid``. More than one cell adds a leading ``cell`` column."""
    return _ledger(path, _BeliefsLedger, cells)
