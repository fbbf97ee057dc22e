"""Acceptance criteria, one test per criterion.

Every criterion runs at a pinned seed and scale, so each verdict is
deterministic. The conftest terminal-summary hook prints one PASS/FAIL line
per criterion at the end of the run.

1. engine vs brute-force oracle, exact equality on enumerable environments
2. single-agent convergence to exactly 1.0 on an uncoupled problem
3. model invariants across the full 18-cell grid
4. individualistic incentives, tight coupling: benchmark > belief-based
   auction > contribution-based auction, outer gap CI-separated
5. balanced incentives: the two auction mechanisms are statistically
   indistinguishable
6. altruistic incentives, tight coupling: the contribution-based auction at
   least matches the fixed benchmark; the belief-based auction stays within
   the benchmark's confidence band
7. byte-identical outputs across repeated runs and worker counts
8. bid noise through the bidding path has the configured moments
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from orgsim import (
    AgentState,
    IncentiveScheme,
    Offer,
    ScenarioConfig,
    clear_auction,
    contribution,
    expand_grid,
    global_optimum,
    init_beliefs,
    performance,
    run_grid,
    run_replication,
)
from orgsim.cli import main
from orgsim.landscape import generate_landscape, random_matrix
from orgsim.oracle import (
    brute_contribution,
    brute_min_contribution,
    brute_optimum,
    brute_performance,
    enumerate_configs,
)
from helpers import contributions_of, k0_landscape

BALANCED = IncentiveScheme.parse("balanced")

GRID_STRUCTURES = ("k2", "k5")
GRID_INCENTIVES = ("individualistic", "balanced", "altruistic")
GRID_STRATEGIES = ("utility", "interdependence", "benchmark")


@pytest.fixture(scope="module")
def desk_grid():
    """Shared 18-cell grid at desk scale: 100 reps, 500 periods, seed 0."""
    base = ScenarioConfig(structure="k2", incentive=BALANCED, strategy="utility",
                          reps=100, horizon=500, seed=0)
    return {result.scenario.cell: result for result in run_grid(expand_grid(base))}


def test_criterion_1_oracle_equivalence():
    """Exact agreement with the brute-force oracle on every enumerable case."""
    for n in (2, 3, 4):
        for k in sorted({0, 1, n - 1}):
            rng = np.random.default_rng(1000 * n + k)
            for _ in range(50):
                matrix = random_matrix(n, k, rng)
                land = generate_landscape(matrix, rng)
                for config in enumerate_configs(n):
                    for j in range(n):
                        assert contribution(land, config, j) == brute_contribution(land, config, j)
                    assert performance(contributions_of(land, config)) == brute_performance(land, config)
                engine_config, engine_perf = global_optimum(land)
                brute_config, brute_perf = brute_optimum(land)
                assert np.array_equal(engine_config, brute_config)
                assert engine_perf == brute_perf
                assert land.optimum[1] == brute_perf

                subset = sorted(int(d) for d in rng.choice(n, size=max(2, n - 1), replace=False))
                config = tuple(int(b) for b in rng.integers(0, 2, size=n))
                low, argmins = brute_min_contribution(land, config, subset)
                values = {j: contribution(land, config, j) for j in subset}
                assert low == min(values.values())
                assert argmins == [j for j in subset if values[j] == low]


def test_criterion_2_single_agent_convergence(tmp_path):
    """m=1, alpha=1, uncoupled decisions: >= 99/100 replications reach exactly 1.0
    within 200 periods."""
    path = tmp_path / "identity15.txt"
    rows = "\n".join(" ".join("1" if i == j else "0" for i in range(15)) for j in range(15))
    path.write_text(f"15\n{rows}\n")
    scenario = ScenarioConfig(structure=f"file:{path}", incentive=IncentiveScheme(1.0),
                              strategy="benchmark", n=15, m=1, capacity=15,
                              horizon=200, reps=100, seed=0)
    assert scenario.validate() == []
    converged = sum(
        1 for rep in range(100)
        if np.any(run_replication(scenario, rep).normalized_series == 1.0)
    )
    assert converged >= 99, f"only {converged}/100 replications reached the optimum exactly"


def test_criterion_3_invariant_suite():
    """Partition, capacity, floor, bounds, carryover, and bookkeeping invariants
    across all 18 cells at 20 reps x 120 periods."""
    base = ScenarioConfig(structure="k2", incentive=BALANCED, strategy="utility",
                          reps=20, horizon=120, seed=0)
    cell_index = 0
    for structure in GRID_STRUCTURES:
        for incentive in GRID_INCENTIVES:
            for strategy in GRID_STRATEGIES:
                scenario = replace(base, structure=structure,
                                   incentive=IncentiveScheme.parse(incentive),
                                   strategy=strategy, cell_index=cell_index)
                cell_index += 1
                for rep in range(scenario.reps):
                    result = run_replication(scenario, rep)
                    normalized = result.normalized_series
                    assert normalized.shape == (120,)
                    assert result.sizes.shape == (120, 5)
                    assert np.all((normalized > 0.0) & (normalized <= 1.0))
                    assert np.all(result.sizes.sum(axis=1) == 15)
                    capacities = [agent.capacity for agent in result.agents]
                    assert np.all((result.sizes >= 1) & (result.sizes <= capacities))
                    if strategy != "benchmark":
                        auctions = np.arange(25, 121, 25)
                        assert np.array_equal(result.performance[auctions - 1], result.performance[auctions - 2])
                    if strategy == "benchmark":
                        assert result.trades == []
                        assert np.all(result.sizes == 3)
                    for trade in result.trades:
                        assert trade.period % 25 == 0
                        assert trade.seller != trade.winner
                        assert 0 <= trade.decision < 15
                        assert trade.price <= trade.winning_bid
                    held = sorted(d for agent in result.agents for d in agent.owned)
                    assert held == list(range(15))
                    for agent in result.agents:
                        booked = int(np.sum(agent.beliefs.p) + np.sum(agent.beliefs.q)) - 2 * 15 * 15
                        assert booked == result.observation_counts[agent.id]


def test_criterion_4_individualistic_k5_ordering(desk_grid):
    """Tight coupling plus individualistic incentives: fixed mirrored allocation
    beats the belief-based auction, which beats the contribution-based auction;
    the outer gap is CI99-separated."""
    benchmark = desk_grid["k5-individualistic-benchmark"]
    interdependence = desk_grid["k5-individualistic-interdependence"]
    utility = desk_grid["k5-individualistic-utility"]
    assert benchmark.final_mean > interdependence.final_mean > utility.final_mean
    assert benchmark.final_mean - benchmark.final_half_width > utility.final_mean + utility.final_half_width


def test_criterion_5_balanced_mechanisms_indistinguishable(desk_grid):
    """Balanced incentives: the two auction mechanisms end within each other's
    CI99 bands on both structures."""
    for structure in GRID_STRUCTURES:
        utility = desk_grid[f"{structure}-balanced-utility"]
        interdependence = desk_grid[f"{structure}-balanced-interdependence"]
        gap = abs(utility.final_mean - interdependence.final_mean)
        assert gap <= utility.final_half_width + interdependence.final_half_width, structure


def test_criterion_6_altruistic_k5_auction_value(desk_grid):
    """Altruistic incentives, tight coupling: the contribution-based auction at
    least matches the benchmark; the belief-based auction overlaps it."""
    benchmark = desk_grid["k5-altruistic-benchmark"]
    utility = desk_grid["k5-altruistic-utility"]
    interdependence = desk_grid["k5-altruistic-interdependence"]
    assert utility.final_mean >= benchmark.final_mean
    gap = abs(interdependence.final_mean - benchmark.final_mean)
    assert gap <= interdependence.final_half_width + benchmark.final_half_width


def test_criterion_7_deterministic_output_bytes(tmp_path, monkeypatch):
    """The full grid, run twice through the CLI with different worker counts,
    produces byte-identical CSV and metadata."""
    monkeypatch.setattr("orgsim.cli.os.cpu_count", lambda: 2)  # --jobs 2 is rejected on a 1-CPU host
    common = ["run", "--preset", "paper-grid", "--reps", "5", "--horizon", "150", "--seed", "0"]
    out_serial = tmp_path / "serial"
    out_parallel = tmp_path / "parallel"
    assert main(common + ["--out", str(out_serial), "--jobs", "1"]) == 0
    assert main(common + ["--out", str(out_parallel), "--jobs", "2"]) == 0
    assert (out_serial / "results.csv").read_bytes() == (out_parallel / "results.csv").read_bytes()
    assert (out_serial / "metadata.json").read_bytes() == (out_parallel / "metadata.json").read_bytes()


def test_criterion_8_bid_noise_statistics():
    """10^4 sigma=0.05 draws through the bidding path a run takes, clear_auction: each round offers one
    decision with no reserve to one eligible bidder, whose winning bid less the decision's contribution is its
    noise. Mean within +/- 0.002, standard deviation within 0.05 +/- 0.005."""
    land = k0_landscape([(0.5, 0.5)] * 3)
    current = contributions_of(land, [0, 0, 0])
    offer = Offer(seller=0, decision=1, min_price=-math.inf)
    rng_noise = np.random.default_rng(1234)
    rng_tie = np.random.default_rng(0)
    noise = []
    for _ in range(10_000):
        agents = [AgentState(0, [0, 1], 2, init_beliefs(3)), AgentState(1, [2], 2, init_beliefs(3))]
        [trade] = clear_auction([offer], agents, "utility", current, 0.05, rng_noise, rng_tie, 0)
        noise.append(trade.winning_bid - current[offer.decision])
    noise = np.array(noise)
    assert abs(noise.mean()) <= 0.002
    assert abs(noise.std(ddof=1) - 0.05) <= 0.005
