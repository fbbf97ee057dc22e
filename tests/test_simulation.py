"""Replication engine, aggregation, grids, and serialization."""

import csv
import json
import math
import multiprocessing
import time

import numpy as np
import pytest

import orgsim.simulation
from orgsim import (
    CI99_Z,
    ConfigError,
    IncentiveScheme,
    InvariantViolation,
    ScenarioConfig,
    aggregate_norm_series,
    replication_rng,
    run_experiment,
    run_grid,
    run_replication,
    write_beliefs_csv,
    write_metadata_json,
    write_results_csv,
    write_trades_csv,
)
from orgsim.cli import main
from orgsim.simulation import ROLE_HILLCLIMB
from orgsim.landscape import DECOMPOSABLE_K2, build_stylized_matrix
from helpers import reference_replication

BALANCED = IncentiveScheme.from_name("balanced")
INDIVIDUALISTIC = IncentiveScheme.from_name("individualistic")
ALTRUISTIC = IncentiveScheme.from_name("altruistic")


def scenario(**overrides):
    base = dict(structure="k2", incentive=BALANCED, strategy="utility",
                n=6, m=2, tau=5, horizon=20, reps=3, capacity=5, seed=11)
    base.update(overrides)
    return ScenarioConfig(**base)


def write_matrix(path, matrix):
    rows = "\n".join(" ".join(str(int(v)) for v in row) for row in matrix.entries)
    path.write_text(f"{matrix.n}\n{rows}\n")
    return path


class TestScenarioConfig:
    def test_paper_defaults(self):
        config = ScenarioConfig(structure="k5", incentive=BALANCED, strategy="utility")
        assert (config.n, config.m, config.tau) == (15, 5, 25)
        assert (config.horizon, config.reps) == (500, 800)
        assert config.sigma == 0.05
        assert config.resolved_capacities() == (5,) * 5
        assert config.validate() == []

    def test_cell_labels(self):
        assert scenario().cell == "k2-balanced-utility"
        assert scenario(structure="file:/tmp/custom.txt", n=6).cell.startswith("custom-")
        assert scenario(incentive=IncentiveScheme.from_alpha(0.7)).cell == "k2-alpha0.7-utility"

    def test_capacity_list_normalized(self):
        config = scenario(capacity=[5, 4])
        assert config.resolved_capacities() == (5, 4)

    @pytest.mark.parametrize("overrides, fragment", [
        ({"strategy": "greedy"}, "strategy"),
        ({"n": 0}, "n must be positive"),
        ({"m": 0}, "m must be positive"),
        ({"n": 9, "m": 2}, "divisible"),
        ({"tau": 1}, "tau"),
        ({"horizon": 0}, "horizon"),
        ({"reps": 0}, "reps"),
        ({"sigma": -0.1}, "sigma"),
        ({"seed": -1}, "seed"),
        ({"capacity": 2}, "smallest capacity"),
        ({"capacity": [5, 5, 5]}, "capacities"),
        ({"structure": "k9"}, "unknown structure"),
        ({"structure": "k2", "n": 8, "m": 2}, "multiple"),
        ({"structure": "file:/nonexistent/m.txt"}, "cannot|scenario|file|No such"),
        ({"n": 27, "m": 3, "capacity": 9}, "exhaustive optimum supports n <= 25, got n=27"),
        ({"sigma": float("nan")}, "sigma must be finite"),
        ({"sigma": float("inf")}, "sigma must be finite"),
    ])
    def test_validate_flags_problems(self, overrides, fragment):
        problems = scenario(**overrides).validate()
        assert problems
        assert any(__import__("re").search(fragment, p) for p in problems)

    def test_validate_collects_multiple(self):
        problems = scenario(tau=1, sigma=-1.0, horizon=0).validate()
        assert len(problems) >= 3

    def test_single_agent_needs_alpha_one(self):
        config = scenario(m=1, capacity=6, incentive=BALANCED)
        assert any("alpha" in p for p in config.validate())
        ok = scenario(m=1, capacity=6, incentive=INDIVIDUALISTIC, strategy="benchmark")
        assert ok.validate() == []

    def test_structure_file_roundtrip(self, tmp_path):
        matrix = scenario().matrix
        path = write_matrix(tmp_path / "m.txt", matrix)
        config = scenario(structure=f"file:{path}")
        assert config.validate() == []
        assert np.array_equal(config.matrix.entries, matrix.entries)

    def test_structure_file_size_mismatch(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2\n1 1\n1 1\n")
        config = scenario(structure=f"file:{path}", n=6)
        assert any("n=6" in p for p in config.validate())


@pytest.fixture
def inline_executor(monkeypatch):
    """Replace the process pool with an in-process fake; returns the ``max_workers`` of every pool opened."""
    started = []

    class InlineExecutor:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(orgsim.simulation, "ProcessPoolExecutor", InlineExecutor)
    return started


class TestReplicationRng:
    def test_reproducible(self):
        a = replication_rng(3, 1, 2, 0).random(4)
        b = replication_rng(3, 1, 2, 0).random(4)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        base = replication_rng(3, 1, 2, 0).random(4)
        for args in [(4, 1, 2, 0), (3, 2, 2, 0), (3, 1, 3, 0), (3, 1, 2, 1)]:
            assert not np.array_equal(base, replication_rng(*args).random(4))

    @pytest.mark.parametrize("highs", [
        [3, 1, 5, 1, 1, 2, 7, 4, 1, 15] * 5 + [1, 6, 1],
        [1, 1, 1, 1],
        [2, 2, 3],
        [1],
    ], ids=["mixed", "all-one", "odd-count", "single-one"])
    def test_array_highs_draw_like_scalar_draws(self, highs):
        """``run_replication`` draws an auction interval's hillclimb positions with one
        ``integers(0, highs)`` call; it must consume the stream exactly like one
        scalar ``integers(h)`` call per position (numpy 2.4.6 behaviour)."""
        batch = replication_rng(3, 1, 2, ROLE_HILLCLIMB)
        scalar = replication_rng(3, 1, 2, ROLE_HILLCLIMB)
        assert batch.integers(0, highs).tolist() == [int(scalar.integers(h)) for h in highs]
        assert batch.bit_generator.state == scalar.bit_generator.state
        assert batch.integers(1000) == scalar.integers(1000)
        assert batch.random() == scalar.random()


class TestRunReplication:
    def test_period_accounting(self):
        result = run_replication(scenario(), 0)
        assert result.performance.shape == (20,)
        assert result.sizes.shape == (20, 2)
        for performance, normalized, sizes in zip(result.performance, result.normalized_series, result.sizes):
            assert sum(sizes) == 6
            assert all(1 <= size <= 5 for size in sizes)
            assert 0.0 < normalized <= 1.0
            assert performance == pytest.approx(normalized * result.optimum_performance)

    def test_auction_periods_carry_performance(self):
        result = run_replication(scenario(horizon=30), 0)
        for t in (5, 10, 15, 20, 25, 30):
            assert result.performance[t - 1] == result.performance[t - 2]
        for trade in result.trades:
            assert trade.period % 5 == 0

    def test_trades_only_at_auction_periods(self):
        result = run_replication(scenario(horizon=40, seed=2), 0)
        assert result.trades, "expected at least one trade in 8 auction rounds"
        for trade in result.trades:
            assert trade.period % 5 == 0
            assert trade.seller != trade.winner
            assert 0 <= trade.decision < 6

    def test_benchmark_never_trades_and_keeps_blocks(self):
        result = run_replication(scenario(strategy="benchmark", horizon=30), 0)
        assert result.trades == []
        assert result.sizes.shape == (30, 2)
        assert np.all(result.sizes == [3, 3])
        assert [agent.owned for agent in result.agents] == [[0, 1, 2], [3, 4, 5]]

    def test_observation_ledger_matches_counters(self):
        result = run_replication(scenario(horizon=40, seed=5), 0)
        for agent in result.agents:
            booked = int((agent.beliefs.p + agent.beliefs.q).sum()) - 2 * 6 * 6
            assert booked == result.observation_counts[agent.id]

    def test_belief_snapshots_opt_in(self):
        bare = run_replication(scenario(), 0)
        assert bare.belief_snapshots == []
        result = run_replication(scenario(horizon=10), 0, collect_beliefs=True)
        assert [period for period, _ in result.belief_snapshots] == [5, 10]
        assert len(result.belief_snapshots[0][1]) == 2


class TestReferenceEquivalence:
    """The optimized loop against the op-composed reference, exact equality."""

    CASES = [
        scenario(),
        scenario(strategy="interdependence", seed=3),
        scenario(strategy="benchmark", seed=4),
        scenario(structure="k5", incentive=INDIVIDUALISTIC, seed=5, horizon=25),
        scenario(structure="k5", incentive=ALTRUISTIC, strategy="interdependence", seed=6, horizon=25),
        scenario(n=15, m=5, tau=10, horizon=30, seed=7),
        scenario(sigma=0.0, seed=8),
        scenario(m=1, capacity=6, incentive=INDIVIDUALISTIC, strategy="benchmark", seed=9),
    ]

    @pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c.cell}-seed{c.seed}")
    def test_engine_matches_reference(self, case):
        for rep in range(2):
            engine = run_replication(case, rep)
            ref_performance, ref_normalized, ref_sizes, ref_trades, ref_agents = reference_replication(case, rep)
            assert np.array_equal(engine.performance, ref_performance)
            assert np.array_equal(engine.normalized_series, ref_normalized)
            assert np.array_equal(engine.sizes, ref_sizes)
            assert engine.trades == ref_trades
            for mine, theirs in zip(engine.agents, ref_agents):
                assert mine.owned == theirs.owned
                assert np.array_equal(mine.beliefs.p, theirs.beliefs.p)
                assert np.array_equal(mine.beliefs.q, theirs.beliefs.q)


class TestAggregation:
    def test_mean_and_half_width(self):
        series = np.array([[1.0, 0.5], [0.5, 1.0]])
        mean, half_width = aggregate_norm_series(series)
        assert mean.tolist() == [0.75, 0.75]
        assert half_width == pytest.approx([2.576 * 0.25, 2.576 * 0.25])

    def test_single_rep_zero_width(self):
        mean, half_width = aggregate_norm_series(np.array([[0.4, 0.6]]))
        assert mean.tolist() == [0.4, 0.6]
        assert half_width.tolist() == [0.0, 0.0]

    def test_ci_constant(self):
        assert CI99_Z == 2.576


class TestRunExperiment:
    def test_shapes_and_bounds(self):
        result = run_experiment(scenario())
        assert result.cell == "k2-balanced-utility"
        assert result.mean_norm_perf.shape == (20,)
        assert result.ci99_half_width.shape == (20,)
        assert np.all(result.mean_norm_perf > 0)
        assert np.all(result.mean_norm_perf <= 1)
        assert result.final_mean == result.mean_norm_perf[-1]

    def test_validates_first(self):
        with pytest.raises(ConfigError, match="tau"):
            run_experiment(scenario(tau=1))

    def test_collectors_default_off(self):
        result = run_experiment(scenario())
        assert result.trades is None
        assert result.belief_snapshots is None

    def test_trades_tagged_by_rep(self):
        result = run_experiment(scenario(horizon=40, seed=2), collect_trades=True)
        assert result.trades
        reps = {rep for rep, _ in result.trades}
        assert reps <= {0, 1, 2}
        for rep, trade in result.trades:
            assert trade.period % 5 == 0

    def test_jobs_do_not_change_results(self):
        serial = run_experiment(scenario(reps=4))
        parallel = run_experiment(scenario(reps=4), jobs=2)
        assert np.array_equal(serial.mean_norm_perf, parallel.mean_norm_perf)
        assert np.array_equal(serial.ci99_half_width, parallel.ci99_half_width)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_invariant_violation_names_cell_rep_and_period(self, monkeypatch, jobs):
        if jobs > 1 and multiprocessing.get_start_method() != "fork":
            pytest.skip("workers see the patched module global only when forked")
        real = orgsim.simulation.generate_landscape

        def deflated(matrix, rng):
            land = real(matrix, rng)
            land.optimum_performance /= 1000.0
            return land

        monkeypatch.setattr(orgsim.simulation, "generate_landscape", deflated)
        with pytest.raises(InvariantViolation, match=r"cell k2-balanced-utility, rep 0, period 1: normalized"):
            run_experiment(scenario(reps=2), jobs=jobs)

    @pytest.mark.parametrize("jobs, reps, workers", [(5000, 2, 2), (2, 3, 2)])
    def test_never_starts_more_workers_than_replications(self, inline_executor, jobs, reps, workers):
        started = inline_executor
        result = run_experiment(scenario(reps=reps), jobs=jobs)
        assert started == [workers]
        assert np.array_equal(result.mean_norm_perf, run_experiment(scenario(reps=reps)).mean_norm_perf)

    def test_matches_manual_aggregation(self):
        config = scenario(reps=3)
        result = run_experiment(config)
        series = np.stack([run_replication(config, rep).normalized_series for rep in range(3)])
        mean, half_width = aggregate_norm_series(series)
        assert np.array_equal(result.mean_norm_perf, mean)
        assert np.array_equal(result.ci99_half_width, half_width)


class TestMatrixReads:
    """A ``file:`` structure is read once per scenario, and the run simulates that read."""

    @pytest.fixture
    def reads(self, monkeypatch):
        paths = []
        real = orgsim.simulation.load_matrix

        def counting(path):
            paths.append(path)
            return real(path)

        monkeypatch.setattr(orgsim.simulation, "load_matrix", counting)
        return paths

    def test_run_experiment_reads_the_file_once(self, tmp_path, reads):
        path = write_matrix(tmp_path / "m.txt", build_stylized_matrix(DECOMPOSABLE_K2, 6))
        run_experiment(scenario(structure=f"file:{path}"), jobs=1)
        assert reads == [str(path)]

    def test_cli_single_cell_run_reads_the_file_once(self, tmp_path, reads):
        path = write_matrix(tmp_path / "m.txt", build_stylized_matrix(DECOMPOSABLE_K2, 6))
        args = ["run", "--structure", f"file:{path}", "--incentive", "balanced", "--strategy", "utility",
                "--n", "6", "--m", "2", "--tau", "5", "--horizon", "6", "--reps", "2", "--out", str(tmp_path / "out")]
        assert main(args) == 0
        assert reads == [str(path)]


class TestRunGrid:
    def test_default_grid_is_18_cells(self):
        results = run_grid(scenario(reps=1, horizon=4, n=6, m=2, tau=3))
        assert len(results) == 18
        assert [r.scenario.cell_index for r in results] == list(range(18))
        assert results[0].cell == "k2-individualistic-utility"
        assert results[-1].cell == "k5-altruistic-benchmark"
        assert len({r.cell for r in results}) == 18

    def test_restricted_axes(self):
        results = run_grid(scenario(reps=1, horizon=4), structures=["k2"],
                           incentives=["balanced"], strategies=["utility", "benchmark"])
        assert [r.cell for r in results] == ["k2-balanced-utility", "k2-balanced-benchmark"]
        assert [r.scenario.cell_index for r in results] == [0, 1]

    def test_grid_runs_on_one_pool(self, inline_executor):
        axes = dict(structures=["k2", "k5"], incentives=["balanced"], strategies=["utility", "benchmark"])
        results = run_grid(scenario(reps=3, horizon=6), jobs=2, **axes)
        assert inline_executor == [2]
        serial = run_grid(scenario(reps=3, horizon=6), **axes)
        assert len(results) == 4
        for parallel, expected in zip(results, serial):
            assert np.array_equal(parallel.mean_norm_perf, expected.mean_norm_perf)

    def test_failure_cancels_queued_replications(self, monkeypatch, tmp_path):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("workers see the patched module global only when forked")
        real = orgsim.simulation.run_replication

        def marked(scenario, rep_index, collect_beliefs=False):
            (tmp_path / f"{scenario.cell_index}-{rep_index}").touch()
            if rep_index == 0:
                raise InvariantViolation(f"cell {scenario.cell}, rep 0, period 1: forced")
            time.sleep(0.2)
            return real(scenario, rep_index, collect_beliefs)

        monkeypatch.setattr(orgsim.simulation, "run_replication", marked)
        with pytest.raises(InvariantViolation, match="forced"):
            run_grid(scenario(reps=60, horizon=6), structures=["k2"], incentives=["balanced"],
                     strategies=["utility", "benchmark"], jobs=2)
        started = sorted(path.name for path in tmp_path.iterdir())
        assert "0-0" in started
        # Rep 0, what each worker picks up next, and the jobs + 1 calls already
        # queued for the workers; without cancellation all 60 of the cell would run.
        assert len(started) <= 8, started


class TestWriters:
    def test_results_csv_layout(self, tmp_path):
        results = run_grid(scenario(reps=2, horizon=6), structures=["k2"],
                           incentives=["balanced"], strategies=["utility", "benchmark"])
        path = tmp_path / "results.csv"
        write_results_csv(results, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["cell", "period", "mean_norm_perf", "ci99_half_width"]
        assert len(rows) == 1 + 2 * 6
        assert rows[1][0] == "k2-balanced-utility"
        assert int(rows[1][1]) == 1
        # repr round-trip: parsing the text recovers the exact float
        assert float(rows[1][2]) == results[0].mean_norm_perf[0]

    def test_results_csv_deterministic_bytes(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_results_csv([run_experiment(scenario())], first)
        write_results_csv([run_experiment(scenario())], second)
        assert first.read_bytes() == second.read_bytes()

    def test_metadata_sidecar(self, tmp_path):
        result = run_experiment(scenario())
        path = tmp_path / "metadata.json"
        write_metadata_json([result], path)
        payload = json.loads(path.read_text())
        assert payload["rng"]["scheme"].startswith("SeedSequence")
        assert payload["ci"] == {"level": 0.99, "z": 2.576}
        cell = payload["cells"][0]
        assert cell["cell"] == "k2-balanced-utility"
        assert cell["seed"] == 11
        assert cell["dependencies"]["0"] == [1, 2]
        assert cell["capacity"] == [5, 5]

    def test_metadata_records_the_simulated_matrix(self, tmp_path):
        simulated = scenario().matrix
        path = write_matrix(tmp_path / "m.txt", simulated)
        result = run_experiment(scenario(structure=f"file:{path}", reps=1, horizon=6))
        path.write_text("6\n" + "\n".join(" ".join("1" if i == j else "0" for i in range(6)) for j in range(6)) + "\n")
        write_metadata_json([result], tmp_path / "metadata.json")
        cell = json.loads((tmp_path / "metadata.json").read_text())["cells"][0]
        assert cell["dependencies"] == {str(j): simulated.dependencies(j) for j in range(6)}
        assert cell["dependencies"]["0"] == [1, 2]

    def test_trades_csv(self, tmp_path):
        result = run_experiment(scenario(horizon=40, seed=2), collect_trades=True)
        path = tmp_path / "trades.csv"
        write_trades_csv([result], path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["rep", "period", "decision", "seller", "winner", "winning_bid", "price", "strategy"]
        assert len(rows) == 1 + len(result.trades)
        for row in rows[1:]:
            assert int(row[1]) % 5 == 0
            assert row[7] == "utility"
            assert float(row[6]) <= float(row[5]) or math.isclose(float(row[6]), float(row[5]))

    def test_trades_csv_grid_gets_cell_column(self, tmp_path):
        results = run_grid(scenario(horizon=10, seed=2), structures=["k2"], incentives=["balanced"],
                           strategies=["utility", "interdependence"], collect_trades=True)
        path = tmp_path / "trades.csv"
        write_trades_csv(results, path)
        with open(path, newline="") as fh:
            header = next(csv.reader(fh))
        assert header[0] == "cell"

    def test_trades_csv_requires_collection(self, tmp_path):
        result = run_experiment(scenario())
        with pytest.raises(ValueError, match="collect_trades"):
            write_trades_csv([result], tmp_path / "trades.csv")

    def test_beliefs_csv(self, tmp_path):
        result = run_experiment(scenario(horizon=10), collect_beliefs=True)
        path = tmp_path / "beliefs.csv"
        write_beliefs_csv([result], path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["rep", "period", "agent", "i", "j", "p", "q", "belief"]
        # 3 reps x 2 snapshots x 2 agents x 6*5 ordered pairs
        assert len(rows) == 1 + 3 * 2 * 2 * 30
        for row in rows[1:4]:
            p, q = int(row[5]), int(row[6])
            assert p >= 1 and q >= 1
            assert float(row[7]) == p / (p + q)
