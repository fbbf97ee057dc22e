"""Replication engine, aggregation, grids, and serialization."""

import concurrent.futures
import csv
import io
import json
import math
import multiprocessing
import pickle
import time
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

import orgsim.simulation
from orgsim import (
    CI99_Z,
    BeliefCounters,
    ConfigError,
    IncentiveScheme,
    InvariantViolation,
    Offer,
    ScenarioConfig,
    aggregate_norm_series,
    expand_grid,
    init_beliefs,
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
from orgsim.simulation import ROLE_HILLCLIMB, BeliefSnapshots, cells_from_dict
from orgsim.landscape import DECOMPOSABLE_K2, NONDECOMPOSABLE_K5, Landscape, build_stylized_matrix
from orgsim.organization import flip_improves
import helpers
from helpers import assert_matches_reference, changed_entries

BALANCED = IncentiveScheme.parse("balanced")
INDIVIDUALISTIC = IncentiveScheme.parse("individualistic")
ALTRUISTIC = IncentiveScheme.parse("altruistic")


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
        assert scenario(incentive=IncentiveScheme(0.7)).cell == "k2-alpha0.7-utility"

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
        # Past the enumeration limit no structure is built or read, so only n is reported for these.
        ({"structure": "k9", "n": 3000, "capacity": 1500}, "^exhaustive optimum supports n <= 25, got n=3000$"),
        ({"structure": "file:/nonexistent/m.txt", "n": 3000, "capacity": 1500},
         "^exhaustive optimum supports n <= 25, got n=3000$"),
        ({"capacity": 0}, "capacities must be positive"),
        ({"cell_index": -1}, "cell_index must be nonnegative"),
        ({"reps": 100_000_000_000}, r"reps x horizon must be at most 100000000, got 100000000000 x 20$"),
        ({"reps": 1, "horizon": 100_000_001}, r"reps x horizon must be at most 100000000, got 1 x 100000001$"),
    ])
    def test_validate_flags_problems(self, overrides, fragment):
        problems = scenario(**overrides).validate()
        assert problems
        assert any(__import__("re").search(fragment, p) for p in problems)

    def test_run_size_bound_is_inclusive(self):
        assert scenario(reps=200_000, horizon=500).validate() == []
        assert scenario(reps=1, horizon=100_000_000).validate() == []

    def test_validate_collects_multiple(self):
        problems = scenario(tau=1, sigma=-1.0, horizon=0).validate()
        assert len(problems) >= 3

    @pytest.mark.parametrize("structure", ["k2", "k5", "file"])
    def test_validate_rejects_large_n_before_building_a_matrix(self, monkeypatch, tmp_path, structure):
        def build(*args):
            raise AssertionError("validate built or read a matrix")

        if structure == "file":
            # The file's own size mismatch goes unreported: it is never read.
            structure = f"file:{write_matrix(tmp_path / 'm.txt', build_stylized_matrix(DECOMPOSABLE_K2, 6))}"
        monkeypatch.setattr(orgsim.simulation, "build_stylized_matrix", build)
        monkeypatch.setattr(orgsim.simulation, "load_matrix", build)
        problems = scenario(structure=structure, n=3000, capacity=1500).validate()
        assert problems == ["exhaustive optimum supports n <= 25, got n=3000"]

    def test_single_agent_needs_alpha_one(self):
        config = scenario(m=1, capacity=6, incentive=BALANCED)
        assert any("alpha" in p for p in config.validate())
        ok = scenario(m=1, capacity=6, incentive=INDIVIDUALISTIC, strategy="benchmark")
        assert ok.validate() == []

    @pytest.mark.parametrize("n", [6, 15])
    def test_stylized_tokens_are_the_landscape_kinds(self, n):
        assert orgsim.GRID_STRUCTURES == (DECOMPOSABLE_K2, NONDECOMPOSABLE_K5) == ("k2", "k5")
        for token in orgsim.GRID_STRUCTURES:
            matrix = scenario(structure=token, n=n, m=3, capacity=n).matrix
            assert np.array_equal(matrix.entries, build_stylized_matrix(token, n).entries)

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
def pool_log():
    """What the fake pool saw: ``started`` holds the ``max_workers`` of every pool opened, ``in_flight``
    the number of results submitted and not yet read, taken at every submit."""
    return SimpleNamespace(started=[], in_flight=[], submitted=0, read=0)


@pytest.fixture
def inline_executor(monkeypatch, pool_log):
    """Replace the process pool with an in-process fake; returns ``pool_log.started``."""

    class InlineFuture:
        def __init__(self, value):
            self.value = value

        def result(self):
            pool_log.read += 1
            return self.value

    class InlineExecutor:
        def __init__(self, max_workers):
            pool_log.started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def submit(self, fn, *args):
            pool_log.submitted += 1
            pool_log.in_flight.append(pool_log.submitted - pool_log.read)
            return InlineFuture(fn(*args))

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    return pool_log.started


class Recorder:
    """A ledger sink that keeps every ``(scenario, rep, records)`` it is given."""

    def __init__(self):
        self.calls = []

    def write(self, scenario, rep, records):
        self.calls.append((scenario, rep, records))


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

    @pytest.mark.parametrize("overrides, roles", [
        (dict(), [0, 1, 2, 3, 4]),
        (dict(tau=20), [0, 1, 2, 3, 4]),
        (dict(tau=21), [0, 1, 2]),
        (dict(strategy="benchmark"), [0, 1, 2]),
    ], ids=["auctions", "auction-at-horizon", "tau-past-horizon", "benchmark"])
    def test_auction_streams_built_only_when_an_auction_comes(self, overrides, roles, monkeypatch):
        built = []
        real = orgsim.simulation.replication_rng

        def recording(seed, cell_index, rep_index, role):
            built.append(role)
            return real(seed, cell_index, rep_index, role)

        monkeypatch.setattr(orgsim.simulation, "replication_rng", recording)
        run_replication(scenario(**overrides), 0)
        assert built == roles

    def test_observation_ledger_matches_counters(self):
        result = run_replication(scenario(horizon=40, seed=5), 0)
        for agent in result.agents:
            booked = int(np.sum(agent.beliefs.p) + np.sum(agent.beliefs.q)) - 2 * 6 * 6
            assert booked == result.observation_counts[agent.id]

    def test_belief_snapshots_opt_in(self):
        bare = run_replication(scenario(), 0).belief_snapshots
        assert bare.periods == bare.changes == ()
        assert bare.counters()[0].shape == bare.counters()[1].shape == (0, 2, 6, 6)
        result = run_replication(scenario(horizon=10), 0, collect_beliefs=True)
        assert result.belief_snapshots.periods == (5, 10)
        assert result.belief_snapshots.counters()[0].shape == (2, 2, 6, 6)

    def test_belief_snapshots_at_tau_multiples_and_the_horizon(self):
        config = scenario(horizon=12, strategy="interdependence", seed=4)
        result = run_replication(config, 0, collect_beliefs=True)
        snapshots = result.belief_snapshots
        assert list(snapshots.periods) == [5, 10, 12]
        p, q = snapshots.counters()
        assert p.shape == q.shape == (3, config.m, config.n, config.n)
        assert p.dtype == q.dtype == np.int64
        for a, agent in enumerate(result.agents):
            assert np.array_equal(p[-1, a], agent.beliefs.p)
            assert np.array_equal(q[-1, a], agent.beliefs.q)

    def test_belief_snapshots_are_copies(self):
        result = run_replication(scenario(horizon=12), 0, collect_beliefs=True)
        snapshots = result.belief_snapshots
        before_p, before_q = snapshots.counters()
        for agent in result.agents:
            for row in agent.beliefs.p:
                row[:] = [value + 7 for value in row]
            for row in agent.beliefs.q:
                row[:] = [1] * len(row)
        after_p, after_q = snapshots.counters()
        assert np.array_equal(after_p, before_p)
        assert np.array_equal(after_q, before_q)


def snapshots_of(periods, p, q):
    """The ``BeliefSnapshots`` of int64 counter arrays ``p`` and ``q`` of shape ``(S, m, n, n)`` taken at
    ``periods``: each agent's entries are compared with its previous snapshot's, or at first the prior's."""
    steps, m, n, _ = p.shape
    previous = [init_beliefs(n)] * m
    changes = []
    for k in range(steps):
        now = [BeliefCounters(p[k, a].tolist(), q[k, a].tolist()) for a in range(m)]
        changes.append(tuple(changed_entries(old, new) for old, new in zip(previous, now)))
        previous = now
    return BeliefSnapshots(tuple(periods), m, n, tuple(changes))


def random_counters(rng, steps, m, n):
    """Snapshot counters where each agent block either repeats its previous snapshot (the prior, first) or
    takes new values in 1..4 at random entries, the diagonal included, so some changes move back."""
    p = np.ones((steps, m, n, n), dtype=np.int64)
    q = np.ones_like(p)
    for k in range(steps):
        if k:
            p[k], q[k] = p[k - 1], q[k - 1]
        for a in range(m):
            if rng.random() < 0.3:
                continue
            for counters in (p, q):
                moved = rng.random((n, n)) < 0.3
                counters[k, a][moved] = rng.integers(1, 5, size=int(moved.sum()))
    return p, q


class TestBeliefSnapshots:
    @pytest.mark.parametrize("steps, m, n", [(6, 3, 4), (5, 1, 5), (4, 2, 1), (3, 1, 1), (0, 2, 3), (3, 5, 15)])
    def test_compacting_and_rebuilding_round_trips(self, steps, m, n):
        rng = np.random.default_rng(100 * steps + 10 * m + n)
        periods = tuple(range(5, 5 * steps + 1, 5))
        for _ in range(20):
            p, q = random_counters(rng, steps, m, n)
            snapshots = snapshots_of(periods, p, q)
            assert (snapshots.periods, snapshots.m, snapshots.n) == (periods, m, n)
            rebuilt_p, rebuilt_q = snapshots.counters()
            assert rebuilt_p.dtype == rebuilt_q.dtype == np.int64
            assert np.array_equal(rebuilt_p, p)
            assert np.array_equal(rebuilt_q, q)

    def test_changes_hold_only_the_entries_that_moved(self):
        p = np.ones((3, 2, 2, 2), dtype=np.int64)
        q = np.ones_like(p)
        p[:, 0, 0, 1] = 2  # agent 0: moved from the prior at the first snapshot, unchanged after
        q[1:, 1, 1, 1] = 5  # agent 1: a diagonal entry moved at the second snapshot
        p[2, 1, 1, 0] = 3  # and an off-diagonal one at the third
        changes = (
            (((1, 2, 1),), ()),
            ((), ((3, 1, 5),)),
            ((), ((2, 3, 1),)),
        )
        snapshots = BeliefSnapshots((5, 10, 12), 2, 2, changes)
        rebuilt_p, rebuilt_q = snapshots.counters()
        assert np.array_equal(rebuilt_p, p)
        assert np.array_equal(rebuilt_q, q)
        assert snapshots_of((5, 10, 12), p, q).changes == changes

    @pytest.mark.parametrize("strategy", ["utility", "interdependence"])
    def test_payload_is_a_fiftieth_of_the_full_counters(self, strategy):
        config = ScenarioConfig(structure="k5", incentive=BALANCED, strategy=strategy, reps=1, seed=2)
        snapshots = run_replication(config, 0, collect_beliefs=True).belief_snapshots
        p, q = snapshots.counters()
        assert p.shape == (20, 5, 15, 15)
        assert len(pickle.dumps(snapshots)) <= (p.nbytes + q.nbytes) / 50


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
            assert_matches_reference(case, rep)

    @staticmethod
    def count_full_recomputes(monkeypatch):
        """Count the engine's full-sum verdicts: one ``flip_improves`` call each."""
        calls = []

        def counted(*args):
            calls.append(args)
            return flip_improves(*args)

        monkeypatch.setattr(orgsim.simulation, "flip_improves", counted)
        return calls

    @pytest.mark.parametrize("case", [
        scenario(horizon=5, tau=5, seed=14),
        scenario(horizon=10, tau=5, strategy="interdependence", seed=15),
        scenario(horizon=4, tau=5, seed=16),
        scenario(horizon=1, tau=5, seed=17),
        scenario(horizon=1, tau=1, seed=18),
        scenario(horizon=30, strategy="benchmark", seed=19),
    ], ids=["auction-at-horizon", "two-rounds-last-at-horizon", "horizon-below-tau", "one-period",
            "every-period-an-auction", "benchmark"])
    def test_trajectory_edges(self, case):
        """The trajectory's runs expand to one row per period, with the dtypes of a per-period list."""
        for rep in range(2):
            result = run_replication(case, rep)
            assert result.performance.shape == (case.horizon,)
            assert result.performance.dtype == np.float64
            assert result.sizes.shape == (case.horizon, case.m)
            assert result.sizes.dtype == np.int64
            assert_matches_reference(case, rep)

    def test_tied_tables_fall_back_to_full_sums(self, monkeypatch):
        def tied_landscape(matrix, rng):
            # Entries in {0.25, 0.5, 0.75}: many flips leave every dependent's contribution unchanged, so Δ is 0.
            tables = [np.round(rng.random(1 << (matrix.k(j) + 1)) * 2) / 4 + 0.25 for j in range(matrix.n)]
            return Landscape(matrix=matrix, tables=tables)

        monkeypatch.setattr(orgsim.simulation, "generate_landscape", tied_landscape)
        monkeypatch.setattr(helpers, "generate_landscape", tied_landscape)
        calls = self.count_full_recomputes(monkeypatch)
        for case in (scenario(), scenario(structure="k5", n=15, m=5, incentive=ALTRUISTIC, seed=12, horizon=60)):
            for rep in range(2):
                assert_matches_reference(case, rep)
        assert calls

    @pytest.mark.parametrize("incentive", [INDIVIDUALISTIC, BALANCED, ALTRUISTIC], ids=["ind", "bal", "alt"])
    def test_every_verdict_from_full_sums(self, monkeypatch, incentive):
        """With beta above 0 the full sums read the residual's candidate entries too, so a fallback that
        writes only the agent's own candidate entries fails the balanced and altruistic cases."""
        # |Δ| <= alpha + beta = 1, so a guard of 1.0 sends every verdict to the full sums.
        monkeypatch.setattr(orgsim.simulation, "VERDICT_GUARD", 1.0)
        calls = self.count_full_recomputes(monkeypatch)
        case = scenario(structure="k5", n=15, m=5, incentive=incentive, seed=13, horizon=60)
        for rep in range(2):
            assert_matches_reference(case, rep)
        assert calls


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
        with pytest.raises(ConfigError, match="reps"):
            run_experiment(scenario(reps=0))

    def test_result_keeps_no_ledger_and_sinks_get_each_rep_once(self):
        config = scenario(horizon=10)
        trades, beliefs = Recorder(), Recorder()
        result = run_experiment(config, trades=trades, beliefs=beliefs)
        assert [f.name for f in fields(result)] == ["scenario", "mean_norm_perf", "ci99_half_width"]
        for sink in (trades, beliefs):
            assert [(s.cell, rep) for s, rep, _ in sink.calls] == [(config.cell, rep) for rep in range(3)]
        for _, rep, snapshots in beliefs.calls:
            expected = run_replication(config, rep, collect_beliefs=True).belief_snapshots
            assert snapshots.periods == expected.periods == (5, 10)
            for got, want in zip(snapshots.counters(), expected.counters(), strict=True):
                assert np.array_equal(got, want)

    def test_trades_tagged_by_rep(self):
        sink = Recorder()
        run_experiment(scenario(horizon=40, seed=2), trades=sink)
        trades = [(rep, trade) for _, rep, records in sink.calls for trade in records]
        assert trades
        reps = {rep for rep, _ in trades}
        assert reps <= {0, 1, 2}
        for rep, trade in trades:
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
            config, perf = land.optimum
            land.optimum = (config, perf / 1000.0)
            return land

        monkeypatch.setattr(orgsim.simulation, "generate_landscape", deflated)
        with pytest.raises(InvariantViolation, match=r"cell k2-balanced-utility, rep 0, period 1: normalized"):
            run_experiment(scenario(reps=2), jobs=jobs)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_auction_invariant_violation_names_cell_rep_and_period(self, monkeypatch, jobs):
        if jobs > 1 and multiprocessing.get_start_method() != "fork":
            pytest.skip("workers see the patched module global only when forked")

        def stray_offer(agent, contributions, rng_tie):
            # The first decision the seller does not own.
            return Offer(agent.id, min(set(range(len(contributions))) - set(agent.owned)), 0.0)

        monkeypatch.setattr(orgsim.simulation, "select_offer_utility", stray_offer)
        with pytest.raises(InvariantViolation, match=r"^cell k2-balanced-utility, rep 0, period 5: offered decision"):
            run_experiment(scenario(reps=2), jobs=jobs)

    @pytest.mark.parametrize("corrupt, message", [
        (lambda agents: agents[0].owned.pop(), "owned sets do not partition the decisions"),
        # Agent 0 takes all six decisions, over its capacity of 5.
        (lambda agents: (agents[0].owned.extend(agents[1].owned), agents[1].owned.clear()),
         "agent 0 holds 6 decisions"),
        # Agent 0 hands all its decisions to agent 1 and holds none.
        (lambda agents: (agents[1].owned.extend(agents[0].owned), agents[0].owned.clear()),
         "agent 0 holds 0 decisions"),
    ], ids=["partition", "capacity", "empty"])
    def test_allocation_check_names_cell_rep_and_period(self, monkeypatch, corrupt, message):
        real = orgsim.simulation.clear_auction

        def corrupting(offers, agents, *args):
            trades = real(offers, agents, *args)
            corrupt(agents)
            return trades

        monkeypatch.setattr(orgsim.simulation, "clear_auction", corrupting)
        with pytest.raises(InvariantViolation, match=rf"^cell k2-balanced-utility, rep 0, period 5: {message}$"):
            run_replication(scenario(), 0)

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

    def test_cli_grid_reads_each_file_once(self, tmp_path, reads):
        first = write_matrix(tmp_path / "first.txt", build_stylized_matrix(DECOMPOSABLE_K2, 6))
        second = write_matrix(tmp_path / "second.txt", build_stylized_matrix(DECOMPOSABLE_K2, 6))
        grid = {"structures": [f"file:{first}", f"file:{second}"], "incentives": ["balanced"],
                "strategies": ["utility"]}
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"grid": grid, "n": 6, "m": 2, "tau": 5, "horizon": 6, "reps": 2}))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        assert reads == [str(first), str(second)]


class TestScenarioPickle:
    """A worker's task carries the scenario's matrix with everything derived from it."""

    def test_unpickled_k2_matrix_holds_its_components(self):
        config = scenario(n=15, m=5)
        matrix = config.matrix
        task = pickle.dumps((config, 0, False, False))
        loaded = pickle.loads(task)[0]
        assert "matrix" in vars(loaded)
        held = vars(loaded.matrix)
        assert held["components"] == matrix.components
        [(members, index)] = held["gathers"]
        assert np.array_equal(members, matrix.gathers[0][0])
        assert np.array_equal(index, matrix.gathers[0][1])
        assert index.shape == (5, 3, 8)

    def test_components_add_at_most_1_5_kb_to_a_task(self):
        matrix = scenario(n=15, m=5).matrix
        derived = len(pickle.dumps(matrix)) - len(pickle.dumps((matrix.entries, matrix.orders)))
        assert derived <= 1536


class TestRunGrid:
    def test_default_grid_is_18_cells(self):
        results = run_grid(expand_grid(scenario(reps=1, horizon=4, n=6, m=2, tau=3)))
        assert len(results) == 18
        assert [r.scenario.cell_index for r in results] == list(range(18))
        assert results[0].cell == "k2-individualistic-utility"
        assert results[-1].cell == "k5-altruistic-benchmark"
        assert len({r.cell for r in results}) == 18

    def test_restricted_axes(self):
        results = run_grid(expand_grid(scenario(reps=1, horizon=4), structures=["k2"],
                                       incentives=["balanced"], strategies=["utility", "benchmark"]))
        assert [r.cell for r in results] == ["k2-balanced-utility", "k2-balanced-benchmark"]
        assert [r.scenario.cell_index for r in results] == [0, 1]

    def test_pool_sized_by_total_replications(self, inline_executor):
        run_grid(expand_grid(scenario(reps=1, horizon=4), structures=["k2"], incentives=["balanced"],
                             strategies=["utility", "benchmark"]), jobs=2)
        assert inline_executor == [2]

    def test_results_in_flight_stay_bounded(self, inline_executor, pool_log):
        cells = expand_grid(scenario(reps=6, horizon=6), structures=["k2"], incentives=["balanced"],
                            strategies=["utility", "benchmark"])
        sink = Recorder()
        run_grid(cells, jobs=2, beliefs=sink)
        bound = orgsim.simulation.IN_FLIGHT_PER_WORKER * 2
        assert len(pool_log.in_flight) == 12
        # The bound exceeds a cell's 6 reps, so reaching it means cell 1 was queued while cell 0 was read.
        assert max(pool_log.in_flight) == bound
        assert [(s.cell_index, rep) for s, rep, _ in sink.calls] == [(c, rep) for c in (0, 1) for rep in range(6)]

    def test_every_cell_is_validated_before_any_work(self, inline_executor, pool_log):
        valid, invalid = expand_grid(scenario(horizon=6), structures=["k2"], incentives=["balanced"],
                                     strategies=["utility", "benchmark"])
        sink = Recorder()
        with pytest.raises(ConfigError, match="tau"):
            run_grid([valid, replace(invalid, tau=1)], jobs=2, trades=sink)
        assert (inline_executor, pool_log.submitted, sink.calls) == ([], 0, [])

    def test_duplicate_labels_rejected_before_any_work(self, inline_executor, pool_log):
        """alpha=0.5 is labelled balanced, so the two cells' rows in every output would share one label."""
        balanced = scenario(horizon=6)
        alpha = replace(balanced, incentive=IncentiveScheme(0.5), cell_index=1)
        assert balanced.cell == alpha.cell == "k2-balanced-utility"
        sink = Recorder()
        with pytest.raises(ConfigError, match="duplicate cell labels: k2-balanced-utility"):
            run_grid([balanced, alpha], jobs=2, trades=sink, beliefs=sink)
        assert (inline_executor, pool_log.submitted, sink.calls) == ([], 0, [])

    def test_grid_runs_on_one_pool(self, inline_executor):
        axes = dict(structures=["k2", "k5"], incentives=["balanced"], strategies=["utility", "benchmark"])
        results = run_grid(expand_grid(scenario(reps=3, horizon=6), **axes), jobs=2)
        assert inline_executor == [2]
        serial = run_grid(expand_grid(scenario(reps=3, horizon=6), **axes))
        assert len(results) == 4
        for parallel, expected in zip(results, serial):
            assert np.array_equal(parallel.mean_norm_perf, expected.mean_norm_perf)

    def test_failure_cancels_queued_replications(self, monkeypatch, tmp_path):
        """Cell 1 fails while cell 0's rows are still being written; cell 1's queued replications never start."""
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("workers see the patched module global only when forked")
        real = orgsim.simulation.run_replication

        def marked(scenario, rep_index, collect_beliefs=False):
            (tmp_path / f"{scenario.cell_index}-{rep_index}").touch()
            if scenario.cell_index == 1:
                if rep_index == 0:
                    raise InvariantViolation(f"cell {scenario.cell}, rep 0, period 1: forced")
                time.sleep(0.2)
            return real(scenario, rep_index, collect_beliefs)

        class SlowSink(Recorder):
            """Writes cell 0's last rep only once cell 1's failing replication has started in a worker."""

            def write(self, scenario, rep, records):
                deadline = time.monotonic() + 10
                while (scenario.cell_index, rep) == (0, 3) and not (tmp_path / "1-0").exists():
                    assert time.monotonic() < deadline, "cell 1 never started while cell 0 was written"
                    time.sleep(0.01)
                super().write(scenario, rep, records)

        monkeypatch.setattr(orgsim.simulation, "run_replication", marked)
        # Submit all 60 tasks at once, so only cancellation keeps cell 1's queued replications from starting.
        monkeypatch.setattr(orgsim.simulation, "IN_FLIGHT_PER_WORKER", 30)
        first, second = expand_grid(scenario(reps=60, horizon=6), structures=["k2"], incentives=["balanced"],
                                    strategies=["utility", "benchmark"])
        sink = SlowSink()
        with pytest.raises(InvariantViolation, match="forced"):
            run_grid([replace(first, reps=4), second], jobs=2, trades=sink)
        assert [(s.cell_index, rep) for s, rep, _ in sink.calls] == [(0, rep) for rep in range(4)]
        started = sorted(path.name for path in tmp_path.iterdir())
        assert "1-0" in started
        # Cell 0's 4 reps and cell 1's rep 0, what each worker picks up next, the
        # jobs + 1 calls already queued for the workers, and a little slack;
        # without cancellation all 56 queued reps of cell 1 would run.
        assert len(started) <= 4 + 8, started


class TestCellsFromDict:
    SETTINGS = dict(n=6, m=2, tau=5, horizon=8, reps=2, seed=4)

    @pytest.mark.parametrize("axes", [
        {},
        {"strategies": ["benchmark", "utility"]},
        {"structures": ["k5", "k2"], "incentives": ["alpha=0.3", "altruistic"], "strategies": ["interdependence"]},
    ], ids=["paper", "one-axis", "every-axis"])
    def test_grid_is_expand_grid(self, axes):
        data = {"grid": axes, **self.SETTINGS}
        cells = cells_from_dict(data)
        expected = expand_grid(scenario(**self.SETTINGS), **axes)
        assert cells == expected
        assert [(c.cell, c.cell_index) for c in cells] == [(c.cell, c.cell_index) for c in expected]
        assert data == {"grid": axes, **self.SETTINGS}

    def test_single_cell_is_from_dict(self):
        data = dict(structure="k5", incentive="alpha=0.3", strategy="benchmark", **self.SETTINGS)
        assert cells_from_dict(data) == [ScenarioConfig.from_dict(data)]

    def test_problems_name_their_cell_then_duplicates(self):
        data = {"grid": {"structures": ["k2"], "incentives": ["balanced", "alpha=0.5"], "strategies": ["utility"]},
                **self.SETTINGS, "tau": 1}
        with pytest.raises(ConfigError) as excinfo:
            cells_from_dict(data)
        assert str(excinfo.value) == ("k2-balanced-utility: tau must be at least 2, got 1; "
                                      "k2-balanced-utility: tau must be at least 2, got 1; "
                                      "duplicate cell labels: k2-balanced-utility")


class TestWriters:
    def test_results_csv_layout(self, tmp_path):
        results = run_grid(expand_grid(scenario(reps=2, horizon=6), structures=["k2"],
                                       incentives=["balanced"], strategies=["utility", "benchmark"]))
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

    def test_results_csv_with_a_quoted_label_matches_a_row_by_row_writer(self, tmp_path):
        matrix = write_matrix(tmp_path / 'a,"b.txt', build_stylized_matrix(DECOMPOSABLE_K2, 6))
        results = run_grid(expand_grid(scenario(horizon=30, seed=6), structures=[f"file:{matrix}", "k2"],
                                       incentives=["balanced"], strategies=["utility", "benchmark"]))
        path = tmp_path / "results.csv"
        write_results_csv(results, path)
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["cell", "period", "mean_norm_perf", "ci99_half_width"])
        for result in results:
            for t, (mean, half_width) in enumerate(zip(result.mean_norm_perf, result.ci99_half_width), start=1):
                writer.writerow([result.cell, t, repr(float(mean)), repr(float(half_width))])
        assert path.read_bytes() == expected.getvalue().encode()
        assert '\n"a,""b-balanced-utility",1,' in expected.getvalue()

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
        config = scenario(horizon=40, seed=2)
        path = tmp_path / "trades.csv"
        with write_trades_csv(path, [config]) as trades:
            run_experiment(config, trades=trades)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["rep", "period", "decision", "seller", "winner", "winning_bid", "price", "strategy"]
        assert len(rows) == 1 + sum(len(run_replication(config, rep).trades) for rep in range(config.reps))
        for row in rows[1:]:
            assert int(row[1]) % 5 == 0
            assert row[7] == "utility"
            assert float(row[6]) <= float(row[5]) or math.isclose(float(row[6]), float(row[5]))

    def test_trades_csv_grid_gets_cell_column(self, tmp_path):
        path = tmp_path / "trades.csv"
        cells = expand_grid(scenario(horizon=10, seed=2), structures=["k2"], incentives=["balanced"],
                            strategies=["utility", "interdependence"])
        with write_trades_csv(path, cells) as trades:
            run_grid(cells, trades=trades)
        with open(path, newline="") as fh:
            header = next(csv.reader(fh))
        assert header[0] == "cell"

    @pytest.mark.parametrize("writer", [write_trades_csv, write_beliefs_csv])
    def test_ledger_rejects_a_cell_it_was_not_opened_for(self, tmp_path, writer):
        first, second = expand_grid(scenario(horizon=10), structures=["k2"], incentives=["balanced"],
                                    strategies=["utility", "interdependence"])
        # No trades, or the empty belief snapshots of a run that did not collect them.
        empty = run_replication(first, 0).belief_snapshots if writer is write_beliefs_csv else []
        with pytest.raises(ValueError, match="k2-balanced-interdependence"):
            with writer(tmp_path / "ledger.csv", [first]) as ledger:
                ledger.write(first, 0, empty)
                ledger.write(second, 0, empty)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("writer, sink", [(write_trades_csv, "trades"), (write_beliefs_csv, "beliefs")])
    def test_ledger_quotes_a_label_that_needs_it(self, tmp_path, writer, sink):
        path = write_matrix(tmp_path / 'a,"b.txt', build_stylized_matrix(DECOMPOSABLE_K2, 6))
        cells = expand_grid(scenario(horizon=20, seed=2), structures=[f"file:{path}", "k2"], incentives=["balanced"],
                            strategies=["utility"])
        with writer(tmp_path / "ledger.csv", cells) as ledger:
            run_grid(cells, **{sink: ledger})
        with open(tmp_path / "ledger.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert {row[0] for row in rows} == {'a,"b-balanced-utility', "k2-balanced-utility"}
        assert {len(row) for row in rows} == {len(header)}

    @pytest.mark.parametrize("writer", [write_trades_csv, write_beliefs_csv])
    def test_ledger_rejects_duplicate_labels(self, tmp_path, writer):
        balanced = scenario(horizon=10)
        alpha = replace(balanced, incentive=IncentiveScheme(0.5), cell_index=1)
        with pytest.raises(ConfigError, match="^duplicate cell labels: k2-balanced-utility$"):
            with writer(tmp_path / "ledger.csv", [balanced, alpha]):
                pass
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("writer", [write_trades_csv, write_beliefs_csv])
    def test_ledger_rejects_an_invalid_cell(self, tmp_path, writer):
        with pytest.raises(ConfigError, match="^k2-balanced-utility: tau must be at least 2, got 1$"):
            with writer(tmp_path / "ledger.csv", [scenario(tau=1)]):
                pass
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("writer, sink", [(write_trades_csv, "trades"), (write_beliefs_csv, "beliefs")])
    def test_ledger_appears_only_when_complete(self, tmp_path, writer, sink):
        path = tmp_path / "ledger.csv"
        config = scenario(horizon=10)
        with writer(path, [config]) as ledger:
            run_experiment(config, **{sink: ledger})
            assert not path.exists()
        complete = path.read_bytes()
        assert complete.count(b"\n") > 1
        with pytest.raises(RuntimeError, match="stop"):
            with writer(path, [config]):
                raise RuntimeError("stop")
        assert [p.name for p in tmp_path.iterdir()] == ["ledger.csv"]
        assert path.read_bytes() == complete

    def test_beliefs_csv(self, tmp_path):
        path = tmp_path / "beliefs.csv"
        config = scenario(horizon=10)
        with write_beliefs_csv(path, [config]) as beliefs:
            run_experiment(config, beliefs=beliefs)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["rep", "period", "agent", "i", "j", "p", "q", "belief"]
        # 3 reps x 2 snapshots x 2 agents x 6*5 ordered pairs
        assert len(rows) == 1 + 3 * 2 * 2 * 30
        for row in rows[1:4]:
            p, q = int(row[5]), int(row[6])
            assert p >= 1 and q >= 1
            assert float(row[7]) == p / (p + q)

    def test_beliefs_csv_matches_a_row_by_row_writer(self, tmp_path):
        """Text-built rows equal csv.writer rows, down to n = 1, where an agent has no pair to report."""
        cells = []
        for index, n in enumerate((1, 2, 6)):
            matrix = tmp_path / f"n{n}.txt"
            matrix.write_text(f"{n}\n" + "".join(" ".join(["1"] * n) + "\n" for _ in range(n)))
            cells.append(scenario(structure=f"file:{matrix}", n=n, m=1, capacity=n, incentive=INDIVIDUALISTIC,
                                  tau=2, horizon=6, reps=2, cell_index=index))
        for run in [[cell] for cell in cells] + [cells]:
            path = tmp_path / "beliefs.csv"
            with write_beliefs_csv(path, run) as beliefs:
                run_grid(run, beliefs=beliefs)
            assert path.read_text() == row_by_row_beliefs_csv(run)
        assert row_by_row_beliefs_csv(cells[:1]) == "rep,period,agent,i,j,p,q,belief\n"

    def test_unchanged_agent_blocks_reuse_rows_exactly(self, tmp_path):
        """Agent 0 never changes and agent 1 goes A, B, A: each block equals rows written from scratch."""
        matrix = tmp_path / "ones.txt"
        matrix.write_text("4\n" + "1 1 1 1\n" * 4)
        config = scenario(structure=f"file:{matrix}", n=4, m=2)
        p = np.ones((3, 2, 4, 4), dtype=np.int64)
        q = np.ones_like(p)
        p[:, 0] = [[1, 4, 2, 3], [3, 1, 5, 2], [2, 2, 1, 4], [5, 3, 2, 1]]
        q[1, 1, 0, 2] = 6
        snapshots = snapshots_of((5, 10, 12), p, q)
        path = tmp_path / "beliefs.csv"
        with write_beliefs_csv(path, [config]) as beliefs:
            beliefs.write(config, 0, snapshots)
            beliefs.write(config, 1, snapshots)
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["rep", "period", "agent", "i", "j", "p", "q", "belief"])
        for rep in (0, 1):
            write_snapshot_rows(writer, [], rep, snapshots)
        assert path.read_text() == expected.getvalue()


    def test_random_counters_write_like_a_row_by_row_writer(self, tmp_path):
        """Diagonal changes write nothing, and a pair that moves back gets its old body again."""
        matrix = tmp_path / "ones.txt"
        matrix.write_text("6\n" + "1 1 1 1 1 1\n" * 6)
        config = scenario(structure=f"file:{matrix}", n=6, m=2)
        rng = np.random.default_rng(8)
        values = [snapshots_of((5, 10, 15, 20), *random_counters(rng, 4, 2, 6)) for _ in range(5)]
        path = tmp_path / "beliefs.csv"
        with write_beliefs_csv(path, [config]) as beliefs:
            for rep, snapshots in enumerate(values):
                beliefs.write(config, rep, snapshots)
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["rep", "period", "agent", "i", "j", "p", "q", "belief"])
        for rep, snapshots in enumerate(values):
            write_snapshot_rows(writer, [], rep, snapshots)
        assert path.read_text() == expected.getvalue()

    def test_counters_beyond_32_bits_write_their_own_values(self, tmp_path):
        """A hand-built value is not bound by validate's run size, so p and q may exceed 2**32."""
        matrix = tmp_path / "ones.txt"
        matrix.write_text("2\n1 1\n1 1\n")
        config = scenario(structure=f"file:{matrix}", n=2, m=2)
        p = np.ones((2, 2, 2, 2), dtype=np.int64)
        q = np.ones_like(p)
        q[:, 0, 0, 1] = 2**32 + 1
        p[1, 0, 1, 0] = 2**33
        snapshots = snapshots_of((5, 10), p, q)
        path = tmp_path / "beliefs.csv"
        with write_beliefs_csv(path, [config]) as beliefs:
            beliefs.write(config, 0, snapshots)
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["rep", "period", "agent", "i", "j", "p", "q", "belief"])
        write_snapshot_rows(writer, [], 0, snapshots)
        assert path.read_text() == expected.getvalue()
        assert f"0,5,0,0,1,1,{2**32 + 1}," in path.read_text()

    def test_grid_with_a_quoted_label_writes_like_a_row_by_row_writer(self, tmp_path):
        path = write_matrix(tmp_path / 'a,"b.txt', build_stylized_matrix(DECOMPOSABLE_K2, 6))
        cells = expand_grid(scenario(horizon=30, seed=6), structures=[f"file:{path}", "k2"], incentives=["balanced"],
                            strategies=["utility", "interdependence"])
        with write_beliefs_csv(tmp_path / "beliefs.csv", cells) as beliefs:
            run_grid(cells, jobs=2, beliefs=beliefs)
        text = (tmp_path / "beliefs.csv").read_text()
        assert text == row_by_row_beliefs_csv(cells)
        assert '\n"a,""b-balanced-utility",0,5,0,' in text

    def test_each_write_holds_one_snapshot(self):
        config = scenario(horizon=40, seed=3, strategy="interdependence")
        calls = []
        ledger = orgsim.simulation._BeliefsLedger(SimpleNamespace(write=calls.append), [config])
        run_experiment(config, beliefs=ledger)
        header, *snapshot_calls = calls
        assert "".join(calls) == row_by_row_beliefs_csv([config])
        assert len(snapshot_calls) == config.reps * 8  # one write per snapshot, periods 5 to 40
        for text in snapshot_calls:
            rows = text.splitlines()
            assert len(rows) == config.m * config.n * (config.n - 1)
            assert len({tuple(row.split(",")[:2]) for row in rows}) == 1  # one (rep, period)


def row_by_row_beliefs_csv(cells) -> str:
    """beliefs.csv for ``cells`` built one csv.writer row at a time from fresh replications."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    grid = len(cells) > 1
    header = ["rep", "period", "agent", "i", "j", "p", "q", "belief"]
    writer.writerow(["cell", *header] if grid else header)
    for config in cells:
        prefix = [config.cell] if grid else []
        for rep in range(config.reps):
            snapshots = run_replication(config, rep, collect_beliefs=True).belief_snapshots
            write_snapshot_rows(writer, prefix, rep, snapshots)
    return text.getvalue()


def write_snapshot_rows(writer, prefix, rep, snapshots) -> None:
    """One csv.writer row per snapshot, agent and off-diagonal (i, j), read entry by entry."""
    counters_p, counters_q = snapshots.counters()
    _, m, n, _ = counters_p.shape
    for k, period in enumerate(snapshots.periods):
        for agent_id in range(m):
            for i in range(n):
                for j in range(n):
                    if i != j:
                        p, q = int(counters_p[k, agent_id, i, j]), int(counters_q[k, agent_id, i, j])
                        writer.writerow([*prefix, rep, period, agent_id, i, j, p, q, repr(p / (p + q))])
