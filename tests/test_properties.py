"""Property tests: the engine equals the reference twin and keeps the criterion-3
invariants on random small scenarios, ``orgsim run`` writes the same bytes
at ``--jobs 1`` and ``--jobs 2``, and a utility cell and its interdependence
twin agree wherever no auction trade can reach.

Hypothesis runs derandomized (a fixed example sequence and no example
database), so the suite stays deterministic from run to run.
"""

import json
import subprocess
import sys
import tempfile
import textwrap
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orgsim import ConfigError, IncentiveScheme, ScenarioConfig, run_replication
from orgsim.cli import main
from orgsim.organization import INCENTIVE_PRESETS
from orgsim.simulation import STRATEGIES, cells_from_dict
from helpers import assert_matches_reference

INDIVIDUALISTIC = IncentiveScheme.parse("individualistic")


@st.composite
def scenarios(draw):
    """A valid scenario with n in [3, 12] and m dividing n, plus a random interaction matrix.

    Returns ``(overrides, entries)``; a ``None`` matrix means the ``structure``
    override names a stylized structure.
    """
    n = draw(st.integers(3, 12))
    m = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    share = n // m
    tau = draw(st.integers(2, 8))
    if m == 1:
        incentive = INDIVIDUALISTIC
    else:
        incentive = draw(st.one_of(
            st.sampled_from([IncentiveScheme.parse(name) for name in INCENTIVE_PRESETS]),
            st.floats(0.0, 1.0).map(IncentiveScheme),
        ))
    overrides = dict(
        n=n, m=m, tau=tau,
        horizon=draw(st.integers(1, 4 * tau + 3)),
        incentive=incentive,
        strategy=draw(st.sampled_from(STRATEGIES)),
        sigma=draw(st.one_of(st.just(0.0), st.floats(0.0, 0.5))),
        capacity=tuple(draw(st.lists(st.integers(share, n), min_size=m, max_size=m))),
        seed=draw(st.integers(0, 2**16)),
    )
    stylized = ["k2"] if n % 3 == 0 else []
    if n % 3 == 0 and n >= 6:
        stylized.append("k5")
    structure = draw(st.sampled_from(stylized + ["random"]))
    if structure != "random":
        return dict(overrides, structure=structure), None
    entries = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))).reshape(n, n)
    np.fill_diagonal(entries, True)
    return overrides, entries


def build(tmp_dir, overrides, entries) -> ScenarioConfig:
    if entries is not None:
        path = tmp_dir / f"matrix-{entries.shape[0]}-{np.packbits(entries).tobytes().hex()}.txt"
        rows = "\n".join(" ".join(str(int(v)) for v in row) for row in entries)
        path.write_text(f"{entries.shape[0]}\n{rows}\n")
        overrides = dict(overrides, structure=f"file:{path}")
    config = ScenarioConfig(reps=1, **overrides)
    assert config.validate() == []
    return config


@pytest.fixture(scope="module")
def matrix_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("matrices")


EDGE_CASES = [
    # a single agent, no residual; horizon below tau
    dict(structure="k2", n=6, m=1, tau=4, horizon=3, incentive=INDIVIDUALISTIC, strategy="utility",
         sigma=0.0, capacity=6, seed=1),
    # horizon not a multiple of tau, noise-free bids
    dict(structure="k5", n=6, m=3, tau=3, horizon=10, incentive=IncentiveScheme.parse("altruistic"),
         strategy="interdependence", sigma=0.0, capacity=(2, 4, 6), seed=2),
    # one decision per agent, so no agent may sell
    dict(structure="k2", n=3, m=3, tau=2, horizon=7, incentive=IncentiveScheme.parse("balanced"),
         strategy="utility", sigma=0.3, capacity=(1, 1, 3), seed=3),
]


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(case=scenarios(), rep=st.integers(0, 3))
@example(case=(EDGE_CASES[0], None), rep=0)
@example(case=(EDGE_CASES[1], None), rep=1)
@example(case=(EDGE_CASES[2], None), rep=2)
def test_engine_matches_reference(matrix_dir, case, rep):
    assert_matches_reference(build(matrix_dir, *case), rep)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(case=scenarios(), rep=st.integers(0, 3))
def test_criterion_3_invariants(matrix_dir, case, rep):
    config = build(matrix_dir, *case)
    result = run_replication(config, rep)
    n, tau, horizon = config.n, config.tau, config.horizon
    normalized = result.normalized_series
    assert normalized.shape == (horizon,)
    assert np.all((normalized > 0.0) & (normalized <= 1.0))

    capacities = config.resolved_capacities()
    assert result.sizes.shape == (horizon, config.m)
    assert np.all(result.sizes.sum(axis=1) == n)
    assert np.all((result.sizes >= 1) & (result.sizes <= capacities))
    assert sorted(d for agent in result.agents for d in agent.owned) == list(range(n))

    auctions = np.arange(tau, horizon + 1, tau)
    if config.strategy == "benchmark":
        assert result.trades == []
        assert np.all(result.sizes == n // config.m)
    else:
        assert np.array_equal(result.performance[auctions - 1], result.performance[auctions - 2])
    for trade in result.trades:
        assert trade.period % tau == 0
        assert trade.seller != trade.winner


@st.composite
def raw_scenarios(draw, matrix_dir):
    """A scenario file's values from a space wider than the valid one: any m up to n, capacities below and
    above the equal share, tau down to 1, incentives at both ends of alpha, and random matrix files."""
    # Each of n, m and the capacities is drawn from its valid values half the time, so that many scenarios run.
    n = draw(st.one_of(st.sampled_from([3, 6, 9, 12]), st.integers(1, 12)))
    m = draw(st.one_of(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]), st.integers(1, n)))
    share = n // m
    capacities = st.integers(max(share - 2, 0) if draw(st.booleans()) else share, share + 3)
    structure = draw(st.sampled_from(["k2", "k5", "file"]))
    if structure == "file":
        entries = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))).reshape(n, n)
        np.fill_diagonal(entries, True)
        path = matrix_dir / f"raw-{n}-{np.packbits(entries).tobytes().hex()}.txt"
        path.write_text(f"{n}\n" + "".join(" ".join(str(int(v)) for v in row) + "\n" for row in entries))
        structure = f"file:{path}"
    return dict(
        structure=structure,
        incentive=draw(st.one_of(
            st.sampled_from(sorted(INCENTIVE_PRESETS) + ["alpha=0", "alpha=1"]),
            st.floats(0.0, 1.0).map(lambda alpha: f"alpha={alpha!r}"),
        )),
        strategy=draw(st.sampled_from(STRATEGIES)),
        n=n, m=m,
        tau=draw(st.integers(1, 6)),
        horizon=draw(st.integers(1, 15)),
        reps=2,
        sigma=draw(st.floats(0.0, 5.0)),
        capacity=draw(st.one_of(capacities, st.lists(capacities, min_size=m, max_size=m),
                                st.lists(capacities, min_size=max(m - 1, 1), max_size=m + 1))),
        seed=draw(st.integers(0, 2**16)),
    )


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(data=st.data())
def test_every_scenario_the_engine_would_reject_fails_in_the_run_check(matrix_dir, data):
    """A scenario file either fails the run check with ConfigError, or its replications run without raising."""
    payload = data.draw(raw_scenarios(matrix_dir))
    try:
        cells = cells_from_dict(payload)
    except ConfigError:
        return
    for cell in cells:
        for rep in range(cell.reps):
            run_replication(cell, rep, collect_beliefs=True)


@st.composite
def grid_files(draw):
    """A small valid grid scenario file: 1-2 values per axis, two or more agents, tiny n, horizon and reps."""
    n = draw(st.sampled_from([3, 6]))
    m = draw(st.sampled_from([d for d in range(2, n + 1) if n % d == 0]))
    tau = draw(st.integers(2, 5))
    grid = {
        "structures": draw(st.lists(st.sampled_from(["k2", "k5"] if n == 6 else ["k2"]),
                                    min_size=1, max_size=2, unique=True)),
        "incentives": draw(st.lists(st.sampled_from(sorted(INCENTIVE_PRESETS) + ["alpha=0.3", "alpha=0.9"]),
                                    min_size=1, max_size=2, unique=True)),
        "strategies": draw(st.lists(st.sampled_from(STRATEGIES), min_size=1, max_size=2, unique=True)),
    }
    return {
        "grid": grid, "n": n, "m": m, "tau": tau,
        "horizon": draw(st.integers(1, 3 * tau + 1)),
        "reps": draw(st.integers(1, 4)),
        "capacity": draw(st.integers(n // m, n)),
        "sigma": draw(st.sampled_from([0.0, 0.05, 0.3])),
        "seed": draw(st.integers(0, 2**16)),
    }


@settings(derandomize=True, database=None, deadline=None, max_examples=10)
@given(payload=grid_files())
def test_jobs_do_not_change_output_bytes(payload):
    names = ("results.csv", "metadata.json", "trades.csv", "beliefs.csv")
    # --jobs 2 is rejected on a 1-CPU host; a function-scoped fixture would not reset between examples.
    with tempfile.TemporaryDirectory() as tmp, patch("orgsim.cli.os.cpu_count", return_value=2):
        root = Path(tmp)
        path = root / "grid.json"
        path.write_text(json.dumps(payload))
        outputs = []
        for jobs in (1, 2):
            out = root / f"jobs{jobs}"
            args = ["run", str(path), "--jobs", str(jobs), "--out", str(out), "--emit", "csv,json,trades,beliefs"]
            assert main(args) == 0
            outputs.append([(out / name).read_bytes() for name in names])
    assert outputs[0] == outputs[1]


class TestAuctionPathRelations:
    """Metamorphic relations between a utility cell and its interdependence twin at one ``cell_index``.

    The two strategies differ only in how offers and bids are made, so whatever
    no auction can reach must agree byte for byte. n = 15, m = 5 and tau = 25
    throughout; seed 4.
    """

    @staticmethod
    def pair(structure, incentive, reps, **overrides):
        cell = ScenarioConfig(structure=structure, incentive=IncentiveScheme.parse(incentive),
                              strategy="utility", seed=4, **overrides)
        twin = replace(cell, strategy="interdependence")  # same cell_index, so the same seed streams
        return [(run_replication(cell, rep), run_replication(twin, rep)) for rep in range(reps)]

    @pytest.mark.parametrize("incentive", sorted(INCENTIVE_PRESETS))
    @pytest.mark.parametrize("structure", ["k2", "k5"])
    def test_r3_no_spare_capacity_no_trade(self, structure, incentive):
        """R3: with every capacity at the equal share nobody can bid, so the cells never diverge."""
        for utility, interdependence in self.pair(structure, incentive, 30, capacity=3, horizon=80):
            assert utility.trades == interdependence.trades == []
            assert np.array_equal(utility.performance, interdependence.performance)
            assert np.array_equal(utility.sizes, interdependence.sizes)

    @pytest.mark.parametrize("incentive", sorted(INCENTIVE_PRESETS))
    @pytest.mark.parametrize("structure", ["k2", "k5"])
    def test_r4_identical_until_the_first_auction(self, structure, incentive):
        """R4: performance agrees through period tau, whose auction leaves the configuration as it was.

        Period tau's sizes already hold that auction's trades, so sizes agree through tau - 1.
        """
        tau = 25
        pairs = self.pair(structure, incentive, 20, tau=tau, horizon=2 * tau + 10)
        for utility, interdependence in pairs:
            assert np.array_equal(utility.performance[:tau], interdependence.performance[:tau])
            assert np.array_equal(utility.sizes[:tau - 1], interdependence.sizes[:tau - 1])
        assert any(utility.trades for utility, _ in pairs)

    @pytest.mark.parametrize("incentive", sorted(INCENTIVE_PRESETS))
    @pytest.mark.parametrize("structure", ["k2", "k5"])
    def test_r5_no_auction_before_tau(self, structure, incentive):
        """R5: a horizon below tau holds no auction, so the cells are identical for the whole run."""
        for utility, interdependence in self.pair(structure, incentive, 30, tau=25, horizon=24):
            assert utility.trades == interdependence.trades == []
            assert np.array_equal(utility.performance, interdependence.performance)
            assert np.array_equal(utility.sizes, interdependence.sizes)


@st.composite
def block_diagonal_cells(draw):
    """A benchmark cell's overrides and a block-diagonal matrix with one block per agent, in the mirrored
    allocation's order; inside a block any dependency structure."""
    m = draw(st.integers(2, 4))
    share = draw(st.integers(1, 4))
    n = m * share
    entries = np.zeros((n, n), dtype=bool)
    for a in range(m):
        block = draw(st.lists(st.booleans(), min_size=share * share, max_size=share * share))
        entries[a * share:(a + 1) * share, a * share:(a + 1) * share] = np.reshape(block, (share, share))
    np.fill_diagonal(entries, True)
    overrides = dict(n=n, m=m, capacity=share, incentive=INDIVIDUALISTIC, strategy="benchmark", horizon=60,
                     seed=draw(st.integers(0, 2**16)))
    return overrides, entries


class TestBenchmarkIncentiveRelations:
    """Metamorphic relations across incentive weights in a benchmark cell at one ``cell_index``.

    When the matrix is block-diagonal and the mirrored allocation gives each
    agent one whole block, as in a k2 benchmark cell with n = 3m, a flip never
    moves the residual, so only whether alpha is 0 can matter. The fixed cases
    use n = 15, m = 5, horizon 300; seed 4, 50 replications.
    """

    @staticmethod
    def series(structure, alphas, reps=50):
        cell = ScenarioConfig(structure=structure, incentive=IncentiveScheme(alphas[0]), strategy="benchmark",
                              horizon=300, seed=4)
        cells = [replace(cell, incentive=IncentiveScheme(alpha)) for alpha in alphas]  # same cell_index
        return [[run_replication(c, rep).performance for c in cells] for rep in range(reps)]

    def test_r1_any_positive_alpha_gives_one_series(self):
        """R1: in the k2 cell every alpha in (0, 1] takes the same flips."""
        for first, *rest in self.series("k2", [1.0, 0.5, 0.25, 0.01]):
            for other in rest:
                assert np.array_equal(first, other)

    def test_r2_alpha_zero_never_moves(self):
        """R2: at alpha 0 every flip leaves the utility as it was, and a tie keeps the status quo."""
        for (performance,) in self.series("k2", [0.0]):
            assert np.all(performance == performance[0])

    def test_r1_control_k5_depends_on_alpha(self):
        """Control: in k5 an own flip moves other agents' contributions, so alpha changes the run."""
        assert any(not np.array_equal(first, second) for first, second in self.series("k5", [1.0, 0.25]))

    # From 0.01 up: a far smaller weight lets the full-sum fallback round a real own change away.
    @settings(derandomize=True, database=None, deadline=None, max_examples=30)
    @given(case=block_diagonal_cells(), alpha=st.floats(0.01, 1.0))
    def test_r1_r2_on_any_block_diagonal_file_matrix(self, matrix_dir, case, alpha):
        cell = build(matrix_dir, *case)
        for rep in range(3):
            first, other, still = (run_replication(replace(cell, incentive=IncentiveScheme(a)), rep).performance
                                   for a in (1.0, alpha, 0.0))
            assert np.array_equal(first, other)
            assert np.all(still == still[0])


def test_failing_property_report_leaves_the_run_going(tmp_path):
    """A failing derandomized property makes hypothesis import libcst to write its patch file. Under the
    project's warning filters that import must not stop pytest with an INTERNALERROR before later tests run."""
    (tmp_path / "test_two.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st


        @settings(derandomize=True, database=None)
        @given(st.integers())
        def test_fails(x):
            assert x < 5


        def test_passes():
            pass
    """))
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    # Run from tmp_path, so hypothesis writes its patch files there.
    done = subprocess.run([sys.executable, "-m", "pytest", "-c", str(pyproject), "--rootdir", str(tmp_path),
                           "-p", "no:cacheprovider", "-q"], cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in done.stdout + done.stderr, done.stdout + done.stderr
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
