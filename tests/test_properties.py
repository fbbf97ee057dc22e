"""Property tests: the engine equals the reference twin and keeps the criterion-3
invariants on random small scenarios, and ``orgsim run`` writes the same bytes
at ``--jobs 1`` and ``--jobs 2``.

Hypothesis runs derandomized (a fixed example sequence and no example
database), so the suite stays deterministic from run to run.
"""

import json
import tempfile
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

INDIVIDUALISTIC = IncentiveScheme.from_name("individualistic")


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
            st.sampled_from([IncentiveScheme.from_name(name) for name in INCENTIVE_PRESETS]),
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
    dict(structure="k5", n=6, m=3, tau=3, horizon=10, incentive=IncentiveScheme.from_name("altruistic"),
         strategy="interdependence", sigma=0.0, capacity=(2, 4, 6), seed=2),
    # one decision per agent, so no agent may sell
    dict(structure="k2", n=3, m=3, tau=2, horizon=7, incentive=IncentiveScheme.from_name("balanced"),
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
