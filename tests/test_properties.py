"""Property tests: the engine equals the reference twin on random small scenarios.

Hypothesis runs derandomized (a fixed example sequence and no example
database), so the suite stays deterministic from run to run.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orgsim import IncentiveScheme, ScenarioConfig, run_replication
from orgsim.organization import INCENTIVE_PRESETS
from orgsim.simulation import STRATEGIES
from helpers import reference_replication

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
            st.floats(0.0, 1.0).map(IncentiveScheme.from_alpha),
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
    config = build(matrix_dir, *case)
    engine = run_replication(config, rep)
    ref_performance, ref_normalized, ref_sizes, ref_trades, ref_agents = reference_replication(config, rep)
    assert np.array_equal(engine.performance, ref_performance)
    assert np.array_equal(engine.normalized_series, ref_normalized)
    assert np.array_equal(engine.sizes, ref_sizes)
    assert engine.trades == ref_trades
    for mine, theirs in zip(engine.agents, ref_agents):
        assert mine.owned == theirs.owned
        assert np.array_equal(mine.beliefs.p, theirs.beliefs.p)
        assert np.array_equal(mine.beliefs.q, theirs.beliefs.q)
