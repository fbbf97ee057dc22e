"""The hillclimb against an exact Markov chain that shares none of the engine's loop.

Without auctions the hillclimb is a finite Markov chain on configurations
(Kemeny & Snell 1960, "Finite Markov Chains"). In a k2 benchmark cell with
n = 15 and m = 5 the mirrored allocation gives each agent one 3-decision
block, and a flip changes only its own block's contributions. So each block
is an independent 8-state chain: each period its agent picks one of the
three decisions uniformly and flips it iff the block's contribution sum
strictly rises, whatever the incentive weight alpha > 0. Given a
replication's landscape and initial bits, taken from their documented
streams, the blocks' exact means and variances sum to the exact mean and
variance of each period's normalized performance. The engine's mean over
replications is then z-scored against the mean of those exact conditional
means, period by period.
"""

import numpy as np
import pytest

from orgsim import (
    ROLE_INIT,
    ROLE_LANDSCAPE,
    IncentiveScheme,
    ScenarioConfig,
    contribution,
    generate_landscape,
    replication_rng,
    run_replication,
)
from orgsim.landscape import BLOCK_SIZE

SEED, REPS, HORIZON = 5, 400, 60
# Fixed before the first run: Bonferroni over the 60 periods at a family-wise error well below 1e-3.
Z_BOUND = 4.5
STATES = 1 << BLOCK_SIZE


def block_chain(land, first):
    """The block starting at decision ``first``: its contribution sum in each of the 8 states (first member
    as the highest bit) and the one-period transition matrix of its agent's hillclimb."""
    members = range(first, first + BLOCK_SIZE)
    sums = np.zeros(STATES)
    for state in range(STATES):
        config = [0] * land.n
        for r, d in enumerate(members):
            config[d] = (state >> (BLOCK_SIZE - 1 - r)) & 1
        sums[state] = sum(contribution(land, config, d) for d in members)
    step = np.zeros((STATES, STATES))
    for state in range(STATES):
        for r in range(BLOCK_SIZE):
            neighbor = state ^ (1 << (BLOCK_SIZE - 1 - r))
            step[state, neighbor if sums[neighbor] > sums[state] else state] += 1 / BLOCK_SIZE
    return sums, step


def exact_moments(scenario, rep):
    """The exact mean and variance of normalized performance at periods 1..horizon, given the replication's
    landscape and initial bits."""
    land = generate_landscape(scenario.matrix, replication_rng(scenario.seed, scenario.cell_index, rep, ROLE_LANDSCAPE))
    bits = replication_rng(scenario.seed, scenario.cell_index, rep, ROLE_INIT).integers(0, 2, scenario.n)
    scale = scenario.n * land.optimum[1]
    mean, var = np.zeros(scenario.horizon), np.zeros(scenario.horizon)
    for first in range(0, scenario.n, BLOCK_SIZE):
        sums, step = block_chain(land, first)
        dist = np.zeros(STATES)
        dist[int("".join(map(str, bits[first:first + BLOCK_SIZE])), 2)] = 1.0
        for t in range(scenario.horizon):
            dist = dist @ step
            block_mean = dist @ sums
            mean[t] += block_mean / scale
            var[t] += dist @ (sums - block_mean) ** 2 / scale**2
    return mean, var


@pytest.mark.parametrize("incentive", ["individualistic", "altruistic"])
def test_engine_mean_matches_the_exact_chain(incentive):
    scenario = ScenarioConfig(structure="k2", incentive=IncentiveScheme.parse(incentive), strategy="benchmark",
                              n=15, m=5, horizon=HORIZON, reps=REPS, seed=SEED)
    moments = [exact_moments(scenario, rep) for rep in range(REPS)]
    exact_mean = np.mean([mean for mean, _ in moments], axis=0)
    sd = np.sqrt(np.sum([var for _, var in moments], axis=0)) / REPS
    engine = np.mean([run_replication(scenario, rep).normalized_series for rep in range(REPS)], axis=0)
    assert sd.min() > 0.0

    assert np.abs((engine - exact_mean) / sd).max() <= Z_BOUND
    # Power: the same engine series read one period late, period t's value taken for period t + 1, fails.
    assert np.abs((engine[:-1] - exact_mean[1:]) / sd[1:]).max() > Z_BOUND
