"""Beta-Bernoulli interdependence learning."""

import copy

import numpy as np
import pytest

from orgsim import (
    AgentState,
    belief,
    init_beliefs,
    mean_external_belief,
    mean_internal_belief,
    update_beliefs,
)
from helpers import changed_entries


def make_agent(owned, n=8):
    return AgentState(0, list(owned), capacity=10, beliefs=init_beliefs(n))


class TestInitBeliefs:
    def test_uniform_prior(self):
        counters = init_beliefs(4)
        assert counters.p == counters.q == [[1] * 4] * 4
        assert counters.p[0] is not counters.p[1] and counters.p[0] is not counters.q[0]
        assert counters.booked == set()
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert belief(counters, i, j) == 0.5

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            init_beliefs(0)


class TestBelief:
    def test_exact_ratio(self):
        counters = init_beliefs(3)
        counters.p[0][1] = 3
        counters.q[0][1] = 1
        assert belief(counters, 0, 1) == 0.75
        counters.p[2][1] = 1
        counters.q[2][1] = 3
        assert belief(counters, 2, 1) == 0.25

    def test_self_belief_undefined(self):
        with pytest.raises(ValueError, match="self"):
            belief(init_beliefs(3), 1, 1)


class TestUpdateBeliefs:
    def test_books_one_observation_per_other_owned(self):
        agent = make_agent([0, 3, 7])
        before = {0: 0.5, 3: 0.2, 7: 0.9}
        after = {0: 0.6, 3: 0.4, 7: 0.9}
        update_beliefs(agent, 0, before, after)
        counters = agent.beliefs
        assert counters.p[0][3] == 2 and counters.q[0][3] == 1  # changed
        assert counters.q[0][7] == 2 and counters.p[0][7] == 1  # unchanged
        # the flipped decision books nothing about itself
        assert counters.p[0][0] == 1 and counters.q[0][0] == 1
        # untouched rows stay at the prior
        assert counters.p[3][0] == 1 and counters.q[3][0] == 1

    def test_observation_is_exact_equality(self):
        agent = make_agent([0, 3])
        nudged = np.nextafter(0.5, 1.0)
        update_beliefs(agent, 0, {0: 0.1, 3: 0.5}, {0: 0.2, 3: nudged})
        assert agent.beliefs.p[0][3] == 2  # one ulp difference counts as change
        agent2 = make_agent([0, 3])
        update_beliefs(agent2, 0, {0: 0.1, 3: 0.5}, {0: 0.2, 3: 0.5})
        assert agent2.beliefs.q[0][3] == 2

    def test_rejects_foreign_flip(self):
        agent = make_agent([0, 3])
        with pytest.raises(ValueError, match="does not own"):
            update_beliefs(agent, 5, {0: 0.1, 3: 0.2}, {0: 0.1, 3: 0.2})

    def test_reads_only_owned_entries_of_full_vectors(self):
        agent = make_agent([1, 4], n=6)
        before = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
        after = [0.9, 0.7, 0.8, 0.1, 0.5, 0.2]  # decisions 0, 1, 2, 3 and 5 change
        update_beliefs(agent, 1, before, after)
        counters = agent.beliefs
        assert counters.q[1][4] == 2 and counters.p[1][4] == 1  # the owned other decision kept its value
        # neither the flipped decision nor decisions outside the portfolio book anything
        for j in (0, 1, 2, 3, 5):
            assert counters.p[1][j] == 1 and counters.q[1][j] == 1
        assert sum(map(sum, counters.p)) + sum(map(sum, counters.q)) == 2 * 36 + 1

    def test_counters_accumulate(self):
        agent = make_agent([0, 1])
        for round_ in range(4):
            update_beliefs(agent, 0, {0: 0.0, 1: 0.0}, {0: 1.0, 1: round_ % 2})
        # rounds alternate: changed (1), unchanged (0 == 0.0 at start? values 0,1,0,1)
        assert agent.beliefs.p[0][1] + agent.beliefs.q[0][1] == 6


class TestPopChanges:
    @pytest.mark.parametrize("m, n", [(1, 1), (1, 5), (3, 3), (3, 7), (4, 12)])
    def test_batches_equal_a_brute_force_diff(self, m, n):
        """Random flips, portfolio reshuffles and pops; every batch equals the diff of copies taken at the pops.

        Contributions take two values, so observations land on both counters. A one-decision portfolio and
        n = 1 book nothing, and so does the time between two pops in a row.
        """
        rng = np.random.default_rng(10 * m + n)

        def portfolios():  # every agent owns at least one decision
            owner = np.concatenate([np.arange(m), rng.integers(0, m, n - m)])
            rng.shuffle(owner)
            return [np.flatnonzero(owner == a).tolist() for a in range(m)]

        booked = 0
        for _ in range(10):
            agents = [AgentState(a, owned, capacity=n, beliefs=init_beliefs(n)) for a, owned in enumerate(portfolios())]
            taken = [copy.deepcopy(agent.beliefs) for agent in agents]
            for step in range(1, 61):
                if step % 15 == 0:
                    for agent, owned in zip(agents, portfolios()):
                        agent.owned = owned
                if rng.random() < 0.3:
                    for a, agent in enumerate(agents):
                        batch = agent.beliefs.pop_changes()
                        assert batch == changed_entries(taken[a], agent.beliefs)
                        assert agent.beliefs.pop_changes() == ()
                        taken[a] = copy.deepcopy(agent.beliefs)
                        booked += len(batch)
                    continue
                before = (rng.integers(0, 2, n) / 2).tolist()
                after = (rng.integers(0, 2, n) / 2).tolist()
                for agent in agents:
                    if rng.random() < 0.7:
                        update_beliefs(agent, int(rng.choice(agent.owned)), before, after)
        assert booked > 0 if n > m else booked == 0


class TestMeanBeliefs:
    def test_internal_mean_excludes_self(self):
        agent = make_agent([1, 2, 4])
        counters = agent.beliefs
        counters.p[1][2] = 3  # belief 0.75
        counters.p[1][4] = 1  # belief 0.5
        assert mean_internal_belief(agent, 1) == (0.75 + 0.5) / 2

    def test_internal_needs_portfolio(self):
        agent = make_agent([1])
        with pytest.raises(ValueError, match="at least two"):
            mean_internal_belief(agent, 1)
        with pytest.raises(ValueError, match="does not own"):
            mean_internal_belief(make_agent([1, 2]), 0)

    def test_external_mean_over_all_owned(self):
        agent = make_agent([1, 2])
        counters = agent.beliefs
        counters.p[5][1] = 3  # belief 0.75
        counters.q[5][2] = 3  # belief 0.25
        assert mean_external_belief(agent, 5) == (0.75 + 0.25) / 2

    def test_external_rejects_owned_decision(self):
        with pytest.raises(ValueError, match="already owned"):
            mean_external_belief(make_agent([1, 2]), 1)

    def test_external_needs_portfolio(self):
        agent = make_agent([1, 2])
        agent.owned.clear()
        with pytest.raises(ValueError, match="owns no decisions"):
            mean_external_belief(agent, 1)

    def test_denominators_differ(self):
        # same counters, same target, different normalization
        agent = make_agent([1, 2, 4])
        counters = agent.beliefs
        counters.p[1][2] = 9  # belief 0.9
        internal = mean_internal_belief(agent, 1)
        assert internal == (0.9 + 0.5) / 2

        outsider = make_agent([2, 4, 6])
        outsider.beliefs.p[1][2] = 9
        external = mean_external_belief(outsider, 1)
        assert external == (0.9 + 0.5 + 0.5) / 3


class TestMeanBeliefSums:
    def test_means_equal_belief_sums_in_owned_order(self):
        """The row reads keep each term and the summation order of ``belief`` calls, so the floats are equal."""
        rng = np.random.default_rng(4)
        for _ in range(50):
            agent = make_agent(rng.permutation(8)[:5].tolist())
            agent.beliefs.p = rng.integers(1, 40, size=(8, 8)).tolist()
            agent.beliefs.q = rng.integers(1, 40, size=(8, 8)).tolist()
            outsider = next(d for d in range(8) if d not in agent.owned)
            for i in agent.owned:
                expected = 0.0
                for j in agent.owned:
                    if j != i:
                        expected += belief(agent.beliefs, i, j)
                assert mean_internal_belief(agent, i) == expected / 4
            expected = 0.0
            for j in agent.owned:
                expected += belief(agent.beliefs, outsider, j)
            assert mean_external_belief(agent, outsider) == expected / 5
