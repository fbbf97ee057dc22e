"""Incentives, allocations, and the synchronous hillclimbing step."""

import numpy as np
import pytest

from orgsim import (
    ConfigError,
    IncentiveScheme,
    InteractionMatrix,
    Landscape,
    agent_utility,
    flip_improves,
    hillclimb_step,
    initial_allocation,
    mirrored_allocation,
    performance,
)
from orgsim.landscape import DECOMPOSABLE_K2, build_stylized_matrix, generate_landscape
from helpers import contributions_of, k0_landscape, make_agent


class TestIncentiveScheme:
    def test_presets(self):
        for name, weights in [("individualistic", (1.0, 0.0)), ("balanced", (0.5, 0.5)), ("altruistic", (0.25, 0.75))]:
            scheme = IncentiveScheme.parse(name)
            assert scheme == IncentiveScheme(weights[0])
            assert (scheme.alpha, scheme.beta) == weights

    def test_names(self):
        assert IncentiveScheme.parse("altruistic").name == "altruistic"
        assert IncentiveScheme(0.5).name == "balanced"
        assert IncentiveScheme(0.7).name == "alpha0.7"

    def test_from_alpha(self):
        scheme = IncentiveScheme.parse("alpha=0.6")
        assert scheme == IncentiveScheme(0.6)
        assert scheme.alpha == 0.6
        assert scheme.beta == 1.0 - 0.6

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown incentive"):
            IncentiveScheme.parse("selfless")

    @pytest.mark.parametrize("alpha, beta", [(1.2, -0.2), (-0.1, 1.1)])
    def test_invalid_weights(self, alpha, beta):
        """A weight outside [0, 1] is rejected, whether it is alpha or beta = 1 - alpha."""
        with pytest.raises(ConfigError, match=r"must lie in \[0, 1\]"):
            IncentiveScheme(alpha)
        with pytest.raises(ConfigError, match=r"must lie in \[0, 1\]"):
            IncentiveScheme(1.0 - beta)


class TestAllocations:
    def test_initial_allocation_partitions_equally(self):
        rng = np.random.default_rng(4)
        owned = initial_allocation(15, 5, [5] * 5, rng)
        assert [len(block) for block in owned] == [3] * 5
        assert sorted(d for block in owned for d in block) == list(range(15))
        for block in owned:
            assert block == sorted(block)

    def test_initial_allocation_varies_and_reproduces(self):
        a = initial_allocation(12, 4, [3] * 4, np.random.default_rng(8))
        b = initial_allocation(12, 4, [3] * 4, np.random.default_rng(8))
        assert a == b
        seen = {tuple(tuple(block) for block in initial_allocation(12, 4, [3] * 4, np.random.default_rng(s)))
                for s in range(30)}
        assert len(seen) > 1

    @pytest.mark.parametrize("n, m, caps, fragment", [
        (15, 4, [5] * 4, "split equally"),
        (15, 5, [2] * 5, "below the equal share"),
        (15, 5, [5] * 4, "expected 5 capacities"),
        (0, 1, [1], "n >= 1"),
    ])
    def test_initial_allocation_rejects(self, n, m, caps, fragment):
        with pytest.raises(ConfigError, match=fragment):
            initial_allocation(n, m, caps, np.random.default_rng(0))

    def test_mirrored_allocation_contiguous(self):
        assert mirrored_allocation(15, 5) == [
            [0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11], [12, 13, 14],
        ]

    def test_mirrored_allocation_contains_k2_blocks(self):
        matrix = build_stylized_matrix(DECOMPOSABLE_K2, 15)
        owned = mirrored_allocation(15, 5)
        for block in owned:
            for j in block:
                assert set(matrix.dependencies(j)) <= set(block)

    def test_mirrored_allocation_rejects_uneven(self):
        with pytest.raises(ConfigError):
            mirrored_allocation(10, 3)


class TestAgentState:
    def test_owned_sorted(self):
        agent = make_agent(0, [5, 1, 3])
        assert agent.owned == [1, 3, 5]

    def test_rejects_empty(self):
        with pytest.raises(ConfigError, match="at least one"):
            make_agent(0, [])

    def test_rejects_over_capacity(self):
        with pytest.raises(ConfigError, match="capacity"):
            make_agent(0, [0, 1, 2], capacity=2)


class TestUtility:
    def test_linear_weighting(self):
        # own performance 0.4 and residual performance 0.8, weighted alpha and beta
        agent = make_agent(0, [0], n=2)
        scheme = IncentiveScheme.parse("altruistic")
        assert agent_utility(agent, [0.4, 0.8], scheme) == 0.25 * 0.4 + 0.75 * 0.8

    def test_agent_utility_composes_performance(self):
        land = k0_landscape([(0.1, 0.9), (0.2, 0.6), (0.3, 0.7), (0.8, 0.4)])
        agent = make_agent(0, [0, 2], n=4)
        contributions = contributions_of(land, [1, 0, 1, 1])
        assert contributions == [0.9, 0.2, 0.7, 0.4]
        for name, alpha, beta in [("individualistic", 1.0, 0.0), ("balanced", 0.5, 0.5), ("altruistic", 0.25, 0.75)]:
            expected = alpha * ((0.9 + 0.7) / 2) + beta * ((0.2 + 0.4) / 2)
            assert agent_utility(agent, contributions, IncentiveScheme.parse(name)) == expected, name

    def test_agent_utility_sums_in_ascending_decision_order(self):
        # 0.1 + 0.2 + 0.3 is 0.6000000000000001, and 0.3 + 0.2 + 0.1 is 0.6.
        contributions = [0.5, 0.1, 0.2, 0.3]
        own = agent_utility(make_agent(0, [3, 1, 2], n=4), contributions, IncentiveScheme(1.0))
        residual = agent_utility(make_agent(0, [0], n=4), contributions, IncentiveScheme(0.0))
        assert own == residual == (0.1 + 0.2 + 0.3) / 3 != (0.3 + 0.2 + 0.1) / 3

    def test_agent_utility_without_residual(self):
        land = k0_landscape([(0.1, 0.9), (0.2, 0.6)])
        agent = make_agent(0, [0, 1], n=2)
        scheme = IncentiveScheme.parse("individualistic")
        contributions = contributions_of(land, [1, 1])
        assert agent_utility(agent, contributions, scheme) == 1.0 * performance(contributions)


class TestProposeNeighbor:
    """The neighbour hillclimb_step draws: one owned decision, uniformly."""

    def test_flips_exactly_one_owned_bit(self):
        config = [0, 1, 0, 1, 1, 0, 0, 1]
        # every flip away from config improves, so each step returns the decision it drew
        land = k0_landscape([(0.1, 0.9) if bit == 0 else (0.9, 0.1) for bit in config])
        agent = make_agent(0, [1, 4, 6])
        scheme = IncentiveScheme(1.0)
        rng = np.random.default_rng(2)
        for _ in range(50):
            flip = hillclimb_step(agent, land, config, scheme, rng)
            assert flip in agent.owned
            candidate = list(config)
            candidate[flip] ^= 1
            diff = [d for d in range(8) if candidate[d] != config[d]]
            assert diff == [flip]
        assert config == [0, 1, 0, 1, 1, 0, 0, 1]

    def test_uniform_over_owned(self):
        # every flip from all zeros improves, so each step returns the decision it drew
        land = k0_landscape([(0.1, 0.9)] * 8)
        agent = make_agent(0, [0, 2, 5])
        scheme = IncentiveScheme(1.0)
        rng = np.random.default_rng(3)
        counts = {0: 0, 2: 0, 5: 0}
        for _ in range(3000):
            counts[hillclimb_step(agent, land, [0] * 8, scheme, rng)] += 1
        for count in counts.values():
            assert 850 <= count <= 1150


class TestHillclimbStep:
    def test_adopts_strict_improvement(self):
        land = k0_landscape([(0.2, 0.9)])
        agent = make_agent(0, [0], capacity=1, n=1)
        scheme = IncentiveScheme(1.0)
        assert hillclimb_step(agent, land, [0], scheme, np.random.default_rng(0)) == 0

    def test_keeps_status_quo_when_worse(self):
        land = k0_landscape([(0.2, 0.9)])
        agent = make_agent(0, [0], capacity=1, n=1)
        scheme = IncentiveScheme(1.0)
        assert hillclimb_step(agent, land, [1], scheme, np.random.default_rng(0)) is None

    def test_tie_keeps_status_quo(self):
        land = k0_landscape([(0.5, 0.5), (0.3, 0.4)])
        agent = make_agent(0, [0], capacity=1, n=2)
        scheme = IncentiveScheme(1.0)
        for seed in range(5):
            assert hillclimb_step(agent, land, [0, 1], scheme, np.random.default_rng(seed)) is None

    def test_weighting_can_flip_the_decision(self):
        # flipping decision 0 helps the residual but hurts the agent's own set;
        # an individualist declines, an altruist accepts
        matrix = InteractionMatrix(np.array([[1, 0], [1, 1]], dtype=bool))
        tables = [np.array([0.6, 0.5]), np.array([0.2, 0.9, 0.1, 0.3])]
        land = Landscape(matrix=matrix, tables=tables)
        agent = make_agent(0, [0], capacity=1, n=2)
        config = [0, 1]

        assert hillclimb_step(agent, land, config, IncentiveScheme(1.0), np.random.default_rng(0)) is None
        assert hillclimb_step(agent, land, config, IncentiveScheme(0.25), np.random.default_rng(0)) == 0

    def test_residual_frozen_at_previous_config(self):
        land = k0_landscape([(0.1, 0.2), (0.9, 0.1)])
        agent = make_agent(0, [0], capacity=1, n=2)
        scheme = IncentiveScheme(0.5)
        # candidate only changes the own bit; residual contribution stays 0.9
        assert hillclimb_step(agent, land, [0, 0], scheme, np.random.default_rng(1)) == 0
        expected_gain = 0.5 * (0.2 - 0.1)
        before = agent_utility(agent, contributions_of(land, [0, 0]), scheme)
        after = agent_utility(agent, contributions_of(land, [1, 0]), scheme)
        assert after - before == pytest.approx(expected_gain)

    def test_consumes_exactly_one_draw(self):
        land = k0_landscape([(0.1, 0.9)] * 8)
        agent = make_agent(0, [0, 2, 5])
        for config in ([0] * 8, [1] * 8):  # the flip is adopted, then declined
            rng_a = np.random.default_rng(9)
            hillclimb_step(agent, land, config, IncentiveScheme(1.0), rng_a)
            rng_b = np.random.default_rng(9)
            rng_b.integers(len(agent.owned))
            assert rng_a.integers(1 << 20) == rng_b.integers(1 << 20)


class TestFlipImproves:
    @pytest.mark.parametrize("config, flip, expected", [
        ([0, 1], 0, True),  # 0.2 -> 0.9
        ([1, 1], 0, False),  # 0.9 -> 0.2
        ([0, 0], 1, False),  # 0.4 -> 0.4: a tie keeps the status quo
    ])
    def test_strict_improvement_of_full_utilities(self, config, flip, expected):
        land = k0_landscape([(0.2, 0.9), (0.4, 0.4)])
        agent = make_agent(0, [0, 1], capacity=2, n=2)
        scheme = IncentiveScheme(1.0)
        candidate = list(config)
        candidate[flip] ^= 1
        assert flip_improves(agent, contributions_of(land, config), contributions_of(land, candidate), scheme) is expected

    def test_leaves_config_unchanged(self):
        land = k0_landscape([(0.2, 0.9), (0.4, 0.4)])
        agent = make_agent(0, [0], capacity=1, n=2)
        config = [0, 1]
        before, after = [0.2, 0.4], [0.9, 0.4]
        assert flip_improves(agent, before, after, IncentiveScheme(0.5))
        assert (before, after) == ([0.2, 0.4], [0.9, 0.4])
        assert hillclimb_step(agent, land, config, IncentiveScheme(0.5), np.random.default_rng(0)) == 0
        assert config == [0, 1]


class TestSynchronousSemantics:
    def test_agents_do_not_see_each_others_moves(self):
        # each agent is evaluated against the old configuration
        rng = np.random.default_rng(0)
        matrix = build_stylized_matrix(DECOMPOSABLE_K2, 6)
        land = generate_landscape(matrix, rng)
        agents = [make_agent(0, [0, 1, 2], n=6), make_agent(1, [3, 4, 5], n=6)]
        scheme = IncentiveScheme.parse("balanced")
        config = [0, 1, 0, 1, 0, 1]

        flips = [hillclimb_step(agent, land, config, scheme, np.random.default_rng(7)) for agent in agents]
        assert config == [0, 1, 0, 1, 0, 1]  # a step leaves the configuration the next agent reads
        for agent, flip in zip(agents, flips):
            assert flip is None or flip in agent.owned
