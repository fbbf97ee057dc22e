"""Offer selection, bidding, and sequential second-price clearing."""

import copy
import math
import pickle

import numpy as np
import pytest

from orgsim import (
    IncentiveScheme,
    InvariantViolation,
    Offer,
    ScenarioConfig,
    TradeRecord,
    clear_auction,
    contribution,
    mean_internal_belief,
    replication_rng,
    run_replication,
    select_offer_interdependence,
    select_offer_utility,
)
from orgsim.simulation import ROLE_NOISE
from helpers import contributions_of, k0_landscape, make_agent, reference_clear_auction


def tie_rng(seed=0):
    return np.random.default_rng(seed)


class TestSelectOfferUtility:
    def test_offers_weakest_contribution(self):
        land = k0_landscape([(0.8, 0.1), (0.2, 0.9), (0.5, 0.5)])
        agent = make_agent(0, [0, 1, 2], n=3)
        offer = select_offer_utility(agent, contributions_of(land, [0, 0, 0]), tie_rng())
        assert offer == Offer(seller=0, decision=1, min_price=0.2)
        assert offer.min_price == contribution(land, [0, 0, 0], 1)

    def test_single_decision_no_offer(self):
        land = k0_landscape([(0.8, 0.1)])
        agent = make_agent(0, [0], n=1)
        assert select_offer_utility(agent, contributions_of(land, [0]), tie_rng()) is None

    def test_tie_broken_uniformly(self):
        land = k0_landscape([(0.2, 0.9), (0.2, 0.9), (0.5, 0.5)])
        agent = make_agent(0, [0, 1, 2], n=3)
        current = contributions_of(land, [0, 0, 0])
        picks = {select_offer_utility(agent, current, tie_rng(s)).decision for s in range(40)}
        assert picks == {0, 1}

    def test_no_draw_without_tie(self):
        land = k0_landscape([(0.8, 0.1), (0.2, 0.9), (0.5, 0.5)])
        agent = make_agent(0, [0, 1, 2], n=3)
        rng = tie_rng(5)
        select_offer_utility(agent, contributions_of(land, [0, 0, 0]), rng)
        untouched = tie_rng(5)
        assert rng.integers(1 << 20) == untouched.integers(1 << 20)


class TestSelectOfferInterdependence:
    def test_offers_least_entangled(self):
        agent = make_agent(1, [2, 3, 4], n=6)
        counters = agent.beliefs
        counters.p[2][3] = 9  # strong links for 2 and 3
        counters.p[3][2] = 9
        counters.q[4][2] = 9  # decision 4 looks independent
        counters.q[4][3] = 9
        offer = select_offer_interdependence(agent, tie_rng())
        assert offer.seller == 1
        assert offer.decision == 4
        assert offer.min_price == mean_internal_belief(agent, 4)

    def test_single_decision_no_offer(self):
        assert select_offer_interdependence(make_agent(0, [3], n=6), tie_rng()) is None

    def test_fresh_prior_ties_across_portfolio(self):
        agent = make_agent(0, [0, 1, 2], n=6)
        picks = {select_offer_interdependence(agent, tie_rng(s)).decision for s in range(60)}
        assert picks == {0, 1, 2}


class TestClearAuction:
    def setup_three_agents(self, contributions, capacities=(5, 5, 5)):
        """k=0 landscape; agent a owns decisions {2a, 2a+1}; config all zeros."""
        land = k0_landscape(contributions)
        agents = [make_agent(a, [2 * a, 2 * a + 1], capacity=capacities[a], n=6) for a in range(3)]
        return land, agents, [0] * 6

    def run(self, land, agents, config, offers, sigma=0.0, seed=0, period=25):
        return clear_auction(
            offers, agents, "utility", contributions_of(land, config), sigma,
            np.random.default_rng(seed), np.random.default_rng(seed + 1), period,
        )

    def test_second_price_above_reserve(self):
        # decision 0 shows 0.5 to every bidder before noise; force distinct bids
        # through per-bidder contributions instead: use interdependence strategy
        bidders = [make_agent(a, [2 * a, 2 * a + 1], capacity=5, n=6) for a in range(3)]
        bidders[1].beliefs.p[0][2] = 9  # agent 1 values decision 0 at (0.9 + 0.5)/2 = 0.7
        bidders[2].beliefs.p[0][4] = 3  # agent 2 values it at (0.75 + 0.5)/2 = 0.625
        offer = Offer(seller=0, decision=0, min_price=0.1)
        land = k0_landscape([(0.1, 0.1)] * 6)
        trades = clear_auction([offer], bidders, "interdependence", contributions_of(land, [0] * 6), 0.0,
                               np.random.default_rng(0), np.random.default_rng(1), 25)
        assert len(trades) == 1
        trade = trades[0]
        assert trade.winner == 1
        assert trade.winning_bid == 0.7
        assert trade.price == 0.625  # second-highest bid beats the reserve
        assert trade.seller == 0
        assert trade.period == 25
        assert 0 not in bidders[0].owned
        assert bidders[1].owned == [0, 2, 3]

    def test_price_floors_at_reserve(self):
        bidders = [make_agent(a, [2 * a, 2 * a + 1], capacity=5, n=6) for a in range(3)]
        bidders[1].beliefs.p[0][2] = 9   # 0.7
        bidders[2].beliefs.q[0][4] = 9   # (0.1 + 0.5)/2 = 0.3
        offer = Offer(seller=0, decision=0, min_price=0.4)
        land = k0_landscape([(0.1, 0.1)] * 6)
        trades = clear_auction([offer], bidders, "interdependence", contributions_of(land, [0] * 6), 0.0,
                               np.random.default_rng(0), np.random.default_rng(1), 25)
        assert trades[0].price == 0.4  # second bid 0.3 does not beat the reserve

    def test_single_bidder_pays_reserve(self):
        land, agents, config = self.setup_three_agents(
            [(0.5, 0.1)] * 6, capacities=(5, 5, 2)
        )
        offer = Offer(seller=0, decision=0, min_price=0.2)
        trades = self.run(land, agents, config, [offer])
        assert len(trades) == 1
        assert trades[0].winner == 1  # agent 2 is at capacity
        assert trades[0].price == 0.2
        assert trades[0].winning_bid == 0.5

    @pytest.mark.parametrize("strategy", ["utility", "interdependence"])
    def test_full_agent_does_not_bid(self, strategy):
        # agent 2 is full. Were it to bid, its 0.5 would tie agent 1's under utility, and its belief
        # (0.9 + 0.5) / 2 would beat agent 1's 0.5 under interdependence.
        offer = Offer(seller=0, decision=0, min_price=0.2)
        for seed in range(20):
            land, agents, config = self.setup_three_agents([(0.5, 0.1)] * 6, capacities=(5, 5, 2))
            agents[2].beliefs.p[0][4] = 9
            trades = clear_auction([offer], agents, strategy, contributions_of(land, config), 0.0,
                                   np.random.default_rng(seed), np.random.default_rng(seed + 1), 25)
            assert [(t.winner, t.price) for t in trades] == [(1, 0.2)]

    def test_bids_are_unclamped(self):
        # agent 1 is the one bidder with spare capacity, and every bid clears the reserve
        offer = Offer(seller=0, decision=0, min_price=-math.inf)
        winning = []
        for seed in range(200):
            land, agents, config = self.setup_three_agents([(0.5, 0.1)] * 6, capacities=(5, 5, 2))
            winning.append(self.run(land, agents, config, [offer], sigma=0.5, seed=seed)[0].winning_bid)
        assert min(winning) < 0.0
        assert max(winning) > 1.0

    def test_no_trade_below_reserve(self):
        land, agents, config = self.setup_three_agents([(0.3, 0.1)] * 6)
        offer = Offer(seller=0, decision=0, min_price=0.9)
        trades = self.run(land, agents, config, [offer])
        assert trades == []
        assert agents[0].owned == [0, 1]

    def test_tied_top_bids_split_uniformly(self):
        land, agents, config = self.setup_three_agents([(0.5, 0.1)] * 6)
        offer = Offer(seller=0, decision=0, min_price=0.2)
        winners = set()
        for seed in range(40):
            fresh = [make_agent(a, [2 * a, 2 * a + 1], capacity=5, n=6) for a in range(3)]
            trades = self.run(land, fresh, config, [offer], seed=seed)
            winners.add(trades[0].winner)
            assert trades[0].price == 0.5  # tied second bid exceeds the reserve
        assert winners == {1, 2}

    def test_selling_frees_capacity_in_same_round(self):
        # agents 0 and 1 start at capacity; agent 2 has one free slot and buys
        # whichever offer clears first, freeing that seller to buy the other
        # offer in the same round
        land = k0_landscape([(0.9, 0.1)] * 6)
        offers = [Offer(0, 0, 0.0), Offer(1, 2, 0.0)]
        buyers_of_decision_2 = set()
        for seed in range(30):
            agents = [
                make_agent(0, [0, 1], capacity=2, n=6),
                make_agent(1, [2, 3], capacity=2, n=6),
                make_agent(2, [4, 5], capacity=3, n=6),
            ]
            trades = clear_auction(offers, agents, "utility", contributions_of(land, [0] * 6), 0.0,
                                   np.random.default_rng(seed), np.random.default_rng(seed * 7 + 1), 25)
            assert len(trades) == 2
            assert sorted(d for a in agents for d in a.owned) == list(range(6))
            buyers_of_decision_2.add({t.decision: t.winner for t in trades}[2])
        # agent 0 buying decision 2 proves it became eligible mid-round;
        # agent 2 buying it proves the processing order varies
        assert buyers_of_decision_2 == {0, 2}

    def test_offered_decision_must_stay_with_seller(self):
        land, agents, config = self.setup_three_agents([(0.5, 0.1)] * 6)
        with pytest.raises(InvariantViolation, match="left agent"):
            self.run(land, agents, config, [Offer(seller=0, decision=4, min_price=0.1)])

    def test_seller_floor_guard(self):
        land = k0_landscape([(0.5, 0.1)] * 4)
        agents = [make_agent(0, [0], capacity=2, n=4), make_agent(1, [1, 2, 3], capacity=4, n=4)]
        with pytest.raises(InvariantViolation, match="below one"):
            clear_auction([Offer(0, 0, 0.0)], agents, "utility", contributions_of(land, [0] * 4), 0.0,
                          np.random.default_rng(0), np.random.default_rng(1), 25)

    def test_unknown_strategy(self):
        land, agents, config = self.setup_three_agents([(0.5, 0.1)] * 6)
        with pytest.raises(ValueError, match="strategy"):
            clear_auction([], agents, "benchmark", contributions_of(land, config), 0.0,
                          np.random.default_rng(0), np.random.default_rng(1), 25)

    def test_mutually_full_agents_cannot_trade(self):
        # with no third party holding spare capacity, neither sale can clear,
        # so neither agent ever becomes eligible to bid
        land = k0_landscape([(0.5, 0.1)] * 4)
        offers = [Offer(0, 0, 0.1), Offer(1, 2, 0.1)]
        for seed in range(10):
            agents = [make_agent(0, [0, 1], capacity=2, n=4), make_agent(1, [2, 3], capacity=2, n=4)]
            trades = clear_auction(offers, agents, "utility", contributions_of(land, [0] * 4), 0.0,
                                   np.random.default_rng(seed), np.random.default_rng(seed + 50), 25)
            assert trades == []
            assert agents[0].owned == [0, 1]
            assert agents[1].owned == [2, 3]


class TestNoiseBatching:
    @pytest.mark.parametrize("sigma", [0.0, 0.05, 0.3, 2.0])
    def test_one_call_per_offer_draws_like_scalar_draws(self, sigma):
        """``clear_auction`` draws an offer's bid noise with one ``normal(0.0, sigma, k)``
        call; it must give the k scalar ``normal(0.0, sigma)`` draws that
        ``reference_clear_auction`` makes, one per bidder, bit for bit, and leave the
        stream where they leave it (numpy 2.4.6 behaviour)."""
        for seed in range(8):
            batch = replication_rng(seed, 1, 2, ROLE_NOISE)
            scalar = replication_rng(seed, 1, 2, ROLE_NOISE)
            for k in (0, 1, 2, 3, 4, 3, 0, 1):
                drawn = 0.25 + batch.normal(0.0, sigma, k)
                expected = np.array([0.25 + scalar.normal(0.0, sigma) for _ in range(k)], dtype=np.float64)
                assert drawn.tobytes() == expected.tobytes()
                assert batch.bit_generator.state == scalar.bit_generator.state
            assert batch.normal() == scalar.normal()


class CountingTies:
    """Forwards ``permutation`` and ``integers`` to a generator and counts the ``integers`` calls."""

    def __init__(self, rng):
        self.rng = rng
        self.draws = 0

    def permutation(self, count):
        return self.rng.permutation(count)

    def integers(self, *args):
        self.draws += 1
        return self.rng.integers(*args)


def random_round(seed, strategy):
    """Agents, offers and contributions for one round, drawn so that bids tie, bidders are full
    and sellers regain capacity: contributions, counters and reserves take few values."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 6))
    n = int(rng.integers(m + 1, 3 * m + 2))
    owner = np.concatenate([np.arange(m), rng.integers(0, m, n - m)])
    rng.shuffle(owner)
    agents = []
    for a in range(m):
        owned = np.flatnonzero(owner == a).tolist()
        agent = make_agent(a, owned, capacity=len(owned) + int(rng.integers(0, 3)), n=n)
        agent.beliefs.p = (np.array(agent.beliefs.p) + rng.integers(0, 3, (n, n))).tolist()
        agent.beliefs.q = (np.array(agent.beliefs.q) + rng.integers(0, 3, (n, n))).tolist()
        agents.append(agent)
    contributions = (rng.integers(1, 6, n) / 5).tolist()
    offers = []
    for agent in agents:
        if strategy == "utility":
            offer = select_offer_utility(agent, contributions, rng)
        else:
            offer = select_offer_interdependence(agent, rng)
        if offer is not None and rng.random() < 0.5:
            offer = Offer(offer.seller, offer.decision, float(rng.integers(0, 4) / 5))
        if offer is not None:
            offers.append(offer)
    return agents, offers, contributions


class TestClearAuctionMatchesReference:
    """``clear_auction`` against the bid-by-bid reference: trades, owned lists and both streams."""

    @pytest.mark.parametrize("strategy, sigma", [
        ("utility", 0.0), ("utility", 0.1), ("interdependence", 0.0),
    ])
    def test_random_rounds(self, strategy, sigma):
        tie_draws = blocked = gained = 0
        for seed in range(300):
            agents, offers, contributions = random_round(seed, strategy)
            mine, theirs = copy.deepcopy(agents), copy.deepcopy(agents)
            noise, ties = np.random.default_rng(seed + 1000), CountingTies(np.random.default_rng(seed + 2000))
            ref_noise, ref_ties = np.random.default_rng(seed + 1000), np.random.default_rng(seed + 2000)
            trades = clear_auction(offers, mine, strategy, contributions, sigma, noise, ties, 9)
            expected = reference_clear_auction(offers, theirs, strategy, contributions, sigma, ref_noise, ref_ties, 9)
            assert trades == expected
            assert [a.owned for a in mine] == [a.owned for a in theirs]
            assert noise.bit_generator.state == ref_noise.bit_generator.state
            assert ties.rng.bit_generator.state == ref_ties.bit_generator.state

            # A full agent that sells nothing bids on no offer; one that wins after selling regained capacity.
            full = {a.id for a in agents if len(a.owned) == a.capacity}
            tie_draws += ties.draws
            blocked += bool(offers) and bool(full - {o.seller for o in offers})
            gained += any(trade.winner in full for trade in trades)
        if sigma == 0.0:
            assert tie_draws > 0
        assert blocked > 0
        assert gained > 0


class TestRecords:
    def test_fields_keep_their_names_and_order(self):
        assert list(Offer.__annotations__) == ["seller", "decision", "min_price"]
        assert list(TradeRecord.__annotations__) == ["period", "decision", "seller", "winner", "winning_bid", "price"]

    def test_keyword_construction_and_immutability(self):
        offer = Offer(seller=0, decision=1, min_price=0.2)
        trade = TradeRecord(period=25, decision=1, seller=0, winner=2, winning_bid=0.4, price=0.3)
        assert offer == Offer(0, 1, 0.2)
        assert trade == TradeRecord(25, 1, 0, 2, 0.4, 0.3)
        for record, field in ((offer, "min_price"), (trade, "price")):
            with pytest.raises(AttributeError):
                setattr(record, field, 0.0)

    def test_trades_pickle_small(self):
        """A ledger run sends each replication's trades to the parent; a k5 utility replication holds about 83."""
        cell = ScenarioConfig(structure="k5", incentive=IncentiveScheme.parse("balanced"), strategy="utility",
                              horizon=500, seed=0)
        for rep in range(20):
            trades = run_replication(cell, rep).trades
            assert trades
            assert len(pickle.dumps(trades, pickle.HIGHEST_PROTOCOL)) <= 3400, rep
