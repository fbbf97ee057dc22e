"""Shared fixtures-in-code for the test suite.

``reference_replication`` re-derives a full replication from the public ops
(``flip_improves``, the offer ops, ``update_beliefs``, ``performance``) and
the twin's own steps below, consuming generator draws in the documented order.
Each period it applies the flips ``hillclimb_step`` returns to a copy of the
previous configuration; ``hillclimb_step`` reads every contribution through
``landscape.contribution``. Its auction rounds go through
``reference_clear_auction``, which composes a round bid by bid with one scalar
noise draw per bidder, so a fault inside ``clear_auction`` shows as a
difference. The engine's optimized loop must match it to exact float
equality; ``assert_matches_reference`` checks that for one replication.
"""

import copy
from bisect import insort

import numpy as np

from orgsim import (
    AgentState,
    InteractionMatrix,
    Landscape,
    ScenarioConfig,
    TradeRecord,
    contribution,
    flip_improves,
    init_beliefs,
    initial_allocation,
    mean_external_belief,
    mirrored_allocation,
    performance,
    replication_rng,
    run_replication,
    select_offer_interdependence,
    select_offer_utility,
    update_beliefs,
)
from orgsim.simulation import (
    ROLE_HILLCLIMB,
    ROLE_INIT,
    ROLE_LANDSCAPE,
    ROLE_NOISE,
    ROLE_TIEBREAK,
    STRATEGY_BENCHMARK,
    STRATEGY_UTILITY,
)
from orgsim.landscape import generate_landscape


def make_agent(aid, owned, capacity=10, n=8):
    return AgentState(aid, list(owned), capacity, init_beliefs(n))


def changed_entries(before, after):
    """The ``(i * n + j, p, q)`` triples of the entries whose counters differ between two ``BeliefCounters``,
    row-major, found by comparing every entry."""
    n = len(after.p)
    return tuple(
        (i * n + j, after.p[i][j], after.q[i][j])
        for i in range(n)
        for j in range(n)
        if (after.p[i][j], after.q[i][j]) != (before.p[i][j], before.q[i][j])
    )


def matrix_text(matrix):
    """``matrix`` in ``load_matrix``'s file format: the decision count, then each row's n 0/1 entries."""
    rows = "\n".join(" ".join("1" if i in row else "0" for i in range(matrix.n)) for row in matrix.entries)
    return f"{matrix.n}\n{rows}\n"


def k0_landscape(values):
    """Independent decisions with explicit (off, on) contribution pairs."""
    n = len(values)
    matrix = InteractionMatrix(np.eye(n, dtype=bool))
    tables = [np.array(pair, dtype=np.float64) for pair in values]
    return Landscape(matrix=matrix, tables=tables)


def contributions_of(land, config):
    """Every decision's contribution under ``config``, read through ``landscape.contribution``."""
    return [contribution(land, config, j) for j in range(land.matrix.n)]


def hillclimb_step(agent, land, config, scheme, rng):
    """The twin's hillclimb move for ``agent`` against the previous configuration.

    Draws one owned decision uniformly, with exactly one generator draw, and
    returns it when flipping it strictly improves the agent's utility
    (``flip_improves``), else None: ties keep the status quo.
    """
    flip = agent.owned[int(rng.integers(len(agent.owned)))]
    candidate = list(config)
    candidate[flip] ^= 1
    before, after = contributions_of(land, config), contributions_of(land, candidate)
    return flip if flip_improves(agent, before, after, scheme) else None


def snapshot_counters(snapshots):
    """The full int64 counter arrays ``p`` and ``q`` of shape ``(S, m, n, n)`` rebuilt from a
    ``BeliefSnapshots``'s changes: ``p[k, a]`` is agent a's at ``snapshots.periods[k]``."""
    steps, m, n = len(snapshots.periods), snapshots.m, snapshots.n
    p, q = np.ones((steps, m, n * n), dtype=np.int64), np.ones((steps, m, n * n), dtype=np.int64)
    for k, agents in enumerate(snapshots.changes):
        if k:
            p[k], q[k] = p[k - 1], q[k - 1]
        for a, entries in enumerate(agents):
            for entry, p_value, q_value in entries:
                p[k, a, entry], q[k, a, entry] = p_value, q_value
    return p.reshape(steps, m, n, n), q.reshape(steps, m, n, n)


def reference_clear_auction(offers, agents, strategy, contributions, sigma, rng_noise, rng_tie, period):
    """Slow twin of ``orgsim.auction.clear_auction``, one bid at a time.

    Offers clear in ``rng_tie.permutation`` order against the running
    allocation. Each offer collects ``(amount, bidder)`` pairs from every
    agent other than the seller with spare capacity, in id order. Under
    ``utility`` the amount is the offered decision's contribution plus one
    scalar ``rng_noise.normal(0.0, sigma)`` draw; under ``interdependence`` it
    is the bidder's ``mean_external_belief`` of the decision. The highest
    amount wins, a tie drawn with ``rng_tie.integers`` before the reserve
    check; the sale happens when that amount reaches the reserve, at the best
    of the other amounts when it strictly exceeds the reserve, else at the
    reserve.
    """
    trades = []
    for position in rng_tie.permutation(len(offers)):
        offer = offers[int(position)]
        bids = []
        for bidder in agents:
            if bidder.id == offer.seller or len(bidder.owned) >= bidder.capacity:
                continue
            if strategy == STRATEGY_UTILITY:
                amount = float(contributions[offer.decision] + rng_noise.normal(0.0, sigma))
            else:
                amount = mean_external_belief(bidder, offer.decision)
            bids.append((amount, bidder.id))
        if not bids:
            continue
        high = max(amount for amount, _ in bids)
        top = [bid for bid in bids if bid[0] == high]
        best = top[int(rng_tie.integers(len(top)))] if len(top) > 1 else top[0]
        amount, winner = best
        if amount < offer.min_price:
            continue
        rest = [other for other, bidder in bids if bidder != winner]
        price = max(rest) if rest and max(rest) > offer.min_price else offer.min_price
        agents[offer.seller].owned.remove(offer.decision)
        insort(agents[winner].owned, offer.decision)
        trades.append(TradeRecord(period, offer.decision, offer.seller, winner, amount, price))
    return trades


def reference_replication(scenario: ScenarioConfig, rep_index: int):
    """Slow twin of orgsim.simulation.run_replication, composed from public ops.

    Returns ``(performance, normalized, sizes, trades, agents, snapshots)``, the
    arrays shaped like ``ReplicationResult``'s and ``snapshots`` holding the
    belief counters at ``t % tau == 0`` and at the horizon as ``(t, [counters
    per agent])`` pairs, which ``assert_matches_reference`` compares with the
    periods, the changes and the rebuilt ``p[k, a]``, ``q[k, a]`` of
    ``belief_snapshots``.
    """
    matrix = scenario.matrix
    rng_land = replication_rng(scenario.seed, scenario.cell_index, rep_index, ROLE_LANDSCAPE)
    rng_init = replication_rng(scenario.seed, scenario.cell_index, rep_index, ROLE_INIT)
    rng_hc = replication_rng(scenario.seed, scenario.cell_index, rep_index, ROLE_HILLCLIMB)
    rng_noise = replication_rng(scenario.seed, scenario.cell_index, rep_index, ROLE_NOISE)
    rng_tie = replication_rng(scenario.seed, scenario.cell_index, rep_index, ROLE_TIEBREAK)

    land = generate_landscape(matrix, rng_land)
    caps = scenario.resolved_capacities()
    if scenario.strategy == STRATEGY_BENCHMARK:
        owned_lists = mirrored_allocation(scenario.n, scenario.m)
    else:
        owned_lists = initial_allocation(scenario.n, scenario.m, caps, rng_init)
    agents = [AgentState(a, owned_lists[a], caps[a], init_beliefs(scenario.n)) for a in range(scenario.m)]
    config = [int(b) for b in rng_init.integers(0, 2, size=scenario.n)]

    performance_series = []
    normalized = []
    sizes = []
    trades = []
    snapshots = []
    for t in range(1, scenario.horizon + 1):
        if t % scenario.tau == 0 and scenario.strategy != STRATEGY_BENCHMARK:
            contributions = contributions_of(land, config)
            offers = []
            for agent in agents:
                if scenario.strategy == STRATEGY_UTILITY:
                    offer = select_offer_utility(agent, contributions, rng_tie)
                else:
                    offer = select_offer_interdependence(agent, rng_tie)
                if offer is not None:
                    offers.append(offer)
            round_trades = reference_clear_auction(
                offers, agents, scenario.strategy, contributions, scenario.sigma, rng_noise, rng_tie, t
            )
            trades.extend(round_trades)
        else:
            flips = [hillclimb_step(agent, land, config, scenario.incentive, rng_hc) for agent in agents]
            merged = list(config)
            for flip in flips:
                if flip is not None:
                    merged[flip] ^= 1
            before, after = contributions_of(land, config), contributions_of(land, merged)
            for agent, flip in zip(agents, flips):
                if flip is not None:
                    update_beliefs(agent, flip, before, after)
            config = merged

        perf = performance(contributions_of(land, config))
        performance_series.append(perf)
        normalized.append(perf / land.optimum[1])
        sizes.append([len(a.owned) for a in agents])
        if t % scenario.tau == 0 or t == scenario.horizon:
            snapshots.append((t, [copy.deepcopy(a.beliefs) for a in agents]))
    return np.array(performance_series), np.array(normalized), np.array(sizes), trades, agents, snapshots


def assert_matches_reference(scenario: ScenarioConfig, rep_index: int) -> None:
    """``run_replication`` with belief snapshots equals ``reference_replication``, float for float."""
    engine = run_replication(scenario, rep_index, collect_beliefs=True)
    performance_series, normalized, sizes, trades, agents, snapshots = reference_replication(scenario, rep_index)
    assert np.array_equal(engine.performance, performance_series)
    assert np.array_equal(engine.normalized_series, normalized)
    assert np.array_equal(engine.sizes, sizes)
    assert engine.trades == trades
    for mine, theirs in zip(engine.agents, agents, strict=True):
        assert mine.owned == theirs.owned
        assert mine.beliefs.p == theirs.beliefs.p
        assert mine.beliefs.q == theirs.beliefs.q
    taken = engine.belief_snapshots
    assert taken.periods == tuple(t for t, _ in snapshots)
    previous = [init_beliefs(scenario.n)] * scenario.m
    for changes, (_, theirs) in zip(taken.changes, snapshots, strict=True):
        assert changes == tuple(changed_entries(old, new) for old, new in zip(previous, theirs, strict=True))
        previous = theirs
    taken_p, taken_q = snapshot_counters(taken)
    assert taken_p.shape == taken_q.shape == (len(snapshots), scenario.m, scenario.n, scenario.n)
    for k, (_, theirs) in enumerate(snapshots):
        for a, expected in enumerate(theirs):
            assert np.array_equal(taken_p[k, a], expected.p)
            assert np.array_equal(taken_q[k, a], expected.q)
