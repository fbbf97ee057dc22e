"""Decision reallocation through sealed-bid second-price auctions.

Every tau periods each agent owning at least two decisions puts exactly one of
them up for sale with a reserve price. All other agents with spare capacity
submit one sealed bid per offer. Offers clear sequentially in uniformly random
order against the running allocation: the highest bid wins (ties uniform), a
trade happens when the winning bid reaches the reserve, and the winner pays
the second-highest bid when that strictly exceeds the reserve, else the
reserve. Payments are bookkeeping only and never feed back into utilities.

Two offer/bid strategies exist. Under the ``utility`` strategy agents trade on
observable contribution values: sell the weakest contribution at a reserve
equal to that contribution, bid the contribution the decision currently shows
plus zero-mean normal noise. Under the ``interdependence`` strategy agents
trade on learned structure: sell the decision with the lowest mean internal
belief at that mean as reserve, bid the mean belief that the offered decision
interacts with the bidder's portfolio.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import InvariantViolation
from .learning import mean_external_belief, mean_internal_belief
from .organization import AgentState

if TYPE_CHECKING:
    import numpy as np

STRATEGY_UTILITY = "utility"
STRATEGY_INTERDEPENDENCE = "interdependence"


class Offer(NamedTuple):
    seller: int
    decision: int
    min_price: float


class TradeRecord(NamedTuple):
    period: int
    decision: int
    seller: int
    winner: int
    winning_bid: float
    price: float


def _pick_tie(items: Sequence, values: Sequence[float], best: float, rng: np.random.Generator):
    """The item whose value is ``best``: a unique one draws nothing, k tied ones one ``rng.integers(k)``."""
    ties = [item for item, value in zip(items, values) if value == best]
    return ties[0] if len(ties) == 1 else ties[int(rng.integers(len(ties)))]


def select_offer_utility(
    agent: AgentState, contributions: Sequence[float], rng_tie: np.random.Generator
) -> Offer | None:
    """Offer the owned decision d with the lowest ``contributions[d]``, reserve = that contribution."""
    if len(agent.owned) < 2:
        return None
    values = [contributions[d] for d in agent.owned]
    low = min(values)
    return Offer(agent.id, _pick_tie(agent.owned, values, low, rng_tie), low)


def select_offer_interdependence(agent: AgentState, rng_tie: np.random.Generator) -> Offer | None:
    """Offer the owned decision believed least entangled with the rest of the portfolio."""
    if len(agent.owned) < 2:
        return None
    values = [mean_internal_belief(agent, d) for d in agent.owned]
    low = min(values)
    return Offer(agent.id, _pick_tie(agent.owned, values, low, rng_tie), low)


def clear_auction(
    offers: Sequence[Offer],
    agents: Sequence[AgentState],
    strategy: str,
    contributions: Sequence[float],
    sigma: float,
    rng_noise: np.random.Generator,
    rng_tie: np.random.Generator,
    period: int,
) -> list[TradeRecord]:
    """Clear one auction round, mutating the agents' owned lists.

    Offers are processed sequentially in a uniformly random order; bidder
    eligibility (spare capacity) is re-evaluated against the running
    allocation, so a trade earlier in the pass can disqualify or qualify a
    bidder later in the pass. Every agent other than the seller with spare
    capacity bids, in agent id order. Under ``utility`` a bid is
    ``contributions[offer.decision]`` plus unclamped N(0, sigma) noise, so bids
    can leave [0, 1]; under ``interdependence`` it is the bidder's
    ``mean_external_belief`` of the offered decision. ``contributions[d]`` is
    decision d's current contribution; only the ``utility`` strategy reads it.

    The ``utility`` noise is drawn one offer per call: ``normal(0.0, sigma, k)``
    for an offer's k eligible bidders, none when k is 0. That equals one scalar
    ``normal(0.0, sigma)`` per eligible bidder in id order and leaves the
    generator in the same state.
    """
    if strategy not in (STRATEGY_UTILITY, STRATEGY_INTERDEPENDENCE):
        raise ValueError(f"unknown auction strategy {strategy!r}")
    trades: list[TradeRecord] = []
    order = rng_tie.permutation(len(offers))
    for position in order:
        offer = offers[int(position)]
        seller = agents[offer.seller]
        if offer.decision not in seller.owned:
            raise InvariantViolation(
                f"period {period}: offered decision {offer.decision} left agent {offer.seller} before clearing"
            )

        bidders = [b for b in agents if b.id != offer.seller and len(b.owned) < b.capacity]
        if not bidders:
            continue
        if strategy == STRATEGY_UTILITY:
            amounts = (contributions[offer.decision] + rng_noise.normal(0.0, sigma, len(bidders))).tolist()
        else:
            amounts = [mean_external_belief(b, offer.decision) for b in bidders]

        ranked = sorted(amounts, reverse=True)
        high = ranked[0]
        pick = _pick_tie(range(len(amounts)), amounts, high, rng_tie)
        if high < offer.min_price:
            continue
        price = ranked[1] if len(ranked) > 1 and ranked[1] > offer.min_price else offer.min_price

        winner = bidders[pick]
        if len(seller.owned) < 2:
            raise InvariantViolation(f"period {period}: seller {seller.id} would drop below one decision")
        seller.owned.remove(offer.decision)
        winner.owned.append(offer.decision)
        winner.owned.sort()
        trades.append(TradeRecord(period, offer.decision, seller.id, winner.id, amounts[pick], price))
    return trades
