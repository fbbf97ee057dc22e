"""One auction round, stepped by hand.

Builds a small uncoupled landscape where every contribution is controlled
exactly, lets three agents form offers and bids, and walks through the
sequential second-price clearing.
"""

import numpy as np

from orgsim import (
    AgentState,
    InteractionMatrix,
    Landscape,
    clear_auction,
    contribution,
    init_beliefs,
    select_offer_utility,
)

# six independent decisions; (off, on) contribution pairs per decision
pairs = [(0.15, 0.80), (0.90, 0.10), (0.40, 0.70), (0.25, 0.55), (0.60, 0.35), (0.05, 0.95)]
matrix = InteractionMatrix(np.eye(6, dtype=bool))
land = Landscape(matrix=matrix, tables=[np.array(p) for p in pairs])
config = [0, 0, 0, 0, 0, 0]

agents = [
    AgentState(0, [0, 1], capacity=3, beliefs=init_beliefs(6)),
    AgentState(1, [2, 3], capacity=3, beliefs=init_beliefs(6)),
    AgentState(2, [4, 5], capacity=3, beliefs=init_beliefs(6)),
]

# the auction ops read this vector: contributions[j] is decision j's current contribution
contributions = [contribution(land, config, j) for j in range(6)]
print("current contributions (config all zeros):")
for j, value in enumerate(contributions):
    print(f"  decision {j}: {value:.2f}")

rng_tie = np.random.default_rng(5)
offers = [select_offer_utility(agent, contributions, rng_tie) for agent in agents]
print("\noffers (each agent sells its weakest contribution at that value as reserve):")
for offer in offers:
    print(f"  agent {offer.seller} offers decision {offer.decision}, reserve {offer.min_price:.2f}")

# sigma=0 makes bids equal the contribution each bidder observes
trades = clear_auction(
    offers, agents, "utility", contributions,
    sigma=0.0, rng_noise=np.random.default_rng(0), rng_tie=rng_tie, period=25,
)

print("\ntrades (sequential clearing in random order, second-price rule):")
for trade in trades:
    print(f"  decision {trade.decision}: agent {trade.seller} -> agent {trade.winner}, "
          f"winning bid {trade.winning_bid:.2f}, price {trade.price:.2f}")
if not trades:
    print("  none: every winning bid stayed below its reserve")

print("\nallocation afterwards:")
for agent in agents:
    print(f"  agent {agent.id}: {agent.owned} ({len(agent.owned)}/{agent.capacity})")

print("\nwith sigma=0 every bidder bids the decision's current contribution, the")
print("same number the seller set as reserve, so trades clear exactly at the")
print("reserve and ties are broken uniformly. Real runs add N(0, 0.05) noise,")
print("which is what lets low-value decisions change hands at a premium and")
print("occasionally pushes bids outside [0, 1].")
