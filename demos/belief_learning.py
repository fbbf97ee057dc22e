"""Belief learning: agents estimate the interaction structure from experience.

Each agent keeps Beta-Bernoulli counters per decision pair: after flipping one
of its decisions, it checks which of its other contributions changed. Because
all agents move at once, some changes are caused by other agents' flips, and
beliefs can drift toward interdependencies that do not exist. With a random
initial allocation, portfolios hold genuinely unrelated decision pairs, so
both honest learning and false inference are visible.
"""

from orgsim import IncentiveScheme, ScenarioConfig, belief, run_replication

scenario = ScenarioConfig(
    structure="k5",
    incentive=IncentiveScheme.parse("balanced"),
    strategy="interdependence",
    horizon=500,
    reps=1,
    seed=21,
)
matrix = scenario.matrix
result = run_replication(scenario, 0)

agent = result.agents[0]
print(f"agent 0 ends the run owning decisions {agent.owned}")
print("beliefs about pairs inside that portfolio")
print("(true dependency marked x, believed strength from the counters)\n")
print("  pair        true   belief   observations")
for i in agent.owned:
    for j in agent.owned:
        if i == j:
            continue
        true = "x" if i in matrix.entries[j] else "."
        strength = belief(agent.beliefs, i, j)
        seen = agent.beliefs.p[i][j] + agent.beliefs.q[i][j] - 2
        print(f"  {i:>2} -> {j:>2}    {true}      {strength:.3f}    {seen}")

print("\nstrong beliefs (> 0.5) vs the true structure, per agent:")
for agent in result.agents:
    hits = misses = 0
    for i in agent.owned:
        for j in agent.owned:
            if i == j:
                continue
            strong = belief(agent.beliefs, i, j) > 0.5
            true = i in matrix.entries[j]
            if strong and true:
                hits += 1
            elif strong and not true:
                misses += 1
    print(f"  agent {agent.id}: owns {agent.owned}, {hits} strong beliefs on real links, {misses} on spurious ones")

print("\nreal links are usually found, but simultaneous moves by other agents")
print("change contributions too and get booked against the agent's own flip:")
print("that is the false-inference path, and it is what the belief-driven")
print("auction strategy trades on.")
