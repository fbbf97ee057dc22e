"""Beta-Bernoulli belief learning about decision interdependencies.

Agents carry success/failure counters ``p`` and ``q`` for every ordered
decision pair (i, j), as lists of integer rows: the belief that flipping
``i`` changes the contribution of ``j`` is ``p[i][j] / (p[i][j] + q[i][j])``.
Counters start at 1, so every belief starts at 0.5 (a uniform prior).

An agent learns only from its own adopted flips and only about its own
decisions: after flipping ``i``, each owned ``j != i`` whose contribution
changed increments ``p[i][j]``, otherwise ``q[i][j]``. The comparison is exact
equality on contribution values. Because several agents move at once, a
contribution can change through someone else's flip and still be booked
against the agent's own flip; beliefs may therefore drift toward spurious
dependencies on their own.

``update_beliefs`` also notes each entry it books. Counters only grow, so
the entries ``BeliefCounters.pop_changes`` returns, those booked since its
previous call, are exactly the ones that changed since then.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(eq=False)
class BeliefCounters:
    """Pairwise observation counters as lists of integer rows: ``p[i][j]`` and ``q[i][j]`` concern flips of
    ``i`` observed on ``j``. ``booked`` holds the entries ``i * n + j`` booked since ``pop_changes`` last ran."""

    p: list[list[int]]
    q: list[list[int]]
    booked: set[int] = field(default_factory=set)

    def pop_changes(self) -> tuple[tuple[int, int, int], ...]:
        """The ``(i * n + j, p, q)`` triples of the entries booked since the previous call, in row-major order;
        the record starts empty again."""
        n, p, q = len(self.p), self.p, self.q
        changes = tuple((entry, p[entry // n][entry % n], q[entry // n][entry % n]) for entry in sorted(self.booked))
        self.booked.clear()
        return changes


def init_beliefs(n: int) -> BeliefCounters:
    """Uniform prior: all counters at 1, all beliefs at 0.5."""
    if n < 1:
        raise ValueError(f"need at least one decision, got n={n}")
    return BeliefCounters([[1] * n for _ in range(n)], [[1] * n for _ in range(n)])


def belief(counters: BeliefCounters, i: int, j: int) -> float:
    """Believed probability that flipping decision ``i`` changes contribution ``j``."""
    if i == j:
        raise ValueError("self-beliefs are undefined; a flip always changes its own contribution")
    p = counters.p[i][j]
    return p / (p + counters.q[i][j])


def update_beliefs(agent, flipped: int, before: list[float], after: list[float]) -> None:
    """Book one own-flip observation round for ``agent``.

    ``before[j]`` and ``after[j]`` are decision j's contribution in the
    previous and the current period; only the agent's owned entries are read.
    Exactly one counter per owned decision other than ``flipped`` is incremented.
    """
    if flipped not in agent.owned:
        raise ValueError(f"agent {agent.id} does not own decision {flipped}")
    counters = agent.beliefs
    p_row, q_row = counters.p[flipped], counters.q[flipped]
    base = flipped * len(p_row)
    booked = counters.booked
    for j in agent.owned:
        if j == flipped:
            continue
        if after[j] != before[j]:
            p_row[j] += 1
        else:
            q_row[j] += 1
        booked.add(base + j)


def mean_internal_belief(agent, i: int) -> float:
    """Mean belief that decision ``i`` interacts with the agent's other decisions.

    Averages belief(i, j) over owned j != i, so the denominator is one less
    than the number of owned decisions. Needs at least two owned decisions.
    """
    if i not in agent.owned:
        raise ValueError(f"agent {agent.id} does not own decision {i}")
    others = [j for j in agent.owned if j != i]
    if not others:
        raise ValueError("mean internal belief needs at least two owned decisions")
    return _mean_belief(agent.beliefs, i, others)


def mean_external_belief(agent, i: int) -> float:
    """Mean belief that a foreign decision ``i`` interacts with the agent's decisions.

    Averages belief(i, j) over all owned j; the denominator is the number of
    owned decisions. This is the valuation a bidder places on acquiring ``i``.
    """
    if i in agent.owned:
        raise ValueError(f"decision {i} is already owned by agent {agent.id}")
    if not agent.owned:
        raise ValueError("agent owns no decisions")
    return _mean_belief(agent.beliefs, i, agent.owned)


def _mean_belief(counters: BeliefCounters, i: int, decisions: list[int]) -> float:
    """Mean of ``belief(counters, i, j)`` over ``decisions``, summed in their order from row ``i``."""
    p_row, q_row = counters.p[i], counters.q[i]
    total = 0.0
    for j in decisions:
        p = p_row[j]
        total += p / (p + q_row[j])
    return total / len(decisions)
