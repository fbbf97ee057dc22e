"""Agents, incentive schemes, task allocations, and the hillclimbing verdict.

Each of ``m`` agents owns a disjoint subset of the ``n`` decisions. Every
period an agent evaluates exactly one random single-flip neighbor within its
own decisions against the status quo, holding everyone else's decisions fixed
at the previous period, and keeps the status quo on ties.

``flip_improves`` is that verdict. It and ``agent_utility`` read the
contribution vectors their caller holds; none of these ops reads a landscape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .errors import ConfigError
from .landscape import performance
from .learning import BeliefCounters

if TYPE_CHECKING:
    import numpy as np

# Each preset's alpha, its weight on the agent's own performance.
INCENTIVE_PRESETS = {"individualistic": 1.0, "balanced": 0.5, "altruistic": 0.25}

# An allocation is one sorted decision list per agent, indexed by agent id.
Allocation = list[list[int]]


@dataclass(frozen=True)
class IncentiveScheme:
    """Linear incentive weights: utility = alpha * own + beta * residual, with beta = 1 - alpha."""

    alpha: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"incentive weight alpha must lie in [0, 1], got {self.alpha}")

    @property
    def beta(self) -> float:
        return 1.0 - self.alpha

    @classmethod
    def parse(cls, token: str) -> "IncentiveScheme":
        """Scheme named by a scenario token: a preset name or ``alpha=<value>``."""
        if token in INCENTIVE_PRESETS:
            return cls(INCENTIVE_PRESETS[token])
        if token.startswith("alpha="):
            try:
                alpha = float(token[6:])
            except ValueError:
                raise ConfigError(f"cannot parse incentive weight in {token!r}") from None
            return cls(alpha)
        raise ConfigError(f"unknown incentive {token!r}; use one of {sorted(INCENTIVE_PRESETS)} or alpha=<value>")

    @property
    def name(self) -> str:
        for label, alpha in INCENTIVE_PRESETS.items():
            if alpha == self.alpha:
                return label
        return f"alpha{self.alpha:g}"


@dataclass(eq=False)
class AgentState:
    """One agent: identity, owned decisions (kept sorted), capacity, beliefs."""

    id: int
    owned: list[int]
    capacity: int
    beliefs: BeliefCounters

    def __post_init__(self) -> None:
        self.owned = sorted(int(d) for d in self.owned)
        if not self.owned:
            raise ConfigError(f"agent {self.id} must own at least one decision")
        if len(self.owned) > self.capacity:
            raise ConfigError(f"agent {self.id} owns {len(self.owned)} decisions, capacity is {self.capacity}")


def initial_allocation(n: int, m: int, capacities: Sequence[int], rng: np.random.Generator) -> Allocation:
    """Random equal split: a permutation of the decisions sliced into m blocks.

    Returns per-agent sorted decision lists. Requires n divisible by m and an
    equal share that fits every capacity.
    """
    if m < 1 or n < 1:
        raise ConfigError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    if n % m != 0:
        raise ConfigError(f"n={n} decisions cannot be split equally across m={m} agents")
    share = n // m
    if len(capacities) != m:
        raise ConfigError(f"expected {m} capacities, got {len(capacities)}")
    for a, cap in enumerate(capacities):
        if cap < share:
            raise ConfigError(f"agent {a} capacity {cap} is below the equal share {share}")
    perm = rng.permutation(n)
    return [sorted(int(d) for d in perm[a * share:(a + 1) * share]) for a in range(m)]


def mirrored_allocation(n: int, m: int) -> Allocation:
    """Contiguous equal split that mirrors the block structure of the stylized matrices."""
    if m < 1 or n < 1 or n % m != 0:
        raise ConfigError(f"n={n} decisions cannot be split equally across m={m} agents")
    share = n // m
    return [list(range(a * share, (a + 1) * share)) for a in range(m)]


def agent_utility(agent: AgentState, contributions: Sequence[float], scheme: IncentiveScheme) -> float:
    """Utility ``alpha * own + beta * residual`` of ``agent`` when decision j contributes ``contributions[j]``.

    Own and residual performance are :func:`performance` of the agent's
    entries and of every other entry, each in ascending decision order. With a
    single agent the residual is empty and contributes 0 (alpha must then be 1).
    """
    owned = set(agent.owned)
    own = [value for j, value in enumerate(contributions) if j in owned]
    residual = [value for j, value in enumerate(contributions) if j not in owned]
    return scheme.alpha * performance(own) + scheme.beta * (performance(residual) if residual else 0.0)


def flip_improves(
    agent: AgentState, before: Sequence[float], after: Sequence[float], scheme: IncentiveScheme
) -> bool:
    """Whether a flip that changes the contribution vector from ``before`` to ``after`` strictly raises
    ``agent``'s utility; a tie keeps the status quo."""
    return agent_utility(agent, after, scheme) > agent_utility(agent, before, scheme)
