"""Brute-force reference implementations for small task environments.

Everything here is deliberately written the slow, obvious way and shares no
index arithmetic with :mod:`orgsim.landscape`: table positions come from
binary strings, configurations from :func:`itertools.product`, optima from a
full scan with first-wins tie handling. The test suite pins the engine to
these functions on every landscape small enough to enumerate; the ``oracle``
CLI subcommand prints the same tables for manual inspection.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import ConfigError
from .landscape import Landscape

if TYPE_CHECKING:
    import numpy as np

# Printing full tables is only sane for tiny environments.
ORACLE_MAX_N = 4


def enumerate_configs(n: int) -> list[tuple[int, ...]]:
    """All configurations, lexicographic with decision 0 as the leftmost bit."""
    return list(itertools.product((0, 1), repeat=n))


def brute_contribution(landscape: Landscape, config: Sequence[int], j: int) -> float:
    """Table lookup for decision ``j`` via an explicit binary string."""
    deps = sorted(landscape.matrix.dependencies(j))
    bits = "".join(str(int(config[i])) for i in [j] + deps)
    return float(landscape.tables[j][int(bits, 2)])


def brute_performance(landscape: Landscape, config: Sequence[int], subset: Iterable[int] | None = None) -> float:
    """Mean contribution over ``subset`` (default all), summed in ascending order."""
    indices = sorted(subset) if subset is not None else list(range(landscape.matrix.n))
    if not indices:
        raise ValueError("empty decision set")
    total = 0.0
    for j in indices:
        total += brute_contribution(landscape, config, j)
    return total / len(indices)


def brute_optimum(landscape: Landscape) -> tuple[np.ndarray, float]:
    """Full scan over all configurations; earliest strict maximum wins.

    Compares raw contribution sums rather than means so that tie handling is
    decided before the final division, like the engine's chunked scan.
    """
    import numpy as np

    n = landscape.matrix.n
    best_config: tuple[int, ...] | None = None
    best_total = -float("inf")
    for config in enumerate_configs(n):
        total = 0.0
        for j in range(n):
            total += brute_contribution(landscape, config, j)
        if total > best_total:
            best_total = total
            best_config = config
    assert best_config is not None
    return np.array(best_config, dtype=np.int8), brute_performance(landscape, best_config)


def brute_min_contribution(
    landscape: Landscape, config: Sequence[int], subset: Iterable[int]
) -> tuple[float, list[int]]:
    """Lowest contribution within ``subset`` and every decision attaining it."""
    indices = sorted(subset)
    if not indices:
        raise ValueError("empty decision set")
    values = {j: brute_contribution(landscape, config, j) for j in indices}
    low = min(values.values())
    return low, [j for j in indices if values[j] == low]


def oracle_report(landscape: Landscape) -> dict:
    """Complete enumeration of a tiny environment, for the CLI and for tests."""
    n = landscape.matrix.n
    if n > ORACLE_MAX_N:
        raise ConfigError(f"oracle enumeration is limited to n <= {ORACLE_MAX_N}, got n={n}")
    config_rows = []
    for config in enumerate_configs(n):
        contributions = [brute_contribution(landscape, config, j) for j in range(n)]
        config_rows.append(
            {
                "config": "".join(str(b) for b in config),
                "contributions": contributions,
                "performance": brute_performance(landscape, config),
            }
        )
    best_config, best_perf = brute_optimum(landscape)
    return {
        "n": n,
        "dependencies": {str(j): landscape.matrix.dependencies(j) for j in range(n)},
        "configs": config_rows,
        "optimum": {
            "config": "".join(str(int(b)) for b in best_config),
            "performance": best_perf,
        },
    }
