"""NK-style task environments: interaction structure, contribution tables, optima.

A task environment has ``n`` binary decisions. The contribution of decision
``j`` is read from a lookup table indexed by the joint state of ``j`` and the
decisions it depends on; overall performance of a configuration is the mean
contribution. Interaction structure is a boolean matrix where row ``j`` marks
the decisions that ``j``'s contribution depends on (diagonal always set).

Table indexing convention: the own decision is the highest-order bit, the
remaining dependencies follow in ascending decision index. A decision with
``k`` dependencies therefore has a table of length ``2**(k+1)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError

DECOMPOSABLE_K2 = "decomposable_k2"
NONDECOMPOSABLE_K5 = "nondecomposable_k5"
# Both stylized structures are built from blocks of three decisions.
BLOCK_SIZE = 3

# Exhaustive optimum search is capped here; 2**25 configurations is the most
# the chunked scan should ever be asked to sweep.
ENUMERATION_LIMIT = 25
_SCAN_CHUNK = 1 << 18


@dataclass(frozen=True, eq=False)
class InteractionMatrix:
    """Square boolean dependency structure.

    ``entries[j, i]`` is True when the contribution of decision ``j`` depends
    on decision ``i``. The diagonal is always True: every contribution depends
    on its own decision.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=bool)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ConfigError(f"interaction matrix must be square, got shape {entries.shape}")
        if entries.shape[0] < 1:
            raise ConfigError("interaction matrix must have at least one decision")
        if not entries.diagonal().all():
            missing = int(np.flatnonzero(~entries.diagonal())[0])
            raise ConfigError(f"diagonal must be all ones; decision {missing} does not depend on itself")
        object.__setattr__(self, "entries", entries)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def k(self, j: int) -> int:
        """Number of foreign dependencies of decision ``j``."""
        return int(self.entries[j].sum()) - 1

    def dependencies(self, j: int) -> list[int]:
        """Decisions other than ``j`` that ``j``'s contribution depends on, ascending."""
        return [int(i) for i in np.flatnonzero(self.entries[j]) if i != j]


def build_stylized_matrix(kind: str, n: int) -> InteractionMatrix:
    """Construct one of the two stylized interaction structures.

    ``decomposable_k2``: block-diagonal; each decision depends on exactly the
    other two decisions in its 3-block (K=2).

    ``nondecomposable_k5``: each decision keeps its two block mates and adds
    three cross-block dependencies at offsets +3, +6, +9 (mod n), advancing an
    offset past collisions with itself, its own block, or already chosen
    dependencies (K=5).
    """
    if n < BLOCK_SIZE or n % BLOCK_SIZE != 0:
        raise ConfigError(f"n={n} is not a positive multiple of the block size {BLOCK_SIZE}")

    entries = np.zeros((n, n), dtype=bool)
    for j in range(n):
        block = j - (j % BLOCK_SIZE)
        entries[j, block:block + BLOCK_SIZE] = True

    if kind == DECOMPOSABLE_K2:
        return InteractionMatrix(entries)
    if kind != NONDECOMPOSABLE_K5:
        raise ConfigError(f"unknown stylized structure {kind!r}")

    if n < 2 * BLOCK_SIZE:
        raise ConfigError(f"nondecomposable_k5 needs n >= {2 * BLOCK_SIZE}, got {n}")
    for j in range(n):
        block = j - (j % BLOCK_SIZE)
        own_block = range(block, block + BLOCK_SIZE)
        for offset in (3, 6, 9):
            cand = (j + offset) % n
            # Walk forward past own-block members and duplicates; n >= 6
            # guarantees three distinct external slots exist.
            while cand in own_block or entries[j, cand]:
                cand = (cand + 1) % n
            entries[j, cand] = True
    return InteractionMatrix(entries)


def random_matrix(n: int, k: int, rng: np.random.Generator) -> InteractionMatrix:
    """Random structure where every decision depends on ``k`` distinct others."""
    if not 0 <= k <= n - 1:
        raise ConfigError(f"k must be in [0, n-1]; got k={k}, n={n}")
    entries = np.eye(n, dtype=bool)
    for j in range(n):
        others = np.delete(np.arange(n), j)
        picks = rng.choice(others, size=k, replace=False)
        entries[j, picks] = True
    return InteractionMatrix(entries)


def load_matrix(path: str) -> InteractionMatrix:
    """Read an interaction matrix from a text file.

    Format: first non-blank line holds ``n``; the next ``n`` lines hold ``n``
    whitespace-separated 0/1 entries each (row j = dependencies of decision j).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read matrix file: {exc}") from None
    lines = [(no + 1, line.strip()) for no, line in enumerate(raw) if line.strip()]
    if not lines:
        raise ConfigError(f"{path}: empty matrix file")

    header_no, header = lines[0]
    try:
        n = int(header)
    except ValueError:
        raise ConfigError(f"{path}:{header_no}: expected decision count, got {header!r}") from None
    if n < 1:
        raise ConfigError(f"{path}:{header_no}: decision count must be positive, got {n}")
    if len(lines) - 1 != n:
        raise ConfigError(f"{path}: expected {n} matrix rows, found {len(lines) - 1}")

    entries = np.zeros((n, n), dtype=bool)
    for j, (line_no, line) in enumerate(lines[1:]):
        cells = line.split()
        if len(cells) != n:
            raise ConfigError(f"{path}:{line_no}: expected {n} entries, found {len(cells)}")
        for i, cell in enumerate(cells):
            if cell not in ("0", "1"):
                raise ConfigError(f"{path}:{line_no}: entries must be 0 or 1, got {cell!r}")
            entries[j, i] = cell == "1"
        if not entries[j, j]:
            raise ConfigError(f"{path}:{line_no}: diagonal entry for decision {j} must be 1")
    return InteractionMatrix(entries)


@dataclass(eq=False)
class Landscape:
    """Interaction structure plus drawn contribution tables.

    ``tables[j]`` has length ``2**(k_j+1)`` and is indexed with the own bit as
    the highest-order bit followed by foreign dependencies in ascending order.
    The exhaustive optimum is cached after generation so normalization never
    re-runs the scan.
    """

    matrix: InteractionMatrix
    tables: list[np.ndarray]
    optimum_config: np.ndarray | None = None
    optimum_performance: float | None = None
    # index order per decision: (j, dep_0, dep_1, ...) with deps ascending
    orders: list[tuple[int, ...]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = self.matrix.n
        if len(self.tables) != n:
            raise ConfigError(f"expected {n} contribution tables, got {len(self.tables)}")
        orders = []
        for j in range(n):
            deps = self.matrix.dependencies(j)
            expected = 1 << (len(deps) + 1)
            if len(self.tables[j]) != expected:
                raise ConfigError(
                    f"table for decision {j} must have {expected} entries, got {len(self.tables[j])}"
                )
            orders.append((j, *deps))
        self.orders = orders

    @property
    def n(self) -> int:
        return self.matrix.n

    @property
    def optimum(self) -> tuple[np.ndarray, float]:
        if self.optimum_config is None or self.optimum_performance is None:
            raise ValueError("optimum has not been computed; use generate_landscape or global_optimum")
        return self.optimum_config, self.optimum_performance


def generate_landscape(matrix: InteractionMatrix, rng: np.random.Generator) -> Landscape:
    """Draw contribution tables uniformly on [0, 1) and cache the exhaustive optimum.

    Tables are drawn in ascending decision order so a given generator state
    always yields the same landscape.
    """
    tables = [rng.random(1 << (matrix.k(j) + 1)) for j in range(matrix.n)]
    land = Landscape(matrix=matrix, tables=tables)
    config, perf = global_optimum(land)
    land.optimum_config = config
    land.optimum_performance = perf
    return land


def contribution(landscape: Landscape, config: Sequence[int], j: int) -> float:
    """Contribution of decision ``j`` under ``config``.

    ``config`` is a full-length 0/1 sequence; only ``j`` and its dependencies
    are read.
    """
    if not 0 <= j < landscape.n:
        raise IndexError(f"decision index {j} out of range for n={landscape.n}")
    index = 0
    for i in landscape.orders[j]:
        index = (index << 1) | int(config[i])
    return float(landscape.tables[j][index])


def performance(landscape: Landscape, config: Sequence[int], subset: Iterable[int] | None = None) -> float:
    """Mean contribution over ``subset`` (default: all decisions).

    Contributions are summed in ascending decision order; every performance
    figure in the package goes through this exact summation.
    """
    indices = sorted(subset) if subset is not None else range(landscape.n)
    total = 0.0
    count = 0
    for j in indices:
        total += contribution(landscape, config, j)
        count += 1
    if count == 0:
        raise ValueError("performance over an empty decision set is undefined")
    return total / count


def global_optimum(landscape: Landscape) -> tuple[np.ndarray, float]:
    """Exhaustively locate the best configuration.

    Enumerates all ``2**n`` configurations with decision 0 as the highest-order
    bit. Each table is viewed as a cube with a length-2 axis per decision in
    its order, transposed into ascending decision order, and a length-1 axis
    for every other decision; the views are added by broadcasting, for
    ascending ``j``, into zeroed totals, so each configuration's total is
    summed in the order :func:`performance` uses. The scan runs in chunks of
    ``_SCAN_CHUNK`` configurations, each with the leading decisions fixed. The
    first maximum wins, so ties resolve to the lexicographically smallest
    configuration. The winning performance is recomputed through
    :func:`performance` to keep the cached optimum bit-identical to the scalar
    path used during simulation.
    """
    n = landscape.n
    if n > ENUMERATION_LIMIT:
        raise ConfigError(f"exhaustive optimum supports n <= {ENUMERATION_LIMIT}, got {n}")

    views = []
    for table, order in zip(landscape.tables, landscape.orders):
        cube = table.reshape((2,) * len(order)).transpose(np.argsort(order))
        views.append(cube.reshape([2 if i in order else 1 for i in range(n)]))
    fixed = max(n - (_SCAN_CHUNK.bit_length() - 1), 0)
    best_code = -1
    best_total = -np.inf
    for prefix in range(1 << fixed):
        bits = [(prefix >> (fixed - 1 - i)) & 1 for i in range(fixed)]
        totals = np.zeros((2,) * (n - fixed), dtype=np.float64)
        for view in views:
            totals += view[tuple(bit if size == 2 else 0 for bit, size in zip(bits, view.shape))]
        pos = int(np.argmax(totals))
        if totals.flat[pos] > best_total:
            best_total = float(totals.flat[pos])
            best_code = (prefix << (n - fixed)) | pos

    config = np.array([(best_code >> (n - 1 - i)) & 1 for i in range(n)], dtype=np.int8)
    return config, performance(landscape, config)
