"""NK-style task environments: interaction structure, contribution tables, optima.

A task environment has ``n`` binary decisions. The contribution of decision
``j`` is read from a lookup table indexed by the joint state of ``j`` and the
decisions it depends on; overall performance of a configuration is the mean
contribution. Interaction structure is a boolean matrix where row ``j`` marks
the decisions that ``j``'s contribution depends on (diagonal always set).

Table indexing convention: the own decision is the highest-order bit, the
remaining dependencies follow in ascending decision index. A decision with
``k`` dependencies therefore has a table of length ``2**(k+1)``.

The global optimum is exact, and a landscape computes it once, on the first
read of :attr:`Landscape.optimum`. A matrix whose decisions split into several
connected components of at most ``_SCAN_TAIL`` decisions, like the stylized
block-diagonal ``"k2"``, is solved component by component: the components'
configurations are scored with one gather per component size from the
concatenated tables, and when each component has exactly one configuration
within ``GAP`` of its maximum, their union is the optimum. Any other matrix or
landscape (a near-tie, a large component, a contribution above 1 in magnitude,
a single component as in the stylized ``"k5"``) goes through the exhaustive
scan of all ``2**n`` configurations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ConfigError

# The stylized structures' scenario tokens. Both are built from blocks of three decisions.
DECOMPOSABLE_K2 = "k2"
NONDECOMPOSABLE_K5 = "k5"
BLOCK_SIZE = 3

# Exhaustive optimum search is capped here; 2**25 configurations is the most
# the chunked scan should ever be asked to sweep.
ENUMERATION_LIMIT = 25
_SCAN_CHUNK = 1 << 18
# Decisions the scan lays out as one contiguous axis, so numpy adds 256 totals per inner loop.
# Also the most decisions a component may have for the optimum to be found component by component.
_SCAN_TAIL = 8

# A sum of at most 25 terms, each at most 1 in magnitude, added one after the
# other in any fixed order is within (n - 1)·u·n ≈ 7e-14 of its exact value,
# u being the unit roundoff (Higham 2002, Accuracy and Stability of Numerical
# Algorithms, §4.2). Two such sums whose computed values differ by more than
# GAP therefore compare the same way as their exact values, and as any other
# computed sums of the same terms. The engine's hillclimb verdict guard and
# the optimum by components both rest on this bound.
GAP = 1e-12


@dataclass(frozen=True, eq=False)
class InteractionMatrix:
    """Square boolean dependency structure.

    ``entries[j, i]`` is True when the contribution of decision ``j`` depends
    on decision ``i``. The diagonal is always True: every contribution depends
    on its own decision.

    ``orders[j]`` is decision ``j``'s table index order, derived once from
    ``entries``: ``(j, dep_0, dep_1, ...)`` with the dependencies ascending, so
    the own decision is the highest-order bit. Every landscape drawn on the
    matrix reads these tuples.

    ``components`` are the connected components of ``entries | entries.T``,
    each ascending, in the order of their first decisions, and empty above
    ``ENUMERATION_LIMIT`` decisions, where no optimum is sought. When there are
    several and none has more than ``_SCAN_TAIL`` decisions, ``gathers`` holds
    one ``(members, index)`` pair per component size: ``members[c]`` lists the
    decisions of the c-th component of that size, and ``index[c, r, code]`` is
    the position of member r's contribution, under the component configuration
    ``code`` (first member as the highest-order bit), in the tables
    concatenated in decision order, read through the scan's view :func:`_view`.
    Otherwise ``gathers`` is empty and :func:`global_optimum` scans. Both are
    derived here, so they travel with a pickled matrix.
    """

    entries: np.ndarray
    orders: tuple[tuple[int, ...], ...] = field(init=False, repr=False)
    components: tuple[tuple[int, ...], ...] = field(init=False, repr=False)
    gathers: tuple[tuple[np.ndarray, np.ndarray], ...] = field(init=False, repr=False)

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
        orders = tuple((j, *(i for i in np.flatnonzero(row).tolist() if i != j)) for j, row in enumerate(entries))
        object.__setattr__(self, "orders", orders)
        components = _components(entries) if len(entries) <= ENUMERATION_LIMIT else ()
        object.__setattr__(self, "components", components)
        decomposes = len(components) > 1 and all(len(members) <= _SCAN_TAIL for members in components)
        object.__setattr__(self, "gathers", _gathers(orders, components) if decomposes else ())

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def k(self, j: int) -> int:
        """Number of foreign dependencies of decision ``j``."""
        return len(self.orders[j]) - 1

    def dependencies(self, j: int) -> list[int]:
        """Decisions other than ``j`` that ``j``'s contribution depends on, ascending."""
        return list(self.orders[j][1:])


def _components(entries: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Connected components of the dependency graph read in either direction, each ascending.

    Squaring the linked matrix ``k`` times links every pair joined by a path of
    at most ``2**k`` steps, so ``(n - 1).bit_length()`` squarings give the
    transitive closure; its rows are the components.
    """
    reach = entries | entries.T
    for _ in range((len(entries) - 1).bit_length()):
        reach = reach @ reach
    return tuple(sorted({tuple(np.flatnonzero(row).tolist()) for row in reach}))


def _gathers(
    orders: tuple[tuple[int, ...], ...], components: tuple[tuple[int, ...], ...]
) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The ``(members, index)`` pairs of :attr:`InteractionMatrix.gathers`, one per component size.

    Member j's positions in the concatenated tables, viewed through :func:`_view` over its component and
    broadcast along the members j does not read, are its positions under every component code.
    """
    offsets = np.cumsum([0] + [1 << len(order) for order in orders])
    groups: dict[int, list[tuple[int, ...]]] = {}
    for members in components:
        groups.setdefault(len(members), []).append(members)
    gathers = []
    for size, group in groups.items():
        index = np.empty((len(group), size) + (2,) * size, dtype=np.intp)
        for c, members in enumerate(group):
            for r, j in enumerate(members):
                index[c, r] = _view(np.arange(offsets[j], offsets[j + 1]), orders[j], members)
        gathers.append((np.array(group, dtype=np.intp), index.reshape(len(group), size, 1 << size)))
    return tuple(gathers)


def _view(values: np.ndarray, order: tuple[int, ...], axes: Sequence[int]) -> np.ndarray:
    """A table's ``values``, indexed in ``order``, laid out over one axis per decision of ``axes`` (ascending,
    a superset of ``order``): length 2 where the table reads that decision and 1 elsewhere. No copy is made."""
    cube = values.reshape((2,) * len(order)).transpose(sorted(range(len(order)), key=order.__getitem__))
    return cube.reshape([2 if i in order else 1 for i in axes])


def build_stylized_matrix(kind: str, n: int) -> InteractionMatrix:
    """Construct the stylized interaction structure that the scenario token ``kind`` names.

    ``"k2"`` (``DECOMPOSABLE_K2``): block-diagonal; each decision depends on
    exactly the other two decisions in its 3-block (K=2).

    ``"k5"`` (``NONDECOMPOSABLE_K5``): each decision keeps its two block mates
    and adds three cross-block dependencies at offsets +3, +6, +9 (mod n),
    advancing an offset past collisions with itself, its own block, or already
    chosen dependencies (K=5).
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
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
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
        bad = [cell for cell in cells if cell != "0" and cell != "1"]
        if bad:
            raise ConfigError(f"{path}:{line_no}: entries must be 0 or 1, got {bad[0]!r}")
        if cells[j] != "1":
            raise ConfigError(f"{path}:{line_no}: diagonal entry for decision {j} must be 1")
        entries[j] = np.frombuffer("".join(cells).encode("ascii"), dtype=np.uint8) == ord("1")
    return InteractionMatrix(entries)


@dataclass(eq=False)
class Landscape:
    """Interaction structure plus drawn contribution tables.

    The structure is ``matrix``. ``tables[j]`` has length ``2**(k_j+1)`` and is indexed in
    ``matrix.orders[j]``: the own bit as the highest-order bit, then foreign dependencies ascending.
    ``optimum`` is :func:`global_optimum` of the landscape, computed on first
    read and cached, so normalization never re-runs the scan.
    """

    matrix: InteractionMatrix
    tables: list[np.ndarray]

    def __post_init__(self) -> None:
        n = self.matrix.n
        if len(self.tables) != n:
            raise ConfigError(f"expected {n} contribution tables, got {len(self.tables)}")
        for j, order in enumerate(self.matrix.orders):
            expected = 1 << len(order)
            if len(self.tables[j]) != expected:
                raise ConfigError(
                    f"table for decision {j} must have {expected} entries, got {len(self.tables[j])}"
                )

    @property
    def n(self) -> int:
        return self.matrix.n

    @cached_property
    def optimum(self) -> tuple[np.ndarray, float]:
        return global_optimum(self)


def generate_landscape(matrix: InteractionMatrix, rng: np.random.Generator) -> Landscape:
    """Draw contribution tables uniformly on [0, 1); the optimum waits for its first read.

    Tables are drawn in ascending decision order so a given generator state
    always yields the same landscape.
    """
    tables = [rng.random(1 << len(order)) for order in matrix.orders]
    return Landscape(matrix=matrix, tables=tables)


def contribution(landscape: Landscape, config: Sequence[int], j: int) -> float:
    """Contribution of decision ``j`` under ``config``.

    ``config`` is a full-length 0/1 sequence; only ``j`` and its dependencies
    are read.
    """
    if not 0 <= j < landscape.n:
        raise IndexError(f"decision index {j} out of range for n={landscape.n}")
    index = 0
    for i in landscape.matrix.orders[j]:
        index = (index << 1) | int(config[i])
    return float(landscape.tables[j][index])


def performance(contributions: Sequence[float]) -> float:
    """Mean of a contribution vector, summed left to right from 0.0 with no compensation.

    Every performance figure in the package goes through this exact summation,
    so it is not ``sum`` (compensated from Python 3.12), ``math.fsum`` or ``np.mean``.
    """
    total = 0.0
    for value in contributions:
        total += value
    return total / len(contributions)


def global_optimum(landscape: Landscape) -> tuple[np.ndarray, float]:
    """Locate the best configuration exactly.

    The optimum is the first maximum, with decision 0 as the highest-order bit,
    of every configuration's total summed for ascending ``j``, as :func:`_scan`
    computes them, so ties resolve to the lexicographically smallest
    configuration. A matrix with :attr:`InteractionMatrix.gathers` is solved
    component by component (:func:`_optimum_by_components`) unless a near-tie
    or an out-of-range contribution leaves that undecided; every other case
    goes through the exhaustive scan, which is the one fallback. The winning
    performance is :func:`performance` of the winner's :func:`contribution`
    vector, the very function the engine records every period with, so a
    configuration that reaches the optimum normalizes to exactly 1.0.
    """
    n = landscape.n
    if n > ENUMERATION_LIMIT:
        raise ConfigError(f"exhaustive optimum supports n <= {ENUMERATION_LIMIT}, got {n}")
    config = _optimum_by_components(landscape)
    if config is None:
        config = _scan(landscape)
    # contribution reads one element per dependency; Python ints make each read cheap and give the same float.
    bits = config.tolist()
    return config, performance([contribution(landscape, bits, j) for j in range(n)])


def _optimum_by_components(landscape: Landscape) -> np.ndarray | None:
    """The union of each component's best configuration, or None when it may not be the scan's answer.

    A configuration's total is the sum of its component scores. One gather from
    the concatenated tables per component size gives each component's
    contributions under each of its configurations, summed into its scores.
    When every component has exactly one configuration within ``GAP`` of its
    best score, and no contribution exceeds 1 in magnitude, any other
    configuration loses more than ``GAP`` in some component's score and gains
    at most two rounding bounds in the others. Its exact total is then lower
    by more than ``GAP`` less two bounds, and its computed ascending-``j``
    total by more than ``GAP`` less four: the union is the scan's unique
    maximum. Otherwise there is no answer here.
    """
    gathers = landscape.matrix.gathers
    if not gathers:
        return None
    flat = np.concatenate(landscape.tables)
    if not np.abs(flat).max() <= 1.0:  # also rejects NaN
        return None
    config = np.empty(landscape.n, dtype=np.int8)
    for members, index in gathers:
        scores = flat[index].sum(axis=1)  # [component, code]
        best = scores.max(axis=1)
        if np.count_nonzero(scores >= (best - GAP)[:, None]) != len(scores):
            return None
        codes = scores.argmax(axis=1)
        config[members] = (codes[:, None] >> np.arange(members.shape[1] - 1, -1, -1)) & 1
    return config


def _scan(landscape: Landscape) -> np.ndarray:
    """The first maximum of all ``2**n`` configurations' totals, by exhaustive scan.

    Enumerates all ``2**n`` configurations with decision 0 as the highest-order
    bit, each table viewed through :func:`_view` over all ``n`` decisions. The
    scan runs in chunks of ``_SCAN_CHUNK`` configurations, each with the
    leading decisions fixed. Within a chunk the last ``_SCAN_TAIL`` decisions
    form one contiguous axis of ``2**_SCAN_TAIL`` totals, so numpy's inner loop
    runs over that many elements rather than over one length-2 axis: after a
    view's fixed decisions are indexed, its tail axes are broadcast to full
    length and copied into that layout, and the copy is added into the chunk's
    totals and dropped. No copy is larger than the chunk or outlives its
    addition, and one totals array serves every chunk, zeroed at its start, so
    memory stays bounded at any ``n``. The views are added for ascending ``j``
    into zeroed totals, so each configuration's total is summed in the order
    :func:`performance` uses.
    """
    n = landscape.n
    views = [_view(table, order, range(n)) for table, order in zip(landscape.tables, landscape.matrix.orders)]
    fixed = max(n - (_SCAN_CHUNK.bit_length() - 1), 0)
    tail = min(n - fixed, _SCAN_TAIL)
    free = n - tail - fixed
    best_code = -1
    best_total = -np.inf
    totals = np.empty((2,) * free + (1 << tail,), dtype=np.float64)
    for prefix in range(1 << fixed):
        bits = [(prefix >> (fixed - 1 - i)) & 1 for i in range(fixed)]
        totals.fill(0.0)
        for view in views:
            part = view[tuple(bit if size == 2 else 0 for bit, size in zip(bits, view.shape))]
            lead = part.shape[:free]
            flat = np.empty(lead + (1 << tail,), dtype=np.float64)
            np.copyto(flat.reshape(lead + (2,) * tail), part)
            totals += flat
            del flat
        pos = int(np.argmax(totals))
        if totals.flat[pos] > best_total:
            best_total = float(totals.flat[pos])
            best_code = (prefix << (n - fixed)) | pos

    config = np.array([(best_code >> (n - 1 - i)) & 1 for i in range(n)], dtype=np.int8)
    return config
