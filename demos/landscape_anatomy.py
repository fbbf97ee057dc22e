"""Landscape anatomy: interaction structures, contribution tables, exact optima.

Shows the two stylized interaction matrices, how a contribution lookup works
bit by bit, and why normalized performance can hit 1.0 exactly.
"""

import numpy as np

from orgsim import (
    DECOMPOSABLE_K2,
    NONDECOMPOSABLE_K5,
    build_stylized_matrix,
    contribution,
    generate_landscape,
    performance,
)


def show(matrix, title):
    print(title)
    for j in range(matrix.n):
        row = "".join("x" if i in matrix.orders[j] else "." for i in range(matrix.n))
        print(f"  {j:>2} {row}   depends on {matrix.dependencies(j)}")
    print()


def contributions_of(land, config):
    """Every decision's contribution under ``config``: the vector performance() reads."""
    return [contribution(land, config, j) for j in range(land.matrix.n)]


k2 = build_stylized_matrix(DECOMPOSABLE_K2, 15)
show(k2, "decomposable structure (K=2): three-decision blocks, no cross-links")

k5 = build_stylized_matrix(NONDECOMPOSABLE_K5, 15)
show(k5, "non-decomposable structure (K=5): block mates plus offsets +3, +6, +9")

rng = np.random.default_rng(42)
land = generate_landscape(k2, rng)

print("one contribution lookup, spelled out")
config = [1, 0, 1] + [0] * 12
j = 0
deps = k2.dependencies(j)
bits = [config[j]] + [config[i] for i in deps]
index = int("".join(str(b) for b in bits), 2)
print(f"  decision {j} with dependencies {deps}")
print(f"  own bit {config[j]}, dependency bits {[config[i] for i in deps]} -> table index {index}")
print(f"  table entry: {land.tables[j][index]!r}")
print(f"  contribution(): {contribution(land, config, j)!r}")
assert contribution(land, config, j) == land.tables[j][index]

print("\nexhaustive optimum and exact normalization")
best_config, best_perf = land.optimum
print(f"  optimum configuration: {''.join(str(b) for b in best_config)}")
print(f"  optimum performance:   {best_perf!r}")
print(f"  optimum, normalized:   {performance(contributions_of(land, best_config)) / best_perf!r}")

rng2 = np.random.default_rng(3)
worst = 1.0
for _ in range(2000):
    config = rng2.integers(0, 2, size=15)
    norm = performance(contributions_of(land, config)) / best_perf
    assert norm <= 1.0
    worst = min(worst, norm)
print(f"  2000 random configurations: all normalized values <= 1.0, lowest {worst:.4f}")
print("  the optimum is scored by performance() of its contribution vector, the very")
print("  function a run records each period with, so a converged run reports exactly 1.0")
