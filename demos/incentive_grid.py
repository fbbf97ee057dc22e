"""The full design grid at desk scale.

Crosses the two interaction structures with three incentive schemes and three
allocation regimes, then prints final normalized performance per cell. At this
scale (40 replications) the broad pattern is already visible; the reference
parameterization uses 800 replications per cell.
"""

import time

from orgsim import IncentiveScheme, ScenarioConfig, expand_grid, run_grid

base = ScenarioConfig(
    structure="k2",
    incentive=IncentiveScheme.parse("balanced"),
    strategy="utility",
    reps=40,
    horizon=500,
    seed=0,
)

start = time.perf_counter()
results = run_grid(expand_grid(base))
elapsed = time.perf_counter() - start
print(f"18 cells x {base.reps} replications x {base.horizon} periods in {elapsed:.0f}s\n")

print(f"{'cell':<40} {'final':>8} {'ci99':>8}")
for result in results:
    print(f"{result.cell:<40} {result.final_mean:>8.4f} {result.final_half_width:>8.4f}")

print("\nreading the table:")
print("- individualistic incentives: trading hurts, and trading on observed")
print("  contributions (utility) hurts most; the fixed mirrored benchmark wins")
print("- balanced incentives: the gap closes; the two auction mechanisms are")
print("  statistically indistinguishable")
print("- altruistic incentives: the contribution-based auction matches or beats")
print("  the benchmark, especially on the tightly coupled structure")
