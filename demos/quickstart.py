"""Quickstart: run one experiment cell and read the trajectory.

Five agents share fifteen binary decisions on a tightly coupled landscape,
adapt by single-flip hillclimbing under balanced incentives, and reallocate
decisions through a second-price auction every 25 periods.
"""

from collections import Counter

from orgsim import IncentiveScheme, ScenarioConfig, run_experiment


class TradeTally:
    """A ledger sink: run_experiment hands it each replication's trades as the replication arrives."""

    def __init__(self):
        self.by_period = Counter()

    def write(self, scenario, rep, trades):
        self.by_period.update(trade.period for trade in trades)


scenario = ScenarioConfig(
    structure="k5",
    incentive=IncentiveScheme.from_name("balanced"),
    strategy="utility",
    reps=40,       # desk scale; the reference parameterization uses 800
    horizon=500,
    seed=7,
)
print(f"cell: {scenario.cell}")
print(f"decisions n={scenario.n}, agents m={scenario.m}, auction every tau={scenario.tau} periods")

tally = TradeTally()
result = run_experiment(scenario, trades=tally)

print("\nnormalized performance (mean over replications, 99% CI half-width):")
for t in (1, 25, 50, 100, 250, 500):
    mean = result.mean_norm_perf[t - 1]
    half_width = result.ci99_half_width[t - 1]
    bar = "#" * int(round(mean * 40))
    print(f"  t={t:>3}  {mean:.4f} +/- {half_width:.4f}  {bar}")

by_period = tally.by_period
volume = sum(by_period.values()) / scenario.reps
print(f"\ntrades per replication: {volume:.1f}")
early = sum(count for period, count in by_period.items() if period <= 100) / scenario.reps
late = sum(count for period, count in by_period.items() if period > 400) / scenario.reps
print(f"  in the first 100 periods: {early:.2f}, in the last 100: {late:.2f}")
print("\ntrading never settles under the contribution-based strategy: every flip")
print("shifts contribution values, so reserves and bids keep crossing. Compare")
print("with strategy='interdependence', where volume declines as beliefs harden.")
