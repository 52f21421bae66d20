"""The consumer decision model: satisfaction tracking and switching.

Traces the recency-weighted satisfaction estimate through good and bad
stretches of recommendations, then prints the full two-recommender switch
decision table.
"""

import numpy as np

from recmarket.behavior import BehaviorParams, maybe_switch, update_utility

params = BehaviorParams()  # recency_bias 2.0, thresholds 0.2

print("satisfaction after a run of bad days (daily list utility 0.05):")
estimate = 0.45
for day in range(1, 8):
    estimate = update_utility(estimate, 0.05, params.recency_bias)
    marker = "  <- would consider switching" if estimate < params.satisfaction_threshold else ""
    print(f"  day {day}: {estimate:.3f}{marker}")

print("\nrecovery on a good recommender (daily list utility 0.85):")
for day in range(1, 5):
    estimate = update_utility(estimate, 0.85, params.recency_bias)
    print(f"  day {day}: {estimate:.3f}")

print("\nswitch decision table (current estimate x alternative):")
print(f"{'current':>8s} {'alternative':>12s} {'decision':>10s}")
columns = ["generic", "niche"]  # one column per recommender, by id
cases = [(current, alternative) for current in (0.15, 0.25) for alternative in (None, 0.10, 0.30)]
# One row per case: every consumer is at generic, with an unset niche estimate if untried
estimates = np.array([[current, np.nan if alt is None else alt] for current, alt in cases])
moves = maybe_switch(estimates, np.zeros(len(cases), dtype=int), params)
for (current, alternative), column in zip(cases, moves.tolist()):
    alt = "untried" if alternative is None else f"{alternative:.2f}"
    outcome = "stay" if column < 0 else f"-> {columns[column]}"
    print(f"{current:>8.2f} {alt:>12s} {outcome:>10s}")
