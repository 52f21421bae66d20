"""The consumer decision model: satisfaction tracking and switching.

Traces the recency-weighted satisfaction estimate through good and bad
stretches of recommendations, then prints the full two-recommender switch
decision table.
"""

from recmarket.behavior import BehaviorParams, ConsumerState, maybe_switch, update_utility

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
for current in (0.15, 0.25):
    for alternative in (None, 0.10, 0.30):
        consumer = ConsumerState(
            consumer_id=0,
            preference_vector=(1.0,),
            type_label="Generic",
            current_recommender="generic",
        )
        consumer.utility_estimates["generic"] = current
        if alternative is not None:
            consumer.tried.add("niche")
            consumer.utility_estimates["niche"] = alternative
        destination = maybe_switch(consumer, params, ["generic", "niche"])
        alt = "untried" if alternative is None else f"{alternative:.2f}"
        outcome = "stay" if destination is None else f"-> {destination}"
        print(f"{current:>8.2f} {alt:>12s} {outcome:>10s}")
