"""Print the four trend-gate margins of the desk-scale suite, per seed.

Runs the same five-scenario suite as the ``trend_suite_results`` fixture in
``tests/conftest.py`` (500 consumers, 300 items, 20 providers, niche genre
Horror, seeds 3, 11 and 42) and prints, for each seed, how far each trend
of ``TestCriterion4TrendReproduction`` sits from its gate:

- niche uplift: the smallest switching/baseline ratio of niche-consumer
  utility (gate >= 1.5);
- generic deviation: the largest |switching/baseline - 1| of
  generic-consumer utility (gate <= 0.10);
- niche-provider gain: the smallest switching - baseline niche-provider
  click count (gate > 0);
- universal - algorithm_specific niche-provider clicks (gate >= 0).

It also prints a sha256 over the suite's report JSON (as ``recmarket run``
writes it) and its cycle, provider, switch and per-day CSV lines, so that
two checkouts can be compared byte for byte by running this on each. The
bytes can depend on the BLAS thread count, so the first line gives
``OPENBLAS_NUM_THREADS``: compare digests only between runs that agree on it.

Run from the repository root (about two minutes on two CPUs):

    PYTHONPATH=src python scripts/margins.py
"""

from __future__ import annotations

import hashlib
import json
import os

from recmarket.dataset import GENERIC, NICHE, SyntheticSpec, generate_synthetic
from recmarket.engine import (
    cycle_csv_lines,
    day_csv_lines,
    provider_csv_lines,
    run_experiment_suite,
    standard_suite,
    switch_csv_lines,
)

SEEDS = (3, 11, 42)
SWITCHING = ("algorithm_specific", "cold_start", "user_ownership", "universal")


def report_digest(reports) -> str:
    digest = hashlib.sha256()
    for report in reports:
        digest.update(json.dumps(report.to_json_dict(), indent=2, sort_keys=True).encode())
    for emit in (cycle_csv_lines, provider_csv_lines, switch_csv_lines, day_csv_lines):
        digest.update("\n".join(emit(reports)).encode())
    return digest.hexdigest()


def seed_margins(seed: int) -> dict[str, object]:
    spec = SyntheticSpec(consumers=500, items=300, providers=20, niche_fraction=0.1, seed=seed)
    result = run_experiment_suite(
        standard_suite(seed=seed, niche_genre="Horror"),
        generate_synthetic(spec),
        collect_day_rows=True,
    )
    base = result.report("baseline")
    switching = [result.report(name) for name in SWITCHING]
    return {
        "niche_uplift_min": min(
            r.last_cycle_utility[NICHE] / base.last_cycle_utility[NICHE] for r in switching
        ),
        "generic_deviation_max": max(
            abs(r.last_cycle_utility[GENERIC] / base.last_cycle_utility[GENERIC] - 1.0)
            for r in switching
        ),
        "niche_provider_gain_min": min(
            r.provider_clicks[NICHE] - base.provider_clicks[NICHE] for r in switching
        ),
        "universal_minus_algorithm_specific": (
            result.report("universal").provider_clicks[NICHE]
            - result.report("algorithm_specific").provider_clicks[NICHE]
        ),
        "sha256": report_digest(result.reports),
    }


def main() -> None:
    print(f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")
    print("seed\tniche_uplift_min\tgeneric_deviation_max\tniche_provider_gain_min\t"
          "universal_minus_algorithm_specific\tsha256")
    print("gate\t>= 1.5\t<= 0.10\t> 0\t>= 0\t")
    for seed in SEEDS:
        m = seed_margins(seed)
        print(
            f"{seed}\t{m['niche_uplift_min']:.4f}\t{m['generic_deviation_max']:.4f}\t"
            f"{m['niche_provider_gain_min']:+d}\t{m['universal_minus_algorithm_specific']:+d}\t"
            f"{m['sha256']}",
            flush=True,
        )


if __name__ == "__main__":
    main()
