"""``scripts/margins.py`` runs the trend fixture's suite and hashes its reports."""

import importlib.util
from pathlib import Path

from conftest import TREND_SEEDS
from recmarket.dataset import SyntheticSpec, generate_synthetic
from recmarket.engine import run_experiment_suite, standard_suite

ROOT = Path(__file__).resolve().parents[1]

spec = importlib.util.spec_from_file_location("margins", ROOT / "scripts" / "margins.py")
margins = importlib.util.module_from_spec(spec)
spec.loader.exec_module(margins)


def test_the_seeds_and_scenarios_are_the_trend_fixtures():
    assert margins.SEEDS == TREND_SEEDS
    suite = standard_suite(seed=3, niche_genre="Horror")
    assert margins.SWITCHING == tuple(c.scenario_name for c in suite if not c.is_baseline)


def test_the_digest_of_a_rerun_is_the_same():
    data = generate_synthetic(SyntheticSpec(consumers=25, items=60, providers=5, seed=5))
    configs = standard_suite(
        seed=5, niche_genre="Horror", cycles=3, days_per_cycle=2, slate_size=4, warmup_cycles=1
    )
    first, second = (
        run_experiment_suite(configs, data, collect_day_rows=True).reports for _run in range(2)
    )
    assert margins.report_digest(first) == margins.report_digest(second)
    assert margins.report_digest(first[:-1]) != margins.report_digest(first)
