"""``scripts/margins.py`` runs the trend fixture's suite and hashes its reports."""

import importlib.util
from pathlib import Path

import pytest

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



@pytest.mark.parametrize("threads", [None, "1", "2"])
def test_the_blas_thread_count_is_printed_once_above_the_table(monkeypatch, capsys, threads):
    if threads is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
    row = {
        "niche_uplift_min": 2.0,
        "generic_deviation_max": 0.05,
        "niche_provider_gain_min": 1,
        "universal_minus_algorithm_specific": 1,
        "sha256": "ab",
    }
    monkeypatch.setattr(margins, "seed_margins", lambda seed: row)
    margins.main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"OPENBLAS_NUM_THREADS={threads or 'unset'}"
    assert lines[1].startswith("seed\t")
    assert len(lines) == 3 + len(margins.SEEDS)
