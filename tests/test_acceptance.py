"""Acceptance gate: one test per criterion, printing a pass line each.

Criteria 4 and 5 read the session-scoped three-seed suite; each trend is
checked per seed and must hold for a majority (at least 2 of 3 seeds).
"""

import hashlib
import os
import random
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import RECS, run_random_events, score
from recmarket import engine as eng
from recmarket.behavior import update_utility
from recmarket.dataset import GENERIC, NICHE, SyntheticSpec, generate_synthetic
from recmarket.engine import (
    NICHE_RECOMMENDER,
    GENERIC_RECOMMENDER,
    standard_suite,
)
from recmarket.portability import PortabilityPolicy, replay_audit, store_state
from recmarket.recommender import (
    CatalogModel,
    Provenance,
    RecommenderConfig,
    TrainedModel,
    serve,
    train,
)
from conftest import SUITE_TIMING

SWITCHING = ["algorithm_specific", "cold_start", "user_ownership", "universal"]


def majority(seed_flags: dict) -> bool:
    return sum(bool(v) for v in seed_flags.values()) * 2 > len(seed_flags)


class TestCriterion1RecencyUpdate:
    def test_eq_arithmetic_exact(self):
        assert update_utility(0.4, 0.1, 2.0) == 0.3
        for x in [0.0, 0.05, 0.3, 0.7, 1 / 3, 0.123456789, 1.0]:
            assert update_utility(x, x, 2.0) == x
        for mu in [0.0, 0.1, 0.4, 0.9999, 1.0]:
            assert update_utility(0.77, mu, 0.0) == mu
        print("ACCEPTANCE 1 PASS: recency update arithmetic exact")


class TestCriterion2PortabilityProperties:
    def test_thousand_event_sequences_with_replay(self):
        started = time.monotonic()
        per_policy = 250  # 4 policies x 250 = 1000 sequences
        for policy in PortabilityPolicy:
            for seed in range(per_policy):
                run = run_random_events(seed, policy, n_events=60)
                # the production store must match the independent ledger
                assert store_state(run.store) == run.reference.state()
                # audit-log replay reproduces the final store exactly
                rebuilt = replay_audit(run.trail.events, policy, RECS)
                assert store_state(rebuilt) == store_state(run.store)
                if policy is PortabilityPolicy.UNIVERSAL:
                    shared = run.store.shared
                    total = sum(len(v) for v in shared.values())
                    assert total == sum(
                        len(v) for v in run.reference.all_clicks.values()
                    )
        elapsed = time.monotonic() - started
        print(f"ACCEPTANCE 2 PASS: 1000 event sequences verified in {elapsed:.1f}s")


class TestCriterion3Determinism:
    def test_scenario_rerun_hash_identical(self, tmp_path):
        started = time.monotonic()
        spec = SyntheticSpec(
            consumers=500, items=300, providers=20, niche_fraction=0.1, seed=17
        )
        config = next(
            c
            for c in standard_suite(seed=17, niche_genre="Horror")
            if c.scenario_name == "universal"
        )
        hashes = []
        for attempt in ("a", "b"):
            data = generate_synthetic(spec)
            report = eng.run_scenario(config, data)
            out = tmp_path / attempt
            out.mkdir()
            (out / "cycles.csv").write_text("\n".join(eng.cycle_csv_lines([report])))
            (out / "providers.csv").write_text(
                "\n".join(eng.provider_csv_lines([report]))
            )
            (out / "switches.csv").write_text("\n".join(eng.switch_csv_lines([report])))
            (out / "summary.txt").write_text(eng.render_summary([report]))
            digest = hashlib.sha256()
            for p in sorted(out.iterdir()):
                digest.update(p.read_bytes())
            hashes.append(digest.hexdigest())
        elapsed = time.monotonic() - started
        assert hashes[0] == hashes[1]
        assert elapsed < 120, f"determinism check took {elapsed:.0f}s"
        print(f"ACCEPTANCE 3 PASS: rerun hash-identical in {elapsed:.1f}s")


class TestCriterion4TrendReproduction:
    def last(self, report, ctype):
        return report.last_cycle_utility[ctype]

    def test_trends_hold_per_seed_majority(self, trend_suite_results):
        flags_a, flags_b, flags_c, flags_d = {}, {}, {}, {}
        for seed, result in trend_suite_results.items():
            base = result.report("baseline")
            switching = [result.report(s) for s in SWITCHING]

            flags_a[seed] = all(
                self.last(r, NICHE) >= 1.5 * self.last(base, NICHE) for r in switching
            )
            flags_b[seed] = all(
                abs(self.last(r, GENERIC) / self.last(base, GENERIC) - 1.0) <= 0.10
                for r in switching
            )
            flags_c[seed] = all(
                r.provider_clicks[NICHE] > base.provider_clicks[NICHE]
                for r in switching
            )
            flags_d[seed] = (
                result.report("universal").provider_clicks[NICHE]
                >= result.report("algorithm_specific").provider_clicks[NICHE]
            )
            print(
                f"  seed {seed}: niche-uplift={flags_a[seed]} "
                f"generic-stable={flags_b[seed]} provider-uplift={flags_c[seed]} "
                f"universal>=algorithm_specific={flags_d[seed]}"
            )
        assert majority(flags_a), f"niche consumer uplift failed: {flags_a}"
        assert majority(flags_b), f"generic consumer stability failed: {flags_b}"
        assert majority(flags_c), f"niche provider uplift failed: {flags_c}"
        assert majority(flags_d), f"universal vs algorithm-specific failed: {flags_d}"
        assert SUITE_TIMING["seconds"] < 600, f"suite took {SUITE_TIMING['seconds']:.0f}s"
        print(
            "ACCEPTANCE 4 PASS: desk-scale trends reproduced "
            f"(per-seed majority, suite {SUITE_TIMING['seconds']:.0f}s)"
        )


class TestCriterion5SwitchingBehavior:
    def test_niche_consumers_never_return_and_warmup_silent(self, trend_suite_results):
        for seed, result in trend_suite_results.items():
            for report in result.reports:
                # warm-up cycles contain zero switch events (exact, all scenarios)
                assert all(e.cycle >= 2 for e in report.switch_events), report.scenario
                if report.baseline:
                    assert report.switch_events == ()
                    continue
                arrived: set[int] = set()
                for event in report.switch_events:
                    if event.consumer_type != NICHE:
                        continue
                    if event.to_id == GENERIC_RECOMMENDER:
                        assert event.consumer_id not in arrived, (
                            seed,
                            report.scenario,
                            event,
                        )
                    if event.to_id == NICHE_RECOMMENDER:
                        arrived.add(event.consumer_id)
        print("ACCEPTANCE 5 PASS: no niche returns after arrival; warm-up silent")


class TestCriterion6RecommenderInvariants:
    def test_randomized_serving_invariants(self):
        # >= 1000 randomized store states: specialization containment,
        # no-reconsumption, fallback totality with exactly one tier.
        log, catalog = generate_synthetic(
            SyntheticSpec(consumers=40, items=80, providers=6, niche_fraction=0.1, seed=23)
        )
        horror_pool = catalog.items_with_genre("Horror")
        item_ids = catalog.item_ids  # catalog row r holds item_ids[r]
        all_items = item_ids.tolist()
        rng = random.Random(99)
        cfg = RecommenderConfig("probe", latent_factors=6, epochs=4)
        for case in range(1000):
            specialized = rng.random() < 0.5
            pool = horror_pool if specialized else all_items
            visible = set(rng.sample(all_items, k=rng.randrange(0, 40)))
            candidates = [i for i in pool if i not in visible]
            if rng.random() < 0.6:
                snapshot = {
                    c: [(i, 0) for i in rng.sample(all_items, k=rng.randrange(1, 10))]
                    for c in range(rng.randrange(1, 6))
                }
                model = train(snapshot, cfg, seed=case)
            else:
                model = TrainedModel.empty(6)
            counts = {
                i: rng.randrange(1, 6)
                for i in rng.sample(all_items, k=rng.randrange(0, 15))
            }
            counts_by_row = np.zeros(len(item_ids), dtype=np.int64)
            counts_by_row[np.searchsorted(item_ids, list(counts))] = list(counts.values())
            popular = [i for i in all_items if rng.random() < 0.4]
            tier, rows = serve(
                CatalogModel.align(model, item_ids),
                0,
                np.searchsorted(item_ids, candidates),
                10,
                np.random.default_rng(case),
                lambda: counts_by_row,
                np.searchsorted(item_ids, popular),
            )
            slate = [int(i) for i in item_ids[rows]]
            assert len(slate) == len(set(slate))
            assert set(slate) <= set(candidates)  # no reconsumption
            if specialized:
                h = catalog.genres.index("Horror")
                assert catalog.genre_matrix[rows, h].all()  # containment
            # fallback totality: exactly one tier fired and it is the right one
            if model.knows_consumer(0):
                assert tier is Provenance.MODEL
            elif any(counts.get(i, 0) > 0 for i in candidates):
                assert tier is Provenance.USER_POPULARITY
            else:
                assert tier is Provenance.GLOBAL_POPULAR_FALLBACK
        print("ACCEPTANCE 6a PASS: 1000 randomized serving states verified")

    def test_als_block_toy(self):
        snap = {
            0: [(0, 0), (1, 0)],
            1: [(1, 0), (2, 0)],
            2: [(0, 0), (2, 0)],
            3: [(3, 0)],
            4: [(3, 0), (4, 0)],
        }
        model = train(snap, RecommenderConfig("toy", latent_factors=8), seed=5)
        block = {0: {0, 1, 2}, 1: {0, 1, 2}, 2: {0, 1, 2}, 3: {3, 4}}
        for user, own_block in block.items():
            clicked = {i for i, _ in snap[user]}
            cand = [i for i in range(5) if i not in clicked]
            scores = score(model, user, cand)
            assert cand[int(np.argmax(scores))] in own_block
        print("ACCEPTANCE 6b PASS: ALS block-diagonal sanity holds")


ML1M_DIR = os.environ.get("RECMARKET_ML1M_DIR")


@pytest.mark.skipif(
    not ML1M_DIR, reason="informational check; set RECMARKET_ML1M_DIR to run"
)
class TestCriterion7MovieLensInformational:
    """Non-gating reference check against the published numbers.

    Expects ``ratings.dat`` (MovieLens 1M format) plus prepared ``items.csv``
    and ``providers.csv`` in RECMARKET_ML1M_DIR.
    """

    def test_baseline_utilities_near_reference(self):
        from recmarket.dataset import load_catalog, load_ratings

        root = Path(ML1M_DIR)
        log = load_ratings(root / "ratings.dat", fmt="movielens-dat")
        catalog = load_catalog(root / "items.csv", root / "providers.csv")
        configs = standard_suite(seed=1, niche_genre="Horror")
        result = eng.run_experiment_suite(configs, (log, catalog))
        base = result.report("baseline")
        assert abs(base.last_cycle_utility[GENERIC] - 0.413) <= 0.07
        assert abs(base.last_cycle_utility[NICHE] - 0.246) <= 0.07
        best = max(
            result.report(s).last_cycle_utility[NICHE] for s in SWITCHING
        )
        assert best / base.last_cycle_utility[NICHE] > 1.8
