"""Training, serving tiers, and the popularity list."""

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import ServingContext, rating_log, recommend, score, serve_ids, train_per_row
from recmarket import recommender
from recmarket.errors import ConfigError, TrainingError
from recmarket.recommender import (
    CatalogModel,
    Provenance,
    RecommenderConfig,
    TrainedModel,
    popular_list,
    train,
)

CFG = RecommenderConfig("r", latent_factors=8, epochs=10)


def manual_model(user_vecs, item_vecs):
    users = sorted(user_vecs)
    items = sorted(item_vecs)
    return TrainedModel(
        user_index={u: k for k, u in enumerate(users)},
        item_index={i: k for k, i in enumerate(items)},
        user_factors=np.array([user_vecs[u] for u in users], dtype=float),
        item_factors=np.array([item_vecs[i] for i in items], dtype=float),
    )


class TestTrain:
    def test_clicked_item_outranks_unclicked(self):
        model = train({0: [(1, 0)]}, CFG, seed=3)
        score_a, score_b = score(model, 0, [1, 2])
        assert score_a > score_b  # item 2 never observed, scores 0

    def test_empty_snapshot_returns_empty_model(self):
        model = train({}, CFG, seed=0)
        assert not model.user_index and not model.item_index
        ctx = ServingContext(global_popular=[5, 6, 7])
        slate = serve_ids(0, model, [5, 6, 7], 2, np.random.default_rng(0), ctx, "r")
        assert slate.provenance is Provenance.GLOBAL_POPULAR_FALLBACK
        assert set(slate.item_ids) <= {5, 6, 7} and len(slate.item_ids) == 2

    def test_deterministic_for_seed_and_snapshot(self):
        snap = {0: [(1, 0), (2, 1)], 1: [(2, 2)]}
        a = train(snap, CFG, seed=11)
        b = train(snap, CFG, seed=11)
        assert np.array_equal(a.user_factors, b.user_factors)
        assert np.array_equal(a.item_factors, b.item_factors)
        c = train(snap, CFG, seed=12)
        assert not np.array_equal(a.user_factors, c.user_factors)

    def test_block_structure_recovered(self):
        # Two co-click blocks; each user's best unclicked item (where one
        # exists in their block) must come from their own block.
        snap = {
            0: [(0, 0), (1, 0)],
            1: [(1, 0), (2, 0)],
            2: [(0, 0), (2, 0)],
            3: [(3, 0)],
            4: [(3, 0), (4, 0)],
        }
        model = train(snap, CFG, seed=5)
        block = {0: {0, 1, 2}, 1: {0, 1, 2}, 2: {0, 1, 2}, 3: {3, 4}, 4: {3, 4}}
        for user in (0, 1, 2, 3):
            clicked = {i for i, _ in snap[user]}
            cand = [i for i in range(5) if i not in clicked]
            scores = score(model, user, cand)
            best = cand[int(np.argmax(scores))]
            assert best in block[user], (user, dict(zip(cand, scores)))

    def test_factors_finite_and_shaped(self):
        snap = {u: [(i, 0) for i in range(u + 1)] for u in range(6)}
        model = train(snap, CFG, seed=2)
        assert model.user_factors.shape == (6, 8)
        assert np.isfinite(model.user_factors).all()
        assert np.isfinite(model.item_factors).all()

    def test_factor_arrays_are_read_only(self):
        # A suite hands one trained model to several scenarios.
        for model in (train({0: [(1, 0)]}, CFG, seed=3), train({}, CFG, seed=0)):
            for factors in (model.user_factors, model.item_factors):
                with pytest.raises(ValueError, match="read-only"):
                    factors[...] = 0.0

    def test_dump_writes_rows(self, tmp_path):
        model = train({0: [(1, 0)]}, CFG, seed=3)
        path = tmp_path / "m.txt"
        model.dump(path)
        text = path.read_text()
        assert "# user factors" in text and "# item factors" in text


def random_snapshot(rng, consumers, items, max_clicks):
    """Consumer ids with gaps, some empty profiles and repeated clicks."""
    snap = {}
    for c in range(consumers):
        k = int(rng.integers(0, max_clicks + 1))
        snap[3 * c + 1] = tuple(
            (int(rng.integers(0, items)) * 2, int(rng.integers(0, 10))) for _ in range(k)
        )
    return snap


def assert_matches_per_row(snap, config, seed):
    got = train(snap, config, seed, trained_at_cycle=4)
    want = train_per_row(snap, config, seed, trained_at_cycle=4)
    assert got.user_index == want.user_index
    assert got.item_index == want.item_index
    assert got.user_factors.tobytes() == want.user_factors.tobytes()
    assert got.item_factors.tobytes() == want.item_factors.tobytes()
    assert got.trained_at_cycle == 4


class TestTrainMatchesPerRowOracle:
    """The stacked solves must give the per-row loop's factors bit for bit."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_snapshots(self, seed):
        rng = np.random.default_rng(seed)
        snap = random_snapshot(rng, consumers=60, items=40, max_clicks=12)
        config = RecommenderConfig("r", latent_factors=int(rng.integers(2, 20)), epochs=3)
        assert_matches_per_row(snap, config, seed)

    def test_duplicate_clicks_on_one_item(self):
        snap = {0: [(5, 0), (5, 1), (5, 2), (7, 3)], 1: [(7, 0), (7, 1)], 2: [(5, 4)]}
        assert_matches_per_row(snap, CFG, seed=3)

    def test_single_observation_rows(self):
        # every user and every item has exactly one observation
        snap = {c: [(100 + c, 0)] for c in range(40)}
        assert_matches_per_row(snap, CFG, seed=4)

    def test_count_group_larger_than_one_chunk(self):
        d, count, users = 32, 3, 100
        assert users > recommender._CHUNK_FLOATS // (d * (d + count))
        rng = np.random.default_rng(9)
        snap = {
            c: [(int(i), 0) for i in rng.choice(50, size=count, replace=False)]
            for c in range(users)
        }
        assert_matches_per_row(snap, RecommenderConfig("r", latent_factors=d, epochs=2), seed=9)

    @pytest.mark.parametrize("latent_factors", [1, 64])
    def test_extreme_latent_factors(self, latent_factors):
        rng = np.random.default_rng(latent_factors)
        snap = random_snapshot(rng, consumers=50, items=30, max_clicks=20)
        config = RecommenderConfig("r", latent_factors=latent_factors, epochs=2)
        assert_matches_per_row(snap, config, seed=1)

    def test_infinite_confidence_weight_raises(self):
        snap = {0: [(1, 0), (2, 0)], 1: [(2, 1)]}
        config = RecommenderConfig("r", latent_factors=4, confidence_weight=float("inf"))
        with pytest.raises(TrainingError, match="non-finite"):
            train(snap, config, seed=0)


class TestPopularList:
    def test_count_sort_with_id_tiebreak(self):
        pairs = [(1, 1), (2, 1), (3, 1), (1, 2), (1, 3), (2, 3), (3, 3)]
        log = rating_log([(u, i, 1.0, t) for t, (u, i) in enumerate(pairs)])
        assert popular_list(log, 2) == [1, 3]

    def test_truncation_noop_when_k_large(self):
        log = rating_log([(1, 5, 1.0, 0), (2, 9, 1.0, 1)])
        assert popular_list(log, 10) == [5, 9]

    def test_counting_oracle_on_random_log(self):
        rng = random.Random(0)
        rows = []
        t = 0
        for u in range(30):
            for i in rng.sample(range(40), k=rng.randint(1, 12)):
                rows.append((u, i, 1.0, t))
                t += 1
        log = rating_log(rows)
        from collections import Counter

        counts = Counter(i for _u, i, _r, _t in rows)
        expected = sorted(counts, key=lambda i: (-counts[i], i))[:15]
        assert popular_list(log, 15) == expected

    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 9), st.integers(-3, 12)), min_size=1, max_size=80, unique=True
        ),
        k=st.integers(-1, 40),
        extra=st.integers(0, 40),
    )
    def test_each_ranking_is_a_prefix_of_a_longer_one(self, pairs, k, extra):
        # Few items, each rated by many consumers, so that counts tie often
        log = rating_log([(u, i, 1.0, t) for t, (u, i) in enumerate(pairs)])
        ranking = popular_list(log, k + extra)
        assert popular_list(log, k) == ranking[: max(k, 0)]
        assert all(type(item) is int for item in ranking)
        counts = {i: sum(1 for _u, j in pairs if j == i) for _u, i in pairs}
        assert ranking == sorted(counts, key=lambda i: (-counts[i], i))[: max(k + extra, 0)]


class TestRecommendTiers:
    def test_model_tier_tiebreak_by_id(self):
        model = manual_model({0: [1.0]}, {1: [0.9], 2: [0.5], 3: [0.5]})
        slate = serve_ids(0, model, [1, 2, 3], 2, np.random.default_rng(0), ServingContext(), "r")
        assert slate.provenance is Provenance.MODEL
        assert slate.item_ids == (1, 2)

    def test_unknown_candidates_score_zero(self):
        model = manual_model({0: [1.0]}, {1: [-0.5]})
        slate = serve_ids(0, model, [1, 99], 1, np.random.default_rng(0), ServingContext(), "r")
        assert slate.item_ids == (99,)  # 0 beats the negative known score

    def test_subscriber_popularity_tier(self):
        model = manual_model({5: [1.0]}, {1: [1.0]})  # consumer 0 unknown
        ctx = ServingContext(subscriber_counts={2: 4, 3: 9, 4: 1}, global_popular=[9])
        slate = serve_ids(0, model, [2, 3, 7], 2, np.random.default_rng(0), ctx, "r")
        assert slate.provenance is Provenance.USER_POPULARITY
        assert slate.item_ids == (3, 2)

    def test_popularity_tier_pads_with_zero_count_candidates(self):
        model = TrainedModel.empty(4)
        ctx = ServingContext(subscriber_counts={2: 1}, global_popular=[])
        slate = serve_ids(0, model, [2, 5, 6], 3, np.random.default_rng(0), ctx, "r")
        assert slate.provenance is Provenance.USER_POPULARITY
        assert slate.item_ids == (2, 5, 6)

    def test_global_fallback_tier_samples_seeded(self):
        model = TrainedModel.empty(4)
        ctx = ServingContext(subscriber_counts={}, global_popular=list(range(100)))
        a = serve_ids(0, model, list(range(50)), 5, np.random.default_rng(42), ctx, "r")
        b = serve_ids(0, model, list(range(50)), 5, np.random.default_rng(42), ctx, "r")
        assert a == b
        assert a.provenance is Provenance.GLOBAL_POPULAR_FALLBACK
        assert len(a.item_ids) == 5
        assert set(a.item_ids) <= set(range(50))

    def test_global_fallback_restricted_to_candidates(self):
        model = TrainedModel.empty(4)
        ctx = ServingContext(global_popular=[1, 2, 3, 4])
        slate = serve_ids(0, model, [3, 4, 9], 10, np.random.default_rng(0), ctx, "r")
        assert slate.item_ids == (3, 4)

    def test_short_and_empty_slates(self):
        model = manual_model({0: [1.0]}, {1: [0.9]})
        short = serve_ids(0, model, [1], 5, np.random.default_rng(0), ServingContext(), "r")
        assert short.item_ids == (1,)
        empty = serve_ids(0, model, [], 5, np.random.default_rng(0), ServingContext(), "r")
        assert empty.item_ids == ()

    def test_no_candidates_never_take_the_days_counts(self):
        # The engine's counts callback flushes the day's queue and caches the
        # counts, so calling it for an empty candidate set would change bytes
        def counts():
            raise AssertionError("subscriber counts taken")

        model = CatalogModel.align(manual_model({0: [1.0]}, {1: [0.9]}), np.array([1, 2]))
        none = np.array([], dtype=np.intp)
        for consumer, tier in ((0, Provenance.MODEL), (5, Provenance.GLOBAL_POPULAR_FALLBACK)):
            rng = np.random.default_rng(0)
            got = recommender.serve(model, consumer, none, 3, rng, counts, np.array([1, 0]))
            assert got[0] is tier
            assert got[1].size == 0
            assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    def test_exactly_one_tier_fires_randomized(self):
        # Fallback totality over randomized store states.
        rng = random.Random(7)
        for case in range(200):
            known = rng.random() < 0.5
            model = (
                manual_model({0: [1.0, 0.0]}, {i: [rng.random(), rng.random()] for i in range(8)})
                if known
                else TrainedModel.empty(2)
            )
            counts = (
                {i: rng.randint(1, 5) for i in rng.sample(range(12), k=rng.randint(0, 6))}
                if rng.random() < 0.7
                else {}
            )
            popular = rng.sample(range(12), k=rng.randint(0, 12))
            cands = rng.sample(range(12), k=rng.randint(0, 10))
            ctx = ServingContext(subscriber_counts=counts, global_popular=popular)
            slate = serve_ids(0, model, cands, 4, np.random.default_rng(case), ctx, "r")
            assert slate == recommend(0, model, cands, 4, np.random.default_rng(case), ctx, "r")
            assert len(slate.item_ids) <= 4
            assert len(set(slate.item_ids)) == len(slate.item_ids)
            assert set(slate.item_ids) <= set(cands)
            if known:
                assert slate.provenance is Provenance.MODEL
            elif any(counts.get(c, 0) > 0 for c in cands):
                assert slate.provenance is Provenance.USER_POPULARITY
            else:
                assert slate.provenance is Provenance.GLOBAL_POPULAR_FALLBACK


class TestCatalogModel:
    def test_align_lays_factors_out_by_catalog_row(self):
        model = manual_model({0: [1.0, 2.0]}, {1: [1.0, 0.0], 5: [0.0, 1.0], 9: [3.0, 3.0]})
        aligned = CatalogModel.align(model, np.array([1, 2, 5]))
        # item 2 was never trained on; item 9 is not in the catalog
        assert aligned.item_factors.tolist() == [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]
        assert aligned.user_vector(0).tolist() == [1.0, 2.0]
        assert aligned.user_vector(7) is None


class TestConfigValidation:
    def test_latent_factors_bound(self):
        with pytest.raises(ConfigError):
            RecommenderConfig("r", latent_factors=0).validate()

    def test_defaults_are_valid(self):
        RecommenderConfig("r").validate()

    @pytest.mark.parametrize("field", ["regularization", "confidence_weight"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_non_finite_or_negative_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            RecommenderConfig("r", **{field: value}).validate()
