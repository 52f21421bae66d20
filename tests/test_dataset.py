"""Ingestion, preference derivation, classification, synthetic data."""

import codecs
import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import build_preferences_per_record
from recmarket import dataset
from recmarket.dataset import (
    GENERIC,
    NICHE,
    InteractionLog,
    RatingRecord,
    SyntheticSpec,
    build_catalog,
    build_preferences,
    classify_providers,
    generate_synthetic,
    load_catalog,
    load_ratings,
)
from recmarket.errors import DataError

G3 = ("Drama", "Horror", "Romance")


def catalog3(items):
    """items: {item_id: (genre names, provider)}"""
    return build_catalog([(i, gs, p) for i, (gs, p) in items.items()], G3)


class TestLoadRatings:
    def test_movielens_row(self, tmp_path):
        p = tmp_path / "r.dat"
        p.write_text("1::1193::5::978300760\n")
        log = load_ratings(p, fmt="movielens-dat")
        assert log.records == (RatingRecord(1, 1193, 5.0, 978300760),)

    def test_empty_file_errors(self, tmp_path):
        p = tmp_path / "r.dat"
        p.write_text("")
        with pytest.raises(DataError, match="no interactions"):
            load_ratings(p, fmt="movielens-dat")

    def test_malformed_row_names_line(self, tmp_path):
        p = tmp_path / "r.dat"
        p.write_text("1::2::5::10\n1::3::bad::11\n")
        with pytest.raises(DataError, match=r":2:"):
            load_ratings(p, fmt="movielens-dat")

    def test_duplicates_keep_latest_timestamp(self, tmp_path):
        # Oracle: one-pass dedup keeping the max-timestamp record.
        rows = [(1, 7, 2.0, 10), (1, 7, 5.0, 20), (2, 7, 3.0, 5)]

        def oracle(rows):
            best = {}
            for u, i, r, t in rows:
                if (u, i) not in best or t >= best[(u, i)][3]:
                    best[(u, i)] = (u, i, r, t)
            return {k: RatingRecord(*v) for k, v in best.items()}

        for ordering in (rows, rows[::-1]):
            p = tmp_path / "r.dat"
            p.write_text("".join(f"{u}::{i}::{r}::{t}\n" for u, i, r, t in ordering))
            log = load_ratings(p, fmt="movielens-dat")
            assert set(log.records) == set(oracle(rows).values())
        assert oracle(rows)[(1, 7)].rating == 5.0

    def test_csv_format_and_header_check(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("user,item,rating,timestamp\n3,9,4.5,100\n")
        log = load_ratings(p, fmt="csv")
        assert log.records == (RatingRecord(3, 9, 4.5, 100),)
        p.write_text("usr,item,rating,ts\n3,9,4.5,100\n")
        with pytest.raises(DataError, match="header"):
            load_ratings(p, fmt="csv")

    @pytest.mark.parametrize("rating", ["nan", "inf", "0", "-1"])
    def test_csv_rating_must_be_finite_and_positive(self, tmp_path, rating):
        p = tmp_path / "r.csv"
        p.write_text(f"user,item,rating,timestamp\n3,9,{rating},100\n4,9,4.0,101\n")
        with pytest.raises(DataError, match=r"r\.csv:2: rating must be finite and positive"):
            load_ratings(p, fmt="csv")

    def test_equal_timestamps_keep_the_higher_rating(self, tmp_path):
        rows = ["1::7::2::10\n", "1::7::5::10\n"]
        for ordering in (rows, rows[::-1]):
            p = tmp_path / "r.dat"
            p.write_text("".join(ordering))
            assert load_ratings(p).records == (RatingRecord(1, 7, 5.0, 10),)

    def test_csv_without_rows(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("user,item,rating,timestamp\n\n")
        with pytest.raises(DataError, match="no interactions"):
            load_ratings(p, fmt="csv")
        p.write_text("")
        with pytest.raises(DataError, match=r"r\.csv:1: header must be user,item,rating,timestamp"):
            load_ratings(p, fmt="csv")

    def test_ingestion_idempotent(self, tmp_path):
        p = tmp_path / "r.dat"
        p.write_text("1::1::4::1\n2::2::3::2\n1::2::5::3\n")
        assert load_ratings(p) == load_ratings(p)


class TestBuildPreferences:
    def test_single_genre_rater_is_one_hot_niche(self):
        cat = catalog3({1: (["Horror"], "p0"), 2: (["Horror"], "p0")})
        log = InteractionLog((RatingRecord(1, 1, 5.0, 0), RatingRecord(1, 2, 4.0, 1)))
        (seed,) = build_preferences(log, cat, "Horror")
        assert seed.preference_vector == (0.0, 1.0, 0.0)
        assert seed.type_label == NICHE
        assert seed.initial_history == (1, 2)

    def test_three_user_toy_matches_brute_force(self):
        cat = catalog3(
            {
                1: (["Drama"], "p0"),
                2: (["Horror", "Romance"], "p0"),
                3: (["Drama", "Horror", "Romance"], "p0"),
            }
        )
        rows = [
            (10, 1, 4.0, 0),
            (10, 2, 2.0, 1),
            (20, 2, 5.0, 2),
            (20, 3, 3.0, 3),
            (30, 3, 1.0, 4),
        ]
        log = InteractionLog(tuple(RatingRecord(*r) for r in rows))
        seeds = {s.consumer_id: s for s in build_preferences(log, cat, "Horror")}

        # Independent spreadsheet-style recomputation.
        genre_of = {1: ["Drama"], 2: ["Horror", "Romance"], 3: ["Drama", "Horror", "Romance"]}
        for consumer in (10, 20, 30):
            sums = dict.fromkeys(G3, 0.0)
            for u, i, r, _t in rows:
                if u != consumer:
                    continue
                for g in genre_of[i]:
                    sums[g] += r / len(genre_of[i])
            total = sum(sums.values())
            expected = tuple(sums[g] / total for g in G3)
            assert seeds[consumer].preference_vector == pytest.approx(expected, abs=1e-12)

    def test_vectors_are_l1_normalized_and_nonnegative(self):
        data = generate_synthetic(
            SyntheticSpec(consumers=40, items=60, providers=5, niche_fraction=0.1, seed=5)
        )
        seeds = build_preferences(data[0], data[1], "Horror")
        for s in seeds:
            vec = np.array(s.preference_vector)
            assert (vec >= 0).all()
            assert abs(vec.sum() - 1.0) <= 1e-9

    def test_relabel_from_vectors_reproduces_labels(self):
        data = generate_synthetic(
            SyntheticSpec(consumers=40, items=60, providers=5, niche_fraction=0.1, seed=6)
        )
        seeds = build_preferences(data[0], data[1], "Horror")
        h = data[1].genres.index("Horror")
        for s in seeds:
            top = max(s.preference_vector)
            winners = [g for g, v in enumerate(s.preference_vector) if v == top]
            expected = NICHE if winners == [h] else GENERIC
            assert s.type_label == expected

    def test_tie_at_niche_genre_is_generic(self):
        cat = catalog3({1: (["Drama"], "p0"), 2: (["Horror"], "p0")})
        log = InteractionLog((RatingRecord(1, 1, 3.0, 0), RatingRecord(1, 2, 3.0, 1)))
        (seed,) = build_preferences(log, cat, "Horror")
        assert seed.preference_vector[0] == seed.preference_vector[1]
        assert seed.type_label == GENERIC

    def test_unknown_item_errors(self):
        cat = catalog3({1: (["Drama"], "p0")})
        log = InteractionLog((RatingRecord(1, 99, 3.0, 0),))
        with pytest.raises(DataError, match="99"):
            build_preferences(log, cat, "Horror")

    def test_history_threshold_configurable(self):
        cat = catalog3({1: (["Drama"], "p0"), 2: (["Drama"], "p0")})
        log = InteractionLog((RatingRecord(1, 1, 3.0, 0), RatingRecord(1, 2, 4.0, 1)))
        (seed,) = build_preferences(log, cat, "Horror")
        assert seed.initial_history == (2,)
        (seed_low,) = build_preferences(log, cat, "Horror", history_threshold=3.0)
        assert seed_low.initial_history == (1, 2)

    def test_niche_genre_outside_the_taxonomy_labels_generic(self):
        # File data may name a niche genre that its catalog does not use
        cat = catalog3({1: (["Horror"], "p0"), 2: (["Drama"], "p1")})
        log = InteractionLog((RatingRecord(1, 1, 5.0, 0), RatingRecord(2, 2, 5.0, 1)))
        assert {s.type_label for s in build_preferences(log, cat, "Jazz")} == {GENERIC}
        labeled = classify_providers(cat, "Jazz")
        assert {p.type_label for p in labeled.providers.values()} == {GENERIC}


class TestClassifyProviders:
    def test_majority_by_inspection(self):
        cat = catalog3(
            {
                1: (["Horror"], "pN"),
                2: (["Horror"], "pN"),
                3: (["Horror", "Drama"], "pN"),
                4: (["Drama"], "pN"),
            }
        )
        labeled = classify_providers(cat, "Horror")
        assert labeled.providers["pN"].type_label == NICHE

    def test_exactly_half_is_generic_and_order_invariant(self):
        items = {
            1: (["Horror"], "pH"),
            2: (["Drama"], "pH"),
            3: (["Horror"], "pH"),
            4: (["Romance"], "pH"),
        }
        labeled = classify_providers(catalog3(items), "Horror")
        assert labeled.providers["pH"].type_label == GENERIC
        reordered = build_catalog(
            [(i, gs, p) for i, (gs, p) in reversed(list(items.items()))], G3
        )
        assert classify_providers(reordered, "Horror").providers["pH"].type_label == GENERIC

    def test_zero_item_provider_warns_generic(self):
        cat = catalog3({1: (["Horror"], "pN")})
        cat.providers["empty"] = type(cat.providers["pN"])("empty", ())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            labeled = classify_providers(cat, "Horror")
        assert labeled.providers["empty"].type_label == GENERIC
        assert any("no items" in str(w.message) for w in caught)


class TestGenerateSynthetic:
    def test_deterministic_for_fixed_seed(self):
        spec = SyntheticSpec(consumers=30, items=50, providers=5, niche_fraction=0.2, seed=7)
        assert generate_synthetic(spec) == generate_synthetic(spec)

    def test_different_seeds_differ(self):
        a = generate_synthetic(
            SyntheticSpec(consumers=30, items=50, providers=5, niche_fraction=0.2, seed=7)
        )
        b = generate_synthetic(
            SyntheticSpec(consumers=30, items=50, providers=5, niche_fraction=0.2, seed=8)
        )
        assert a != b

    # seed 2104's first draw realizes 27 niche consumers of 25 and is redrawn
    @pytest.mark.parametrize("size,seed", [((500, 300, 20), 1), ((250, 150, 10), 2104)])
    def test_label_fraction_within_one_consumer(self, size, seed):
        consumers, items, providers = size
        spec = SyntheticSpec(consumers, items, providers, niche_fraction=0.1, seed=seed)
        log, cat = generate_synthetic(spec)
        seeds = build_preferences(log, cat, "Horror")
        niche = sum(1 for s in seeds if s.type_label == NICHE)
        assert abs(niche - consumers // 10) <= 1

    def test_drift_is_redrawn_a_bounded_number_of_times(self, monkeypatch):
        calls = []

        def no_niche_consumers(log, catalog, niche_genre):
            calls.append(log)
            return []

        monkeypatch.setattr(dataset, "build_preferences", no_niche_consumers)
        spec = SyntheticSpec(consumers=30, items=50, providers=5, niche_fraction=0.2, seed=7)
        with pytest.raises(DataError, match="designated 6 niche consumers, realized 0"):
            generate_synthetic(spec)
        assert len(calls) == dataset._GENERATION_ATTEMPTS
        assert len(set(calls)) == len(calls)  # every attempt drew anew

    def test_at_least_one_niche_provider(self):
        log, cat = generate_synthetic(
            SyntheticSpec(consumers=30, items=50, providers=5, niche_fraction=0.2, seed=2)
        )
        labeled = classify_providers(cat, "Horror")
        assert any(p.type_label == NICHE for p in labeled.providers.values())

    def test_niche_genre_outside_the_taxonomy_errors(self):
        spec = SyntheticSpec(
            consumers=10, items=12, providers=2, niche_fraction=0.5, seed=3, niche_genre="Jazz"
        )
        with pytest.raises(DataError, match=r"niche_genre 'Jazz'.*Action, Comedy"):
            generate_synthetic(spec)

    def test_infeasible_population_errors(self):
        with pytest.raises(DataError, match="infeasible"):
            generate_synthetic(
                SyntheticSpec(consumers=1, items=10, providers=2, niche_fraction=0.5, seed=0)
            )

    def test_invalid_fraction_errors(self):
        with pytest.raises(DataError):
            SyntheticSpec(consumers=10, items=10, providers=2, niche_fraction=1.5, seed=0).validate()

    def test_single_provider_errors(self):
        with pytest.raises(DataError, match="providers"):
            generate_synthetic(
                SyntheticSpec(consumers=20, items=40, providers=1, niche_fraction=0.2, seed=0)
            )


def synthetic_digests(consumers, items, providers, seed):
    """sha256 of the generated log's records and of its catalog's tables."""
    log, cat = generate_synthetic(SyntheticSpec(consumers, items, providers, seed=seed))
    records = [tuple(r) for r in log.records]
    tables = (
        cat.genres,
        [(i, rec.genre_vector, rec.provider_id) for i, rec in sorted(cat.items.items())],
        [(p, rec.item_ids) for p, rec in sorted(cat.providers.items())],
    )
    return tuple(hashlib.sha256(repr(x).encode()).hexdigest() for x in (records, tables))


class TestSyntheticStream:
    """``generate_synthetic`` keeps its random stream. The digests were
    recorded by ``synthetic_digests`` on f492c2b, before the draw became
    array-native; this command prints them:

        PYTHONPATH=src:tests python -c "from test_dataset import synthetic_digests as d; \\
            print(d(250, 150, 10, 3), d(500, 300, 20, 3), d(250, 150, 10, 2104))"

    ``repr`` tells a numpy scalar from a Python one, so a record field that
    changes type changes its digest too. Seed 2104 takes the redraw path.
    """

    @pytest.mark.parametrize(
        "shape, digests",
        [
            (
                (250, 150, 10, 3),
                (
                    "71e71c72df56f43f61866d52cbb2140952217a6608335f1a132c3b222fa49886",
                    "4b92615956eb74732072b74cff56dd763ab22a9af3c061e9ce8feafe5ce8bf0f",
                ),
            ),
            (
                (500, 300, 20, 3),
                (
                    "4b789a3b07f32d18a4a08c3dcf2d084f04500e3fa4ab9ed6d64563804f1f6c07",
                    "7e89a806b13b64e273cb3076c2bd072d97ae536f5c1c2d3dbd1e7f79d6cb50f8",
                ),
            ),
            (
                (250, 150, 10, 2104),
                (
                    "644a6b751159722161d86f7fb398f91003fefdf8b9f043268da896046a544084",
                    "8c64846010223c90ee5c7b64b0e59e058b6299625db47cc4b79ecda97c86ffd6",
                ),
            ),
        ],
    )
    def test_log_and_catalog_digests(self, shape, digests):
        assert synthetic_digests(*shape) == digests


class TestLoadCatalog:
    def test_round_trip_through_files(self, tmp_path):
        spec = SyntheticSpec(consumers=20, items=40, providers=4, niche_fraction=0.2, seed=9)
        log, cat = generate_synthetic(spec)
        items_lines = ["item,title,genres"]
        prov_lines = ["item,provider"]
        for i in sorted(cat.items):
            rec = cat.items[i]
            genres = "|".join(g for g, b in zip(cat.genres, rec.genre_vector) if b)
            items_lines.append(f"{i},title {i},{genres}")
            prov_lines.append(f"{i},{rec.provider_id}")
        (tmp_path / "items.csv").write_text("\n".join(items_lines) + "\n")
        (tmp_path / "providers.csv").write_text("\n".join(prov_lines) + "\n")
        loaded = load_catalog(tmp_path / "items.csv", tmp_path / "providers.csv")
        assert loaded == cat

    def test_missing_provider_mapping_errors(self, tmp_path):
        (tmp_path / "items.csv").write_text("item,title,genres\n1,x,Drama\n")
        (tmp_path / "providers.csv").write_text("item,provider\n")
        with pytest.raises(DataError, match="provider map"):
            load_catalog(tmp_path / "items.csv", tmp_path / "providers.csv")

    @pytest.mark.parametrize("repeated", ["items", "providers"])
    def test_repeated_item_id_names_the_line(self, tmp_path, repeated):
        items = ["item,title,genres", "1,a,Drama", "2,c,Drama"]
        providers = ["item,provider", "1,p1", "2,p1"]
        if repeated == "items":
            items.append("1,b,Horror")
        else:
            providers.append("1,p2")
        (tmp_path / "items.csv").write_text("\n".join(items) + "\n")
        (tmp_path / "providers.csv").write_text("\n".join(providers) + "\n")
        with pytest.raises(DataError, match=rf"{repeated}\.csv:4: item 1 repeats"):
            load_catalog(tmp_path / "items.csv", tmp_path / "providers.csv")


# Few ids and timestamps, so that rows repeat (user, item) pairs at equal
# timestamps; each list also gets one such repeat at another rating.
RATING_ROWS = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(1, 5), st.integers(0, 2)),
    min_size=1,
    max_size=25,
).map(lambda rows: rows + [(*rows[0][:2], rows[0][2] % 5 + 1, rows[0][3])])
CATALOG_ROWS = st.lists(
    st.tuples(
        st.integers(0, 50),
        st.lists(st.sampled_from(G3), min_size=1, max_size=3, unique=True),
        st.sampled_from(["p0", "p1", "p2"]),
    ),
    min_size=1,
    max_size=15,
    unique_by=lambda row: row[0],
)
FILES = settings(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None)


def written_log(path, rows, fmt):
    if fmt == "csv":
        lines = ["user,item,rating,timestamp"] + [",".join(map(str, row)) for row in rows]
    else:
        lines = ["::".join(map(str, row)) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return load_ratings(path, fmt=fmt)


def written_catalog(tmp_path, item_rows, provider_rows):
    items = ["item,title,genres"] + [f"{i},t{i},{'|'.join(gs)}" for i, gs, _p in item_rows]
    providers = ["item,provider"] + [f"{i},{p}" for i, _gs, p in provider_rows]
    (tmp_path / "items.csv").write_text("\n".join(items) + "\n")
    (tmp_path / "providers.csv").write_text("\n".join(providers) + "\n")
    return load_catalog(tmp_path / "items.csv", tmp_path / "providers.csv")


class TestFileMetamorphic:
    @FILES
    @given(rows=RATING_ROWS, data=st.data())
    def test_ratings_row_order_is_irrelevant(self, tmp_path, rows, data):
        shuffled = data.draw(st.permutations(rows))
        path = tmp_path / "r.csv"
        assert written_log(path, shuffled, "csv") == written_log(path, rows, "csv")

    @FILES
    @given(rows=RATING_ROWS)
    def test_dat_and_csv_load_alike(self, tmp_path, rows):
        dat = written_log(tmp_path / "r.dat", rows, "movielens-dat")
        assert written_log(tmp_path / "r.csv", rows, "csv") == dat

    @FILES
    @given(rows=CATALOG_ROWS, data=st.data())
    def test_catalog_row_order_is_irrelevant(self, tmp_path, rows, data):
        expected = written_catalog(tmp_path, rows, rows)
        items, providers = data.draw(st.permutations(rows)), data.draw(st.permutations(rows))
        assert written_catalog(tmp_path, items, providers) == expected


def assert_same_seeds(seeds, expected):
    """Equal consumers, labels and histories, preference vectors equal to
    the bit, and every field of the same Python type."""
    assert [(s.consumer_id, s.type_label, s.initial_history) for s in seeds] == [
        (s.consumer_id, s.type_label, s.initial_history) for s in expected
    ]
    vectors = np.array([s.preference_vector for s in seeds])
    assert vectors.tobytes() == np.array([s.preference_vector for s in expected]).tobytes()
    assert repr(seeds) == repr(expected)


def warned(build, *args, **kwargs):
    """``build``'s result and the (message, category, file) of its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = build(*args, **kwargs)
    return result, [(str(w.message), w.category, w.filename) for w in caught]


# More genres than a numpy pairwise sum adds one by one (8), and a niche genre
# that may be outside the taxonomy
WIDE = tuple(f"g{k:02d}" for k in range(12))
WIDE_LOG_ROWS = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 15), st.integers(1, 5), st.integers(0, 9)),
    min_size=1,
    max_size=60,
)
WIDE_ITEM_GENRES = st.lists(
    st.lists(st.sampled_from(WIDE), min_size=1, max_size=len(WIDE), unique=True),
    min_size=16,
    max_size=16,
)


class TestPreferencesMatchPerRecord:
    """The array pass of ``build_preferences`` against the per-record loop
    of ``helpers.build_preferences_per_record``."""

    @pytest.mark.parametrize(
        "size,seed",
        [((500, 300, 20), 3), ((500, 300, 20), 11), ((500, 300, 20), 42), ((250, 150, 10), 2104)],
    )
    def test_synthetic_data(self, size, seed):
        log, cat = generate_synthetic(SyntheticSpec(*size, niche_fraction=0.1, seed=seed))
        for threshold in (4.0, 3.0):
            assert_same_seeds(
                build_preferences(log, cat, "Horror", history_threshold=threshold),
                build_preferences_per_record(log, cat, "Horror", history_threshold=threshold),
            )

    @FILES
    @given(rows=WIDE_LOG_ROWS, item_genres=WIDE_ITEM_GENRES, data=st.data())
    def test_file_logs_in_any_record_order(self, tmp_path, rows, item_genres, data):
        log = written_log(tmp_path / "r.csv", data.draw(st.permutations(rows)), "csv")
        # The loader sorts records; sums follow record order, so shuffle them
        log = InteractionLog(tuple(data.draw(st.permutations(log.records))))
        cat = build_catalog([(i, gs, "p0") for i, gs in enumerate(item_genres)], WIDE)
        niche = data.draw(st.sampled_from(WIDE + ("Jazz",)))
        threshold = data.draw(st.sampled_from([1.0, 3.0, 3.5, 5.0]))
        assert_same_seeds(
            build_preferences(log, cat, niche, history_threshold=threshold),
            build_preferences_per_record(log, cat, niche, history_threshold=threshold),
        )

    def test_niche_tie_stays_generic(self):
        cat = catalog3({1: (["Drama"], "p0"), 2: (["Horror"], "p0"), 3: (["Horror"], "p0")})
        rows = [(1, 1, 3.0, 0), (1, 2, 3.0, 1), (2, 1, 2.0, 2), (2, 2, 1.0, 3), (2, 3, 1.0, 4)]
        log = InteractionLog(tuple(RatingRecord(*r) for r in rows))
        seeds = build_preferences(log, cat, "Horror")
        assert [s.type_label for s in seeds] == [GENERIC, GENERIC]
        assert_same_seeds(seeds, build_preferences_per_record(log, cat, "Horror"))

    def test_skipped_consumers_warn_alike(self):
        cat = catalog3({1: (["Drama"], "p0"), 2: (["Horror", "Drama"], "p0")})
        rows = [(1, 1, 0.0, 0), (2, 2, 4.0, 1), (3, 2, 0.0, 2), (3, 1, 0.0, 3), (4, 1, -1.0, 4)]
        log = InteractionLog(tuple(RatingRecord(*r) for r in rows))
        seeds, warnings_seen = warned(build_preferences, log, cat, "Horror")
        expected, expected_warnings = warned(build_preferences_per_record, log, cat, "Horror")
        assert_same_seeds(seeds, expected)
        assert [s.consumer_id for s in seeds] == [2]
        assert warnings_seen == expected_warnings
        assert warnings_seen[0][0] == "excluded 3 consumers with no usable ratings"

    def test_first_unknown_item_in_record_order_is_named(self):
        cat = catalog3({1: (["Drama"], "p0")})
        rows = [(2, 1, 3.0, 0), (2, 98, 3.0, 1), (1, 97, 3.0, 2)]
        log = InteractionLog(tuple(RatingRecord(*r) for r in rows))
        for build in (build_preferences, build_preferences_per_record):
            with pytest.raises(DataError, match="rated item 98 not in catalog"):
                build(log, cat, "Horror")


def with_bom(path):
    """A copy of ``path`` beside it that starts with a UTF-8 byte-order mark."""
    copy = path.with_name(f"bom_{path.name}")
    copy.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    return copy


class TestByteOrderMark:
    @pytest.mark.parametrize("fmt, name", [("csv", "r.csv"), ("movielens-dat", "r.dat")])
    def test_ratings_load_alike(self, tmp_path, fmt, name):
        log = written_log(tmp_path / name, [(1, 10, 4, 5), (2, 11, 3, 6)], fmt)
        assert load_ratings(with_bom(tmp_path / name), fmt=fmt) == log

    @pytest.mark.parametrize("marked", ["items.csv", "providers.csv"])
    def test_catalog_loads_alike(self, tmp_path, marked):
        rows = [(1, ["Drama"], "p0"), (2, ["Horror", "Drama"], "p1")]
        catalog = written_catalog(tmp_path, rows, rows)
        files = {name: tmp_path / name for name in ("items.csv", "providers.csv")}
        files[marked] = with_bom(files[marked])
        assert load_catalog(files["items.csv"], files["providers.csv"]) == catalog
