"""Ingestion, preference derivation, classification, synthetic data."""

import codecs
import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import (
    build_preferences_per_record,
    catalog_tables,
    consumer_rows,
    log_rows,
    rating_log,
)
from recmarket import dataset
from recmarket.dataset import (
    GENERIC,
    NICHE,
    Consumers,
    SyntheticSpec,
    build_catalog,
    build_log,
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
        assert log_rows(log) == [(1, 1193, 5.0, 978300760)]

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
            return best

        for ordering in (rows, rows[::-1]):
            p = tmp_path / "r.dat"
            p.write_text("".join(f"{u}::{i}::{r}::{t}\n" for u, i, r, t in ordering))
            log = load_ratings(p, fmt="movielens-dat")
            assert set(log_rows(log)) == set(oracle(rows).values())
        assert oracle(rows)[(1, 7)][2] == 5.0

    def test_csv_format_and_header_check(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("user,item,rating,timestamp\n3,9,4.5,100\n")
        log = load_ratings(p, fmt="csv")
        assert log_rows(log) == [(3, 9, 4.5, 100)]
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
            assert log_rows(load_ratings(p)) == [(1, 7, 5.0, 10)]

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
        log = rating_log([(1, 1, 5.0, 0), (1, 2, 4.0, 1)])
        (seed,) = consumer_rows(build_preferences(log, cat, "Horror"))
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
        log = rating_log(rows)
        seeds = {s.consumer_id: s for s in consumer_rows(build_preferences(log, cat, "Horror"))}

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
        seeds = consumer_rows(build_preferences(data[0], data[1], "Horror"))
        for s in seeds:
            vec = np.array(s.preference_vector)
            assert (vec >= 0).all()
            assert abs(vec.sum() - 1.0) <= 1e-9

    def test_relabel_from_vectors_reproduces_labels(self):
        data = generate_synthetic(
            SyntheticSpec(consumers=40, items=60, providers=5, niche_fraction=0.1, seed=6)
        )
        seeds = consumer_rows(build_preferences(data[0], data[1], "Horror"))
        h = data[1].genres.index("Horror")
        for s in seeds:
            top = max(s.preference_vector)
            winners = [g for g, v in enumerate(s.preference_vector) if v == top]
            expected = NICHE if winners == [h] else GENERIC
            assert s.type_label == expected

    def test_tie_at_niche_genre_is_generic(self):
        cat = catalog3({1: (["Drama"], "p0"), 2: (["Horror"], "p0")})
        log = rating_log([(1, 1, 3.0, 0), (1, 2, 3.0, 1)])
        (seed,) = consumer_rows(build_preferences(log, cat, "Horror"))
        assert seed.preference_vector[0] == seed.preference_vector[1]
        assert seed.type_label == GENERIC

    def test_unknown_item_errors(self):
        cat = catalog3({1: (["Drama"], "p0")})
        log = rating_log([(1, 99, 3.0, 0)])
        with pytest.raises(DataError, match="99"):
            build_preferences(log, cat, "Horror")

    def test_history_threshold_configurable(self):
        cat = catalog3({1: (["Drama"], "p0"), 2: (["Drama"], "p0")})
        log = rating_log([(1, 1, 3.0, 0), (1, 2, 4.0, 1)])
        (seed,) = consumer_rows(build_preferences(log, cat, "Horror"))
        assert seed.initial_history == (2,)
        (seed_low,) = consumer_rows(build_preferences(log, cat, "Horror", history_threshold=3.0))
        assert seed_low.initial_history == (1, 2)

    def test_niche_genre_outside_the_taxonomy_labels_generic(self):
        # File data may name a niche genre that its catalog does not use
        cat = catalog3({1: (["Horror"], "p0"), 2: (["Drama"], "p1")})
        log = rating_log([(1, 1, 5.0, 0), (2, 2, 5.0, 1)])
        assert set(build_preferences(log, cat, "Jazz").type_labels) == {GENERIC}
        assert classify_providers(cat, "Jazz") == {"p0": GENERIC, "p1": GENERIC}

    @pytest.mark.parametrize("column", ["consumer_ids", "preferences"])
    def test_columns_are_read_only(self, column):
        # One consumer table is shared by every branch of a suite
        cat = catalog3({1: (["Horror"], "p0"), 2: (["Drama"], "p1")})
        log = rating_log([(1, 1, 5.0, 0), (2, 2, 5.0, 1)])
        array = getattr(build_preferences(log, cat, "Horror"), column)
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0

    def test_rows_are_consumers_in_id_order(self):
        cat = catalog3({1: (["Horror"], "p0"), 2: (["Drama"], "p1")})
        log = rating_log([(9, 2, 5.0, 0), (3, 1, 4.0, 1), (5, 2, 3.0, 2)])
        consumers = build_preferences(log, cat, "Horror")
        assert consumers.consumer_ids.tolist() == [3, 5, 9]
        assert consumers.consumer_ids.dtype == np.int64
        assert consumers.preferences.dtype == np.float64
        assert consumers.type_labels == (NICHE, GENERIC, GENERIC)
        assert consumers.histories == ((1,), (), (2,))
        assert len(consumers) == 3


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
        assert classify_providers(cat, "Horror") == {"pN": NICHE}

    def test_exactly_half_is_generic_and_order_invariant(self):
        items = {
            1: (["Horror"], "pH"),
            2: (["Drama"], "pH"),
            3: (["Horror"], "pH"),
            4: (["Romance"], "pH"),
        }
        assert classify_providers(catalog3(items), "Horror") == {"pH": GENERIC}
        reordered = build_catalog(
            [(i, gs, p) for i, (gs, p) in reversed(list(items.items()))], G3
        )
        assert classify_providers(reordered, "Horror") == {"pH": GENERIC}

    def test_every_provider_is_labelled_in_id_order(self):
        cat = catalog3({5: (["Drama"], "pb"), 3: (["Horror"], "pc"), 1: (["Drama"], "pa")})
        labels = classify_providers(cat, "Horror")
        assert list(labels.items()) == [("pa", GENERIC), ("pb", GENERIC), ("pc", NICHE)]


class TestBuildCatalog:
    def test_rows_are_items_in_id_order(self):
        cat = catalog3({7: (["Romance"], "p1"), 2: (["Drama", "Horror"], "p0")})
        assert cat.item_ids.tolist() == [2, 7]
        assert cat.item_ids.dtype == np.int64
        assert cat.genre_matrix.tolist() == [[True, True, False], [False, False, True]]
        assert cat.provider_ids == ("p0", "p1")
        assert cat.items_with_genre("Horror") == [2]

    def test_genre_outside_the_taxonomy_names_the_item(self):
        with pytest.raises(DataError, match="item 1: genre 'Jazz' is not in the taxonomy"):
            build_catalog([(1, ["Jazz"], "p0")], ("Drama",))

    def test_repeated_item_id_errors(self):
        rows = [(1, ["Horror"], "p0"), (2, ["Drama"], "p0"), (1, ["Drama"], "p1")]
        with pytest.raises(DataError, match="item 1 appears in more than one catalog row"):
            build_catalog(rows, G3)

    def test_item_id_outside_64_bits_names_it(self):
        with pytest.raises(DataError, match="item 9223372036854775808 out of range for int64"):
            build_catalog([(2**63, ["Drama"], "p0")], G3)

    @pytest.mark.parametrize("column", ["item_ids", "genre_matrix"])
    def test_columns_are_read_only(self, column):
        # One catalog is shared by every branch of a suite
        array = getattr(catalog3({1: (["Drama"], "p0"), 2: (["Horror"], "p1")}), column)
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


class TestGenerateSynthetic:
    def test_deterministic_for_fixed_seed(self):
        spec = SyntheticSpec(consumers=30, items=50, providers=5, niche_fraction=0.2, seed=7)
        (log_a, cat_a), (log_b, cat_b) = generate_synthetic(spec), generate_synthetic(spec)
        assert log_a == log_b
        assert cat_a == cat_b

    def test_different_seeds_differ(self):
        a = generate_synthetic(
            SyntheticSpec(consumers=30, items=50, providers=5, niche_fraction=0.2, seed=7)
        )
        b = generate_synthetic(
            SyntheticSpec(consumers=30, items=50, providers=5, niche_fraction=0.2, seed=8)
        )
        assert a != b

    def test_tables_compare_by_value(self):
        # Each table compares its array columns by value, not as a tuple of
        # arrays, whose truth value is ambiguous
        (log, cat), (same_log, same_cat) = (
            generate_synthetic(SyntheticSpec(30, 40, 4, seed=3)) for _ in range(2)
        )
        other_log, other_cat = generate_synthetic(SyntheticSpec(30, 40, 4, seed=4))
        consumers = build_preferences(log, cat, "Horror")
        assert cat == same_cat and cat != other_cat
        assert consumers == build_preferences(same_log, same_cat, "Horror")
        assert consumers != build_preferences(other_log, other_cat, "Horror")
        assert log == same_log and log != other_log
        assert cat != log and consumers != cat

    # seed 2104's first draw realizes 27 niche consumers of 25 and is redrawn
    @pytest.mark.parametrize("size,seed", [((500, 300, 20), 1), ((250, 150, 10), 2104)])
    def test_label_fraction_within_one_consumer(self, size, seed):
        consumers, items, providers = size
        spec = SyntheticSpec(consumers, items, providers, niche_fraction=0.1, seed=seed)
        log, cat = generate_synthetic(spec)
        niche = build_preferences(log, cat, "Horror").type_labels.count(NICHE)
        assert abs(niche - consumers // 10) <= 1

    def test_drift_is_redrawn_a_bounded_number_of_times(self, monkeypatch):
        calls = []

        def no_niche_consumers(log, catalog, niche_genre):
            calls.append(tuple(log_rows(log)))
            return Consumers(np.array([0]), np.ones((1, len(catalog.genres))), (GENERIC,), ((),))

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
        assert NICHE in classify_providers(cat, "Horror").values()

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

    def test_negative_seed_errors(self):
        with pytest.raises(DataError, match="seed must be >= 0"):
            generate_synthetic(SyntheticSpec(consumers=20, items=40, providers=4, seed=-1))

    def test_single_provider_errors(self):
        with pytest.raises(DataError, match="providers"):
            generate_synthetic(
                SyntheticSpec(consumers=20, items=40, providers=1, niche_fraction=0.2, seed=0)
            )


def synthetic_digests(consumers, items, providers, seed):
    """sha256 of the generated log's rows, as tuples of Python numbers, and
    of its catalog's tables."""
    log, cat = generate_synthetic(SyntheticSpec(consumers, items, providers, seed=seed))
    records = log_rows(log)
    tables = catalog_tables(cat)
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
        for i, bits, provider in zip(cat.item_ids.tolist(), cat.genre_matrix, cat.provider_ids):
            genres = "|".join(g for g, b in zip(cat.genres, bits) if b)
            items_lines.append(f"{i},title {i},{genres}")
            prov_lines.append(f"{i},{provider}")
        (tmp_path / "items.csv").write_text("\n".join(items_lines) + "\n")
        (tmp_path / "providers.csv").write_text("\n".join(prov_lines) + "\n")
        loaded = load_catalog(tmp_path / "items.csv", tmp_path / "providers.csv")
        assert loaded == cat

    def test_missing_provider_mapping_errors(self, tmp_path):
        (tmp_path / "items.csv").write_text("item,title,genres\n1,x,Drama\n")
        (tmp_path / "providers.csv").write_text("item,provider\n")
        with pytest.raises(DataError, match="provider map"):
            load_catalog(tmp_path / "items.csv", tmp_path / "providers.csv")

    def test_provider_row_without_an_item_errors(self, tmp_path):
        # Dropping the row would make provider p2 vanish from the catalog
        (tmp_path / "items.csv").write_text("item,title,genres\n1,x,Drama\n2,y,Horror\n")
        (tmp_path / "providers.csv").write_text("item,provider\n1,p1\n2,p1\n3,p2\n")
        with pytest.raises(
            DataError, match=r"1 provider-map items missing from items file, first: \[3\]"
        ):
            load_catalog(tmp_path / "items.csv", tmp_path / "providers.csv")

    @pytest.mark.parametrize("provider", ["", " "])
    def test_an_empty_provider_names_the_line(self, tmp_path, provider):
        (tmp_path / "items.csv").write_text("item,title,genres\n1,x,Drama\n2,y,Horror\n")
        (tmp_path / "providers.csv").write_text(f"item,provider\n1,p1\n2,{provider}\n")
        with pytest.raises(DataError, match=r"providers\.csv:3: item 2 has no provider"):
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
        shuffled = written_catalog(tmp_path, items, providers)
        assert shuffled == expected


def assert_same_seeds(consumers, expected):
    """Equal consumers, labels and histories, preference vectors equal to
    the bit, and every column of the same type, dtype and shape."""
    seeds, expected_seeds = consumer_rows(consumers), consumer_rows(expected)
    assert [(s.consumer_id, s.type_label, s.initial_history) for s in seeds] == [
        (s.consumer_id, s.type_label, s.initial_history) for s in expected_seeds
    ]
    vectors = np.array([s.preference_vector for s in seeds])
    assert vectors.tobytes() == np.array([s.preference_vector for s in expected_seeds]).tobytes()
    assert repr(seeds) == repr(expected_seeds)
    for column in ("consumer_ids", "preferences"):
        got, want = getattr(consumers, column), getattr(expected, column)
        assert (got.dtype, got.shape, got.flags.writeable) == (want.dtype, want.shape, False)


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
        # Sums follow record order, which the log fixes as (consumer, item)
        log = written_log(tmp_path / "r.csv", data.draw(st.permutations(rows)), "csv")
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
        log = rating_log(rows)
        seeds = build_preferences(log, cat, "Horror")
        assert seeds.type_labels == (GENERIC, GENERIC)
        assert_same_seeds(seeds, build_preferences_per_record(log, cat, "Horror"))

    def test_skipped_consumers_warn_alike(self):
        cat = catalog3({1: (["Drama"], "p0"), 2: (["Horror", "Drama"], "p0")})
        rows = [(1, 1, 0.0, 0), (2, 2, 4.0, 1), (3, 2, 0.0, 2), (3, 1, 0.0, 3), (4, 1, -1.0, 4)]
        log = rating_log(rows)
        seeds, warnings_seen = warned(build_preferences, log, cat, "Horror")
        expected, expected_warnings = warned(build_preferences_per_record, log, cat, "Horror")
        assert_same_seeds(seeds, expected)
        assert seeds.consumer_ids.tolist() == [2]
        assert warnings_seen == expected_warnings
        assert warnings_seen[0][0] == "excluded 3 consumers with no usable ratings"

    def test_first_unknown_item_in_record_order_is_named(self):
        cat = catalog3({1: (["Drama"], "p0")})
        # Records follow (consumer, item) order, so 98 comes before the smaller 97
        rows = [(2, 97, 3.0, 0), (1, 1, 3.0, 1), (1, 98, 3.0, 2)]
        log = rating_log(rows)
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
        loaded = load_catalog(files["items.csv"], files["providers.csv"])
        assert loaded == catalog


def assert_log_columns(log):
    """Four read-only 1-D columns of one length, with their dtypes, whose
    (consumer, item) pairs ascend strictly."""
    columns = {
        "consumer_ids": np.int64,
        "item_ids": np.int64,
        "ratings": np.float64,
        "timestamps": np.int64,
    }
    for name, dtype in columns.items():
        column = getattr(log, name)
        assert (column.dtype, column.shape, column.flags.writeable) == (dtype, (len(log),), False)
    pairs = list(zip(log.consumer_ids.tolist(), log.item_ids.tolist()))
    assert all(a < b for a, b in zip(pairs, pairs[1:]))


class TestLogColumns:
    def test_synthetic_log(self):
        log, _cat = generate_synthetic(SyntheticSpec(60, 40, 4, seed=3))
        assert_log_columns(log)
        assert len(log) > 60

    @pytest.mark.parametrize("fmt, name", [("csv", "r.csv"), ("movielens-dat", "r.dat")])
    def test_file_log(self, tmp_path, fmt, name):
        rows = [(2, 7, 4, 30), (1, 9, 5, 10), (2, 3, 1, 20), (1, 9, 3, 40), (1, 2, 2, 5)]
        log = written_log(tmp_path / name, rows, fmt)
        assert_log_columns(log)
        assert log_rows(log) == [(1, 2, 2.0, 5), (1, 9, 3.0, 40), (2, 3, 1.0, 20), (2, 7, 4.0, 30)]

    @settings(deadline=None)
    @given(data=st.data())
    def test_shuffled_columns_build_an_equal_log(self, data):
        log, _cat = generate_synthetic(SyntheticSpec(20, 30, 3, seed=data.draw(st.integers(0, 9))))
        order = np.array(data.draw(st.permutations(range(len(log)))))
        columns = (log.consumer_ids, log.item_ids, log.ratings, log.timestamps)
        shuffled = build_log(*(column[order] for column in columns))
        assert_log_columns(shuffled)
        assert shuffled == log

    def test_a_repeated_pair_names_it(self):
        # Consumer 0 rates item 4 once; a second rating of the pair would
        # seed it twice into consumer 0's list against one matrix cell
        log, _cat = generate_synthetic(SyntheticSpec(30, 40, 4, seed=3))
        rows = log_rows(log)
        assert (0, 4) in [(u, i) for u, i, _r, _t in rows]
        with pytest.raises(DataError, match="consumer 0 rates item 4 more than once"):
            rating_log(rows + [(0, 4, 1.0, len(rows))])

    @pytest.mark.parametrize(
        "columns, message",
        [
            (([], [], [], []), "no interactions"),
            (([1, 2], [1, 2], [5.0], [0, 1]), "1-D and of equal length"),
            (([[1]], [[1]], [[5.0]], [[0]]), "1-D and of equal length"),
            (([2**63], [1], [5.0], [0]), "out of range"),
        ],
    )
    def test_malformed_columns(self, columns, message):
        with pytest.raises(DataError, match=message):
            build_log(*columns)


# Weights with zeros and a heavy skew, so that a pick repeats within a round
# and the replica draws again
WEIGHTS = st.lists(
    st.one_of(st.just(0.0), st.integers(-6, 6).map(lambda k: 10.0**k)), min_size=2, max_size=40
).filter(lambda w: any(w))

replica = dataset._choice_without_replacement


class TestChoiceReplica:
    """``dataset._choice_without_replacement`` is ``Generator.choice(a,
    size, replace=False, p=p)`` without its argument checks; one pick is
    also ``Generator.choice(a, p=p)``'s."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), weights=WEIGHTS, data=st.data())
    def test_same_picks_and_state_as_choice(self, seed, weights, data):
        p = np.array(weights) / sum(weights)
        size = data.draw(st.integers(0, np.count_nonzero(p)))
        a = np.arange(len(p)) * 7 + 3
        expected_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = expected_rng.choice(a, size, replace=False, p=p)
        picks = replica(rng, a, size, p)
        assert (picks.dtype, picks.tolist()) == (expected.dtype, expected.tolist())
        assert rng.bit_generator.state == expected_rng.bit_generator.state

    @given(seed=st.integers(0, 2**32 - 1), weights=WEIGHTS)
    def test_one_pick_is_a_pick_with_replacement(self, seed, weights):
        p = np.array(weights) / sum(weights)
        expected_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = expected_rng.choice(len(p), p=p)
        assert replica(rng, np.arange(len(p)), 1, p).tolist() == [expected]
        assert rng.bit_generator.state == expected_rng.bit_generator.state

    def test_a_repeated_pick_is_drawn_again(self):
        p = np.array([1e6, 1.0, 1.0, 1.0, 0.0])
        p /= p.sum()
        rng, expected_rng = np.random.default_rng(1), np.random.default_rng(1)
        picks = replica(rng, np.arange(5), 3, p)
        assert picks.tolist() == expected_rng.choice(5, 3, replace=False, p=p).tolist()
        assert rng.bit_generator.state == expected_rng.bit_generator.state
        one_round = np.random.default_rng(1)
        one_round.random(3)
        assert rng.bit_generator.state != one_round.bit_generator.state  # it drew again

    def test_weights_are_not_written(self):
        p = np.array([0.5, 0.25, 0.25])
        replica(np.random.default_rng(0), np.arange(3), 3, p)
        assert p.tolist() == [0.5, 0.25, 0.25]

    def test_too_few_non_zero_weights(self):
        with pytest.raises(ValueError, match="fewer non-zero weights"):
            replica(np.random.default_rng(0), np.arange(3), 2, np.array([1.0, 0.0, 0.0]))

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 50))
    def test_one_vector_draw_is_n_scalar_draws(self, seed, n):
        scalar, vector = np.random.default_rng(seed), np.random.default_rng(seed)
        draws = [scalar.random() for _ in range(n)]
        assert vector.random(n).tolist() == draws
        assert vector.bit_generator.state == scalar.bit_generator.state
