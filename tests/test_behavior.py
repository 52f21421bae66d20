"""Consumer decision model: utility arithmetic, selection, switching."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import choose_item, maybe_switch_by_id, openblas, slate_utility
from recmarket import behavior, engine
from recmarket.behavior import BehaviorParams, genre_similarities, maybe_switch, update_utility


def sims_of(pref, genre_rows):
    """Similarities of one consumer's preference to each item, in slate order."""
    genres = np.array(genre_rows, dtype=float).reshape(-1, len(pref))
    return genre_similarities(np.array([pref], dtype=float), genres)[0]


class TestUpdateUtility:
    def test_direct_arithmetic(self):
        assert update_utility(0.4, 0.1, 2.0) == 0.3

    @pytest.mark.parametrize("x", [i / 20 for i in range(21)] + [0.7, 0.123456789, 1 / 3])
    def test_fixed_point_exact(self, x):
        assert update_utility(x, x, 2.0) == x

    @pytest.mark.parametrize("mu", [0.0, 0.1, 0.37, 1.0])
    def test_beta_zero_is_memoryless(self, mu):
        assert update_utility(0.9, mu, 0.0) == mu

    @given(
        prev=st.floats(0, 1),
        mu=st.floats(0, 1),
        beta=st.floats(0, 50, allow_nan=False, allow_infinity=False),
    )
    def test_bounded_between_arguments(self, prev, mu, beta):
        out = update_utility(prev, mu, beta)
        assert min(prev, mu) <= out <= max(prev, mu)
        assert 0.0 <= out <= 1.0

    @given(
        prev=st.floats(0, 1),
        delta=st.floats(0, 0.5),
        mu=st.floats(0, 1),
        beta=st.floats(0, 50),
    )
    def test_monotone_in_both_arguments(self, prev, delta, mu, beta):
        hi_prev = min(prev + delta, 1.0)
        assert update_utility(hi_prev, mu, beta) >= update_utility(prev, mu, beta)
        hi_mu = min(mu + delta, 1.0)
        assert update_utility(prev, hi_mu, beta) >= update_utility(prev, mu, beta)

    def test_geometric_convergence(self):
        beta, target = 2.0, 0.8
        est = 0.1
        for n in range(1, 30):
            est = update_utility(est, target, beta)
            assert abs(est - target) <= (beta / (1 + beta)) ** n * abs(0.1 - target) + 1e-12


def update_utility_float(prev, observed, recency_bias):
    """The update over Python floats, with Python's ``min`` and ``max``."""
    value = (prev * recency_bias + observed) / (1.0 + recency_bias)
    lo, hi = (prev, observed) if prev <= observed else (observed, prev)
    return min(max(value, lo), hi)


UNIT = st.sampled_from([0.0, -0.0, 0.2, 1 / 3, 1.0]) | st.floats(0, 1)


class TestUpdateUtilityOnArrays:
    @given(
        pairs=st.lists(st.tuples(UNIT, UNIT), min_size=1, max_size=20),
        beta=st.sampled_from([0.0, 2.0]) | st.floats(0, 50),
    )
    def test_each_element_is_the_float_path(self, pairs, beta):
        prev, observed = (np.array(column) for column in zip(*pairs))
        got = update_utility(prev, observed, beta)
        assert isinstance(got, np.ndarray) and got.shape == prev.shape
        for value, (p, mu) in zip(got.tolist(), pairs):
            want = update_utility(p, mu, beta)
            assert type(want) is float
            assert value.hex() == want.hex() == update_utility_float(p, mu, beta).hex()

    def test_an_unset_estimate_stays_unset(self):
        # NaN marks an unset estimate; the engine never updates one, but the
        # rule passes it through on both paths without a warning
        got = update_utility(np.array([np.nan, 0.5]), np.array([0.2, 0.2]), 2.0)
        assert np.isnan(got[0]) and math.isnan(update_utility(math.nan, 0.2, 2.0))


class TestListUtility:
    def test_identical_direction_is_one(self):
        assert slate_utility(sims_of((1.0, 0.0), [(1, 0), (1, 0)])) == pytest.approx(1.0)

    def test_orthogonal_is_zero(self):
        assert slate_utility(sims_of((1.0, 0.0), [(0, 1)])) == 0.0

    def test_hand_computed_mean(self):
        # cos((.5,.5),(1,0)) = 1/sqrt(2); cos((.5,.5),(1,1)) = 1
        expected = (1 / math.sqrt(2) + 1.0) / 2
        got = slate_utility(sims_of((0.5, 0.5), [(1, 0), (1, 1)]))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.8536, abs=1e-4)

    def test_empty_slate_is_zero(self):
        assert slate_utility(sims_of((1.0, 0.0), [])) == 0.0

    @given(st.permutations(list(range(1, 6))))
    def test_permutation_invariant(self, order):
        vectors = {i: ((1, 0) if i % 2 else (0, 1)) for i in range(1, 6)}
        base = slate_utility(sims_of((0.7, 0.3), [vectors[i] for i in range(1, 6)]))
        permuted = slate_utility(sims_of((0.7, 0.3), [vectors[i] for i in order]))
        assert permuted == pytest.approx(base, abs=1e-12)

    def test_zero_vector_similarity_guard(self):
        assert sims_of((0.0, 0.0), [(1, 0)])[0] == 0.0
        assert sims_of((1.0, 0.0), [(0, 0)])[0] == 0.0


# The similarity table of a benchmark-sized population (perfbench's
# switch_churn data at seed 3), printed as the hex of its bytes
TABLE_BITS = """
import hashlib
from recmarket import behavior, dataset
spec = dataset.SyntheticSpec(consumers=500, items=300, providers=20, seed=3, niche_genre="Horror")
log, catalog = dataset.generate_synthetic(spec)
consumers = dataset.build_preferences(log, catalog, "Horror")
table = behavior.genre_similarities(consumers.preferences, catalog.genre_matrix)
print(table.tobytes().hex())
"""


class TestSimilarityTable:
    @pytest.mark.skipif(not openblas(), reason="numpy is not built on OpenBLAS")
    @pytest.mark.xfail(
        raises=AssertionError,
        reason="one GEMM: OpenBLAS splits it by thread count, which moves the last bit of "
        "a few cells (2 of 150,000 here); a thread-invariant table changes report bytes",
    )
    def test_table_bits_do_not_depend_on_the_blas_thread_count(self):
        src = str(Path(behavior.__file__).resolve().parents[1])
        tables = []
        for threads in ("1", "2"):
            env = dict(
                os.environ,
                OPENBLAS_NUM_THREADS=threads,
                PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
            )
            run = subprocess.run(
                [sys.executable, "-c", TABLE_BITS],
                env=env,
                check=True,
                capture_output=True,
                text=True,
                timeout=300,
            )
            tables.append(np.frombuffer(bytes.fromhex(run.stdout.strip())).reshape(500, 300))
        differing = int((tables[0] != tables[1]).sum())
        assert differing == 0, f"{differing} of {tables[0].size} cells differ"


class TestSelectItem:
    def test_all_below_threshold_selects_none(self):
        sims = sims_of((1.0, 0.0), [(0, 1), (0, 1)])
        assert choose_item(sims, 0.2, np.random.default_rng(0)) is None

    def test_single_candidate_is_certain(self):
        sims = sims_of((1.0, 0.0), [(1, 0), (0, 1)])
        for seed in range(5):
            assert choose_item(sims, 0.2, np.random.default_rng(seed)) == 0

    def test_proportional_sampling_ratio(self):
        # sims 0.6 vs 0.2 -> 3:1 pick ratio over many draws
        sims = np.array([0.6, 0.2])
        rng = np.random.default_rng(1234)
        counts = [0, 0]
        for _ in range(10_000):
            counts[choose_item(sims, 0.2, rng)] += 1
        ratio = counts[0] / counts[1]
        assert 3.0 * 0.95 <= ratio <= 3.0 * 1.05

    def test_never_selects_below_threshold(self):
        sims = sims_of((0.9, 0.1), [(1, 0), (0, 1), (1, 1)])
        for seed in range(50):
            pick = choose_item(sims, 0.5, np.random.default_rng(seed))
            if pick is not None:
                assert sims[pick] >= 0.5

    def test_empty_slate_selects_none(self):
        assert choose_item(sims_of((1.0, 0.0), []), 0.2, np.random.default_rng(0)) is None

    def test_zero_total_mass_selects_none(self):
        sims = sims_of((1.0, 0.0), [(0, 1)])
        assert choose_item(sims, 0.0, np.random.default_rng(0)) is None

    def test_matches_generator_choice_pick_and_next_draw(self):
        # choose_item must pick what Generator.choice(p=...) picks and leave
        # the generator where it leaves it, or every later draw shifts.
        cases = np.random.default_rng(2024)
        for case in range(3000):
            sims = cases.random(int(cases.integers(1, 12)))
            sims[cases.random(sims.size) < 0.2] = 0.0
            threshold = float(cases.choice([0.0, 0.2, cases.random()]))
            mine = np.random.default_rng(case)
            ref = np.random.default_rng(case)
            mask = sims >= threshold
            total = float(sims[mask].sum())
            if mask.any() and total > 0.0:
                want = int(ref.choice(np.flatnonzero(mask), p=sims[mask] / total))
            else:
                want = None
            assert choose_item(sims, threshold, mine) == want
            assert mine.random() == ref.random()


SIMS = st.sampled_from([0.0, 0.2, 0.5, 1.0]) | st.floats(0, 1)


class TestBatchedSelection:
    """``engine._select`` takes one flush's slates at once; the 1-D
    ``slate_utility`` and ``choose_item`` are its reference, slate by slate:
    the same utility bits, the same picks and the same generator states."""

    @staticmethod
    def assert_flush_equals_the_one_slate_rule(table, rows, slates, threshold, seed):
        batched = [np.random.default_rng(seed + k) for k in range(len(slates))]
        oracle = [np.random.default_rng(seed + k) for k in range(len(slates))]
        # A 0/0 or an overflow in the batched path fails here
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            utility, picks = engine._select(table, rows, slates, threshold, batched)
        assert utility.shape == picks.shape == (len(slates),)
        for k, slate in enumerate(slates):
            sims = table[rows[k], slate]
            assert utility[k].hex() == slate_utility(sims).hex(), k
            want = choose_item(sims, threshold, oracle[k])
            assert picks[k] == (-1 if want is None else want), k
            assert batched[k].bit_generator.state == oracle[k].bit_generator.state, k

    @given(data=st.data())
    def test_one_flush_equals_the_one_slate_rule(self, data):
        # Mixed slate lengths 0-10 in one flush, and similarities exactly at
        # the threshold
        threshold = data.draw(SIMS)
        n = data.draw(st.integers(1, 12))
        cells = SIMS | st.just(threshold)
        table = np.array([[data.draw(cells) for _ in range(10)] for _ in range(n)])
        rows = np.array(data.draw(st.permutations(range(n))))
        slates = [
            np.array(data.draw(st.permutations(range(10)))[: data.draw(st.integers(0, 10))], int)
            for _ in range(n)
        ]
        seed = data.draw(st.integers(0, 2**32))
        self.assert_flush_equals_the_one_slate_rule(table, rows, slates, threshold, seed)

    def test_all_zero_weights_draw_nothing(self):
        # At threshold 0 every item is a candidate, but zero mass is no pick
        # and no draw, and no 0/0
        slates = [np.arange(length) for length in (0, 1, 4, 10, 10)]
        table = np.zeros((len(slates), 10))
        table[4, 3] = 0.5
        rows = np.arange(len(slates))
        self.assert_flush_equals_the_one_slate_rule(table, rows, slates, 0.0, 7)
        _utility, picks = engine._select(table, rows, slates, 0.0, [np.random.default_rng(0)] * 5)
        assert picks.tolist() == [-1, -1, -1, -1, 3]


TWO = ["generic", "niche"]  # the columns, by recommender id
ESTIMATES = st.sampled_from([0.0, 0.1, 0.15, 0.2, 0.5, 1.0]) | st.floats(0, 1)


def switch_row(estimates, current, params=BehaviorParams()):
    """``maybe_switch`` on a batch of one consumer, whose estimates are keyed
    by recommender id and unset where it has not been: the destination's
    id, or ``None``. The rule must leave its inputs as it found them."""
    estimates_rows = np.array([[estimates.get(rid, np.nan) for rid in TWO]])
    current_columns = np.array([TWO.index(current)])
    before = estimates_rows.tobytes(), current_columns.tobytes()
    column = maybe_switch(estimates_rows, current_columns, params).item()
    assert (estimates_rows.tobytes(), current_columns.tobytes()) == before
    return None if column < 0 else TWO[column]


class TestMaybeSwitch:
    def test_satisfied_stays(self):
        assert switch_row({"generic": 0.25, "niche": 0.9}, "generic") is None

    def test_dissatisfied_switches_to_untried(self):
        assert switch_row({"generic": 0.15}, "generic") == "niche"
        assert switch_row({"niche": 0.15}, "niche") == "generic"

    def test_returns_a_column_and_changes_nothing(self):
        estimates = np.array([[0.15, np.nan], [0.25, np.nan], [0.3, 0.1], [0.15, 0.1]])
        current = np.array([0, 0, 1, 0])
        moves = maybe_switch(estimates, current, BehaviorParams())
        assert moves.tolist() == [1, -1, 0, -1]
        assert current.tolist() == [0, 0, 1, 0]
        assert maybe_switch(estimates, current, BehaviorParams()).tolist() == moves.tolist()

    def test_dissatisfied_stays_when_alternative_is_worse(self):
        assert switch_row({"generic": 0.15, "niche": 0.10}, "generic") is None

    def test_two_recommender_decision_table(self):
        # Exhaustive oracle over the documented rule for the 2-recommender case.
        tau = 0.2
        grid = [0.0, 0.1, 0.19, 0.2, 0.5, 1.0]
        for cur in grid:
            for other in grid + [None]:  # None = untried
                estimates = {"generic": cur} | ({} if other is None else {"niche": other})
                expect_switch = cur < tau and (other is None or other >= cur)
                got = switch_row(estimates, "generic")
                assert (got is not None) == expect_switch, (cur, other)

    # The next three check the by-id oracle itself, which ranks any number of
    # recommenders and is what TestReferenceDay holds the engine to
    def test_ties_break_by_recommender_id(self):
        estimates = {"a": 0.1, "b": 0.15, "c": 0.15}
        params, active = BehaviorParams(), ["a", "b", "c"]
        assert maybe_switch_by_id("a", estimates, {"a", "b", "c"}, params, active) == "b"

    def test_untried_outranks_high_estimates(self):
        params, active = BehaviorParams(), ["a", "b", "z"]
        assert maybe_switch_by_id("a", {"a": 0.1, "b": 0.9}, {"a", "b"}, params, active) == "z"

    def test_tried_without_an_estimate_counts_as_zero(self):
        params, active = BehaviorParams(), ["a", "b"]
        assert maybe_switch_by_id("a", {"a": 0.0}, {"a", "b"}, params, active) == "b"
        assert maybe_switch_by_id("a", {"a": 0.1}, {"a", "b"}, params, active) is None

    def test_never_switches_when_satisfied_property(self):
        for cur in np.linspace(0.2, 1.0, 20):
            assert switch_row({"generic": float(cur)}, "generic") is None

    @given(data=st.data())
    def test_batch_agrees_with_the_oracle_by_id(self, data):
        # Every row's current column has an estimate; a row has tried its
        # current recommender and those it has an estimate at
        n = data.draw(st.integers(1, 8))
        current = np.array(data.draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n)))
        estimates = np.full((n, len(TWO)), np.nan)
        for row, column in enumerate(current.tolist()):
            estimates[row, column] = data.draw(ESTIMATES)
            if data.draw(st.booleans()):
                estimates[row, 1 - column] = data.draw(ESTIMATES)
        params = BehaviorParams(satisfaction_threshold=data.draw(ESTIMATES))
        moves = maybe_switch(estimates, current, params).tolist()
        for row, column in enumerate(current.tolist()):
            by_id = {
                rid: e for rid, e in zip(TWO, estimates[row].tolist()) if not math.isnan(e)
            }
            tried = {TWO[column]} | set(by_id)
            expected = maybe_switch_by_id(TWO[column], by_id, tried, params, TWO)
            assert (None if moves[row] < 0 else TWO[moves[row]]) == expected, row
