"""Profile store semantics under the four portability policies."""

import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import RECS, assert_store_matches_reference, run_random_events
from recmarket.cli import _write_lines
from recmarket.portability import (
    AuditTrail,
    PortabilityPolicy,
    ProfileStore,
    on_switch,
    record_click,
    replay_audit,
    seed_histories,
    store_state,
    training_view,
    visible_items,
)

AS = PortabilityPolicy.ALGORITHM_SPECIFIC
CS = PortabilityPolicy.COLD_START
UO = PortabilityPolicy.USER_OWNERSHIP
UN = PortabilityPolicy.UNIVERSAL


def store_for(policy):
    return ProfileStore.create(policy, RECS, range(10), range(128))


class TestPolicyMapping:
    def test_exclusivity_permanence_total(self):
        table = {
            AS: (True, True),
            CS: (True, False),
            UO: (False, False),
            UN: (False, True),
        }
        for policy, (exclusive, permanent) in table.items():
            assert policy.exclusive == exclusive
            assert policy.permanent == permanent


class TestRecordClick:
    def test_universal_click_visible_to_both(self):
        store = store_for(UN)
        record_click(store, 1, "niche", 42, 3)
        assert training_view(store, "generic") == {1: ((42, 3),)}
        assert training_view(store, "niche") == {1: ((42, 3),)}

    def test_exclusive_click_stays_at_serving_recommender(self):
        store = store_for(AS)
        record_click(store, 1, "generic", 42, 3)
        assert training_view(store, "niche") == {}
        assert training_view(store, "generic") == {1: ((42, 3),)}

    def test_unknown_id_raises_before_any_write(self):
        store = store_for(AS)
        with pytest.raises(KeyError):
            record_click(store, 1, "generic", 999, 0)
        assert store_state(store) == store_state(store_for(AS))
        assert not store.visible["generic"].any()

    def test_appends_in_day_order(self):
        store = store_for(AS)
        record_click(store, 1, "generic", 10, 3)
        record_click(store, 1, "generic", 11, 5)
        assert training_view(store, "generic")[1] == ((10, 3), (11, 5))


class TestOnSwitch:
    def test_user_ownership_moves_everything(self):
        store = store_for(UO)
        for day in range(7):
            record_click(store, 1, "generic", 100 + day, day)
        on_switch(store, 1, "generic", "niche")
        assert training_view(store, "generic") == {}
        moved = training_view(store, "niche")[1]
        assert moved == tuple((100 + d, d) for d in range(7))

    def test_cold_start_away_and_back_keeps_only_new_clicks(self):
        store = store_for(CS)
        record_click(store, 1, "generic", 10, 0)
        on_switch(store, 1, "generic", "niche")
        record_click(store, 1, "niche", 11, 1)
        on_switch(store, 1, "niche", "generic")
        record_click(store, 1, "generic", 12, 2)
        assert training_view(store, "generic") == {1: ((12, 2),)}
        assert training_view(store, "niche") == {}

    def test_algorithm_specific_ledger_replay(self):
        # Hand simulation: pre-switch profile stays; interim clicks stay put.
        store = store_for(AS)
        for day in range(3):
            record_click(store, 1, "generic", day, day)
        on_switch(store, 1, "generic", "niche")
        record_click(store, 1, "niche", 50, 3)
        record_click(store, 1, "niche", 51, 4)
        on_switch(store, 1, "niche", "generic")
        assert training_view(store, "generic")[1] == ((0, 0), (1, 1), (2, 2))
        assert training_view(store, "niche")[1] == ((50, 3), (51, 4))

    def test_universal_switch_is_storage_noop(self):
        store = store_for(UN)
        record_click(store, 1, "generic", 10, 0)
        before = store_state(store)
        on_switch(store, 1, "generic", "niche")
        assert store_state(store) == before

    def test_unknown_consumer_is_noop(self):
        store = store_for(UO)
        on_switch(store, 9, "generic", "niche")
        assert training_view(store, "niche") == {}

    def test_same_recommender_switch_rejected(self):
        with pytest.raises(ValueError):
            on_switch(store_for(UO), 1, "generic", "generic")

    def test_transfer_merge_deduplicates_and_keeps_day_order(self):
        store = store_for(UO)
        record_click(store, 1, "niche", 5, 2)
        for item, day in [(4, 1), (5, 2), (6, 3)]:
            record_click(store, 1, "generic", item, day)
        on_switch(store, 1, "generic", "niche")
        assert training_view(store, "niche") == {1: ((4, 1), (5, 2), (6, 3))}
        assert training_view(store, "generic") == {}
        row = store.consumer_rows[1]
        assert np.flatnonzero(store.visible["niche"][row]).tolist() == [4, 5, 6]
        assert not store.visible["generic"][row].any()


class TestTrainingView:
    def test_universal_views_identical(self):
        store = store_for(UN)
        record_click(store, 1, "generic", 1, 0)
        record_click(store, 2, "niche", 2, 0)
        assert training_view(store, "generic") == training_view(store, "niche")

    def test_cold_start_view_empty_after_everyone_leaves(self):
        store = store_for(CS)
        for consumer in (1, 2, 3):
            record_click(store, consumer, "niche", consumer, 0)
            on_switch(store, consumer, "niche", "generic")
        assert training_view(store, "niche") == {}

    def test_snapshot_is_immutable_copy(self):
        store = store_for(AS)
        record_click(store, 1, "generic", 1, 0)
        snap = training_view(store, "generic")
        record_click(store, 1, "generic", 2, 1)
        assert snap == {1: ((1, 0),)}

    def test_visible_items_by_policy(self):
        store = store_for(UN)
        record_click(store, 1, "generic", 7, 0)
        assert visible_items(store, "niche", 1) == {7}
        ex = store_for(AS)
        record_click(ex, 1, "generic", 7, 0)
        assert visible_items(ex, "niche", 1) == set()


class TestSeedHistory:
    def test_seeds_as_pre_simulation_clicks(self):
        store = store_for(AS)
        seed_histories(store, "generic", {1: [3, 1, 2]})
        assert training_view(store, "generic")[1] == ((3, -1), (1, -1), (2, -1))

    @pytest.mark.parametrize("policy", list(PortabilityPolicy))
    def test_equals_record_click_in_mapping_order(self, policy):
        histories = {4: [7, 2], 1: [], 0: [5], 9: [0, 127, 3]}
        store, reference = store_for(policy), store_for(policy)
        store.audit, reference.audit = AuditTrail(), AuditTrail()
        seed_histories(store, "niche", histories)
        for consumer, items in histories.items():
            for item in items:
                record_click(reference, consumer, "niche", item, -1)
        assert store.shared == reference.shared
        assert store.per_recommender == reference.per_recommender
        assert 1 not in store._bucket("niche")  # an empty history writes nothing
        for rid in RECS:
            assert store.visible[rid].tobytes() == reference.visible[rid].tobytes()
        assert store.audit.lines == reference.audit.lines

    @pytest.mark.parametrize("unknown", [{1: [3], 99: [2]}, {1: [3], 2: [128]}])
    def test_unknown_id_raises_before_any_write(self, unknown):
        store = store_for(CS)
        store.audit = AuditTrail()
        with pytest.raises(KeyError):
            seed_histories(store, "generic", unknown)
        assert store_state(store) == store_state(store_for(CS))
        assert not store.visible["generic"].any() and not store.audit.lines


class TestInvariantsRandomized:
    @pytest.mark.parametrize("policy", list(PortabilityPolicy))
    def test_store_matches_reference_ledger(self, policy):
        for seed in range(100):
            assert_store_matches_reference(run_random_events(seed, policy))

    def test_conservation_user_ownership(self):
        for seed in range(100):
            run = run_random_events(seed, UO)
            for consumer, clicks in run.reference.all_clicks.items():
                held = []
                for bucket in run.store.per_recommender.values():
                    held.extend(bucket.get(consumer, []))
                assert sorted(held) == sorted(clicks)

    def test_deletion_cold_start(self):
        # Replay events and check the departed recommender's view empties at
        # the instant of every switch.
        for seed in range(100):
            run = run_random_events(seed, CS)
            store = store_for(CS)
            for event in run.events:
                if event[0] == "click":
                    _, consumer, rec, item, day = event
                    record_click(store, consumer, rec, item, day)
                else:
                    _, consumer, src, dst = event
                    on_switch(store, consumer, src, dst)
                    assert consumer not in training_view(store, src)

    def test_retention_algorithm_specific(self):
        for seed in range(60):
            policy = AS
            rng_events = run_random_events(seed, policy)
            # Replay events while checking per-recommender entry counts never shrink.
            store = store_for(policy)
            sizes: dict[tuple[str, int], int] = {}
            for event in rng_events.events:
                if event[0] == "click":
                    _, consumer, rec, item, day = event
                    record_click(store, consumer, rec, item, day)
                else:
                    _, consumer, src, dst = event
                    on_switch(store, consumer, src, dst)
                for rid, bucket in store.per_recommender.items():
                    for cid, entries in bucket.items():
                        key = (rid, cid)
                        assert len(entries) >= sizes.get(key, 0)
                        sizes[key] = len(entries)

    def test_identity_universal(self):
        for seed in range(100):
            run = run_random_events(seed, UN)
            assert training_view(run.store, "generic") == training_view(run.store, "niche"
            )

    def test_click_totality(self):
        # Distinct-owner entries never exceed recorded clicks; equality
        # everywhere except Cold Start, which may delete.
        for policy in PortabilityPolicy:
            for seed in range(60):
                run = run_random_events(seed, policy)
                total_clicks = sum(len(v) for v in run.reference.all_clicks.values())
                held = sum(len(v) for v in run.store.shared.values())
                held += sum(
                    len(v)
                    for bucket in run.store.per_recommender.values()
                    for v in bucket.values()
                )
                if policy is CS:
                    assert held <= total_clicks
                else:
                    assert held == total_clicks


class TestAuditReplay:
    @pytest.mark.parametrize("policy", list(PortabilityPolicy))
    def test_replay_reproduces_final_store(self, policy):
        for seed in range(50):
            run = run_random_events(seed, policy)
            rebuilt = replay_audit(run.trail.events, policy, RECS)
            assert store_state(rebuilt) == store_state(run.store)

    def test_jsonl_round_trip(self, tmp_path):
        run = run_random_events(3, UO)
        path = tmp_path / "audit.jsonl"
        _write_lines(path, run.trail.lines)
        assert path.read_bytes() == "".join(run.trail.lines).encode()
        parsed = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        assert parsed == run.trail.events
        rebuilt = replay_audit(parsed, UO, RECS)
        assert store_state(rebuilt) == store_state(run.store)

    @given(
        recommenders=st.lists(
            st.builds(
                str.__add__, st.sampled_from(['"', "\\", "\u00e9", "\U0001f600"]), st.text()
            ),
            min_size=2,
            max_size=2,
            unique=True,
        ),
        consumer=st.integers(0, 2**63 - 1),
        item=st.integers(0, 2**63 - 1),
        day=st.one_of(st.just(-1), st.integers(0, 2**63 - 1)),
    )
    def test_lines_are_sorted_key_json(self, recommenders, consumer, item, day):
        # Each kind as the store and the engine emit it, against the dicts
        # its line must encode.
        source, destination = recommenders
        trail = AuditTrail()
        store = ProfileStore.create(UO, recommenders, [consumer], [item], audit=trail)
        record_click(store, consumer, source, item, day)
        trail.emit(
            "switch", consumer=consumer, source=source, destination=destination, cycle=0, day=day
        )
        on_switch(store, consumer, source, destination)
        expected = [
            {
                "event": "click",
                "consumer": consumer,
                "recommender": source,
                "item": item,
                "day": day,
            },
            {
                "event": "switch",
                "consumer": consumer,
                "source": source,
                "destination": destination,
                "cycle": 0,
                "day": day,
            },
            {
                "event": "transfer",
                "consumer": consumer,
                "source": source,
                "destination": destination,
            },
            {"event": "delete", "consumer": consumer, "recommender": source},
        ]
        assert trail.lines == [json.dumps(e, sort_keys=True) + "\n" for e in expected]
        assert trail.events == expected

    def test_unknown_event_rejected(self):
        with pytest.raises(ValueError, match="unknown audit event"):
            replay_audit([{"event": "mystery"}], UO, RECS)


# Ids and days up to the int64 columns' largest value, and recommender ids that
# JSON must escape
IDS = st.one_of(st.integers(0, 2**63 - 1), st.just(2**63 - 1))
RECOMMENDER_IDS = st.one_of(
    st.sampled_from(["generic", "niche", "\u00e9t\u00e9", '"q"\\', "\U0001f600"]), st.text()
)
DAYS = st.one_of(st.just(-1), st.integers(0, 2**63 - 1))
# Numbers the int64 columns cannot hold
OUTSIDE_INT64 = st.one_of(
    st.integers(2**63, 2**70), st.integers(-(2**70), -(2**63) - 1), st.sampled_from([2**63, 2**64])
)
EVENTS = st.lists(
    st.one_of(
        st.tuples(st.just("click"), IDS, RECOMMENDER_IDS, IDS, DAYS),
        st.tuples(
            st.just("clicks"), st.lists(st.tuples(IDS, IDS), max_size=4), RECOMMENDER_IDS, DAYS
        ),
        st.tuples(st.just("switch"), IDS, RECOMMENDER_IDS, RECOMMENDER_IDS, IDS, DAYS),
        st.tuples(st.just("transfer"), IDS, RECOMMENDER_IDS, RECOMMENDER_IDS),
        st.tuples(st.just("delete"), IDS, RECOMMENDER_IDS),
    ),
    max_size=12,
)


def write_events(trail, events):
    """Write ``events`` (drawn from ``EVENTS``) to ``trail`` as the store and
    the engine do; return the event dicts the trail must encode."""
    expected = []
    for kind, *fields in events:
        if kind == "click":
            consumer, recommender, item, day = fields
            trail.clicks((consumer,), recommender, (item,), day)  # as record_click writes
            pairs = [(consumer, item)]
        elif kind == "clicks":
            pairs, recommender, day = fields
            trail.clicks([c for c, _ in pairs], recommender, [i for _, i in pairs], day)
        if kind in ("click", "clicks"):
            expected += [
                {"event": "click", "consumer": c, "recommender": recommender, "item": i, "day": day}
                for c, i in pairs
            ]
            continue
        names = {
            "switch": ("consumer", "source", "destination", "cycle", "day"),
            "transfer": ("consumer", "source", "destination"),
            "delete": ("consumer", "recommender"),
        }[kind]
        payload = dict(zip(names, fields))
        trail.emit(kind, **payload)
        expected.append({"event": kind, **payload})
    return expected


def jsonl(events):
    return [json.dumps(e, sort_keys=True) + "\n" for e in events]


class TestColumnTrail:
    """The trail holds clicks as columns and renders them on demand: every
    way of reading it must give the lines ``json.dumps`` would."""

    @given(prefix_events=EVENTS, own_events=EVENTS)
    def test_renders_sorted_key_json_of_every_event(self, prefix_events, own_events):
        prefix = AuditTrail()
        expected_prefix = write_events(prefix, prefix_events)
        assert prefix.lines == jsonl(expected_prefix)
        assert prefix.events == expected_prefix
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "audit.jsonl"
            _write_lines(path, prefix.render())
            assert path.read_bytes() == "".join(prefix.lines).encode()

        # A branch holds the prefix's events, then its own
        store = ProfileStore.create(UO, RECS, [], [], audit=prefix)
        branch = AuditTrail()
        store.branch(UO, RECS, "generic", branch)
        expected_own = write_events(branch, own_events)
        assert branch.lines == jsonl(expected_prefix + expected_own)
        assert branch.events == expected_prefix + expected_own
        assert prefix.lines == jsonl(expected_prefix)

    def test_a_branch_trail_starts_from_a_parent_trail_of_its_own(self):
        # Without a parent trail the branch's would lack the events behind
        # the home profiles it copies; the parent's own would include itself.
        with pytest.raises(ValueError, match="audit trail"):
            store_for(UO).branch(UO, RECS, "generic", AuditTrail())
        trail = AuditTrail()
        trail.clicks([1], "generic", [2], 0)
        store = ProfileStore.create(UO, RECS, range(10), range(128), audit=trail)
        with pytest.raises(ValueError, match="audit trail"):
            store.branch(UO, RECS, "generic", trail)
        assert trail.lines == jsonl(
            [{"event": "click", "consumer": 1, "recommender": "generic", "item": 2, "day": 0}]
        )

    def test_a_bulk_click_write_refuses_columns_of_different_lengths(self):
        # Else every later click would render with the wrong consumer
        trail = AuditTrail()
        trail.clicks([1], "generic", [2], 0)
        before = trail.lines
        with pytest.raises(ValueError, match="2 consumers for 1 clicked items"):
            trail.clicks([1, 2], "niche", [3], 0)
        assert trail.lines == before
        trail.clicks([5], "generic", [6], 1)
        assert trail.events[-1] == {
            "event": "click", "consumer": 5, "recommender": "generic", "item": 6, "day": 1
        }

    def test_a_255th_recommender_is_refused(self):
        trail, expected = AuditTrail(), []
        for k in range(253):
            trail.clicks([k], f"r{k}", [k], 0)
            expected.append(
                {"event": "click", "consumer": k, "recommender": f"r{k}", "item": k, "day": 0}
            )
        # A refused click takes no code, so the 254th recommender still fits
        with pytest.raises(ValueError, match="int64"):
            trail.clicks([1], "refused", [2**63], 0)
        trail.clicks([1, 2], "r253", [3, 4], 5)
        expected += [
            {"event": "click", "consumer": c, "recommender": "r253", "item": i, "day": 5}
            for c, i in ((1, 3), (2, 4))
        ]
        assert trail.lines == jsonl(expected)
        for recommender in ("r254", "refused"):
            with pytest.raises(ValueError, match="at most 254 recommenders"):
                trail.clicks([1], recommender, [2], 0)
        assert trail.lines == jsonl(expected)
        # The recommenders it holds still write
        trail.clicks([7], "r0", [8], 9)
        expected.append({"event": "click", "consumer": 7, "recommender": "r0", "item": 8, "day": 9})
        assert trail.lines == jsonl(expected)

    @given(
        policy=st.sampled_from(list(PortabilityPolicy)),
        write=st.sampled_from(
            [
                ("clicks", "consumer"), ("clicks", "item"), ("clicks", "day"),
                ("record_click", "consumer"), ("record_click", "item"), ("record_click", "day"),
                ("seed_histories", "consumer"), ("seed_histories", "item"),
            ]
        ),
        bad=OUTSIDE_INT64,
        recommender=st.sampled_from(RECS),
    )
    def test_a_click_outside_int64_is_refused_and_written_nowhere(
        self, policy, write, bad, recommender
    ):
        path, field = write
        consumer, item, day = (bad if field == name else 2 for name in ("consumer", "item", "day"))
        trail = AuditTrail()
        # The store knows the id, so only the trail can refuse the click
        store = ProfileStore.create(
            policy, RECS, sorted({0, 1, 2, consumer}), sorted({0, 1, 2, item}), trail
        )
        seed_histories(store, "generic", {0: [0, 1]})
        record_click(store, 1, "generic", 2, 0)
        lines, state = trail.lines, store_state(store)
        visible = {rid: matrix.copy() for rid, matrix in store.visible.items()}
        with pytest.raises(ValueError, match="int64"):
            if path == "clicks":
                # A good pair before the bad one: neither is written
                trail.clicks([1, consumer], recommender, [1, item], day)
            elif path == "record_click":
                record_click(store, consumer, recommender, item, day)
            else:
                seed_histories(store, recommender, {1: [1], consumer: [item]})
        assert trail.lines == lines
        assert store_state(store) == state
        for rid, matrix in store.visible.items():
            assert np.array_equal(matrix, visible[rid]), rid
        # The trail and the store take the next click as if nothing happened
        record_click(store, 2, recommender, 0, 1)
        assert trail.events[-1] == {
            "event": "click", "consumer": 2, "recommender": recommender, "item": 0, "day": 1
        }
        assert store.visible[recommender][store.consumer_rows[2], store.item_rows[0]]

    def test_an_empty_trail_is_truthy(self):
        # run_experiment_suite audits the prefix when any scenario has a trail
        assert AuditTrail() and any({"s": AuditTrail()}.values())

    def test_a_click_is_held_in_at_most_48_bytes(self):
        trail = AuditTrail()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for k in range(20_000):
                trail.clicks((10_000 + k % 500,), RECS[k % 2], (20_000 + k % 300,), k // 500)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held / 20_000 <= 48, held / 20_000
