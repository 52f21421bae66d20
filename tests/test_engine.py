"""Simulation loop: ordering, metrics, determinism, switch timing."""

import copy
import gc
import hashlib
import json
import logging
import os
import subprocess
import sys
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    ServingContext,
    Slate,
    assert_engine_invariants,
    assert_matrices_index_lists,
    build_preferences_per_record,
    list_utility,
    recommend,
    run_from_scratch,
    seed_per_click,
    select_item,
)
from recmarket import behavior, engine, portability, recommender
from recmarket.behavior import BehaviorParams
from recmarket.dataset import GENERIC, NICHE, SyntheticSpec, generate_synthetic
from recmarket.engine import (
    ScenarioConfig,
    SwitchTiming,
    default_recommenders,
    derive_rng,
    prepare_state,
    run_day,
    run_experiment_suite,
    run_scenario,
    standard_suite,
    train_cycle,
)
from recmarket.errors import ConfigError
from recmarket.portability import AuditTrail, PortabilityPolicy, ProfileStore
from recmarket.recommender import ALL_GENRES, Provenance, RecommenderConfig


def small_data(seed=0, consumers=40, items=80, providers=6):
    return generate_synthetic(
        SyntheticSpec(
            consumers=consumers,
            items=items,
            providers=providers,
            niche_fraction=0.1,
            seed=seed,
        )
    )


def small_config(policy=PortabilityPolicy.UNIVERSAL, **overrides):
    defaults = dict(
        seed=1,
        niche_genre="Horror",
        policy=policy,
        recommenders=default_recommenders("Horror"),
        cycles=4,
        days_per_cycle=3,
        slate_size=5,
        warmup_cycles=1,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def baseline_config(**overrides):
    recs = (default_recommenders("Horror")[0],)
    return small_config(policy=None, recommenders=recs, **overrides)


class TestValidation:
    def test_warmup_must_be_before_end(self):
        with pytest.raises(ConfigError, match="warmup"):
            small_config(warmup_cycles=4).validate()

    def test_two_recommenders_need_one_specialist(self):
        both_generic = (
            RecommenderConfig("a", ALL_GENRES),
            RecommenderConfig("b", ALL_GENRES),
        )
        with pytest.raises(ConfigError, match="specialized"):
            small_config(recommenders=both_generic).validate()

    def test_baseline_single_recommender_only(self):
        with pytest.raises(ConfigError, match="baseline"):
            small_config(policy=None).validate()

    def test_popular_list_must_cover_slate(self):
        recs = tuple(
            replace(r, popular_list_size=3) for r in default_recommenders("Horror")
        )
        with pytest.raises(ConfigError, match="popular_list_size"):
            small_config(recommenders=recs, slate_size=5).validate()

    def test_behavior_params_checked(self):
        with pytest.raises(ConfigError, match="beta"):
            small_config(behavior=BehaviorParams(recency_bias=-1.0)).validate()

    def test_error_raised_before_any_simulation(self):
        with pytest.raises(ConfigError):
            run_scenario(small_config(warmup_cycles=9), small_data())

    def test_unknown_specialization_genre_rejected(self):
        recs = (
            RecommenderConfig("generic", ALL_GENRES),
            RecommenderConfig("niche", "NoSuchGenre"),
        )
        with pytest.raises(ConfigError, match="NoSuchGenre"):
            prepare_state(small_config(recommenders=recs), small_data())


class TestRunDay:
    def test_one_slate_per_consumer(self):
        state = prepare_state(small_config(), small_data())
        train_cycle(state)
        run_day(state)
        assert sum(state.metrics.provenance.values()) == len(state.consumers)

    def test_click_conservation(self):
        # Every click the store records counts once, for a Generic or a Niche provider
        audit = AuditTrail()
        report = run_scenario(small_config(), small_data(), audit=audit)
        clicks = [e for e in audit.events if e["event"] == "click" and e["day"] >= 0]
        assert set(report.provider_clicks) == {GENERIC, NICHE}
        assert report.total_clicks == len(clicks) > 0

    def test_no_selection_still_updates_estimate(self):
        # Raise the similarity bar so nothing is clickable.
        config = small_config(
            behavior=BehaviorParams(select_threshold=1.0), cycles=2, warmup_cycles=0
        )
        state = prepare_state(config, small_data())
        train_cycle(state)
        run_day(state)
        assert not state.metrics.provider_clicks
        assert all(
            c.current_recommender in c.utility_estimates for c in state.consumers
        )

    def test_provider_credit_increments_by_one_per_click(self):
        audit = AuditTrail()
        state = prepare_state(small_config(), small_data(), audit=audit)
        train_cycle(state)
        seeded = len(audit.lines)
        run_day(state)
        assert sum(state.metrics.provider_clicks.values()) == len(audit.lines) - seeded > 0


class TestWarmupAndSwitching:
    def test_no_switches_during_warmup(self):
        report = run_scenario(small_config(warmup_cycles=2, cycles=4), small_data())
        assert all(e.cycle >= 2 for e in report.switch_events)

    def test_baseline_has_no_switches(self):
        report = run_scenario(baseline_config(), small_data())
        assert report.switch_events == ()

    def test_per_day_timing_also_respects_warmup(self):
        report = run_scenario(
            small_config(switch_timing=SwitchTiming.PER_DAY), small_data()
        )
        assert all(e.cycle >= 1 for e in report.switch_events)

    def test_attachment_stays_within_active_set(self):
        config = small_config()
        state = prepare_state(config, small_data())
        for cycle in range(config.cycles):
            state.cycle = cycle
            train_cycle(state)
            for _ in range(config.days_per_cycle):
                run_day(state)
            if cycle >= config.warmup_cycles:
                engine.evaluate_switches(state)
            assert all(
                c.current_recommender in state.active for c in state.consumers
            )

    def test_switch_event_fields_consistent(self):
        report = run_scenario(small_config(), small_data())
        for e in report.switch_events:
            assert e.from_id != e.to_id
            assert e.consumer_type in (NICHE, GENERIC)


class TestDeterminismAndEquivalence:
    def test_same_seed_same_report(self):
        a = run_scenario(small_config(), small_data())
        b = run_scenario(small_config(), small_data())
        assert a == b

    def test_reports_differ_across_seeds(self):
        a = run_scenario(small_config(seed=1), small_data())
        b = run_scenario(small_config(seed=2), small_data())
        assert a != b

    def test_baseline_equals_universal_single_recommender(self):
        # Universal-policy run with only the home recommender and an
        # unreachable switching threshold is bit-identical to the baseline.
        data = small_data()
        recs = (default_recommenders("Horror")[0],)
        base = baseline_config()
        frozen = small_config(
            policy=PortabilityPolicy.UNIVERSAL,
            recommenders=recs,
            behavior=BehaviorParams(satisfaction_threshold=0.0),
        )
        frozen_report = run_scenario(frozen, data)
        base_report = replace(run_scenario(base, data), scenario=frozen_report.scenario)
        # identical up to the scenario name and the baseline metadata flag
        assert replace(base_report, baseline=False) == frozen_report
        for emit in (engine.cycle_csv_lines, engine.provider_csv_lines, engine.switch_csv_lines):
            assert emit([base_report]) == emit([frozen_report])
        assert engine.render_summary([base_report]) == engine.render_summary([frozen_report])

    def test_blas_thread_count_leaves_reports_identical(self, tmp_path):
        # Slates rank by exact score bits, so the reports must not depend on
        # how many threads the BLAS library splits the products over.
        config = tmp_path / "blas.ini"
        config.write_text(
            "[scenario]\nseed = 17\nniche_genre = Horror\n"
            "policies = universal, cold_start\ncycles = 3\ndays_per_cycle = 2\n"
            "warmup_cycles = 1\n"
            "[data]\nsource = synthetic\nconsumers = 200\nitems = 150\nproviders = 10\n"
        )
        src = str(Path(engine.__file__).resolve().parents[1])
        digests = []
        for threads in ("1", "2"):
            out = tmp_path / f"out{threads}"
            env = dict(
                os.environ,
                OPENBLAS_NUM_THREADS=threads,
                PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
            )
            argv = ["run", "--config", str(config), "--out", str(out), "--emit", "audit-log"]
            subprocess.run(
                [sys.executable, "-m", "recmarket.cli", *argv],
                env=env,
                check=True,
                capture_output=True,
                timeout=300,
            )
            digests.append(
                {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
            )
        assert len(digests[0]) >= 7
        assert digests[0] == digests[1]

    def test_per_cycle_metric_matches_day_rows(self):
        report = run_scenario(small_config(), small_data(), collect_day_rows=True)
        for row in report.cycle_utilities:
            days = [
                d.mean_utility
                for d in report.day_utilities
                if d.cycle == row.cycle and d.consumer_type == row.consumer_type
            ]
            assert np.mean(days) == pytest.approx(row.mean_utility, abs=1e-9)


class TestServeMirrorsRecommend:
    """The engine's array-native serving, utility and selection against the
    per-item oracles in ``helpers``, for every consumer on every day."""

    def run_against_oracle(self, monkeypatch, config, data):
        log, _catalog = data
        states = []
        tiers = Counter()
        counts_cache: dict = {}
        last: dict = {}

        def oracle_counts(state, rid):
            # taken at the first popularity-tier serve of the day, as documented
            key = (state.day, rid)
            if key not in counts_cache:
                view = portability.training_view(state.store, rid)
                counts = Counter(
                    item
                    for consumer in state.consumers
                    if consumer.current_recommender == rid
                    for item, _day in view.get(consumer.consumer_id, ())
                )
                counts_cache[key] = dict(counts)
            return counts_cache[key]

        def assert_visibility(state):
            # The engine counts a profile's items by its visibility matrix
            # row, so no profile list may hold an item twice
            for rid in state.active:
                view = portability.training_view(state.store, rid)
                for k, consumer in enumerate(state.consumers):
                    got = {int(i) for i in state.index.item_ids[state.store.visible[rid][k]]}
                    expected = portability.visible_items(state.store, rid, consumer.consumer_id)
                    assert got == expected, (state.day, rid, consumer.consumer_id)
                    listed = [item for item, _day in view.get(consumer.consumer_id, ())]
                    assert len(listed) == len(expected), (state.day, rid, consumer.consumer_id)

        original_prepare = engine.prepare_state
        original_serve = engine._serve
        original_utility = behavior.slate_utility
        original_choose = behavior.choose_item
        original_run_day = engine.run_day
        original_switch = engine._apply_switch

        def prepare(*args, **kwargs):
            state = original_prepare(*args, **kwargs)
            states.append(state)
            assert_visibility(state)
            return state

        def serve(state, row, consumer):
            rid = consumer.current_recommender
            cid = consumer.consumer_id
            rec_config = state.rec_configs[rid]
            model = state.models[rid].model
            if rec_config.specialization == ALL_GENRES:
                pool = sorted(state.catalog.items)
            else:
                pool = state.catalog.items_with_genre(rec_config.specialization)
            seen = portability.visible_items(state.store, rid, cid)
            cands = [i for i in pool if i not in seen]
            ctx = ServingContext(
                subscriber_counts=(
                    oracle_counts(state, rid)
                    if cands and not model.knows_consumer(cid)
                    else {}
                ),
                global_popular=recommender.popular_list(log, rec_config.popular_list_size),
            )
            expected = recommend(
                cid,
                model,
                cands,
                state.config.slate_size,
                copy.deepcopy(state.consumer_rngs[cid]),
                ctx,
                rid,
            )
            tier, rows = original_serve(state, row, consumer)
            got = Slate(rid, cid, tuple(int(i) for i in state.index.item_ids[rows]), tier)
            assert got == expected, (state.day, cid)
            tiers[tier] += 1
            last.update(state=state, consumer=consumer, slate=expected)
            return tier, rows

        def utility(sims):
            got = original_utility(sims)
            expected = list_utility(last["consumer"], last["slate"], last["state"].catalog)
            assert got == pytest.approx(expected, abs=1e-12)
            return got

        def choose(sims, threshold, rng):
            state, slate = last["state"], last["slate"]
            expected = select_item(
                last["consumer"], slate, state.catalog, state.config.behavior, copy.deepcopy(rng)
            )
            got = original_choose(sims, threshold, rng)
            assert (None if got is None else slate.item_ids[got]) == expected
            return got

        def run_day(state):
            original_run_day(state)
            assert_visibility(state)

        def apply_switch(state, consumer, day_in_cycle):
            before = len(state.metrics.switch_events)
            original_switch(state, consumer, day_in_cycle)
            if len(state.metrics.switch_events) > before:
                assert_visibility(state)

        with monkeypatch.context() as patch:
            patch.setattr(engine, "prepare_state", prepare)
            patch.setattr(engine, "_serve", serve)
            patch.setattr(behavior, "slate_utility", utility)
            patch.setattr(behavior, "choose_item", choose)
            patch.setattr(engine, "run_day", run_day)
            patch.setattr(engine, "_apply_switch", apply_switch)
            report = run_scenario(config, data)
        assert len(states) == 1
        consumer_days = len(states[0].consumers) * config.cycles * config.days_per_cycle
        assert sum(tiers.values()) == consumer_days
        return report, tiers

    def test_engine_serving_equals_reference_implementation(self, monkeypatch):
        # Every scenario of the suite under both switch timings. A higher
        # satisfaction threshold makes consumers switch, so profiles move
        # and every serving tier fires.
        data = small_data()
        tiers = Counter()
        switches = Counter()
        for timing in SwitchTiming:
            overrides = dict(
                switch_timing=timing, behavior=BehaviorParams(satisfaction_threshold=0.4)
            )
            for policy in [None, *PortabilityPolicy]:
                if policy is None:
                    config = baseline_config(**overrides)
                else:
                    config = small_config(policy, **overrides)
                report, seen = self.run_against_oracle(monkeypatch, config, data)
                tiers += seen
                switches[timing, policy] = len(report.switch_events)
        assert set(tiers) == set(Provenance), tiers
        assert all(n > 0 for (_timing, policy), n in switches.items() if policy), switches

    def test_tier3_sampling_identical_with_same_stream(self):
        config = small_config()
        data = small_data()
        state = prepare_state(config, data)
        train_cycle(state)
        consumer = state.consumers[0]
        rid = consumer.current_recommender
        # force the fallback tier by blanking the model and store
        empty = recommender.TrainedModel.empty(2)
        state.models[rid] = recommender.CatalogModel.align(empty, state.index.item_ids)
        state.store.shared.clear()
        state.store.per_recommender.get(rid, {}).clear()
        state.store.visible[rid][:] = False  # the lists' index, blanked with them
        state._fallback_counts = {}
        seed_rng = derive_rng(config.seed, "consumer", consumer.consumer_id)
        state.consumer_rngs[consumer.consumer_id] = derive_rng(
            config.seed, "consumer", consumer.consumer_id
        )
        tier, rows = engine._serve(state, 0, consumer)
        items = tuple(int(i) for i in state.index.item_ids[rows])
        popular = recommender.popular_list(data[0], state.rec_configs[rid].popular_list_size)
        expected = recommend(
            consumer.consumer_id,
            empty,
            sorted(state.catalog.items),
            config.slate_size,
            seed_rng,
            ServingContext(subscriber_counts={}, global_popular=popular),
            rid,
        )
        assert Slate(rid, consumer.consumer_id, items, tier) == expected
        assert tier is Provenance.GLOBAL_POPULAR_FALLBACK


def switching_suite(timing):
    """The five scenarios over ``small_data`` with enough switching to move
    profiles under every policy."""
    return standard_suite(
        seed=1,
        niche_genre="Horror",
        cycles=4,
        days_per_cycle=3,
        warmup_cycles=1,
        slate_size=5,
        switch_timing=timing,
        behavior=BehaviorParams(satisfaction_threshold=0.5),
    )


class TestEngineInvariants:
    @pytest.mark.parametrize("timing", list(SwitchTiming))
    def test_hold_after_every_day_and_switch(self, monkeypatch, timing):
        configs = switching_suite(timing)
        days, switches = [], Counter()
        original_run_day, original_switch = engine.run_day, engine._apply_switch

        def run_day(state):
            original_run_day(state)
            assert_engine_invariants(state)
            days.append(state.day)

        def apply_switch(state, consumer, day_in_cycle):
            source = consumer.current_recommender
            original_switch(state, consumer, day_in_cycle)
            moved = consumer.current_recommender != source
            assert_engine_invariants(state, (consumer.consumer_id, source) if moved else None)
            switches[state.config.scenario_name] += moved

        monkeypatch.setattr(engine, "run_day", run_day)
        monkeypatch.setattr(engine, "_apply_switch", apply_switch)
        run_experiment_suite(configs, small_data())
        assert sorted(set(days)) == list(range(1, 4 * 3 + 1))
        assert set(switches) == {c.scenario_name for c in configs if not c.is_baseline}
        assert all(switches.values()), switches


class TestTrainingMirrorsTheLists:
    """The engine trains on the store's visibility matrices; ``train`` on the
    store's list view, ``portability.training_view``, is the reference."""

    @pytest.mark.parametrize("timing", list(SwitchTiming))
    def test_every_model_equals_training_on_the_lists(self, monkeypatch, timing):
        configs = switching_suite(timing)
        trained = Counter()
        original_train_cycle = engine.train_cycle

        def train_cycle(state, *memo):
            original_train_cycle(state, *memo)
            for rid in state.active:
                got = state.models[rid].model
                seed = engine.derive_seed(state.config.seed, "train", rid, state.cycle)
                view = portability.training_view(state.store, rid)
                want = recommender.train(view, state.rec_configs[rid], seed, state.cycle)
                where = (state.config.scenario_name, rid, state.cycle)
                assert got.user_index == want.user_index, where
                assert got.item_index == want.item_index, where
                assert got.user_factors.tobytes() == want.user_factors.tobytes(), where
                assert got.item_factors.tobytes() == want.item_factors.tobytes(), where
                assert got.trained_at_cycle == want.trained_at_cycle, where
                trained[state.config.scenario_name, rid] += bool(want.user_index)

        monkeypatch.setattr(engine, "train_cycle", train_cycle)
        run_experiment_suite(configs, small_data())
        # every scenario's niche recommender trained on data at least once
        assert all(trained[c.scenario_name, "niche"] for c in configs if not c.is_baseline)
        assert trained["baseline", "generic"] >= 4


class TestSeedingMatchesPerClick:
    """``prepare_state`` seeds every history in one bulk write; seeding the
    same histories one ``record_click`` at a time is the reference."""

    @pytest.mark.parametrize("audited", [False, True])
    @pytest.mark.parametrize("policy", [None, *PortabilityPolicy])
    def test_store_equals_per_click_seeding(self, policy, audited):
        config = small_config(policy) if policy else baseline_config()
        log, catalog = small_data(seed=4)
        state = prepare_state(config, (log, catalog), audit=AuditTrail() if audited else None)

        seeds = build_preferences_per_record(log, state.catalog, "Horror")
        reference = ProfileStore.create(
            config.store_policy,
            state.active,
            [s.consumer_id for s in seeds],
            sorted(catalog.items),
            AuditTrail() if audited else None,
        )
        histories = {s.consumer_id: s.initial_history for s in seeds}
        seed_per_click(reference, config.home.recommender_id, histories)

        store = state.store
        assert portability.store_state(store) == portability.store_state(reference)
        assert store.per_recommender == reference.per_recommender
        assert store.consumer_rows == reference.consumer_rows
        assert store.item_rows == reference.item_rows
        for rid in state.active:
            assert store.visible[rid].dtype == reference.visible[rid].dtype
            assert store.visible[rid].tobytes() == reference.visible[rid].tobytes(), rid
        shared = {id(m) for m in store.visible.values()}
        assert len(shared) == len({id(m) for m in reference.visible.values()})
        assert_matrices_index_lists(store)
        if not audited:
            assert store.audit is None
            return
        assert "".join(store.audit.lines).encode() == "".join(reference.audit.lines).encode()
        assert len(store.audit.lines) == sum(len(h) for h in histories.values())
        rebuilt = portability.replay_audit(store.audit.events, store.policy, state.active)
        assert portability.store_state(rebuilt) == portability.store_state(store)


class TestAuditIntegration:
    def test_audit_replay_matches_final_store_and_events(self):
        config = small_config(policy=PortabilityPolicy.USER_OWNERSHIP)
        data = small_data()
        trail = AuditTrail()
        state = prepare_state(config, data, audit=trail)
        for cycle in range(config.cycles):
            state.cycle = cycle
            train_cycle(state)
            for _ in range(config.days_per_cycle):
                run_day(state)
            if cycle >= config.warmup_cycles:
                engine.evaluate_switches(state)
        rebuilt = portability.replay_audit(trail.events, state.store.policy, state.active)
        assert portability.store_state(rebuilt) == portability.store_state(state.store)
        logged = [
            (e["consumer"], e["source"], e["destination"], e["cycle"])
            for e in trail.events
            if e["event"] == "switch"
        ]
        simulated = [
            (e.consumer_id, e.from_id, e.to_id, e.cycle) for e in state.metrics.switch_events
        ]
        assert logged == simulated


class TestSuite:
    def test_standard_suite_shapes(self):
        data = small_data()
        configs = standard_suite(
            seed=1, niche_genre="Horror", cycles=3, days_per_cycle=2, warmup_cycles=1, slate_size=4
        )
        result = run_experiment_suite(configs, data)
        assert len(result.reports) == 5
        assert [r.scenario for r in result.reports] == [
            "baseline",
            "algorithm_specific",
            "cold_start",
            "user_ownership",
            "universal",
        ]
        summary = engine.render_summary(result.reports)
        assert summary.count("baseline") == 4  # two consumer rows + two provider rows
        for report in result.reports:
            assert set(report.last_cycle_utility) == {GENERIC, NICHE}
            assert set(report.provider_clicks) == {GENERIC, NICHE}

    def test_single_baseline_suite_is_degenerate(self):
        result = run_experiment_suite([baseline_config()], small_data())
        assert len(result.reports) == 1
        summary = engine.render_summary(result.reports)
        assert "switches" not in summary  # no switch block without events
        assert result.reports[0].switch_events == ()

    def test_mismatched_constants_rejected(self):
        data = small_data()
        a = small_config()
        b = small_config(policy=PortabilityPolicy.COLD_START, cycles=5)
        with pytest.raises(ConfigError, match="share"):
            run_experiment_suite([a, b], data)

    def test_duplicate_scenario_names_rejected(self):
        with pytest.raises(ConfigError, match="unique"):
            run_experiment_suite([small_config(), small_config()], small_data())

    def test_csv_emitters_are_line_stable(self):
        data = small_data()
        report = run_scenario(small_config(), data)
        lines1 = engine.cycle_csv_lines([report])
        lines2 = engine.cycle_csv_lines([run_scenario(small_config(), data)])
        assert lines1 == lines2
        assert lines1[0] == "scenario,cycle,consumer_type,mean_utility,n"


def run_alone_and_in_suite(configs, data):
    """Each config's report, day rows, switch events and audit lines: run
    from scratch by the oracle, through ``run_scenario`` and in one suite."""

    def outputs(report, trail):
        return (
            json.dumps(report.to_json_dict(), sort_keys=True),
            report.day_utilities,
            report.switch_events,
            trail.lines,
        )

    runs = {run_from_scratch: [], run_scenario: []}
    for run, got in runs.items():
        for config in configs:
            trail = AuditTrail()
            got.append(outputs(run(config, data, trail, collect_day_rows=True), trail))
    trails = {c.scenario_name: AuditTrail() for c in configs}
    result = run_experiment_suite(configs, data, audits=trails, collect_day_rows=True)
    in_suite = [outputs(r, trails[r.scenario]) for r in result.reports]
    return runs[run_from_scratch], runs[run_scenario], in_suite


def count_train_calls(monkeypatch):
    """Patch ``recommender.fit``, which the engine trains through, to record
    the (recommender id, cycle) of every call."""
    calls = []
    original = recommender.fit

    def fit(observed, user_ids, item_ids, config, seed, trained_at_cycle=0):
        calls.append((config.recommender_id, trained_at_cycle))
        return original(observed, user_ids, item_ids, config, seed, trained_at_cycle)

    monkeypatch.setattr(recommender, "fit", fit)
    return calls


class TestSuiteFork:
    SUITE = dict(seed=1, niche_genre="Horror", cycles=3, days_per_cycle=2, warmup_cycles=1)

    @pytest.mark.parametrize("warmup_cycles", [0, 1, 2])
    @pytest.mark.parametrize("timing", list(SwitchTiming))
    def test_suite_equals_scenarios_run_from_scratch(self, caplog, timing, warmup_cycles):
        configs = standard_suite(
            **{**self.SUITE, "warmup_cycles": warmup_cycles},
            slate_size=4,
            switch_timing=timing,
            behavior=BehaviorParams(satisfaction_threshold=0.4),
        )
        caplog.set_level(logging.INFO, logger="recmarket.engine")
        scratch, alone, in_suite = run_alone_and_in_suite(configs, small_data())
        assert alone == scratch
        assert in_suite == scratch
        assert any(switch_events for _json, _days, switch_events, _audit in scratch)
        # The suite reused a fork-cycle model, so the oracle covers the memo,
        # unless the suite ends where it forks (warm-up 2 under end_of_cycle)
        (record,) = [r for r in caplog.records if r.name == "recmarket.engine"]
        fork, _trained, reused = record.args
        assert reused > 0 or fork == self.SUITE["cycles"]

    @pytest.mark.parametrize(
        "other",
        [
            small_config(
                policy=PortabilityPolicy.COLD_START,
                recommenders=tuple(replace(r, epochs=2) for r in default_recommenders("Horror")),
            ),
            small_config(
                policy=None,
                recommenders=(replace(default_recommenders("Horror")[0], epochs=2),),
            ),
            small_config(
                policy=PortabilityPolicy.COLD_START,
                recommenders=(default_recommenders("Horror")[0], RecommenderConfig("b", "Drama")),
            ),
        ],
        ids=["epochs", "baseline_home", "niche"],
    )
    def test_scenarios_with_other_recommenders_rejected(self, other):
        # A suite forks one market, so its recommenders may differ only as
        # the policy implies: a baseline keeps the home recommender alone.
        with pytest.raises(ConfigError, match="share"):
            run_experiment_suite([small_config(), other], small_data())

    @pytest.mark.parametrize("timing", list(SwitchTiming))
    def test_no_training_before_a_recommender_can_serve(self, monkeypatch, timing):
        # Home trains once per warm-up cycle for the whole suite; the niche
        # recommender, which nobody can use before the first switch, does not.
        configs = standard_suite(**self.SUITE, switch_timing=timing)
        calls = count_train_calls(monkeypatch)
        prepared = []
        original = engine.prepare_state

        def prepare_state(config, *args, **kwargs):
            prepared.append(config)
            return original(config, *args, **kwargs)

        monkeypatch.setattr(engine, "prepare_state", prepare_state)
        run_experiment_suite(configs, small_data())
        warmup, cycles = self.SUITE["warmup_cycles"], self.SUITE["cycles"]
        counts = Counter(calls)
        # At the fork cycle each distinct training is fitted once: under
        # end_of_cycle baseline, algorithm_specific and universal share one
        # home model and cold_start and user_ownership another, and under
        # per_day every branch's home is the prefix's; the niches that no
        # switch has filled are one empty model (under per_day all but
        # universal's, which sees the shared store).
        end_of_cycle = timing is SwitchTiming.END_OF_CYCLE
        fork = warmup + end_of_cycle
        fork_fits = {"generic": 2, "niche": 3} if end_of_cycle else {"generic": 1, "niche": 2}
        assert all(counts["generic", c] == 1 for c in range(warmup + 1))
        assert all(counts["generic", c] == 5 for c in range(warmup + 1, cycles) if c != fork)
        niche_cycles = sorted({c for rid, c in calls if rid == "niche"})
        assert niche_cycles == list(range(fork, cycles))
        assert all(counts["niche", c] == 4 for c in niche_cycles if c != fork)
        assert {rid: counts[rid, fork] for rid in fork_fits} == fork_fits
        assert len(prepared) == 1

    @pytest.mark.parametrize("timing", list(SwitchTiming))
    def test_fork_cycle_fits_each_distinct_training_once(self, monkeypatch, caplog, timing):
        # The oracle: a branch's training at the fork cycle, as its list view,
        # is fitted unless an earlier branch fitted an equal one. The prefix
        # trains only the cycles before the fork, and every branch trains
        # every recommender at the fork cycle through the memo.
        configs = standard_suite(**self.SUITE, switch_timing=timing)
        calls = count_train_calls(monkeypatch)
        cycles = []  # (cycle, through a memo) of every train_cycle call
        trainings = []  # (recommender id, cycle, training pairs) of the branches' memo calls
        fitted = []  # the fits of those calls
        original_train_cycle = engine.train_cycle

        def train_cycle(state, memo=None):
            cycles.append((state.cycle, memo is not None))
            if memo is None:
                return original_train_cycle(state)
            for rid in state.active:
                view = portability.training_view(state.store, rid)
                pairs = frozenset((c, i) for c, e in view.items() for i, _day in e)
                trainings.append((rid, state.cycle, pairs))
            before = len(calls)
            original_train_cycle(state, memo)
            fitted.extend(calls[before:])

        monkeypatch.setattr(engine, "train_cycle", train_cycle)
        caplog.set_level(logging.INFO, logger="recmarket.engine")
        run_experiment_suite(configs, small_data())
        fork = self.SUITE["warmup_cycles"] + (timing is SwitchTiming.END_OF_CYCLE)
        assert cycles[: cycles.index((fork, True))] == [(c, False) for c in range(fork)]
        later = Counter(c for c, memo in cycles if not memo and c >= fork)
        assert later == {c: len(configs) for c in range(fork + 1, self.SUITE["cycles"])}
        assert {c for _rid, c, _pairs in trainings} == {fork}
        assert len(trainings) == sum(len(c.recommenders) for c in configs)
        distinct = Counter((rid, c) for rid, c, _pairs in set(trainings))
        assert Counter(fitted) == distinct
        assert len(trainings) > sum(distinct.values())  # some training was reused
        (record,) = [r for r in caplog.records if r.name == "recmarket.engine"]
        assert record.getMessage() == (
            f"fork cycle {fork}: {sum(distinct.values())} fits trained, "
            f"{len(trainings) - sum(distinct.values())} reused"
        )

    def test_run_scenario_builds_no_memo_and_computes_no_key(self, monkeypatch, caplog):
        def refuse(*args, **kwargs):
            raise AssertionError("a one-scenario suite has no fork to memoize")

        monkeypatch.setattr(engine, "_ForkModels", refuse)
        monkeypatch.setattr(engine, "_fit_key", refuse)
        caplog.set_level(logging.INFO, logger="recmarket.engine")
        run_scenario(small_config(), small_data())
        assert not [r for r in caplog.records if r.name == "recmarket.engine"]

    def test_every_model_is_read_only(self, monkeypatch):
        # The fork-cycle memo hands a model to several branches, and every
        # branch shares the prefix's, so no factor array a suite trains may
        # be writable.
        models = []
        original_train_cycle = engine.train_cycle

        def train_cycle(state, *memo):
            original_train_cycle(state, *memo)
            models.extend(state.models.values())

        monkeypatch.setattr(engine, "train_cycle", train_cycle)
        run_experiment_suite(switching_suite(SwitchTiming.END_OF_CYCLE), small_data())
        assert models
        for m in models:
            arrays = (m.item_factors, m.model.user_factors, m.model.item_factors)
            assert not any(a.flags.writeable for a in arrays)

    def test_run_scenario_shares_nothing_across_calls(self, monkeypatch):
        calls = count_train_calls(monkeypatch)
        config = small_config()
        for _ in range(2):
            run_scenario(config, small_data())
        # home every cycle, the niche from the first cycle after warm-up
        per_run = config.cycles + config.cycles - config.warmup_cycles - 1
        assert calls[:per_run] == calls[per_run:] and len(calls) == 2 * per_run

    def test_fork_draws_like_a_deep_copy(self):
        prefix = prepare_state(small_config(), small_data())
        rngs = list(prefix.consumer_rngs.values())
        for rng in rngs[::2]:
            rng.random(3)
        for rng in rngs[::3]:  # leaves half a 64-bit draw buffered
            rng.integers(0, 10, dtype=np.uint32)
        copied, untouched = copy.deepcopy(prefix.consumer_rngs), copy.deepcopy(prefix.consumer_rngs)

        def draws(rng):
            return rng.integers(0, 10, 3, dtype=np.uint32).tolist(), rng.random(3).tolist()

        branch = engine._fork(prefix)
        for cid, rng in branch.consumer_rngs.items():
            assert rng is not prefix.consumer_rngs[cid]
            assert draws(rng) == draws(copied[cid])
            # drawing from the branch left the prefix's generator where it was
            assert draws(prefix.consumer_rngs[cid]) == draws(untouched[cid])

    def test_branches_run_one_at_a_time(self, monkeypatch):
        # At most the prefix and one branch exist at a time: every forked
        # state is dead when the next branch is forked and when the next one
        # starts, and no state outlives the suite, or peak memory grows by a
        # scenario.
        forks, started = [], []
        original_fork, original_run_branch = engine._fork, engine._run_branch

        def assert_forks_freed(running=None):
            gc.collect()
            assert all(ref() is None or ref() is running for ref in forks)

        def fork(prefix):
            assert_forks_freed()
            state = original_fork(prefix)
            forks.append(weakref.ref(state))
            return state

        def run_branch(state, *args):
            assert_forks_freed(running=state)
            started.append(weakref.ref(state))
            return original_run_branch(state, *args)

        monkeypatch.setattr(engine, "_fork", fork)
        monkeypatch.setattr(engine, "_run_branch", run_branch)
        result = run_experiment_suite(standard_suite(**self.SUITE), small_data())
        gc.collect()
        assert len(forks) == len(result.reports) - 1
        assert len(started) == len(result.reports)
        assert all(ref() is None for ref in started)


def test_a_run_never_imports_numpy_ma(tmp_path):
    # A plain np.unique imports numpy.ma at its first call (12-16 ms), which
    # then lands in whichever phase of a run makes that call first
    config = tmp_path / "run.ini"
    config.write_text(
        "[scenario]\nseed = 5\nniche_genre = Horror\n"
        "policies = baseline, algorithm_specific, cold_start, user_ownership, universal\n"
        "cycles = 3\ndays_per_cycle = 2\nwarmup_cycles = 1\nswitch_timing = per_day\n"
        "[behavior]\ntau = 0.5\n"
        "[data]\nsource = synthetic\nconsumers = 60\nitems = 80\nproviders = 6\n"
    )
    argv = ["run", "--config", str(config), "--out", str(tmp_path / "out")]
    argv += ["--emit", "audit-log", "--emit", "per-day"]
    code = f"import sys\nfrom recmarket import cli\ncli.main({argv!r})\n"
    code += "print('numpy.ma' in sys.modules)"
    src = str(Path(engine.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
