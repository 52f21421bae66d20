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

import helpers
from helpers import (
    assert_engine_invariants,
    assert_matrices_index_lists,
    build_preferences_per_record,
    consumer_rows,
    genre_similarity,
    item_genres,
    openblas,
    reference_run_day,
    run_from_scratch,
    seed_per_click,
)
from recmarket import engine, portability, recommender
from recmarket.behavior import BehaviorParams
from recmarket.dataset import GENERIC, NICHE, SyntheticSpec, generate_synthetic
from recmarket.engine import (
    GENERIC_RECOMMENDER,
    ScenarioConfig,
    SwitchTiming,
    prepare_state,
    run_day,
    run_experiment_suite,
    run_scenario,
    standard_suite,
    train_cycle,
)
from recmarket.errors import ConfigError
from recmarket.portability import AuditTrail, PortabilityPolicy, ProfileStore
from recmarket.recommender import Provenance, RecommenderConfig


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
        cycles=4,
        days_per_cycle=3,
        slate_size=5,
        warmup_cycles=1,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def baseline_config(**overrides):
    return small_config(policy=None, **overrides)


class TestValidation:
    def test_warmup_must_be_before_end(self):
        with pytest.raises(ConfigError, match="warmup"):
            small_config(warmup_cycles=4).validate()

    def test_popular_list_must_cover_slate(self):
        short = RecommenderConfig(GENERIC_RECOMMENDER, popular_list_size=3)
        with pytest.raises(ConfigError, match="popular_list_size"):
            small_config(recommender=short, slate_size=5).validate()

    def test_behavior_params_checked(self):
        with pytest.raises(ConfigError, match="beta"):
            small_config(behavior=BehaviorParams(recency_bias=-1.0)).validate()

    def test_error_raised_before_any_simulation(self):
        with pytest.raises(ConfigError):
            run_scenario(small_config(warmup_cycles=9), small_data())

    def test_unknown_niche_genre_rejected(self):
        with pytest.raises(ConfigError, match="niche_genre 'NoSuchGenre' is not an item genre"):
            prepare_state(small_config(niche_genre="NoSuchGenre"), small_data())


class TestRunDay:
    def test_one_slate_per_consumer(self):
        state = prepare_state(small_config(), small_data())
        train_cycle(state)
        run_day(state)
        assert sum(state.provenance.values()) == len(state.consumers)

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
        assert not state.provider_clicks
        rows = np.arange(len(state.consumers))
        assert not np.isnan(state.estimates[rows, state.current]).any()

    def test_provider_credit_increments_by_one_per_click(self):
        audit = AuditTrail()
        state = prepare_state(small_config(), small_data(), audit=audit)
        train_cycle(state)
        seeded = len(audit.lines)
        run_day(state)
        assert sum(state.provider_clicks.values()) == len(audit.lines) - seeded > 0


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
            assert all(state.columns[c] in state.active for c in state.current.tolist())

    @pytest.mark.parametrize(
        "widest", [baseline_config(), small_config()], ids=["alone", "suite_branch"]
    )
    def test_baseline_refuses_switch_evaluation(self, widest):
        # Alone the baseline has one column; as a branch of a switching suite
        # it has the suite's two, and a move to the niche one, which the
        # baseline never trains, would fail the next day's serve.
        state = prepare_state(widest, small_data())
        state.config = baseline_config()
        for cycle in range(state.config.warmup_cycles + 1):
            state.cycle = cycle
            train_cycle(state)
            for _ in range(state.config.days_per_cycle):
                run_day(state)
        current = state.current.copy()
        with pytest.raises(ConfigError, match="baseline"):
            engine.evaluate_switches(state)
        assert state.current.tolist() == current.tolist()

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

    @pytest.mark.parametrize("timing", list(SwitchTiming))
    @pytest.mark.parametrize("policy", list(PortabilityPolicy))
    def test_no_switching_threshold_equals_the_baseline(self, policy, timing):
        # With a threshold of 0 no estimate falls below it, so nobody
        # switches: a policy's scenario is the baseline, bit for bit, up to
        # the scenario name and the baseline flag.
        data = small_data(seed=5, consumers=60)
        frozen = dict(
            seed=5,
            switch_timing=timing,
            behavior=BehaviorParams(satisfaction_threshold=0.0),
        )
        frozen_report = run_scenario(small_config(policy, **frozen), data, collect_day_rows=True)
        base_report = run_scenario(baseline_config(**frozen), data, collect_day_rows=True)
        base_report = replace(base_report, scenario=frozen_report.scenario, baseline=False)
        assert frozen_report.switch_events == ()
        assert base_report == frozen_report
        emitters = (
            engine.cycle_csv_lines,
            engine.provider_csv_lines,
            engine.switch_csv_lines,
            engine.day_csv_lines,
            engine.render_summary,
        )
        for emit in emitters:
            assert emit([base_report]) == emit([frozen_report]), emit.__name__

    @staticmethod
    def digests_at_one_and_two_threads(tmp_path, config_text, *emit):
        """The sha256 of every file ``recmarket run`` writes for the config,
        by file name, in one subprocess at 1 BLAS thread and one at 2."""
        config = tmp_path / "blas.ini"
        config.write_text(config_text)
        src = str(Path(engine.__file__).resolve().parents[1])
        digests = []
        for threads in ("1", "2"):
            out = tmp_path / f"out{threads}"
            env = dict(
                os.environ,
                OPENBLAS_NUM_THREADS=threads,
                PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
            )
            argv = ["run", "--config", str(config), "--out", str(out), *emit]
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
        return digests

    def test_blas_thread_count_leaves_reports_identical(self, tmp_path):
        # Slates rank by exact score bits, so the reports must not depend on
        # how many threads the BLAS library splits the products over.
        one, two = self.digests_at_one_and_two_threads(
            tmp_path,
            "[scenario]\nseed = 17\nniche_genre = Horror\n"
            "policies = universal, cold_start\ncycles = 3\ndays_per_cycle = 2\n"
            "warmup_cycles = 1\n"
            "[data]\nsource = synthetic\nconsumers = 200\nitems = 150\nproviders = 10\n",
            "--emit",
            "audit-log",
        )
        assert len(one) >= 7
        assert one == two

    @pytest.mark.skipif(not openblas(), reason="numpy is not built on OpenBLAS")
    @pytest.mark.xfail(
        raises=AssertionError,
        reason="the similarity table's GEMM moves the last bit of a few cells with the "
        "thread count (TestSimilarityTable); at seed 1 one reaches universal's cycle-7 "
        "Generic utility: 0.3930501196780597 at 1 thread, 0.39305011967805975 at 2",
    )
    def test_blas_thread_count_leaves_the_seed_1_reports_identical(self, tmp_path):
        # The smallest run found that shows the fault: at cycles = 7 the
        # bytes still match
        one, two = self.digests_at_one_and_two_threads(
            tmp_path,
            "[scenario]\nseed = 1\nniche_genre = Horror\npolicies = universal\ncycles = 8\n"
            "[data]\nsource = synthetic\nconsumers = 500\nitems = 300\nproviders = 20\n"
            "niche_fraction = 0.1\n",
        )
        assert len(one) >= 5
        assert one == two

    def test_per_cycle_metric_matches_day_rows(self):
        report = run_scenario(small_config(), small_data(), collect_day_rows=True)
        for row in report.cycle_utilities:
            days = [
                d.mean_utility
                for d in report.day_utilities
                if d.cycle == row.cycle and d.consumer_type == row.consumer_type
            ]
            assert np.mean(days) == pytest.approx(row.mean_utility, abs=1e-9)


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


class TestReferenceDay:
    """The engine's day against ``helpers.reference_run_day``, which serves,
    scores, picks and switches one consumer at a time from the per-item
    oracles: every serve, report byte, CSV line and audit line must be equal."""

    @staticmethod
    def outputs(configs, data):
        audits = {c.scenario_name: AuditTrail() for c in configs}
        reports = run_experiment_suite(configs, data, audits, collect_day_rows=True).reports
        emitted = {
            emit.__name__: emit(reports)
            for emit in (
                engine.cycle_csv_lines,
                engine.provider_csv_lines,
                engine.switch_csv_lines,
                engine.day_csv_lines,
                engine.render_summary,
            )
        }
        return {
            "reports": [json.dumps(r.to_json_dict(), indent=2, sort_keys=True) for r in reports],
            "provenance": [r.provenance_counts for r in reports],
            "switches": [len(r.switch_events) for r in reports],
            "audit": {name: trail.lines for name, trail in audits.items()},
            **emitted,
        }

    @pytest.mark.parametrize("slate_size", [5, 10])
    @pytest.mark.parametrize("timing", list(SwitchTiming))
    def test_suite_equals_the_reference_day(self, monkeypatch, timing, slate_size):
        # All five scenarios, with a threshold at which consumers switch
        configs = [replace(c, slate_size=slate_size) for c in switching_suite(timing)]
        data = small_data()
        item_ids = data[1].item_ids
        # Every serve as (consumer id, tier, slate item ids in order)
        got_serves, want_serves = [], []
        serve, recommend = recommender.serve, helpers.recommend

        def engine_serve(model, consumer_id, *args):
            tier, rows = serve(model, consumer_id, *args)
            got_serves.append((consumer_id, tier, tuple(item_ids[rows].tolist())))
            return tier, rows

        def reference_recommend(consumer_id, *args):
            slate = recommend(consumer_id, *args)
            want_serves.append((consumer_id, slate.provenance, slate.item_ids))
            return slate

        with monkeypatch.context() as patch:
            patch.setattr(recommender, "serve", engine_serve)
            got = self.outputs(configs, data)
        with monkeypatch.context() as patch:
            patch.setattr(engine, "run_day", reference_run_day)
            patch.setattr(helpers, "recommend", reference_recommend)
            want = self.outputs(configs, data)
        assert got_serves == want_serves
        for key in want:
            assert got[key] == want[key], key
        # Every tier fires, so the subscriber counts' timing and the
        # fallback's draws are exercised
        tiers = Counter(tier for _consumer, tier, _items in got_serves)
        assert set(tiers) == set(Provenance), tiers
        assert all(got["switches"][1:]), got["switches"]
        assert all(len(lines) > 0 for lines in got["audit"].values())

    def test_global_popular_is_the_logs_popular_list(self):
        # The reference day reads the set-up's one popular list
        log, catalog = data = small_data()
        config = small_config()
        state = prepare_state(config, data)
        size = config.recommender.popular_list_size
        assert catalog.item_ids[state.popular].tolist() == recommender.popular_list(log, size)

    def test_similarity_table_is_the_per_pair_cosine(self):
        # The reference day reads the set-up's similarity table; each cell
        # is the cosine of one preference row and one item's genres
        state = prepare_state(small_config(), small_data())
        for row, preference in enumerate(state.consumers.preferences.tolist()):
            for item in state.catalog.item_ids.tolist()[::7]:
                cell = state.sims[row, np.searchsorted(state.catalog.item_ids, item)]
                want = genre_similarity(preference, item_genres(state.catalog, item))
                assert cell == pytest.approx(want, abs=1e-12)


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

        def apply_switch(state, row, column, day_in_cycle):
            source = state.columns[state.current[row]]
            original_switch(state, row, column, day_in_cycle)
            cid = int(state.consumers.consumer_ids[row])
            assert_engine_invariants(state, (cid, source))
            switches[state.config.scenario_name] += 1

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
            for config in state.config.recommenders:
                rid = config.recommender_id
                got = state.models[rid].model
                seed = engine.derive_seed(state.config.seed, "train", rid, state.cycle)
                view = portability.training_view(state.store, rid)
                want = recommender.train(view, config, seed, state.cycle)
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

        seeds = consumer_rows(build_preferences_per_record(log, state.catalog, "Horror"))
        reference = ProfileStore.create(
            config.store_policy,
            state.active,
            [s.consumer_id for s in seeds],
            catalog.item_ids,
            AuditTrail() if audited else None,
        )
        histories = {s.consumer_id: s.initial_history for s in seeds}
        seed_per_click(reference, GENERIC_RECOMMENDER, histories)

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
            (e.consumer_id, e.from_id, e.to_id, e.cycle) for e in state.switch_events
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

    def test_an_audit_key_naming_no_scenario_is_refused(self):
        # Else that trail would end the run empty, with no error
        configs = [small_config(policy=PortabilityPolicy.COLD_START), small_config()]
        trail = AuditTrail()
        with pytest.raises(ConfigError, match="'coldstart' names no scenario"):
            run_experiment_suite(configs, small_data(), audits={"coldstart": trail})
        assert trail.lines == []

    def test_one_trail_for_two_scenarios_is_refused(self):
        # Else it would hold both branches, and the prefix twice
        configs = [small_config(policy=PortabilityPolicy.COLD_START), small_config()]
        trail = AuditTrail()
        audits = {"cold_start": trail, "universal": trail}
        with pytest.raises(ConfigError, match="'universal' and 'cold_start' share one trail"):
            run_experiment_suite(configs, small_data(), audits=audits)
        assert trail.lines == []

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
        (record,) = [r for r in caplog.records if r.name == "recmarket.engine"]
        if warmup_cycles == 2 and timing is SwitchTiming.END_OF_CYCLE:
            # The suite ends where it forks, so no branch trains
            assert record.getMessage() == "fork cycle 3: 0 fits trained, 0 reused"
        else:
            # The suite reused a fork-cycle model, so the oracle covers the memo
            _fork, _trained, reused = record.args
            assert reused > 0

    @pytest.mark.parametrize(
        "other",
        [
            small_config(
                policy=PortabilityPolicy.COLD_START,
                recommender=RecommenderConfig(GENERIC_RECOMMENDER, epochs=2),
            ),
            small_config(
                policy=None,
                recommender=RecommenderConfig(GENERIC_RECOMMENDER, epochs=2),
            ),
        ],
        ids=["epochs", "baseline_home"],
    )
    def test_scenarios_with_other_recommenders_rejected(self, other):
        # A suite forks one market, so its recommenders may differ only as
        # the policy implies: the same hyperparameters in every scenario.
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
        rngs = prefix.consumer_rngs
        for rng in rngs[::2]:
            rng.random(3)
        for rng in rngs[::3]:  # leaves half a 64-bit draw buffered
            rng.integers(0, 10, dtype=np.uint32)
        copied, untouched = copy.deepcopy(prefix.consumer_rngs), copy.deepcopy(prefix.consumer_rngs)

        def draws(rng):
            return rng.integers(0, 10, 3, dtype=np.uint32).tolist(), rng.random(3).tolist()

        branch = engine._fork(prefix)
        assert len(branch.consumer_rngs) == len(rngs)
        for row, rng in enumerate(branch.consumer_rngs):
            assert rng is not prefix.consumer_rngs[row]
            assert draws(rng) == draws(copied[row])
            # drawing from the branch left the prefix's generator where it was
            assert draws(prefix.consumer_rngs[row]) == draws(untouched[row])

    def test_fork_shares_the_consumer_table_and_copies_its_state(self):
        # Forked a day into its second cycle, after a cycle with switches
        prefix = prepare_state(small_config(warmup_cycles=0), small_data())
        engine._run_cycles(prefix, range(1), "prefix")
        prefix.cycle = 1
        engine.train_cycle(prefix)
        engine.run_day(prefix)
        branch = engine._fork(prefix)
        # What no branch writes is shared; everything it writes is its own
        for name in ("consumers", "catalog", "pools", "sims", "provider_type_of_row"):
            assert getattr(branch, name) is getattr(prefix, name), name
        for name in ("current", "estimates", "cycle_sum"):
            mine, theirs = getattr(branch, name), getattr(prefix, name)
            assert not np.shares_memory(mine, theirs), name
            assert mine.tobytes() == theirs.tobytes(), name
        for name in ("provider_clicks", "provenance", "switch_events", "cycle_rows"):
            mine, theirs = getattr(branch, name), getattr(prefix, name)
            assert mine is not theirs and mine == theirs and mine, name
        branch.current[0] = 1
        branch.estimates[0, 1] = 0.5
        assert prefix.current[0] == 0
        assert np.isnan(prefix.estimates[0, 1])

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
    argv += ["--emit", "audit-log", "--emit", "per-day", "--emit", "model-dump"]
    code = f"import sys\nfrom recmarket import cli\ncli.main({argv!r})\n"
    code += "print('numpy.ma' in sys.modules)"
    src = str(Path(engine.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
