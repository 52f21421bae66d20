"""Simulation orchestration: cycles, days, switching, and metrics.

A scenario run is fully deterministic given (config, data): consumers are
processed in ascending id order and every random stream is derived from the
root seed by stable hashing, so results never depend on map iteration order
or scheduling.
"""

from __future__ import annotations

import copy
import enum
import hashlib
import logging
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from . import behavior, portability, recommender
from .behavior import BehaviorParams, ConsumerState
from .dataset import (
    GENERIC,
    NICHE,
    Catalog,
    InteractionLog,
    build_preferences,
    classify_providers,
)
from .errors import ConfigError
from .portability import AuditTrail, PortabilityPolicy, ProfileStore
from .recommender import ALL_GENRES, CatalogModel, Provenance, RecommenderConfig, TrainedModel

logger = logging.getLogger(__name__)

GENERIC_RECOMMENDER = "generic"
NICHE_RECOMMENDER = "niche"


class SwitchTiming(enum.Enum):
    END_OF_CYCLE = "end_of_cycle"
    PER_DAY = "per_day"


def default_recommenders(niche_genre: str) -> tuple[RecommenderConfig, RecommenderConfig]:
    return (
        RecommenderConfig(GENERIC_RECOMMENDER, specialization=ALL_GENRES),
        RecommenderConfig(NICHE_RECOMMENDER, specialization=niche_genre),
    )


@dataclass(frozen=True)
class ScenarioConfig:
    """All constants of one scenario run.

    ``policy=None`` marks the non-switching baseline with a single
    recommender; any other value enables switching under that portability
    policy.
    """

    seed: int
    niche_genre: str
    policy: PortabilityPolicy | None
    recommenders: tuple[RecommenderConfig, ...]
    cycles: int = 10
    days_per_cycle: int = 10
    slate_size: int = 10
    warmup_cycles: int = 2
    behavior: BehaviorParams = BehaviorParams()
    switch_timing: SwitchTiming = SwitchTiming.END_OF_CYCLE
    history_threshold: float = 4.0

    @property
    def is_baseline(self) -> bool:
        return self.policy is None

    @property
    def scenario_name(self) -> str:
        return "baseline" if self.policy is None else self.policy.value

    @property
    def home(self) -> RecommenderConfig:
        """The all-genre recommender every consumer starts at."""
        return next(r for r in self.recommenders if r.specialization == ALL_GENRES)

    @property
    def store_policy(self) -> PortabilityPolicy:
        """The policy the profile store follows; the baseline's is universal."""
        return self.policy or PortabilityPolicy.UNIVERSAL

    def validate(self) -> None:
        if self.cycles < 1 or self.days_per_cycle < 1 or self.slate_size < 1:
            raise ConfigError("cycles, days_per_cycle and slate_size must be >= 1")
        if not 0 <= self.warmup_cycles < self.cycles:
            raise ConfigError("warmup_cycles must satisfy 0 <= warmup < cycles")
        if not math.isfinite(self.history_threshold):
            raise ConfigError("history_threshold must be finite")
        self.behavior.validate()
        if not self.recommenders:
            raise ConfigError("at least one recommender is required")
        ids = [r.recommender_id for r in self.recommenders]
        if len(set(ids)) != len(ids):
            raise ConfigError("recommender ids must be unique")
        for rec in self.recommenders:
            rec.validate()
            if rec.popular_list_size < self.slate_size:
                raise ConfigError(
                    f"{rec.recommender_id}: popular_list_size must be >= slate_size"
                )
        if self.is_baseline and len(self.recommenders) != 1:
            raise ConfigError("baseline scenario must have exactly one recommender")
        if len(self.recommenders) == 2:
            specialized = [r for r in self.recommenders if r.specialization != ALL_GENRES]
            if len(specialized) != 1:
                raise ConfigError(
                    "two-recommender setup requires exactly one genre-specialized recommender"
                )
        if not any(r.specialization == ALL_GENRES for r in self.recommenders):
            raise ConfigError("one recommender must serve all genres (the consumers' home)")


def standard_suite(
    seed: int,
    niche_genre: str,
    recommenders: tuple[RecommenderConfig, ...] | None = None,
    **overrides,
) -> list[ScenarioConfig]:
    """Baseline plus the four portability policies with shared constants."""
    recs = recommenders or default_recommenders(niche_genre)
    home = tuple(r for r in recs if r.specialization == ALL_GENRES)
    configs = [
        ScenarioConfig(
            seed=seed, niche_genre=niche_genre, policy=None, recommenders=home, **overrides
        )
    ]
    for policy in PortabilityPolicy:
        configs.append(
            ScenarioConfig(
                seed=seed, niche_genre=niche_genre, policy=policy, recommenders=recs, **overrides
            )
        )
    return configs


def derive_seed(root: int, *parts: object) -> int:
    """Stable 64-bit stream seed from the root seed and a role path."""
    material = ":".join([str(root), *(str(p) for p in parts)])
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def derive_rng(root: int, *parts: object) -> np.random.Generator:
    return np.random.default_rng(derive_seed(root, *parts))


class CycleUtilityRow(NamedTuple):
    cycle: int
    consumer_type: str
    mean_utility: float
    n: int


class DayUtilityRow(NamedTuple):
    cycle: int
    day: int
    consumer_type: str
    mean_utility: float
    n: int


class SwitchEvent(NamedTuple):
    cycle: int
    day: int
    consumer_id: int
    consumer_type: str
    from_id: str
    to_id: str


@dataclass(frozen=True)
class MetricsReport:
    """Everything a scenario run reports."""

    scenario: str
    seed: int
    baseline: bool
    cycle_utilities: tuple[CycleUtilityRow, ...]
    last_cycle_utility: dict[str, float]
    provider_clicks: dict[str, int]
    total_clicks: int
    switch_events: tuple[SwitchEvent, ...]
    provenance_counts: dict[str, int]
    day_utilities: tuple[DayUtilityRow, ...] = ()
    # Each recommender's model as it served the last cycle; not a report byte
    models: dict[str, TrainedModel] = field(default_factory=dict, compare=False, repr=False)

    def switch_count_rows(self) -> list[tuple[int, str, str, int]]:
        counts = Counter(
            (e.cycle, e.consumer_type, e.to_id) for e in self.switch_events
        )
        return [(c, t, to, n) for (c, t, to), n in sorted(counts.items())]

    def switch_totals(self) -> list[tuple[str, str, int]]:
        counts = Counter((e.consumer_type, e.to_id) for e in self.switch_events)
        return [(t, to, n) for (t, to), n in sorted(counts.items())]

    def to_json_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "baseline": self.baseline,
            "last_cycle_utility": dict(sorted(self.last_cycle_utility.items())),
            "provider_clicks": dict(sorted(self.provider_clicks.items())),
            "total_clicks": self.total_clicks,
            "switch_totals": {
                f"{ctype}->{to_id}": n for ctype, to_id, n in self.switch_totals()
            },
            "provenance_counts": dict(sorted(self.provenance_counts.items())),
            "cycle_utilities": [list(r) for r in self.cycle_utilities],
        }


# ---------------------------------------------------------------------------
# Precomputed lookup structures
# ---------------------------------------------------------------------------


@dataclass
class _SimIndex:
    """Catalog-row lookups. Row ``r`` is the ``r``-th smallest catalog item id."""

    item_ids: np.ndarray  # sorted catalog item ids
    provider_type_of_row: list[str]
    pools: dict[str, np.ndarray]  # recommender id -> candidate catalog rows (ascending)
    sims: np.ndarray  # consumer row x catalog row cosine similarity


def _build_index(
    catalog: Catalog,
    consumers: Sequence[ConsumerState],
    recommenders: Sequence[RecommenderConfig],
) -> _SimIndex:
    item_ids = np.array(sorted(catalog.items), dtype=np.int64)
    genre_mat = np.array(
        [catalog.items[int(i)].genre_vector for i in item_ids], dtype=float
    )
    provider_type = [
        catalog.providers[catalog.items[int(i)].provider_id].type_label
        for i in item_ids
    ]

    pools: dict[str, np.ndarray] = {}
    for rec in recommenders:
        if rec.specialization == ALL_GENRES:
            pools[rec.recommender_id] = np.arange(len(item_ids))
        else:
            g = catalog.genre_index(rec.specialization)
            if g is None:
                raise ConfigError(
                    f"{rec.recommender_id}: specialization genre "
                    f"{rec.specialization!r} not in catalog taxonomy"
                )
            pools[rec.recommender_id] = np.flatnonzero(genre_mat[:, g] > 0)

    pref = np.array([c.preference_vector for c in consumers], dtype=float)
    sims = behavior.genre_similarities(pref, genre_mat)
    return _SimIndex(item_ids, provider_type, pools, sims)


# ---------------------------------------------------------------------------
# Ecosystem state and the simulation loop
# ---------------------------------------------------------------------------


@dataclass
class _MetricsAccumulator:
    cycle_sum: np.ndarray
    rows: list[CycleUtilityRow] = field(default_factory=list)
    day_rows: list[DayUtilityRow] = field(default_factory=list)
    provider_clicks: Counter = field(default_factory=Counter)
    provenance: Counter = field(default_factory=Counter)
    switch_events: list[SwitchEvent] = field(default_factory=list)


@dataclass
class EcosystemState:
    config: ScenarioConfig
    catalog: Catalog
    consumers: list[ConsumerState]  # ascending consumer id
    type_rows: dict[str, list[int]]  # consumer type -> consumer rows, types sorted
    store: ProfileStore  # rows: consumers in id order; columns: catalog rows
    index: _SimIndex
    global_popular: dict[str, np.ndarray]  # recommender id -> catalog rows, most popular first
    consumer_rngs: dict[int, np.random.Generator]
    models: dict[str, CatalogModel] = field(default_factory=dict)
    cycle: int = 0
    day: int = 0  # global day counter
    metrics: _MetricsAccumulator = None  # type: ignore[assignment]
    collect_day_rows: bool = False
    # per-day cache of subscriber click counts (per catalog row) for fallback serving
    _fallback_counts: dict[str, np.ndarray] = field(default_factory=dict)

    # Read from the config, so that a branch that swaps it needs no re-sync
    @property
    def active(self) -> list[str]:
        """The config's recommender ids, sorted."""
        return sorted(self.rec_configs)

    @property
    def rec_configs(self) -> dict[str, RecommenderConfig]:
        return {r.recommender_id: r for r in self.config.recommenders}


def prepare_state(
    config: ScenarioConfig,
    data: tuple[InteractionLog, Catalog],
    audit: AuditTrail | None = None,
    collect_day_rows: bool = False,
) -> EcosystemState:
    """Validate the config, derive consumer profiles, and seed the store."""
    config.validate()
    log, catalog = data
    catalog = classify_providers(catalog, config.niche_genre)
    seeds = build_preferences(
        log, catalog, config.niche_genre, history_threshold=config.history_threshold
    )
    if not seeds:
        raise ConfigError("no usable consumers in the interaction log")

    home = config.home.recommender_id
    consumers = [
        ConsumerState(
            consumer_id=s.consumer_id,
            preference_vector=s.preference_vector,
            type_label=s.type_label,
            current_recommender=home,
        )
        for s in seeds
    ]

    index = _build_index(catalog, consumers, config.recommenders)
    active = sorted(r.recommender_id for r in config.recommenders)
    store = ProfileStore.create(
        config.store_policy, active, [c.consumer_id for c in consumers], index.item_ids, audit
    )
    portability.seed_histories(store, home, {s.consumer_id: s.initial_history for s in seeds})

    longest = max(r.popular_list_size for r in config.recommenders)
    popular = np.searchsorted(index.item_ids, recommender.popular_list(log, longest))
    global_popular = {
        r.recommender_id: popular[: r.popular_list_size] for r in config.recommenders
    }
    type_rows = {
        t: [k for k, c in enumerate(consumers) if c.type_label == t]
        for t in sorted({c.type_label for c in consumers})
    }
    consumer_rngs = {
        c.consumer_id: derive_rng(config.seed, "consumer", c.consumer_id) for c in consumers
    }
    metrics = _MetricsAccumulator(np.zeros(len(consumers)))
    return EcosystemState(
        config=config,
        catalog=catalog,
        consumers=consumers,
        type_rows=type_rows,
        store=store,
        index=index,
        global_popular=global_popular,
        consumer_rngs=consumer_rngs,
        metrics=metrics,
        collect_day_rows=collect_day_rows,
    )


def _fit(
    state: EcosystemState, visible: np.ndarray, config: RecommenderConfig, seed: int
) -> CatalogModel:
    """``recommender.fit`` of the current cycle on the consumers and items
    the visibility matrix ``visible`` has observed, laid out by catalog row."""
    consumer_ids = np.fromiter(state.store.consumer_rows, np.int64)  # in row order
    users, items = visible.any(axis=1), visible.any(axis=0)
    model = recommender.fit(
        visible[users][:, items], consumer_ids[users], state.index.item_ids[items],
        config, seed, state.cycle,
    )
    return CatalogModel.align(model, state.index.item_ids)


def _fit_key(visible: np.ndarray, config: RecommenderConfig, seed: int, cycle: int) -> tuple:
    """All that ``_fit`` reads which can differ between a suite's branches:
    the consumer and catalog item ids are constants of the suite."""
    digest = hashlib.sha256(np.packbits(visible)).digest()
    return config, seed, cycle, visible.shape, digest


@dataclass
class _ForkModels:
    """A suite's memo of the models its branches fit at the fork cycle, by
    ``_fit_key``. ``model`` fits only a key it does not hold, and stores the
    result only while ``store`` is set: the last branch only reads."""

    store: bool = True
    models: dict[tuple, CatalogModel] = field(default_factory=dict)
    trained: int = 0
    reused: int = 0

    def model(
        self, state: EcosystemState, visible: np.ndarray, config: RecommenderConfig, seed: int
    ) -> CatalogModel:
        key = _fit_key(visible, config, seed, state.cycle)
        model = self.models.get(key)
        if model is not None:
            self.reused += 1
            return model
        self.trained += 1
        model = _fit(state, visible, config, seed)
        if self.store:
            self.models[key] = model
        return model


def train_cycle(state: EcosystemState, memo: _ForkModels | None = None) -> None:
    """Train every active recommender on the consumers and items its
    visibility matrix has observed; with a ``memo``, a training it holds is
    reused, not fitted again."""
    train = _fit if memo is None else memo.model
    for rid in state.active:
        seed = derive_seed(state.config.seed, "train", rid, state.cycle)
        state.models[rid] = train(state, state.store.visible[rid], state.rec_configs[rid], seed)


def _subscriber_counts(state: EcosystemState, rid: str) -> np.ndarray:
    """Click counts per catalog row over current subscribers' visible profiles.

    Taken lazily at the first popularity-tier serve of each day, so the
    counts include the same-day clicks of consumers served before it.
    """
    cached = state._fallback_counts.get(rid)
    if cached is not None:
        return cached
    subscribers = [k for k, c in enumerate(state.consumers) if c.current_recommender == rid]
    # A profile list never holds an item twice, so its matrix row counts it
    counts = state.store.visible[rid][subscribers].sum(axis=0)
    state._fallback_counts[rid] = counts
    return counts


def _serve(
    state: EcosystemState, row: int, consumer: ConsumerState
) -> tuple[Provenance, np.ndarray]:
    """Serve the consumer at consumer row ``row``: the tier and the slate's catalog rows."""
    rid = consumer.current_recommender
    pool = state.index.pools[rid]
    return recommender.serve(
        state.models[rid],
        consumer.consumer_id,
        pool[~state.store.visible[rid][row, pool]],
        state.config.slate_size,
        state.consumer_rngs[consumer.consumer_id],
        lambda: _subscriber_counts(state, rid),
        state.global_popular[rid],
    )


def _apply_switch(state: EcosystemState, consumer: ConsumerState, day_in_cycle: int) -> None:
    from_id = consumer.current_recommender
    destination = behavior.maybe_switch(consumer, state.config.behavior, state.active)
    if destination is None:
        return
    if state.store.audit is not None:
        state.store.audit.emit(
            "switch",
            consumer=consumer.consumer_id,
            source=from_id,
            destination=destination,
            cycle=state.cycle,
            day=state.cycle * state.config.days_per_cycle + day_in_cycle,
        )
    portability.on_switch(state.store, consumer.consumer_id, from_id, destination)
    state.metrics.switch_events.append(
        SwitchEvent(
            state.cycle,
            day_in_cycle,
            consumer.consumer_id,
            consumer.type_label,
            from_id,
            destination,
        )
    )


def run_day(state: EcosystemState) -> None:
    """Serve one slate per consumer, update estimates, record selections."""
    cfg = state.config
    state._fallback_counts = {}
    day_in_cycle = state.day - state.cycle * cfg.days_per_cycle
    per_day_switching = (
        cfg.switch_timing is SwitchTiming.PER_DAY
        and not cfg.is_baseline
        and state.cycle >= cfg.warmup_cycles
    )
    day_utility = np.zeros(len(state.consumers))
    for k, consumer in enumerate(state.consumers):
        rid = consumer.current_recommender
        tier, rows = _serve(state, k, consumer)
        state.metrics.provenance[tier.value] += 1
        sims = state.index.sims[k, rows]
        mu = behavior.slate_utility(sims)
        prev = consumer.utility_estimates.get(rid)
        consumer.utility_estimates[rid] = (
            mu if prev is None else behavior.update_utility(prev, mu, cfg.behavior.recency_bias)
        )
        day_utility[k] = mu
        picked = behavior.choose_item(
            sims, cfg.behavior.select_threshold, state.consumer_rngs[consumer.consumer_id]
        )
        if picked is not None:
            row = int(rows[picked])
            item = int(state.index.item_ids[row])
            portability.record_click(state.store, consumer.consumer_id, rid, item, state.day)
            state.metrics.provider_clicks[state.index.provider_type_of_row[row]] += 1
        if per_day_switching:
            _apply_switch(state, consumer, day_in_cycle)
    state.metrics.cycle_sum += day_utility
    if state.collect_day_rows:
        for ctype, rows in state.type_rows.items():
            state.metrics.day_rows.append(
                DayUtilityRow(
                    state.cycle,
                    day_in_cycle,
                    ctype,
                    float(day_utility[rows].mean()),
                    len(rows),
                )
            )
    state.day += 1


def evaluate_switches(state: EcosystemState) -> list[SwitchEvent]:
    """End-of-cycle switch evaluation over all consumers in id order."""
    if state.cycle < state.config.warmup_cycles:
        raise ConfigError("switch evaluation before the warm-up period has ended")
    before = len(state.metrics.switch_events)
    for consumer in state.consumers:
        _apply_switch(state, consumer, state.config.days_per_cycle - 1)
    return state.metrics.switch_events[before:]


def _finish_cycle(state: EcosystemState) -> None:
    per_consumer = state.metrics.cycle_sum / state.config.days_per_cycle
    for ctype, rows in state.type_rows.items():
        state.metrics.rows.append(
            CycleUtilityRow(state.cycle, ctype, float(per_consumer[rows].mean()), len(rows))
        )
    state.metrics.cycle_sum = np.zeros(len(state.consumers))


def run_scenario(
    config: ScenarioConfig,
    data: tuple[InteractionLog, Catalog],
    audit: AuditTrail | None = None,
    collect_day_rows: bool = False,
) -> MetricsReport:
    """Execute a full scenario and return its metrics: a one-scenario suite."""
    audits = {config.scenario_name: audit}
    return run_experiment_suite([config], data, audits, collect_day_rows).reports[0]


def _run_cycles(state: EcosystemState, cycles: range, memo: _ForkModels | None = None) -> None:
    """Run ``cycles``; the first one trains through ``memo``."""
    cfg = state.config
    for cycle in cycles:
        state.cycle = cycle
        train_cycle(state, memo if cycle == cycles.start else None)
        for _day in range(cfg.days_per_cycle):
            run_day(state)
        if cfg.switch_timing is SwitchTiming.END_OF_CYCLE and not cfg.is_baseline:
            evaluate_switches(state)
        _finish_cycle(state)


def _build_report(state: EcosystemState) -> MetricsReport:
    cfg = state.config
    last = {
        row.consumer_type: row.mean_utility
        for row in state.metrics.rows
        if row.cycle == cfg.cycles - 1
    }
    provider_clicks = {
        label: int(state.metrics.provider_clicks.get(label, 0)) for label in (GENERIC, NICHE)
    }
    return MetricsReport(
        scenario=cfg.scenario_name,
        seed=cfg.seed,
        baseline=cfg.is_baseline,
        cycle_utilities=tuple(state.metrics.rows),
        last_cycle_utility=last,
        provider_clicks=provider_clicks,
        total_clicks=sum(provider_clicks.values()),
        switch_events=tuple(state.metrics.switch_events),
        provenance_counts={k: int(v) for k, v in sorted(state.metrics.provenance.items())},
        day_utilities=tuple(state.metrics.day_rows),
        models={rid: m.model for rid, m in state.models.items()},
    )


# ---------------------------------------------------------------------------
# Experiment suite and report emission
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentResult:
    reports: tuple[MetricsReport, ...]

    def report(self, scenario: str) -> MetricsReport:
        for r in self.reports:
            if r.scenario == scenario:
                return r
        raise KeyError(scenario)


def run_experiment_suite(
    configs: Sequence[ScenarioConfig],
    data: tuple[InteractionLog, Catalog],
    audits: Mapping[str, AuditTrail] | None = None,
    collect_day_rows: bool = False,
) -> ExperimentResult:
    """Run several scenarios over shared data and constants.

    All configs must agree on everything except the policy and the roster it
    implies. No consumer can switch during warm-up, so that prefix of the
    market runs once and each scenario runs on a copy of it, one at a time.
    """
    if not configs:
        raise ConfigError("no scenarios to run")
    for config in configs:
        config.validate()
    # Everything but the policy and its roster, so that no constant can be left out
    keys = {replace(c, policy=None, recommenders=(c.home,)) for c in configs}
    rosters = {c.recommenders for c in configs if not c.is_baseline}
    if len(keys) != 1 or len(rosters) > 1:
        raise ConfigError("suite scenarios must share all constants except the policy")
    names = [c.scenario_name for c in configs]
    if len(set(names)) != len(names):
        raise ConfigError("scenario names must be unique within a suite")
    widest = max(configs, key=lambda c: len(c.recommenders))

    # The prefix is the suite's baseline up to the first possible switch: under
    # per-day switching that is cycle warmup_cycles' first day, else its end.
    # The fork cycle after it is the first in which the branches train.
    audits = audits or {}
    universal = replace(widest, policy=PortabilityPolicy.UNIVERSAL)
    trail = AuditTrail() if any(audits.values()) else None
    prefix = prepare_state(universal, data, trail, collect_day_rows)
    prefix.config = replace(widest, policy=None, recommenders=(widest.home,))
    fork = widest.warmup_cycles + (widest.switch_timing is SwitchTiming.END_OF_CYCLE)
    _run_cycles(prefix, range(fork))

    # At most the prefix and one branch exist: the last scenario runs on the prefix itself.
    # At the fork cycle branches often repeat a training (README), so each is fitted once.
    memo = _ForkModels() if len(configs) > 1 else None
    reports = [
        _run_branch(_fork(prefix), c, audits.get(c.scenario_name), memo) for c in configs[:-1]
    ]
    if memo is not None:
        memo.store = False
    reports.append(_run_branch(prefix, configs[-1], audits.get(configs[-1].scenario_name), memo))
    if memo is not None:
        logger.info("fork cycle %d: %d fits trained, %d reused", fork, memo.trained, memo.reused)
    return ExperimentResult(tuple(reports))


def _fork(prefix: EcosystemState) -> EcosystemState:
    """A deep copy of the prefix for one branch. Branches share what none of
    them writes: the catalog, the index and the prefix's store (each branch
    copies its home lists and matrix into its own). The prefix's models are
    kept only so that they are not copied: a branch trains every recommender
    at its first cycle and never reads them. Generators are copied by state:
    a third of the cost of a deep copy, for the same streams."""
    keep = (prefix.catalog, prefix.type_rows, prefix.index, prefix.store, *prefix.models.values())
    memo = {id(x): x for x in keep}
    for rng in prefix.consumer_rngs.values():
        fresh = np.random.Generator(np.random.PCG64(0))
        fresh.bit_generator.state = rng.bit_generator.state
        memo[id(rng)] = fresh
    return copy.deepcopy(prefix, memo)


def _run_branch(
    state: EcosystemState,
    config: ScenarioConfig,
    audit: AuditTrail | None,
    memo: _ForkModels | None,
) -> MetricsReport:
    """Run ``config`` on a copy of the suite's prefix, from the day where it
    ends: its first cycle, the fork cycle, trains every recommender through
    ``memo``."""
    state.config = config
    state.store = state.store.branch(
        config.store_policy, state.active, config.home.recommender_id, audit
    )
    if config.switch_timing is SwitchTiming.END_OF_CYCLE and not config.is_baseline:
        evaluate_switches(state)
    _run_cycles(state, range(state.day // config.days_per_cycle, config.cycles), memo)
    return _build_report(state)


def _csv_lines(header: str, rows: Iterable[tuple]) -> list[str]:
    """The header, then one line per row: ``repr`` of a float, so that the
    text reads back to the same bits, and ``str`` of anything else."""
    return [header] + [
        ",".join(repr(v) if isinstance(v, float) else str(v) for v in row) for row in rows
    ]


def cycle_csv_lines(reports: Iterable[MetricsReport]) -> list[str]:
    return _csv_lines(
        "scenario,cycle,consumer_type,mean_utility,n",
        ((r.scenario, *row) for r in reports for row in r.cycle_utilities),
    )


def provider_csv_lines(reports: Iterable[MetricsReport]) -> list[str]:
    return _csv_lines(
        "scenario,provider_type,cumulative_clicks",
        ((r.scenario, *item) for r in reports for item in sorted(r.provider_clicks.items())),
    )


def switch_csv_lines(reports: Iterable[MetricsReport]) -> list[str]:
    return _csv_lines(
        "scenario,cycle,consumer_type,to_recommender,count",
        ((r.scenario, *row) for r in reports for row in r.switch_count_rows()),
    )


def day_csv_lines(reports: Iterable[MetricsReport]) -> list[str]:
    return _csv_lines(
        "scenario,cycle,day,consumer_type,mean_utility,n",
        ((r.scenario, *row) for r in reports for row in r.day_utilities),
    )


def render_summary(reports: Sequence[MetricsReport]) -> str:
    """Delimited summary: last-cycle consumer utility, cumulative provider
    clicks, and total switch counts by destination, one row per
    (group, scenario)."""
    lines = ["consumer_type\tscenario\tlast_cycle_mean_utility"]
    types = sorted({t for r in reports for t in r.last_cycle_utility})
    for ctype in types:
        for report in reports:
            if ctype in report.last_cycle_utility:
                lines.append(
                    f"{ctype}\t{report.scenario}\t{report.last_cycle_utility[ctype]:.3f}"
                )
    lines.append("")
    lines.append("provider_type\tscenario\tcumulative_clicks")
    ptypes = sorted({t for r in reports for t in r.provider_clicks})
    for ptype in ptypes:
        for report in reports:
            lines.append(f"{ptype}\t{report.scenario}\t{report.provider_clicks.get(ptype, 0)}")
    switch_lines = []
    for report in reports:
        for ctype, to_id, count in report.switch_totals():
            switch_lines.append(f"{ctype}\t{report.scenario}\t{to_id}\t{count}")
    if switch_lines:
        lines.append("")
        lines.append("consumer_type\tscenario\tto_recommender\tswitches")
        lines.extend(switch_lines)
    return "\n".join(lines) + "\n"
