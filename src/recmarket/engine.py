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
from .behavior import BehaviorParams
from .dataset import (
    GENERIC,
    NICHE,
    Catalog,
    Consumers,
    InteractionLog,
    build_preferences,
    classify_providers,
)
from .errors import ConfigError
from .portability import AuditTrail, PortabilityPolicy, ProfileStore
from .recommender import CatalogModel, RecommenderConfig, TrainedModel

logger = logging.getLogger(__name__)
# One line per cycle of each scenario: a logger of its own, so it can be muted alone
cycle_logger = logging.getLogger(f"{__name__}.cycles")

GENERIC_RECOMMENDER = "generic"
NICHE_RECOMMENDER = "niche"


class SwitchTiming(enum.Enum):
    END_OF_CYCLE = "end_of_cycle"
    PER_DAY = "per_day"


@dataclass(frozen=True)
class ScenarioConfig:
    """All constants of one scenario run.

    ``policy=None`` marks the non-switching baseline; any other value
    enables switching under that portability policy. The policy also sets
    the roster: ``recommenders``.
    """

    seed: int
    niche_genre: str
    policy: PortabilityPolicy | None
    # The hyperparameters of every recommender; the roster sets the ids
    recommender: RecommenderConfig = RecommenderConfig(GENERIC_RECOMMENDER)
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
    def recommenders(self) -> tuple[RecommenderConfig, ...]:
        """The generic recommender, every consumer's home, and under a
        policy the niche one: ``_pools`` gives each its pool."""
        roster = [GENERIC_RECOMMENDER] + ([] if self.is_baseline else [NICHE_RECOMMENDER])
        return tuple(replace(self.recommender, recommender_id=rid) for rid in roster)

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
        self.recommender.validate(self.slate_size)


def standard_suite(seed: int, niche_genre: str, **overrides) -> list[ScenarioConfig]:
    """Baseline plus the four portability policies with shared constants."""
    return [
        ScenarioConfig(seed=seed, niche_genre=niche_genre, policy=policy, **overrides)
        for policy in (None, *PortabilityPolicy)
    ]


def derive_seed(root: int, *parts: object) -> int:
    """Stable 64-bit stream seed from the root seed and a role path."""
    material = ":".join([str(root), *(str(p) for p in parts)])
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


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
# Ecosystem state and the simulation loop
# ---------------------------------------------------------------------------


def _pools(config: ScenarioConfig, catalog: Catalog) -> dict[str, np.ndarray]:
    """Each recommender's candidate catalog rows, ascending: the generic
    recommender's are every row, the niche one's its genre's."""
    pools = {GENERIC_RECOMMENDER: np.arange(len(catalog.item_ids))}
    if not config.is_baseline:
        g = catalog.genre_index(config.niche_genre)
        if g is None:
            genres = ", ".join(catalog.genres)
            raise ConfigError(f"niche_genre {config.niche_genre!r} is not an item genre: {genres}")
        pools[NICHE_RECOMMENDER] = np.flatnonzero(catalog.genre_matrix[:, g])
    return pools


@dataclass
class _Day:
    """A day in progress: the consumers served but not yet selected for,
    queued in row order as (row, column, slate's catalog rows), each
    consumer's list utility, and the subscriber click counts taken so far
    today, by recommender id."""

    in_cycle: int
    switching: bool  # whether each consumer may switch once its estimate moves
    utility: np.ndarray
    queue: list[tuple[int, int, np.ndarray]] = field(default_factory=list)
    counts: dict[str, np.ndarray] = field(default_factory=dict)


@dataclass
class EcosystemState:
    """A scenario's market; per-consumer arrays are by consumer row, then column."""

    config: ScenarioConfig
    catalog: Catalog
    consumers: Consumers
    type_rows: dict[str, list[int]]  # consumer type -> consumer rows, types sorted
    store: ProfileStore  # rows: consumer rows; columns: catalog rows
    provider_type_of_row: list[str]  # each catalog row's provider label
    pools: dict[str, np.ndarray]  # recommender id -> candidate catalog rows
    sims: np.ndarray  # consumer row x catalog row cosine similarity
    popular: np.ndarray  # the log's popular list as catalog rows, most popular first
    columns: list[str]  # recommender ids, ascending
    current: np.ndarray  # each row's current column
    estimates: np.ndarray  # float64 satisfaction, rows x columns, NaN where unset
    consumer_rngs: list[np.random.Generator]  # by consumer row
    cycle_sum: np.ndarray  # each consumer row's utility summed over the cycle's days
    models: dict[str, CatalogModel] = field(default_factory=dict)
    cycle: int = 0
    day: int = 0  # global day counter
    collect_day_rows: bool = False
    cycle_rows: list[CycleUtilityRow] = field(default_factory=list)
    day_rows: list[DayUtilityRow] = field(default_factory=list)
    provider_clicks: Counter = field(default_factory=Counter)
    clicks_before_cycle: Counter = field(default_factory=Counter)  # at the cycle's start
    provenance: Counter = field(default_factory=Counter)
    switch_events: list[SwitchEvent] = field(default_factory=list)

    # Read from the config, so that a branch that swaps it needs no re-sync
    @property
    def active(self) -> list[str]:
        """The config's recommender ids, generic first."""
        return [r.recommender_id for r in self.config.recommenders]


def prepare_state(
    config: ScenarioConfig,
    data: tuple[InteractionLog, Catalog],
    audit: AuditTrail | None = None,
    collect_day_rows: bool = False,
) -> EcosystemState:
    """Validate the config, derive consumer profiles, and seed the store."""
    config.validate()
    log, catalog = data
    labels = classify_providers(catalog, config.niche_genre)
    consumers = build_preferences(
        log, catalog, config.niche_genre, history_threshold=config.history_threshold
    )
    if not len(consumers):
        raise ConfigError("no usable consumers in the interaction log")

    columns = sorted(r.recommender_id for r in config.recommenders)
    consumer_ids = consumers.consumer_ids.tolist()
    store = ProfileStore.create(config.store_policy, columns, consumer_ids, catalog.item_ids, audit)
    histories = dict(zip(consumer_ids, consumers.histories))
    portability.seed_histories(store, GENERIC_RECOMMENDER, histories)

    popular = recommender.popular_list(log, config.recommender.popular_list_size)
    types = consumers.type_labels
    type_rows = {t: [k for k, c in enumerate(types) if c == t] for t in sorted(set(types))}
    current = np.full(len(consumers), columns.index(GENERIC_RECOMMENDER))
    return EcosystemState(
        config=config,
        catalog=catalog,
        consumers=consumers,
        type_rows=type_rows,
        store=store,
        provider_type_of_row=[labels[p] for p in catalog.provider_ids],
        pools=_pools(config, catalog),
        sims=behavior.genre_similarities(consumers.preferences, catalog.genre_matrix),
        popular=np.searchsorted(catalog.item_ids, popular),
        columns=columns,
        current=current,
        estimates=np.full((len(consumers), len(columns)), np.nan),
        consumer_rngs=[
            np.random.default_rng(derive_seed(config.seed, "consumer", c)) for c in consumer_ids
        ],
        cycle_sum=np.zeros(len(consumers)),
        collect_day_rows=collect_day_rows,
    )


def _fit(
    state: EcosystemState, visible: np.ndarray, config: RecommenderConfig, seed: int
) -> CatalogModel:
    """``recommender.fit`` of the current cycle on the consumers and items
    the visibility matrix ``visible`` has observed, laid out by catalog row."""
    consumer_ids = state.consumers.consumer_ids
    users, items = visible.any(axis=1), visible.any(axis=0)
    model = recommender.fit(
        visible[users][:, items], consumer_ids[users], state.catalog.item_ids[items],
        config, seed, state.cycle,
    )
    return CatalogModel.align(model, state.catalog.item_ids)


def _fit_key(visible: np.ndarray, config: RecommenderConfig, seed: int, cycle: int) -> tuple:
    """All that ``_fit`` reads which can differ between a suite's branches:
    the consumer and catalog item ids are constants of the suite."""
    digest = hashlib.sha256(np.packbits(visible)).digest()
    return config, seed, cycle, visible.shape, digest


def train_cycle(state: EcosystemState, memo: dict[tuple, CatalogModel] | None = None) -> None:
    """Train every active recommender on the consumers and items its
    visibility matrix has observed; with a ``memo``, by ``_fit_key``, a
    training it holds is reused, and one it lacks is fitted and stored."""
    for config in state.config.recommenders:
        rid = config.recommender_id
        seed = derive_seed(state.config.seed, "train", rid, state.cycle)
        visible = state.store.visible[rid]
        if memo is None:
            state.models[rid] = _fit(state, visible, config, seed)
            continue
        key = _fit_key(visible, config, seed, state.cycle)
        if key not in memo:
            memo[key] = _fit(state, visible, config, seed)
        state.models[rid] = memo[key]


def _subscriber_counts(state: EcosystemState, day: _Day, rid: str) -> np.ndarray:
    """Click counts per catalog row over current subscribers' visible profiles.

    Taken lazily at the first popularity-tier serve of each day, so the
    counts include the same-day clicks and switches of consumers served
    before it: the day's queue is flushed first.
    """
    cached = day.counts.get(rid)
    if cached is not None:
        return cached
    _flush(state, day)
    subscribers = state.current == state.columns.index(rid)
    # A profile list never holds an item twice, so its matrix row counts it
    counts = state.store.visible[rid][subscribers].sum(axis=0)
    day.counts[rid] = counts
    return counts


def _apply_switch(state: EcosystemState, row: int, column: int, day_in_cycle: int) -> None:
    """Move consumer row ``row`` to ``column``, where ``behavior.maybe_switch`` sends it."""
    source = state.current.item(row)
    state.current[row] = column
    consumer_id = state.consumers.consumer_ids.item(row)
    from_id, destination = state.columns[source], state.columns[column]
    if state.store.audit is not None:
        state.store.audit.emit(
            "switch",
            consumer=consumer_id,
            source=from_id,
            destination=destination,
            cycle=state.cycle,
            day=state.cycle * state.config.days_per_cycle + day_in_cycle,
        )
    portability.on_switch(state.store, consumer_id, from_id, destination)
    state.switch_events.append(
        SwitchEvent(
            state.cycle,
            day_in_cycle,
            consumer_id,
            state.consumers.type_labels[row],
            from_id,
            destination,
        )
    )


def run_day(state: EcosystemState) -> None:
    """Serve one slate per consumer in row order; ``_flush`` then selects,
    updates estimates, records clicks and applies per-day switches."""
    cfg = state.config
    day = _Day(
        in_cycle=state.day - state.cycle * cfg.days_per_cycle,
        switching=(
            cfg.switch_timing is SwitchTiming.PER_DAY
            and not cfg.is_baseline
            and state.cycle >= cfg.warmup_cycles
        ),
        utility=np.zeros(len(state.consumers)),
    )
    current, provenance = state.current, state.provenance
    consumer_ids, visible = state.consumers.consumer_ids, state.store.visible
    for k in range(len(state.consumers)):
        column = current.item(k)
        rid = state.columns[column]
        pool = state.pools[rid]
        tier, rows = recommender.serve(
            state.models[rid],
            consumer_ids.item(k),
            pool[~visible[rid][k, pool]],
            cfg.slate_size,
            state.consumer_rngs[k],
            lambda: _subscriber_counts(state, day, rid),
            state.popular,
        )
        provenance[tier.value] += 1
        day.queue.append((k, column, rows))
    _flush(state, day)
    state.cycle_sum += day.utility
    if state.collect_day_rows:
        for ctype, rows in state.type_rows.items():
            state.day_rows.append(
                DayUtilityRow(
                    state.cycle,
                    day.in_cycle,
                    ctype,
                    float(day.utility[rows].mean()),
                    len(rows),
                )
            )
    state.day += 1


def _flush(state: EcosystemState, day: _Day) -> None:
    """Select for every consumer on ``day``'s queue at once, and on a
    switching day decide each one's switch after its estimate moves; then
    record each one's click and switch one at a time, in row order."""
    if not day.queue:
        return
    queue, day.queue = day.queue, []
    rows, columns = np.array([(row, column) for row, column, _slate in queue]).T
    slates = [slate for _row, _column, slate in queue]
    rngs = [state.consumer_rngs[row] for row in rows.tolist()]
    params = state.config.behavior
    utility, picks = _select(state.sims, rows, slates, params.select_threshold, rngs)
    day.utility[rows] = utility
    # The estimate at the serving recommender moves toward the utility
    prev = state.estimates[rows, columns]
    seen = ~np.isnan(prev)
    estimates = utility.copy()
    estimates[seen] = behavior.update_utility(prev[seen], utility[seen], params.recency_bias)
    state.estimates[rows, columns] = estimates
    moves = [-1] * len(queue)
    if day.switching:
        moves = behavior.maybe_switch(state.estimates[rows], columns, params).tolist()

    consumer_ids, item_ids = state.consumers.consumer_ids, state.catalog.item_ids
    for (row, column, slate), pick, move in zip(queue, picks.tolist(), moves):
        if pick >= 0:
            item_row = slate.item(pick)
            portability.record_click(
                state.store,
                consumer_ids.item(row),
                state.columns[column],
                item_ids.item(item_row),
                state.day,
            )
            state.provider_clicks[state.provider_type_of_row[item_row]] += 1
        if move >= 0:
            _apply_switch(state, row, move, day.in_cycle)


def _select(
    sims: np.ndarray,
    rows: np.ndarray,
    slates: Sequence[np.ndarray],
    select_threshold: float,
    rngs: Sequence[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray]:
    """The utility and pick of each slate: ``slates[k]`` holds the catalog
    rows served to consumer row ``rows[k]``, whose generator is ``rngs[k]``,
    and ``sims`` is the consumer row x catalog row similarity table.

    A slate's utility is the mean similarity of its items (0 if empty); its
    pick is as ``_pick`` makes it. Slates are grouped by length, so each
    row's sum is that of its 1-D slate: the same bits.
    """
    lengths = np.array([slate.size for slate in slates])
    utility = np.zeros(len(slates))
    picks = np.full(len(slates), -1)
    # Not np.unique: its first call imports numpy.ma, 12-16 ms of a run
    for length in sorted(set(lengths.tolist()) - {0}):
        group = np.flatnonzero(lengths == length)
        block = sims[rows[group, None], np.array([slates[k] for k in group.tolist()])]
        utility[group] = block.sum(axis=1) / length
        picks[group] = _pick(block, select_threshold, [rngs[k] for k in group.tolist()])
    return utility, picks


def _pick(
    sims: np.ndarray, select_threshold: float, rngs: Sequence[np.random.Generator]
) -> np.ndarray:
    """Each row's pick: a slate position with probability proportional to
    similarity, or -1 for none.

    ``sims`` holds one slate's similarities per row, in slate order, and
    ``rngs`` each row's generator. Items below ``select_threshold`` are not
    candidates; if none qualifies, or all qualifying similarities are zero,
    the row picks nothing and draws nothing. Otherwise it draws one uniform
    from its generator and picks what ``Generator.choice(p=...)`` picks with
    it. Rows are grouped by their number of candidates, so each row's sum
    and cumulative sum are those of a 1-D row: the same bits.
    """
    candidates = sims >= select_threshold
    counts = candidates.sum(axis=1)
    picks = np.full(len(sims), -1)
    for count in sorted(set(counts.tolist()) - {0}):
        group = np.flatnonzero(counts == count)
        mask = candidates[group]
        positions = np.nonzero(mask)[1].reshape(-1, count)
        weights = sims[group][mask].reshape(-1, count)
        total = weights.sum(axis=1)
        drawn = total > 0.0
        if not drawn.any():
            continue
        group, positions, weights = group[drawn], positions[drawn], weights[drawn]
        cdf = (weights / total[drawn, None]).cumsum(axis=1)
        cdf /= cdf[:, -1:]
        uniforms = np.array([rngs[k].random() for k in group.tolist()])
        # searchsorted(side="right") of each uniform in its row's ascending cdf
        picks[group] = positions[np.arange(len(group)), (cdf <= uniforms[:, None]).sum(axis=1)]
    return picks


def evaluate_switches(state: EcosystemState) -> list[SwitchEvent]:
    """End-of-cycle switch evaluation over all consumers in id order."""
    if state.config.is_baseline:
        raise ConfigError("switch evaluation in the baseline, which has no choice")
    if state.cycle < state.config.warmup_cycles:
        raise ConfigError("switch evaluation before the warm-up period has ended")
    before = len(state.switch_events)
    moves = behavior.maybe_switch(state.estimates, state.current, state.config.behavior)
    for row in np.flatnonzero(moves >= 0).tolist():
        _apply_switch(state, row, moves.item(row), state.config.days_per_cycle - 1)
    return state.switch_events[before:]


def _finish_cycle(state: EcosystemState) -> None:
    per_consumer = state.cycle_sum / state.config.days_per_cycle
    for ctype, rows in state.type_rows.items():
        state.cycle_rows.append(
            CycleUtilityRow(state.cycle, ctype, float(per_consumer[rows].mean()), len(rows))
        )
    state.cycle_sum = np.zeros(len(state.consumers))


def run_scenario(
    config: ScenarioConfig,
    data: tuple[InteractionLog, Catalog],
    audit: AuditTrail | None = None,
    collect_day_rows: bool = False,
) -> MetricsReport:
    """Execute a full scenario and return its metrics: a one-scenario suite."""
    audits = {config.scenario_name: audit}
    return run_experiment_suite([config], data, audits, collect_day_rows).reports[0]


def _run_cycles(
    state: EcosystemState,
    cycles: range,
    scenario: str,
    memo: dict[tuple, CatalogModel] | None = None,
) -> None:
    """Run ``cycles``, logged under ``scenario``; the first one trains through ``memo``."""
    cfg = state.config
    for cycle in cycles:
        state.cycle = cycle
        state.clicks_before_cycle = state.provider_clicks.copy()
        train_cycle(state, memo if cycle == cycles.start else None)
        for _day in range(cfg.days_per_cycle):
            run_day(state)
        if cfg.switch_timing is SwitchTiming.END_OF_CYCLE and not cfg.is_baseline:
            evaluate_switches(state)
        _finish_cycle(state)
        _log_cycle(state, scenario)


def _log_cycle(state: EcosystemState, scenario: str) -> None:
    """Log where the market stands after the current cycle: subscribers per
    recommender, the cycle's clicks by provider type and its switches."""
    if not cycle_logger.isEnabledFor(logging.INFO):
        return
    subscribers = np.bincount(state.current, minlength=len(state.columns)).tolist()
    clicks = state.provider_clicks - state.clicks_before_cycle
    cycle_logger.info(
        "%s cycle %d: subscribers %s; clicks %s; switches %d",
        scenario,
        state.cycle,
        " ".join(f"{rid}={n}" for rid, n in zip(state.columns, subscribers)),
        " ".join(f"{label}={clicks[label]}" for label in (GENERIC, NICHE)),
        sum(event.cycle == state.cycle for event in state.switch_events),
    )


def _build_report(state: EcosystemState) -> MetricsReport:
    cfg = state.config
    last = {
        row.consumer_type: row.mean_utility
        for row in state.cycle_rows
        if row.cycle == cfg.cycles - 1
    }
    provider_clicks = {
        label: int(state.provider_clicks.get(label, 0)) for label in (GENERIC, NICHE)
    }
    return MetricsReport(
        scenario=cfg.scenario_name,
        seed=cfg.seed,
        baseline=cfg.is_baseline,
        cycle_utilities=tuple(state.cycle_rows),
        last_cycle_utility=last,
        provider_clicks=provider_clicks,
        total_clicks=sum(provider_clicks.values()),
        switch_events=tuple(state.switch_events),
        provenance_counts={k: int(v) for k, v in sorted(state.provenance.items())},
        day_utilities=tuple(state.day_rows),
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

    All configs must agree on everything except the policy. No consumer can
    switch during warm-up, so that prefix of the market runs once and each
    scenario runs on a copy of it, one at a time.
    """
    if not configs:
        raise ConfigError("no scenarios to run")
    for config in configs:
        config.validate()
    # Everything but the policy, so that no constant can be left out
    if len({replace(c, policy=None) for c in configs}) != 1:
        raise ConfigError("suite scenarios must share all constants except the policy")
    names = [c.scenario_name for c in configs]
    if len(set(names)) != len(names):
        raise ConfigError("scenario names must be unique within a suite")
    audits = audits or {}
    owners: dict[int, str] = {}  # id of a trail -> the scenario it was given for
    for name, audit in audits.items():
        if name not in names:
            raise ConfigError(f"audits: {name!r} names no scenario of the suite")
        if audit is not None and owners.setdefault(id(audit), name) != name:
            raise ConfigError(f"audits: {name!r} and {owners[id(audit)]!r} share one trail")
    baseline = replace(configs[0], policy=None)

    # The prefix is the suite's baseline up to the first possible switch: under
    # per-day switching that is cycle warmup_cycles' first day, else its end.
    # The fork cycle after it is the first in which the branches train. It is
    # prepared with every recommender of the suite, in the baseline's store.
    switching = not all(c.is_baseline for c in configs)
    widest = replace(baseline, policy=PortabilityPolicy.UNIVERSAL) if switching else baseline
    trail = AuditTrail() if any(audits.values()) else None
    prefix = prepare_state(widest, data, trail, collect_day_rows)
    prefix.config = baseline
    fork = baseline.warmup_cycles + (baseline.switch_timing is SwitchTiming.END_OF_CYCLE)
    _run_cycles(prefix, range(fork), "prefix")

    # At most the prefix and one branch exist: the last scenario runs on the prefix itself.
    # At the fork cycle branches often repeat a training (README), so each is fitted once.
    memo = {} if len(configs) > 1 else None
    reports = [
        _run_branch(_fork(prefix), c, audits.get(c.scenario_name), memo) for c in configs[:-1]
    ]
    reports.append(_run_branch(prefix, configs[-1], audits.get(configs[-1].scenario_name), memo))
    if memo is not None:
        # Every branch trains its roster at the fork cycle, if the suite reaches it
        trainings = sum(len(c.recommenders) for c in configs) if fork < baseline.cycles else 0
        logger.info(
            "fork cycle %d: %d fits trained, %d reused", fork, len(memo), trainings - len(memo)
        )
    return ExperimentResult(tuple(reports))


def _fork(prefix: EcosystemState) -> EcosystemState:
    """A deep copy of the prefix for one branch, taken between days: a day's
    queue and counts live in ``run_day``, not on the state. Branches share
    what none of them writes: the catalog, the consumer table, the pools,
    the similarity table, the provider labels and the prefix's store (each
    branch copies its home lists and matrix into its own). The prefix's models are kept only so that they are not
    copied: a branch trains every recommender at its first cycle and never
    reads them.
    Generators are copied by state: a third of the cost of a deep copy, for
    the same streams."""
    keep = (
        prefix.catalog, prefix.consumers, prefix.type_rows, prefix.store,
        prefix.provider_type_of_row, prefix.pools, prefix.sims,
    )
    memo = {id(x): x for x in (*keep, *prefix.models.values())}
    for rng in prefix.consumer_rngs:
        fresh = np.random.Generator(np.random.PCG64(0))
        fresh.bit_generator.state = rng.bit_generator.state
        memo[id(rng)] = fresh
    return copy.deepcopy(prefix, memo)


def _run_branch(
    state: EcosystemState,
    config: ScenarioConfig,
    audit: AuditTrail | None,
    memo: dict[tuple, CatalogModel] | None,
) -> MetricsReport:
    """Run ``config`` on a copy of the suite's prefix, from the day where it
    ends: its first cycle, the fork cycle, trains every recommender through
    ``memo``."""
    state.config = config
    state.store = state.store.branch(
        config.store_policy, state.active, GENERIC_RECOMMENDER, audit
    )
    if config.switch_timing is SwitchTiming.END_OF_CYCLE and not config.is_baseline:
        evaluate_switches(state)
        _log_cycle(state, config.scenario_name)  # the prefix's last cycle, with its switches
    cycles = range(state.day // config.days_per_cycle, config.cycles)
    _run_cycles(state, cycles, config.scenario_name, memo)
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
