"""Shared test machinery: reference implementations used as oracles.

The reference ledger is deliberately naive: it tracks every consumer's
clicks and applies policy rules with plain dict/list operations,
independently of the production store. Property suites replay random event
sequences through both and compare final states.

The per-item serving and selection functions below work on item ids, one
item at a time. The engine's array-native path over catalog rows must
reproduce them exactly, including random-number consumption.
``slate_utility`` and ``choose_item`` are the 1-D rule for one slate, the
reference for the engine's batched selection. ``reference_run_day`` builds
a whole day from these oracles, one consumer at a time. It is the one
oracle of the engine's day, which must reproduce its every serve (consumer,
tier and slate) and its reports, CSV lines and audit lines byte for byte.
``assert_engine_invariants`` states what must hold after every day and
switch. The per-row ALS trainer is the reference for the stacked solves in
``recommender.fit``, which must reproduce its factors bit for bit.
``build_preferences_per_record`` is the per-record reference for the one
array pass of ``dataset.build_preferences``, and ``seed_per_click`` seeds a
store one ``record_click`` at a time, the reference for the engine's bulk
seeding. ``maybe_switch_by_id`` is the switching rule over dicts and sets
keyed by recommender id, the reference for ``behavior.maybe_switch`` over a
batch of consumer rows. The reference day gives it the recommenders a
consumer has tried from its switch history, ``recommenders_tried``, not from
the estimates the engine's rule reads. ``run_from_scratch`` runs one
scenario straight through from cycle 0; a suite, which runs the warm-up
once and branches it into every scenario, must reproduce it byte for byte.
"""

from __future__ import annotations

import math
import random
import warnings
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from recmarket import engine
from recmarket.behavior import BehaviorParams, update_utility
from recmarket.dataset import (
    GENERIC,
    NICHE,
    Catalog,
    Consumers,
    InteractionLog,
    build_log,
)
from recmarket.errors import DataError, TrainingError
from recmarket.portability import (
    AuditTrail,
    PortabilityPolicy,
    ProfileStore,
    on_switch,
    record_click,
    store_state,
    visible_items,
)
from recmarket.recommender import (
    CatalogModel,
    Provenance,
    RecommenderConfig,
    TrainedModel,
    TrainingSnapshot,
    serve,
)

RECS = ["generic", "niche"]


@dataclass
class ReferenceLedger:
    """Policy semantics re-implemented from scratch as the oracle."""

    policy: PortabilityPolicy
    shared: dict[int, list[tuple[int, int]]] = field(default_factory=dict)
    per_rec: dict[str, dict[int, list[tuple[int, int]]]] = field(
        default_factory=lambda: {r: {} for r in RECS}
    )
    all_clicks: dict[int, list[tuple[int, int]]] = field(default_factory=dict)

    def click(self, consumer: int, rec: str, item: int, day: int) -> None:
        entry = (item, day)
        self.all_clicks.setdefault(consumer, []).append(entry)
        if self.policy is PortabilityPolicy.UNIVERSAL:
            self.shared.setdefault(consumer, []).append(entry)
        else:
            self.per_rec[rec].setdefault(consumer, []).append(entry)

    def switch(self, consumer: int, src: str, dst: str) -> None:
        if self.policy in (
            PortabilityPolicy.ALGORITHM_SPECIFIC,
            PortabilityPolicy.UNIVERSAL,
        ):
            return
        entries = self.per_rec[src].pop(consumer, [])
        if not entries:
            return
        if self.policy is PortabilityPolicy.USER_OWNERSHIP:
            kept = self.per_rec[dst].setdefault(consumer, [])
            seen = set(kept)
            kept.extend(e for e in entries if e not in seen)
            kept.sort(key=lambda e: e[1])

    def state(self) -> dict:
        per_rec = {}
        for r, bucket in sorted(self.per_rec.items()):
            cleaned = {c: list(v) for c, v in sorted(bucket.items()) if v}
            if cleaned:
                per_rec[r] = cleaned
        return {
            "shared": {c: list(v) for c, v in sorted(self.shared.items()) if v},
            "per_recommender": per_rec,
        }


@dataclass
class EventRun:
    policy: PortabilityPolicy
    store: ProfileStore
    reference: ReferenceLedger
    trail: AuditTrail
    events: list[tuple]  # ("click", c, rec, item, day) | ("switch", c, src, dst)


N_CONSUMERS = 4
N_ITEMS = 12


def run_random_events(seed: int, policy: PortabilityPolicy, n_events: int = 60) -> EventRun:
    """Drive store and reference ledger through one random event sequence.

    Clicks respect simulation realism: at most one click per consumer per
    day, recorded at the consumer's currently attached recommender. After
    every event the store's visibility matrices must index its lists.
    """
    rng = random.Random(seed)
    trail = AuditTrail()
    store = ProfileStore.create(policy, RECS, range(N_CONSUMERS), range(N_ITEMS), audit=trail)
    reference = ReferenceLedger(policy)
    attached = {c: RECS[0] for c in range(N_CONSUMERS)}
    next_day = {c: 0 for c in attached}
    events: list[tuple] = []
    for _ in range(n_events):
        consumer = rng.randrange(N_CONSUMERS)
        if rng.random() < 0.75:
            rec = attached[consumer]
            item = rng.randrange(N_ITEMS)
            day = next_day[consumer]
            next_day[consumer] += 1
            record_click(store, consumer, rec, item, day)
            reference.click(consumer, rec, item, day)
            events.append(("click", consumer, rec, item, day))
        else:
            src = attached[consumer]
            dst = RECS[1] if src == RECS[0] else RECS[0]
            on_switch(store, consumer, src, dst)
            reference.switch(consumer, src, dst)
            attached[consumer] = dst
            events.append(("switch", consumer, src, dst))
        assert_matrices_index_lists(store)
    return EventRun(policy, store, reference, trail, events)


def assert_matrices_index_lists(store: ProfileStore) -> None:
    """Each recommender's matrix row is the set of items in its list, and the
    Universal recommenders share one matrix object."""
    shared = store.policy is PortabilityPolicy.UNIVERSAL
    if shared:
        assert len({id(m) for m in store.visible.values()}) == 1
    item_ids = np.array(list(store.item_rows))  # in column order
    for rid, matrix in store.visible.items():
        bucket = store.shared if shared else store.per_recommender[rid]
        for consumer, row in store.consumer_rows.items():
            listed = {item for item, _day in bucket.get(consumer, ())}
            assert set(item_ids[matrix[row]].tolist()) == listed, (rid, consumer)


def assert_store_matches_reference(run: EventRun) -> None:
    assert store_state(run.store) == run.reference.state()


def openblas() -> bool:
    """Whether numpy is built on OpenBLAS, whose thread count
    ``OPENBLAS_NUM_THREADS`` sets."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        return False
    return "openblas" in blas.lower()


def recommenders_tried(state: engine.EcosystemState) -> list[set[str]]:
    """Each consumer row's recommenders so far, from its history alone: the
    home recommender and the destinations of its switch events."""
    tried = {cid: {engine.GENERIC_RECOMMENDER} for cid in state.consumers.consumer_ids.tolist()}
    for event in state.switch_events:
        tried[event.consumer_id].add(event.to_id)
    return list(tried.values())


def assert_engine_invariants(
    state: engine.EcosystemState, switched: tuple[int, str] | None = None
) -> None:
    """What must hold after every simulated day and every switch.

    ``switched`` is the (consumer id, source recommender) of a switch just
    made: under Cold Start and User Ownership the source keeps nothing of
    that consumer, neither a list nor a set matrix cell.
    """
    store = state.store
    # The report's total_clicks is the sum over these two labels
    assert set(state.provider_clicks) <= {GENERIC, NICHE}
    # Off its current column, a consumer has an estimate exactly where it
    # has been, so the switching rule reads an unset estimate as an untried
    # recommender. Every consumer is at one of the config's recommenders.
    been = recommenders_tried(state)
    for row, column in enumerate(state.current.tolist()):
        estimated = {
            rid for rid, e in zip(state.columns, state.estimates[row].tolist()) if not math.isnan(e)
        }
        assert estimated | {state.columns[column]} == been[row], row
    active = {state.columns.index(rid) for rid in state.active}
    assert set(state.current.tolist()) <= active
    if store.policy is PortabilityPolicy.UNIVERSAL:
        assert not store.per_recommender
    exclusive = (PortabilityPolicy.COLD_START, PortabilityPolicy.USER_OWNERSHIP)
    if switched is not None and store.policy in exclusive:
        consumer, source = switched
        assert consumer not in store.per_recommender[source]
        assert not store.visible[source][store.consumer_rows[consumer]].any()
    # No profile list holds an item twice, so a matrix row counts a
    # subscriber's items, as engine._subscriber_counts reads them
    for bucket in (store.shared, *store.per_recommender.values()):
        for consumer, entries in bucket.items():
            assert len({item for item, _day in entries}) == len(entries), consumer
    assert_matrices_index_lists(store)


class ConsumerRow(NamedTuple):
    consumer_id: int
    preference_vector: tuple[float, ...]
    type_label: str
    initial_history: tuple[int, ...]


def consumer_rows(consumers: Consumers) -> list[ConsumerRow]:
    """The consumer table as plain Python values, one row per consumer row."""
    return [
        ConsumerRow(*row)
        for row in zip(
            consumers.consumer_ids.tolist(),
            map(tuple, consumers.preferences.tolist()),
            consumers.type_labels,
            consumers.histories,
        )
    ]


def catalog_tables(catalog: Catalog) -> tuple:
    """The catalog as plain Python values, whose ``repr`` the synthetic
    stream's digests hash (compare catalogs with ``==``): its taxonomy, one
    (item id, genre bits, provider id) row per item in id order, and one
    (provider id, item ids) row per provider in id order."""
    item_ids = catalog.item_ids.tolist()
    provider_items: dict[str, list[int]] = {}
    for item_id, provider_id in zip(item_ids, catalog.provider_ids):
        provider_items.setdefault(provider_id, []).append(item_id)
    bits = [tuple(row) for row in catalog.genre_matrix.astype(int).tolist()]
    return (
        catalog.genres,
        list(zip(item_ids, bits, catalog.provider_ids)),
        [(p, tuple(ids)) for p, ids in sorted(provider_items.items())],
    )


# ---------------------------------------------------------------------------
# Per-item serving and selection oracles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Slate:
    recommender_id: str
    consumer_id: int
    item_ids: tuple[int, ...]
    provenance: Provenance


@dataclass(frozen=True)
class ServingContext:
    """Fallback inputs for one recommender: subscriber click counts by item
    id and the global popular list, most popular first."""

    subscriber_counts: Mapping[int, int] = field(default_factory=dict)
    global_popular: Sequence[int] = ()


def score(model: TrainedModel, consumer_id: int, item_ids: Sequence[int]) -> np.ndarray:
    """Dot-product scores; items unseen in training score 0.

    The scores are one matrix-vector product over the items' stacked factor
    rows, as the engine computes them. Separate dot products can differ in
    the last bit, and so can two identical rows at different positions of
    one product, which reorders ties.
    """
    u = model.user_index.get(consumer_id)
    if u is None:
        return np.zeros(len(item_ids))
    d = model.user_factors.shape[1]
    factors = np.zeros((len(item_ids), d))
    for k, item_id in enumerate(item_ids):
        row = model.item_index.get(int(item_id))
        if row is not None:
            factors[k] = model.item_factors[row]
    return factors @ model.user_factors[u]


def recommend(
    consumer_id: int,
    model: TrainedModel,
    candidates: Sequence[int],
    n: int,
    rng: np.random.Generator,
    context: ServingContext,
    recommender_id: str = "",
) -> Slate:
    """Serve a top-n slate of item ids from exactly one provenance tier.

    ``candidates`` must already be filtered to the recommender's pool and by
    the consumer's visible profile at this recommender. A short (possibly empty)
    slate is returned when candidates run out; tiers never pad each other.
    """
    rid = recommender_id
    cand = np.asarray(sorted(candidates), dtype=np.int64)
    if cand.size == 0:
        known = model.knows_consumer(consumer_id)
        tier = Provenance.MODEL if known else Provenance.GLOBAL_POPULAR_FALLBACK
        return Slate(rid, consumer_id, (), tier)

    if model.knows_consumer(consumer_id):
        scores = score(model, consumer_id, cand)
        order = np.lexsort((cand, -scores))
        picks = cand[order[:n]]
        return Slate(rid, consumer_id, tuple(int(i) for i in picks), Provenance.MODEL)

    counts = np.array([context.subscriber_counts.get(int(i), 0) for i in cand])
    if counts.sum() > 0:
        order = np.lexsort((cand, -counts))
        picks = cand[order[:n]]
        return Slate(rid, consumer_id, tuple(int(i) for i in picks), Provenance.USER_POPULARITY)

    cand_set = set(int(i) for i in cand)
    pool = [int(i) for i in context.global_popular if int(i) in cand_set]
    if len(pool) > n:
        picks = rng.choice(np.array(pool, dtype=np.int64), size=n, replace=False)
        chosen = tuple(int(i) for i in picks)
    else:
        chosen = tuple(pool)
    return Slate(rid, consumer_id, chosen, Provenance.GLOBAL_POPULAR_FALLBACK)


def serve_ids(
    consumer_id: int,
    model: TrainedModel,
    candidates: Sequence[int],
    n: int,
    rng: np.random.Generator,
    context: ServingContext = ServingContext(),
    recommender_id: str = "",
) -> Slate:
    """``recommend``'s signature over the production ``recommender.serve``.

    The catalog is every item id the arguments mention, so catalog rows
    follow id order as in the engine.
    """
    item_ids = np.array(
        sorted(
            set(candidates)
            | set(model.item_index)
            | set(context.subscriber_counts)
            | set(context.global_popular)
        ),
        dtype=np.int64,
    )
    counts = np.zeros(len(item_ids), dtype=np.int64)
    for item, clicks in context.subscriber_counts.items():
        counts[np.searchsorted(item_ids, item)] = clicks
    tier, rows = serve(
        CatalogModel.align(model, item_ids),
        consumer_id,
        np.searchsorted(item_ids, sorted(candidates)),
        n,
        rng,
        lambda: counts,
        np.searchsorted(item_ids, list(context.global_popular)),
    )
    return Slate(recommender_id, consumer_id, tuple(int(i) for i in item_ids[rows]), tier)


def genre_similarity(preference: Sequence[float], genres: Sequence[int]) -> float:
    """Cosine similarity; 0 when either vector is all zeros."""
    p = np.asarray(preference, dtype=float)
    g = np.asarray(genres, dtype=float)
    pn = math.sqrt(float(p @ p))
    gn = math.sqrt(float(g @ g))
    if pn == 0.0 or gn == 0.0:
        return 0.0
    return float(p @ g) / (pn * gn)


def item_genres(catalog: Catalog, item_id: int) -> np.ndarray:
    """The genre matrix row of one catalog item."""
    row = int(np.searchsorted(catalog.item_ids, item_id))
    assert catalog.item_ids[row] == item_id, f"item {item_id} not in catalog"
    return catalog.genre_matrix[row]


def list_utility(slate: Slate, similarity: Callable[[int], float]) -> float:
    """Mean similarity of the slate's items (0 if empty); ``similarity``
    maps an item id to its similarity to the consumer. The sum is numpy's,
    whose order the engine's sums keep."""
    if not slate.item_ids:
        return 0.0
    return float(np.sum([similarity(i) for i in slate.item_ids])) / len(slate.item_ids)


def slate_utility(sims: np.ndarray) -> float:
    """List utility of one slate: the mean of its similarities, in slate
    order (0 if empty). The 1-D reference for the engine's batched
    utilities, ``engine._select``."""
    return float(sims.sum()) / sims.size if sims.size else 0.0


def choose_item(
    sims: np.ndarray, select_threshold: float, rng: np.random.Generator
) -> int | None:
    """Pick one slate position with probability proportional to similarity:
    the 1-D reference for the engine's batched picks, ``engine._pick``.

    ``sims`` holds the similarity of each slate item, in slate order. Items
    below ``select_threshold`` are not candidates; if nothing on the slate
    qualifies (or all qualifying similarities are zero), the consumer
    selects nothing and draws nothing.
    """
    picks = np.flatnonzero(sims >= select_threshold)
    if not picks.size:
        return None
    weights = sims[picks]
    total = float(weights.sum())
    if total <= 0.0:
        return None
    # Generator.choice(p=...)'s own draw, without its per-call argument checks:
    # the same pick from the same single uniform.
    cdf = (weights / total).cumsum()
    cdf /= cdf[-1]
    return int(picks[cdf.searchsorted(rng.random(), side="right")])


def select_item(
    slate: Slate,
    similarity: Callable[[int], float],
    params: BehaviorParams,
    rng: np.random.Generator,
) -> int | None:
    """Pick one slate item id with probability proportional to similarity."""
    if not slate.item_ids:
        return None
    sims = np.array([similarity(i) for i in slate.item_ids])
    mask = sims >= params.select_threshold
    if not mask.any():
        return None
    weights = sims[mask]
    total = float(weights.sum())
    if total <= 0.0:
        return None
    ids = np.array(slate.item_ids)[mask]
    return int(rng.choice(ids, p=weights / total))


def maybe_switch_by_id(
    current: str,
    estimates: Mapping[str, float],
    tried: set[str],
    params: BehaviorParams,
    active: Sequence[str],
) -> str | None:
    """The threshold switching rule by recommender id: the destination, or
    ``None`` to stay. A consumer whose estimate at ``current`` is below the
    threshold moves to an untried recommender, else to the one with the
    highest estimate at least the current one (0 where unset); ties break
    by recommender id."""
    current_estimate = estimates[current]
    if current_estimate >= params.satisfaction_threshold:
        return None

    best: tuple[float, str] | None = None
    for other in sorted(set(active) - {current}):
        untried = other not in tried
        estimate = estimates.get(other, 0.0)
        if not untried and estimate < current_estimate:
            continue
        rank = math.inf if untried else estimate
        if best is None or rank > best[0]:
            best = (rank, other)
    return None if best is None else best[1]


# ---------------------------------------------------------------------------
# Per-row ALS oracle
# ---------------------------------------------------------------------------


def train_per_row(
    snapshot: TrainingSnapshot,
    config: RecommenderConfig,
    seed: int,
    trained_at_cycle: int = 0,
) -> TrainedModel:
    """Implicit-feedback ALS with one ridge solve per row, in a Python loop."""
    users = sorted(c for c, entries in snapshot.items() if entries)
    item_set: set[int] = set()
    for c in users:
        item_set.update(item for item, _day in snapshot[c])
    items = sorted(item_set)
    if not users or not items:
        return TrainedModel.empty(config.latent_factors, trained_at_cycle)

    user_index = {c: k for k, c in enumerate(users)}
    item_index = {i: k for k, i in enumerate(items)}
    user_items: list[np.ndarray] = []
    for c in users:
        cols = sorted({item_index[item] for item, _day in snapshot[c]})
        user_items.append(np.array(cols, dtype=np.intp))
    item_users: list[list[int]] = [[] for _ in items]
    for u, cols in enumerate(user_items):
        for col in cols:
            item_users[col].append(u)
    item_users_arr = [np.array(rows, dtype=np.intp) for rows in item_users]

    rng = np.random.default_rng(seed)
    d = config.latent_factors
    user_mat = rng.standard_normal((len(users), d)) * 0.01
    item_mat = rng.standard_normal((len(items), d)) * 0.01

    alpha = config.confidence_weight
    reg = config.regularization
    for epoch in range(config.epochs):
        user_mat = solve_side_per_row(user_items, item_mat, alpha, reg)
        item_mat = solve_side_per_row(item_users_arr, user_mat, alpha, reg)
        if not (np.isfinite(user_mat).all() and np.isfinite(item_mat).all()):
            raise TrainingError(f"non-finite factors in epoch {epoch}")
    return TrainedModel(user_index, item_index, user_mat, item_mat, trained_at_cycle)


def solve_side_per_row(
    observed: Sequence[np.ndarray], other: np.ndarray, alpha: float, reg: float
) -> np.ndarray:
    """One half of an ALS round: ridge solve per row against the fixed side."""
    d = other.shape[1]
    gram = other.T @ other + reg * np.eye(d)
    out = np.zeros((len(observed), d))
    for r, cols in enumerate(observed):
        if cols.size == 0:
            continue
        m = other[cols]
        a = gram + alpha * (m.T @ m)
        b = (1.0 + alpha) * m.sum(axis=0)
        out[r] = np.linalg.solve(a, b)
    return out


def run_from_scratch(
    config: engine.ScenarioConfig,
    data: tuple,
    audit: AuditTrail | None = None,
    collect_day_rows: bool = False,
) -> engine.MetricsReport:
    """One scenario on its own state, cycle by cycle from the start: every
    active recommender trains every cycle, and nothing is shared."""
    state = engine.prepare_state(config, data, audit=audit, collect_day_rows=collect_day_rows)
    for cycle in range(config.cycles):
        state.cycle = cycle
        engine.train_cycle(state)
        for _day in range(config.days_per_cycle):
            engine.run_day(state)
        if (
            config.switch_timing is engine.SwitchTiming.END_OF_CYCLE
            and not config.is_baseline
            and cycle >= config.warmup_cycles
        ):
            engine.evaluate_switches(state)
        engine._finish_cycle(state)
    return engine._build_report(state)


def reference_run_day(state: engine.EcosystemState) -> None:
    """``engine.run_day`` one consumer at a time, in id order, from the
    per-item oracles: serve with ``recommend``, score with ``list_utility``,
    pick with ``select_item`` and switch by ``maybe_switch_by_id``.

    The similarities are the set-up's table, ``state.sims``: a cosine
    from a matrix product and one from a single dot product can differ in
    the last bit.
    """
    cfg, store, catalog = state.config, state.store, state.catalog
    day_in_cycle = state.day - state.cycle * cfg.days_per_cycle
    per_day_switching = (
        cfg.switch_timing is engine.SwitchTiming.PER_DAY
        and not cfg.is_baseline
        and state.cycle >= cfg.warmup_cycles
    )
    item_ids = catalog.item_ids.tolist()
    catalog_row = {item: row for row, item in enumerate(item_ids)}
    consumer_ids = state.consumers.consumer_ids.tolist()
    counts: dict[str, dict[int, int]] = {}
    day_utility = [0.0] * len(consumer_ids)
    for row, cid in enumerate(consumer_ids):
        rid = state.columns[state.current[row]]
        model = state.models[rid].model
        if rid == engine.NICHE_RECOMMENDER:
            pool = catalog.items_with_genre(cfg.niche_genre)
        else:
            pool = item_ids
        seen = visible_items(store, rid, cid)
        candidates = [i for i in pool if i not in seen]
        popularity_tier = bool(candidates) and not model.knows_consumer(cid)
        if popularity_tier and rid not in counts:
            # The day's one coupling between consumers: a recommender's
            # subscriber counts are taken at its first popularity-tier serve
            # of the day, over its current subscribers' profiles as they are
            # then, so they hold the clicks and switches of every consumer
            # served before it today.
            counts[rid] = dict(
                Counter(
                    item
                    for other, column in zip(consumer_ids, state.current.tolist())
                    if state.columns[column] == rid
                    for item in visible_items(store, rid, other)
                )
            )
        context = ServingContext(
            subscriber_counts=counts[rid] if popularity_tier else {},
            global_popular=catalog.item_ids[state.popular].tolist(),
        )
        rng = state.consumer_rngs[row]
        slate = recommend(cid, model, candidates, cfg.slate_size, rng, context, rid)
        state.provenance[slate.provenance.value] += 1

        def similarity(item: int) -> float:
            return float(state.sims[row, catalog_row[item]])

        mu = list_utility(slate, similarity)
        column = int(state.current[row])
        prev = float(state.estimates[row, column])
        state.estimates[row, column] = (
            mu if math.isnan(prev) else update_utility(prev, mu, cfg.behavior.recency_bias)
        )
        day_utility[row] = mu
        item = select_item(slate, similarity, cfg.behavior, rng)
        if item is not None:
            record_click(store, cid, rid, item, state.day)
            label = state.provider_type_of_row[catalog_row[item]]
            state.provider_clicks[label] += 1
        if per_day_switching:
            reference_switch(state, row, day_in_cycle)
    day_utility = np.array(day_utility)
    state.cycle_sum += day_utility
    if state.collect_day_rows:
        for ctype, rows in state.type_rows.items():
            mean = float(np.mean([day_utility[r] for r in rows]))
            state.day_rows.append(
                engine.DayUtilityRow(state.cycle, day_in_cycle, ctype, mean, len(rows))
            )
    state.day += 1


def reference_switch(state: engine.EcosystemState, row: int, day_in_cycle: int) -> None:
    """``engine._apply_switch`` by recommender id, through ``maybe_switch_by_id``."""
    cid = int(state.consumers.consumer_ids[row])
    source = state.columns[state.current[row]]
    estimates = {
        rid: float(value)
        for rid, value in zip(state.columns, state.estimates[row])
        if not math.isnan(value)
    }
    destination = maybe_switch_by_id(
        source, estimates, recommenders_tried(state)[row], state.config.behavior, state.active
    )
    if destination is None:
        return
    state.current[row] = state.columns.index(destination)
    if state.store.audit is not None:
        state.store.audit.emit(
            "switch",
            consumer=cid,
            source=source,
            destination=destination,
            cycle=state.cycle,
            day=state.cycle * state.config.days_per_cycle + day_in_cycle,
        )
    on_switch(state.store, cid, source, destination)
    state.switch_events.append(
        engine.SwitchEvent(
            state.cycle, day_in_cycle, cid, state.consumers.type_labels[row], source, destination
        )
    )


# ---------------------------------------------------------------------------
# Per-record set-up oracles
# ---------------------------------------------------------------------------


def log_rows(log: InteractionLog) -> list[tuple[int, int, float, int]]:
    """The log's rows as ``(consumer_id, item_id, rating, timestamp)`` tuples
    of Python numbers, in the log's (consumer, item) order."""
    columns = (log.consumer_ids, log.item_ids, log.ratings, log.timestamps)
    return list(zip(*(column.tolist() for column in columns)))


def rating_log(rows: Sequence[tuple[int, int, float, int]]) -> InteractionLog:
    """``build_log`` of ``(consumer_id, item_id, rating, timestamp)`` rows."""
    return build_log(*zip(*rows))


def build_preferences_per_record(
    log: InteractionLog,
    catalog: Catalog,
    niche_genre: str,
    history_threshold: float = 4.0,
) -> Consumers:
    """``dataset.build_preferences`` one consumer, record and genre at a time."""
    n_genres = len(catalog.genres)
    niche_idx = catalog.genre_index(niche_genre)

    row_of = {item_id: row for row, item_id in enumerate(catalog.item_ids.tolist())}
    by_consumer: dict[int, list[tuple[int, float]]] = {}
    for consumer_id, item_id, rating, _timestamp in log_rows(log):
        if item_id not in row_of:
            raise DataError(f"rated item {item_id} not in catalog")
        by_consumer.setdefault(consumer_id, []).append((item_id, rating))

    rows: list[tuple] = []
    skipped = 0
    for consumer_id in sorted(by_consumer):
        mass = np.zeros(n_genres)
        history: list[int] = []
        for item_id, rating in by_consumer[consumer_id]:
            genres = catalog.genre_matrix[row_of[item_id]].tolist()
            share = rating / sum(genres)
            for g, bit in enumerate(genres):
                if bit:
                    mass[g] += share
            if rating >= history_threshold:
                history.append(item_id)
        total = float(mass.sum())
        if total <= 0.0:
            skipped += 1
            continue
        vector = tuple(float(v) for v in mass / total)
        label = label_from_vector(vector, niche_idx)
        rows.append((consumer_id, vector, label, tuple(sorted(history))))
    if skipped:
        warnings.warn(f"excluded {skipped} consumers with no usable ratings", stacklevel=2)
    consumer_ids = np.array([row[0] for row in rows], dtype=np.int64)
    preferences = np.array([row[1] for row in rows], dtype=float).reshape(len(rows), n_genres)
    consumer_ids.flags.writeable = False
    preferences.flags.writeable = False
    return Consumers(
        consumer_ids,
        preferences,
        tuple(row[2] for row in rows),
        tuple(row[3] for row in rows),
    )


def label_from_vector(vector: Sequence[float], niche_idx: int | None) -> str:
    """Niche requires a strict, unique argmax at the niche genre."""
    if niche_idx is None:
        return GENERIC
    top = max(vector)
    winners = [g for g, v in enumerate(vector) if v == top]
    return NICHE if winners == [niche_idx] else GENERIC


def seed_per_click(
    store: ProfileStore, recommender_id: str, histories: Mapping[int, Sequence[int]]
) -> None:
    """Seed each consumer's history, in the mapping's order, through
    ``record_click`` at day -1."""
    for consumer_id, item_ids in histories.items():
        for item_id in item_ids:
            record_click(store, consumer_id, recommender_id, item_id, -1)
