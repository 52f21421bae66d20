"""Dataset ingestion and stakeholder classification.

Builds the static inputs of a simulation run: the interaction log, the
item catalog with provider affiliations, per-consumer genre preference
vectors, and the Niche/Generic labels for consumers and providers.

All functions here are pure: they never mutate their inputs and are safe
to call concurrently.
"""

from __future__ import annotations

import csv
import logging
import math
import warnings
from dataclasses import dataclass, replace
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DataError

logger = logging.getLogger(__name__)

NICHE = "Niche"
GENERIC = "Generic"

DEFAULT_GENRES = (
    "Action",
    "Comedy",
    "Documentary",
    "Drama",
    "Horror",
    "Romance",
    "SciFi",
    "Thriller",
)


class RatingRecord(NamedTuple):
    consumer_id: int
    item_id: int
    rating: float
    timestamp: int


@dataclass(frozen=True)
class InteractionLog:
    """Deduplicated rating events; at most one record per (consumer, item)."""

    records: tuple[RatingRecord, ...]

    def __post_init__(self) -> None:
        if not self.records:
            raise DataError("no interactions")


@dataclass(frozen=True)
class ItemRecord:
    item_id: int
    genre_vector: tuple[int, ...]
    provider_id: str


@dataclass(frozen=True)
class ProviderRecord:
    provider_id: str
    item_ids: tuple[int, ...]
    type_label: str | None = None


@dataclass(frozen=True)
class Catalog:
    """Item and provider tables over a fixed, ordered genre taxonomy."""

    items: dict[int, ItemRecord]
    genres: tuple[str, ...]
    providers: dict[str, ProviderRecord]

    def genre_index(self, genre: str) -> int | None:
        try:
            return self.genres.index(genre)
        except ValueError:
            return None

    def items_with_genre(self, genre: str) -> list[int]:
        g = self.genre_index(genre)
        if g is None:
            return []
        return sorted(i for i, rec in self.items.items() if rec.genre_vector[g])


@dataclass(frozen=True)
class ConsumerProfileSeed:
    """Derived consumer profile: taste vector, label, and starting history."""

    consumer_id: int
    preference_vector: tuple[float, ...]
    type_label: str
    initial_history: tuple[int, ...]


# ---------------------------------------------------------------------------
# File loaders
# ---------------------------------------------------------------------------


def load_ratings(path: str | Path, fmt: str = "movielens-dat") -> InteractionLog:
    """Load a ratings file into a deduplicated InteractionLog.

    ``movielens-dat`` rows are ``UserID::MovieID::Rating::Timestamp`` with a
    rating on the 1-5 scale; ``csv`` expects a ``user,item,rating,timestamp``
    header and a finite, positive rating. Repeated (user, item) pairs keep
    the record with the latest timestamp, and on equal timestamps the one
    with the higher rating, so the order of a file's rows never matters.
    """
    path = Path(path)
    if fmt == "movielens-dat":
        rows = _dat_rows(path)
    elif fmt == "csv":
        rows = _csv_rows(path, ("user", "item", "rating", "timestamp"))
    else:
        raise DataError(f"unknown ratings format: {fmt!r}")

    latest: dict[tuple[int, int], RatingRecord] = {}
    for where, fields in rows:
        try:
            rec = RatingRecord(int(fields[0]), int(fields[1]), float(fields[2]), int(fields[3]))
        except ValueError as exc:
            raise DataError(f"{where}: {exc}") from exc
        if fmt == "csv" and not (math.isfinite(rec.rating) and rec.rating > 0.0):
            raise DataError(f"{where}: rating must be finite and positive")
        if fmt != "csv" and not 1.0 <= rec.rating <= 5.0:
            raise DataError(f"{where}: rating {rec.rating} outside the 1-5 scale")
        key = (rec.consumer_id, rec.item_id)
        prior = latest.get(key)
        if prior is None or (rec.timestamp, rec.rating) > (prior.timestamp, prior.rating):
            latest[key] = rec
    if not latest:
        raise DataError(f"no interactions in {path}")
    records = tuple(latest[k] for k in sorted(latest))
    return InteractionLog(records)


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def _dat_rows(path: Path) -> Iterator[tuple[str, list[str]]]:
    """``(path:line, fields)`` for each non-blank line of a ``::``-delimited file."""
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        if line.strip():
            fields = line.split("::")
            if len(fields) != 4:
                raise DataError(f"{path}:{lineno}: expected 4 '::'-delimited fields")
            yield f"{path}:{lineno}", fields


def _csv_rows(path: Path, header: Sequence[str]) -> Iterator[tuple[str, list[str]]]:
    """``(path:line, row)`` for each non-blank row of a CSV file whose first
    row is ``header`` (compared stripped and lower-cased)."""
    reader = csv.reader(_read_text(path).splitlines())
    if [h.strip().lower() for h in next(reader, [])] != list(header):
        raise DataError(f"{path}:1: header must be {','.join(header)}")
    for lineno, row in enumerate(reader, start=2):
        if row:
            if len(row) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} columns")
            yield f"{path}:{lineno}", row


def _new_item_id(where: str, text: str, seen: Mapping[int, object]) -> int:
    """The item id in ``text``, which must not be a key of ``seen`` yet."""
    try:
        item_id = int(text)
    except ValueError as exc:
        raise DataError(f"{where}: {exc}") from exc
    if item_id in seen:
        raise DataError(f"{where}: item {item_id} repeats an earlier row")
    return item_id


def load_catalog(items_path: str | Path, providers_path: str | Path) -> Catalog:
    """Load the item table (``item,title,genres``) and provider map (``item,provider``).

    Genres are pipe-delimited within the items file, and each item id has
    one row in each file. The taxonomy is the sorted union of genres seen
    in the file.
    """
    raw_items: dict[int, list[str]] = {}
    for where, (item, _title, names) in _csv_rows(Path(items_path), ("item", "title", "genres")):
        item_id = _new_item_id(where, item, raw_items)
        item_genres = [g.strip() for g in names.split("|") if g.strip()]
        if not item_genres:
            raise DataError(f"{where}: item {item_id} has no genres")
        raw_items[item_id] = item_genres
    provider_of: dict[int, str] = {}
    for where, (item, provider) in _csv_rows(Path(providers_path), ("item", "provider")):
        provider_of[_new_item_id(where, item, provider_of)] = provider.strip()

    missing = sorted(set(raw_items) - set(provider_of))
    if missing:
        raise DataError(f"{len(missing)} items missing from provider map, first: {missing[:5]}")

    taxonomy = tuple(sorted({g for gs in raw_items.values() for g in gs}))
    return build_catalog(
        [(i, gs, provider_of[i]) for i, gs in sorted(raw_items.items())], taxonomy
    )


def build_catalog(
    item_rows: Iterable[tuple[int, Sequence[str], str]],
    genres: Sequence[str],
) -> Catalog:
    """Assemble a Catalog from (item_id, genre names, provider_id) rows."""
    taxonomy = tuple(genres)
    index = {g: k for k, g in enumerate(taxonomy)}
    items: dict[int, ItemRecord] = {}
    provider_items: dict[str, list[int]] = {}
    for item_id, item_genres, provider_id in item_rows:
        vec = [0] * len(taxonomy)
        for g in item_genres:
            vec[index[g]] = 1
        if not any(vec):
            raise DataError(f"item {item_id} has no genres")
        items[item_id] = ItemRecord(item_id, tuple(vec), provider_id)
        provider_items.setdefault(provider_id, []).append(item_id)
    providers = {
        pid: ProviderRecord(pid, tuple(sorted(ids))) for pid, ids in provider_items.items()
    }
    return Catalog(items=items, genres=taxonomy, providers=providers)


# ---------------------------------------------------------------------------
# Preference vectors and classification
# ---------------------------------------------------------------------------


def build_preferences(
    log: InteractionLog,
    catalog: Catalog,
    niche_genre: str,
    history_threshold: float = 4.0,
) -> list[ConsumerProfileSeed]:
    """Derive per-consumer genre preference vectors and Niche/Generic labels.

    Each rating contributes its value split evenly across the item's genres;
    the per-genre sums are L1-normalized. A consumer is Niche when the unique
    argmax of their vector is the niche genre (a tie at the niche genre
    classifies as Generic). Items rated at or above ``history_threshold``
    form the consumer's initial implicit-feedback history.

    One array pass: each (consumer, genre) sum adds its shares in record
    order, as a per-record loop does. Seeds ascend by consumer id.
    """
    # Not zip(*records): it makes an iterator per record, each tracked by the GC
    consumer, item, rating = (
        np.fromiter(map(itemgetter(k), log.records), dtype, len(log.records))
        for k, dtype in enumerate((np.int64, np.int64, float))
    )
    item_ids = np.array(sorted(catalog.items), dtype=np.int64)
    unknown = np.flatnonzero(~np.isin(item, item_ids))
    if unknown.size:
        raise DataError(f"rated item {item[unknown[0]]} not in catalog")
    genre_mat = np.array([catalog.items[i].genre_vector for i in item_ids.tolist()], dtype=bool)
    rated = genre_mat[np.searchsorted(item_ids, item)]  # record x genre

    consumer_ids, rows = np.unique(consumer, return_inverse=True)
    record, genre = np.nonzero(rated)  # record order, then genre order
    mass = np.zeros((len(consumer_ids), len(catalog.genres)))
    np.add.at(mass, (rows[record], genre), (rating / rated.sum(axis=1))[record])
    total = mass.sum(axis=1)
    usable = total > 0.0
    vectors = mass[usable] / total[usable, None]
    winners = vectors == vectors.max(axis=1, keepdims=True)
    niche_idx = catalog.genre_index(niche_genre)
    niche = (winners.sum(axis=1) == 1) & (niche_idx is not None and winners[:, niche_idx])

    liked = np.flatnonzero(rating >= history_threshold)
    liked = liked[np.lexsort((item[liked], rows[liked]))]  # by consumer, then item
    kept = np.flatnonzero(usable)
    starts, ends = (np.searchsorted(rows[liked], kept, s).tolist() for s in ("left", "right"))
    history = item[liked].tolist()
    seeds = [
        ConsumerProfileSeed(c, tuple(v), NICHE if n else GENERIC, tuple(history[a:b]))
        for c, v, n, a, b in zip(
            consumer_ids[kept].tolist(), vectors.tolist(), niche.tolist(), starts, ends
        )
    ]
    skipped = len(consumer_ids) - len(kept)
    if skipped:
        warnings.warn(f"excluded {skipped} consumers with no usable ratings", stacklevel=2)
    return seeds


def classify_providers(catalog: Catalog, niche_genre: str) -> Catalog:
    """Return a catalog copy whose providers carry Niche/Generic labels.

    A provider is Niche when strictly more than half of its items carry the
    niche genre; providers with no items are labeled Generic with a warning.
    """
    niche_idx = catalog.genre_index(niche_genre)
    labeled: dict[str, ProviderRecord] = {}
    counts = {NICHE: 0, GENERIC: 0}
    empty = 0
    for pid in sorted(catalog.providers):
        rec = catalog.providers[pid]
        if not rec.item_ids:
            empty += 1
            label = GENERIC
        elif niche_idx is None:
            label = GENERIC
        else:
            niche_items = sum(
                1 for i in rec.item_ids if catalog.items[i].genre_vector[niche_idx]
            )
            label = NICHE if 2 * niche_items > len(rec.item_ids) else GENERIC
        counts[label] += 1
        labeled[pid] = replace(rec, type_label=label)
    if empty:
        warnings.warn(f"{empty} providers have no items; labeled Generic", stacklevel=2)
    logger.info("provider labels: %d Niche, %d Generic", counts[NICHE], counts[GENERIC])
    return replace(catalog, providers=labeled)


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------


RATINGS_PER_CONSUMER = 24
NICHE_ITEM_FRACTION = 0.27
CROSSOVER_ITEM_FRACTION = 0.13
NICHE_PROVIDER_COUNT = 3
CANON_SIZE = 12


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters for a generated desk-scale dataset over ``DEFAULT_GENRES``.

    The taste calibration is fixed by the module constants above: each
    consumer rates ``RATINGS_PER_CONSUMER`` items; ``NICHE_ITEM_FRACTION`` of
    the catalog carries only the niche genre and ``CROSSOVER_ITEM_FRACTION``
    pairs it with a tail genre; ``NICHE_PROVIDER_COUNT`` studios make those
    items, and the first ``CANON_SIZE`` of them are the canon every niche
    consumer knows. They are set so that niche consumers rate mainstream
    items highly enough to look ordinary to a collaborative model trained on
    clicks, while their rating *concentration* still puts the niche genre at
    the top of the derived preference vector.
    """

    consumers: int = 500
    items: int = 300
    providers: int = 20
    niche_fraction: float = 0.1
    seed: int = 0
    niche_genre: str = "Horror"

    def validate(self) -> None:
        if self.consumers < 1 or self.items < 1 or self.providers < 1:
            raise DataError("population counts must be positive")
        if not 0.0 < self.niche_fraction < 1.0:
            raise DataError("niche_fraction must lie in (0, 1)")
        n_niche = round(self.consumers * self.niche_fraction)
        if not 1 <= n_niche <= self.consumers - 1:
            raise DataError(
                f"infeasible spec: {self.consumers} consumers cannot realize "
                f"a niche fraction of {self.niche_fraction}"
            )
        if self.providers > self.items:
            raise DataError("more providers than items")
        if self.providers < 2:
            raise DataError("providers must be >= 2: niche studios and generic ones")
        if self.niche_genre not in DEFAULT_GENRES:
            raise DataError(
                f"niche_genre {self.niche_genre!r} is not a synthetic genre: "
                f"{', '.join(DEFAULT_GENRES)}"
            )


_GENERATION_ATTEMPTS = 4  # drift is rare: 1 of 72 seeds tried at 250x150x10


def generate_synthetic(spec: SyntheticSpec) -> tuple[InteractionLog, Catalog]:
    """Generate a deterministic (log, catalog) pair matching ``spec`` and the
    calibration constants (``RATINGS_PER_CONSUMER``, ``NICHE_ITEM_FRACTION``,
    ``CROSSOVER_ITEM_FRACTION``, ``NICHE_PROVIDER_COUNT``, ``CANON_SIZE``).

    For a fixed seed the output is byte-identical across calls. The realized
    Niche consumer count is within 1 of ``round(consumers * niche_fraction)``.
    A draw that drifts further is redrawn from
    ``default_rng([seed, attempt])``, a bounded number of times.
    """
    spec.validate()
    niche_idx = DEFAULT_GENRES.index(spec.niche_genre)
    for attempt in range(_GENERATION_ATTEMPTS):
        rng = np.random.default_rng([spec.seed, attempt] if attempt else spec.seed)
        log, catalog, designated = _generate_labelled(spec, rng, niche_idx)
        seeds = build_preferences(log, catalog, spec.niche_genre)
        realized = {s.consumer_id for s in seeds if s.type_label == NICHE}
        if abs(len(realized) - len(designated)) <= 1:
            return log, catalog
    raise DataError(
        f"synthetic generation drifted: designated {len(designated)} niche "
        f"consumers, realized {len(realized)}"
    )


def _generate_labelled(
    spec: SyntheticSpec, rng: np.random.Generator, niche_idx: int
) -> tuple[InteractionLog, Catalog, set[int]]:
    """One draw of the log, the catalog and the designated niche consumers."""
    genres = DEFAULT_GENRES
    other_idx = [g for g in range(len(genres)) if g != niche_idx]
    # Mildly skewed popularity over the non-niche genres drives both item
    # genre assignment and mainstream tastes; crossover items pair the niche
    # genre with tail genres so they stay unattractive to the mainstream.
    genre_weight = 1.0 / (1.0 + 0.35 * np.arange(len(other_idx)))
    genre_weight /= genre_weight.sum()
    tail_weight = genre_weight[::-1].copy()
    tail_weight /= tail_weight.sum()

    n_pure = max(1, round(spec.items * NICHE_ITEM_FRACTION))
    n_cross = round(spec.items * CROSSOVER_ITEM_FRACTION)
    n_pure = min(n_pure, spec.items)
    n_cross = min(n_cross, spec.items - n_pure)

    item_genres: list[list[int]] = []
    for i in range(spec.items):
        if i < n_pure:
            item_genres.append([niche_idx])
        elif i < n_pure + n_cross:
            extra = int(rng.choice(other_idx, p=tail_weight))
            item_genres.append(sorted([niche_idx, extra]))
        else:
            k = min(1 + int(rng.random() < 0.65), len(other_idx))
            picks = rng.choice(other_idx, size=k, replace=False, p=genre_weight)
            item_genres.append(sorted(int(g) for g in picks))

    provider_ids = [f"p{k:03d}" for k in range(spec.providers)]
    n_niche_prov = min(NICHE_PROVIDER_COUNT, spec.providers - 1, n_pure)
    provider_of: dict[int, str] = {}
    # Niche studios produce all niche-tagged output, crossovers included.
    for i in range(n_pure + n_cross):
        provider_of[i] = provider_ids[i % n_niche_prov]
    rest = list(range(n_pure + n_cross, spec.items))
    generic_providers = provider_ids[n_niche_prov:]
    for k, i in enumerate(rest):
        provider_of[i] = generic_providers[k % len(generic_providers)]

    catalog = build_catalog(
        [(i, [genres[g] for g in item_genres[i]], provider_of[i]) for i in range(spec.items)],
        genres,
    )

    n_niche_consumers = round(spec.consumers * spec.niche_fraction)
    order = rng.permutation(spec.consumers)
    niche_consumers = set(int(c) for c in order[:n_niche_consumers])

    pure_ids = np.arange(n_pure)
    canon = pure_ids[: min(CANON_SIZE, n_pure)]
    tagged_ids = np.arange(n_pure + n_cross)
    generic_ids = np.arange(n_pure + n_cross, spec.items)
    generic_genres = np.array([catalog.items[i].genre_vector for i in generic_ids.tolist()], bool)
    # A niche consumer's picks beyond the canon come from the tagged items after it
    n_tag = min(max(RATINGS_PER_CONSUMER // 2, len(canon) + 2), len(tagged_ids))
    n_canon = min(len(canon), n_tag)
    tag_pool = tagged_ids[n_canon:]

    # Popularity skew for mainstream items so the global popular list has a
    # realistic long tail.
    if len(generic_ids):
        generic_pop = 1.0 / (1.0 + np.arange(len(generic_ids)) * 0.05)
        generic_pop /= generic_pop.sum()

    records: list[RatingRecord] = []
    ts = 0
    for consumer in range(spec.consumers):
        per = RATINGS_PER_CONSUMER
        rated: dict[int, float] = {}
        if consumer in niche_consumers:
            # Everyone in the niche audience knows the genre canon; those
            # shared ratings are what keeps canon items inside the global
            # popular list that cold recommenders fall back on.
            picks = list(canon[:n_canon])
            extra = min(n_tag - n_canon, len(tag_pool))
            if extra > 0:
                picks += list(rng.choice(tag_pool, size=extra, replace=False))
            for i in picks:
                # Concentrated but mid-level ratings: only some cross the
                # implicit-history threshold.
                rated[int(i)] = 4.0 if rng.random() < 0.35 else 3.0
            n_gen = per - len(rated)
            if len(generic_ids) and n_gen > 0:
                n_gen = min(n_gen, len(generic_ids))
                for i in rng.choice(generic_ids, size=n_gen, replace=False, p=generic_pop):
                    rated[int(i)] = 5.0 if rng.random() < 0.3 else 4.0
        else:
            # Diffuse mainstream taste: a mild personal boost on one or two
            # genres over a broad popularity-driven diet, so most of the
            # catalog stays moderately attractive even late in a run.
            n_like = min(1 + int(rng.random() < 0.5), len(other_idx))
            liked = {
                int(g)
                for g in rng.choice(other_idx, size=n_like, replace=False, p=genre_weight)
            }
            match = generic_ids[generic_genres[:, sorted(liked)].any(axis=1)]
            n_match = min(len(match), max(1, round(per * 0.25)))
            taken = np.zeros(len(generic_ids), dtype=bool)
            if n_match > 0:
                for i in rng.choice(match, size=n_match, replace=False):
                    rated[int(i)] = 5.0
                    taken[int(i) - n_pure - n_cross] = True
            fill_pool = generic_ids[~taken]
            n_fill = min(per - len(rated), len(fill_pool))
            if n_fill > 0:
                fill_pop = 1.0 / (1.0 + np.arange(len(fill_pool)) * 0.05)
                fill_pop /= fill_pop.sum()
                for i in rng.choice(fill_pool, size=n_fill, replace=False, p=fill_pop):
                    rated[int(i)] = 5.0 if rng.random() < 0.3 else 4.0
            # A niche-curious minority genuinely enjoys the genre canon; the
            # rest occasionally brush against it and bounce off.
            roll = rng.random()
            if roll < 0.15 and len(canon):
                k = min(len(canon), int(rng.integers(3, 6)))
                for i in rng.choice(canon, size=k, replace=False):
                    rated[int(i)] = 4.0
            elif roll < 0.35 and len(canon):
                i = int(rng.choice(canon))
                rated.setdefault(i, 2.0)
        for item_id in sorted(rated):
            records.append(RatingRecord(consumer, item_id, rated[item_id], ts))
            ts += 1

    return InteractionLog(tuple(records)), catalog, niche_consumers
