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
from collections import Counter
from dataclasses import dataclass, fields
from itertools import compress
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

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


class _Table:
    """Equality over a table's fields, arrays compared by value: the
    dataclass-generated ``__eq__`` cannot compare array fields."""

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(
            np.array_equal(mine, theirs) if isinstance(mine, np.ndarray) else mine == theirs
            for mine, theirs in (
                (getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
            )
        )


@dataclass(frozen=True, eq=False)
class InteractionLog(_Table):
    """Rating events as columns, one row per (consumer, item) pair.

    Rows ascend strictly by (consumer, item). ``build_log`` makes the
    columns in that order, and its arrays are read-only, so one log can be
    shared.
    """

    consumer_ids: np.ndarray  # int64
    item_ids: np.ndarray  # int64
    ratings: np.ndarray  # float64
    timestamps: np.ndarray  # int64

    def __len__(self) -> int:
        return len(self.consumer_ids)


@dataclass(frozen=True, eq=False)
class Catalog(_Table):
    """The item table as columns over a fixed, ordered genre taxonomy.

    Row ``r`` is the item with the ``r``-th smallest id; every layer that
    lays items out by catalog row reads this order. ``build_catalog`` makes
    the columns, and its arrays are read-only, so one catalog can be shared.
    """

    item_ids: np.ndarray  # int64, ascending
    genres: tuple[str, ...]
    genre_matrix: np.ndarray  # bool, rows x genres
    provider_ids: tuple[str, ...]  # each row's provider

    def genre_index(self, genre: str) -> int | None:
        try:
            return self.genres.index(genre)
        except ValueError:
            return None

    def items_with_genre(self, genre: str) -> list[int]:
        g = self.genre_index(genre)
        if g is None:
            return []
        return self.item_ids[self.genre_matrix[:, g]].tolist()


@dataclass(frozen=True, eq=False)
class Consumers(_Table):
    """The consumer table as columns in consumer-row order.

    Row ``r`` is the usable consumer with the ``r``-th smallest id; every
    layer that lays consumers out by row reads this order.
    ``build_preferences`` makes the columns, and its arrays are read-only.
    """

    consumer_ids: np.ndarray  # int64, ascending
    preferences: np.ndarray  # float64, rows x genres, L1-normalized
    type_labels: tuple[str, ...]  # each row's Niche/Generic label
    histories: tuple[tuple[int, ...], ...]  # each row's initial item ids, ascending

    def __len__(self) -> int:
        return len(self.consumer_ids)


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

    latest: dict[tuple[int, int], tuple[int, float]] = {}  # pair -> (timestamp, rating)
    for where, fields in rows:
        key = _parse_int(where, fields[0], "user"), _parse_int(where, fields[1], "item")
        timestamp = _parse_int(where, fields[3], "timestamp")
        try:
            rating = float(fields[2])
        except ValueError as exc:
            raise DataError(f"{where}: {exc}") from exc
        if fmt == "csv" and not (math.isfinite(rating) and rating > 0.0):
            raise DataError(f"{where}: rating must be finite and positive")
        if fmt != "csv" and not 1.0 <= rating <= 5.0:
            raise DataError(f"{where}: rating {rating} outside the 1-5 scale")
        prior = latest.get(key)
        if prior is None or (timestamp, rating) > prior:
            latest[key] = timestamp, rating
    if not latest:
        raise DataError(f"no interactions in {path}")
    # Object arrays keep the parsed ints exact until build_log converts them
    pairs = np.array(list(latest), dtype=object)
    kept = np.array(list(latest.values()), dtype=object)
    return build_log(pairs[:, 0], pairs[:, 1], kept[:, 1], kept[:, 0])


def build_log(
    consumer_ids: Sequence[int] | np.ndarray,
    item_ids: Sequence[int] | np.ndarray,
    ratings: Sequence[float] | np.ndarray,
    timestamps: Sequence[int] | np.ndarray,
) -> InteractionLog:
    """Assemble an InteractionLog from four equal-length columns of rating
    events in any order. Each (consumer, item) pair has one event."""
    columns = [
        _column(values, dtype, name)
        for values, dtype, name in zip(
            (consumer_ids, item_ids, ratings, timestamps),
            (np.int64, np.int64, np.float64, np.int64),
            ("consumer", "item", "rating", "timestamp"),
        )
    ]
    if columns[0].ndim != 1 or any(c.shape != columns[0].shape for c in columns):
        raise DataError("interaction columns must be 1-D and of equal length")
    if not columns[0].size:
        raise DataError("no interactions")
    order = np.lexsort((columns[1], columns[0]))
    consumer, item, rating, timestamp = (c[order] for c in columns)  # copies: the log owns them
    repeated = np.flatnonzero((consumer[1:] == consumer[:-1]) & (item[1:] == item[:-1]))
    if repeated.size:
        k = repeated[0]
        raise DataError(f"consumer {consumer[k]} rates item {item[k]} more than once")
    for column in (consumer, item, rating, timestamp):
        column.flags.writeable = False
    return InteractionLog(consumer, item, rating, timestamp)


def _column(values: Sequence | np.ndarray, dtype: type, name: str) -> np.ndarray:
    """``values`` as a ``dtype`` array; a value outside that type's range is a
    DataError naming it."""
    try:
        return np.asarray(values, dtype)
    except OverflowError:
        for value in values:
            try:
                np.asarray(value, dtype)
            except OverflowError:
                raise DataError(f"{name} {value} out of range for {np.dtype(dtype)}") from None
        raise


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


_INT64 = np.iinfo(np.int64)


def _parse_int(where: str, text: str, name: str) -> int:
    """The ``name`` in ``text``, an int within 64 bits; else a DataError at ``where``."""
    try:
        value = int(text)
    except ValueError as exc:
        raise DataError(f"{where}: {exc}") from exc
    if not _INT64.min <= value <= _INT64.max:
        raise DataError(f"{where}: {name} {value} out of range for int64")
    return value


def _new_item_id(where: str, text: str, seen: Mapping[int, object]) -> int:
    """The item id in ``text``, which must not be a key of ``seen`` yet."""
    item_id = _parse_int(where, text, "item")
    if item_id in seen:
        raise DataError(f"{where}: item {item_id} repeats an earlier row")
    return item_id


def load_catalog(items_path: str | Path, providers_path: str | Path) -> Catalog:
    """Load the item table (``item,title,genres``) and provider map (``item,provider``).

    Genres are pipe-delimited within the items file, and each item id has
    one row in each file: an item without a provider row, or a provider row
    without an item, is an error. The taxonomy is the sorted union of genres
    seen in the file.
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
    unknown = sorted(set(provider_of) - set(raw_items))
    if unknown:
        raise DataError(
            f"{len(unknown)} provider-map items missing from items file, first: {unknown[:5]}"
        )

    taxonomy = tuple(sorted({g for gs in raw_items.values() for g in gs}))
    return build_catalog([(i, gs, provider_of[i]) for i, gs in raw_items.items()], taxonomy)


def build_catalog(
    item_rows: Iterable[tuple[int, Sequence[str], str]],
    genres: Sequence[str],
) -> Catalog:
    """Assemble a Catalog from (item_id, genre names, provider_id) rows in
    any order. Each item id has one row, with at least one genre."""
    taxonomy = tuple(genres)
    index = {g: k for k, g in enumerate(taxonomy)}
    rows = sorted(item_rows, key=itemgetter(0))
    item_ids = _column([row[0] for row in rows], np.int64, "item")
    repeated = item_ids[1:][item_ids[1:] == item_ids[:-1]]
    if repeated.size:
        raise DataError(f"item {repeated[0]} appears in more than one catalog row")
    genre_matrix = np.zeros((len(rows), len(taxonomy)), dtype=bool)
    for r, (item_id, item_genres, _provider) in enumerate(rows):
        if not item_genres:
            raise DataError(f"item {item_id} has no genres")
        try:
            genre_matrix[r, [index[g] for g in item_genres]] = True
        except KeyError as exc:
            genre = exc.args[0]
            raise DataError(f"item {item_id}: genre {genre!r} is not in the taxonomy") from None
    item_ids.flags.writeable = False
    genre_matrix.flags.writeable = False
    return Catalog(item_ids, taxonomy, genre_matrix, tuple(row[2] for row in rows))


# ---------------------------------------------------------------------------
# Preference vectors and classification
# ---------------------------------------------------------------------------


def build_preferences(
    log: InteractionLog,
    catalog: Catalog,
    niche_genre: str,
    history_threshold: float = 4.0,
) -> Consumers:
    """Derive per-consumer genre preference vectors and Niche/Generic labels.

    Each rating contributes its value split evenly across the item's genres;
    the per-genre sums are L1-normalized. A consumer is Niche when the unique
    argmax of their vector is the niche genre (a tie at the niche genre
    classifies as Generic). Items rated at or above ``history_threshold``
    form the consumer's initial implicit-feedback history.

    One array pass: each (consumer, genre) sum adds its shares in record
    order, as a per-record loop does. Rows ascend by consumer id.
    """
    consumer, item, rating = log.consumer_ids, log.item_ids, log.ratings
    unknown = np.flatnonzero(~np.isin(item, catalog.item_ids))
    if unknown.size:
        raise DataError(f"rated item {item[unknown[0]]} not in catalog")
    rated = catalog.genre_matrix[np.searchsorted(catalog.item_ids, item)]  # record x genre

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

    liked = np.flatnonzero(rating >= history_threshold)  # by consumer, then item
    kept = np.flatnonzero(usable)
    starts, ends = (np.searchsorted(rows[liked], kept, s).tolist() for s in ("left", "right"))
    history = item[liked].tolist()
    consumer_ids = consumer_ids[kept]
    consumer_ids.flags.writeable = False
    vectors.flags.writeable = False
    skipped = len(usable) - len(kept)
    if skipped:
        warnings.warn(f"excluded {skipped} consumers with no usable ratings", stacklevel=2)
    return Consumers(
        consumer_ids,
        vectors,
        tuple(NICHE if n else GENERIC for n in niche.tolist()),
        tuple(tuple(history[a:b]) for a, b in zip(starts, ends)),
    )


def classify_providers(catalog: Catalog, niche_genre: str) -> dict[str, str]:
    """Each provider's Niche/Generic label, by provider id in ascending order.

    A provider is Niche when strictly more than half of its items carry the
    niche genre.
    """
    niche_idx = catalog.genre_index(niche_genre)
    items = Counter(catalog.provider_ids)
    niche = Counter()
    if niche_idx is not None:
        niche = Counter(compress(catalog.provider_ids, catalog.genre_matrix[:, niche_idx].tolist()))
    labels = {p: NICHE if 2 * niche[p] > n else GENERIC for p, n in sorted(items.items())}
    counts = Counter(labels.values())
    logger.info("provider labels: %d Niche, %d Generic", counts[NICHE], counts[GENERIC])
    return labels


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
        consumers = build_preferences(log, catalog, spec.niche_genre)
        realized = consumers.type_labels.count(NICHE)
        if abs(realized - len(designated)) <= 1:
            return log, catalog
    raise DataError(
        f"synthetic generation drifted: designated {len(designated)} niche "
        f"consumers, realized {realized}"
    )


def _generate_labelled(
    spec: SyntheticSpec, rng: np.random.Generator, niche_idx: int
) -> tuple[InteractionLog, Catalog, set[int]]:
    """One draw of the log, the catalog and the designated niche consumers."""
    genres = DEFAULT_GENRES
    other_idx = np.array([g for g in range(len(genres)) if g != niche_idx])
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
            (extra,) = _choice_without_replacement(rng, other_idx, 1, tail_weight).tolist()
            item_genres.append(sorted([niche_idx, extra]))
        else:
            k = min(1 + int(rng.random() < 0.65), len(other_idx))
            picks = _choice_without_replacement(rng, other_idx, k, genre_weight)
            item_genres.append(sorted(picks.tolist()))

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
    niche_consumers = set(order[:n_niche_consumers].tolist())

    pure_ids = np.arange(n_pure)
    canon = pure_ids[: min(CANON_SIZE, n_pure)]
    tagged_ids = np.arange(n_pure + n_cross)
    generic_ids = np.arange(n_pure + n_cross, spec.items)
    generic_genres = catalog.genre_matrix[generic_ids]  # item ids are catalog rows
    # A niche consumer's picks beyond the canon come from the tagged items after it
    n_tag = min(max(RATINGS_PER_CONSUMER // 2, len(canon) + 2), len(tagged_ids))
    n_canon = min(len(canon), n_tag)
    tag_pool = tagged_ids[n_canon:]

    # Popularity skew for mainstream items so the global popular list has a
    # realistic long tail.
    if len(generic_ids):
        generic_pop = 1.0 / (1.0 + np.arange(len(generic_ids)) * 0.05)
        generic_pop /= generic_pop.sum()

    def rolled(picks: np.ndarray, threshold: float, high: float, low: float) -> Iterable:
        """(item, rating) per pick: ``high`` where its uniform falls below
        ``threshold``. One draw for the list takes the uniforms that one
        scalar draw per pick would, in pick order."""
        rolls = rng.random(len(picks))
        return zip(picks.tolist(), np.where(rolls < threshold, high, low).tolist())

    counts: list[int] = []  # ratings per consumer
    item_col: list[int] = []
    rating_col: list[float] = []
    for consumer in range(spec.consumers):
        per = RATINGS_PER_CONSUMER
        rated: dict[int, float] = {}
        if consumer in niche_consumers:
            # Everyone in the niche audience knows the genre canon; those
            # shared ratings are what keeps canon items inside the global
            # popular list that cold recommenders fall back on.
            picks = canon[:n_canon]
            extra = min(n_tag - n_canon, len(tag_pool))
            if extra > 0:
                picks = np.concatenate([picks, rng.choice(tag_pool, size=extra, replace=False)])
            # Concentrated but mid-level ratings: only some cross the
            # implicit-history threshold.
            rated.update(rolled(picks, 0.35, 4.0, 3.0))
            n_gen = per - len(rated)
            if len(generic_ids) and n_gen > 0:
                n_gen = min(n_gen, len(generic_ids))
                picks = _choice_without_replacement(rng, generic_ids, n_gen, generic_pop)
                rated.update(rolled(picks, 0.3, 5.0, 4.0))
        else:
            # Diffuse mainstream taste: a mild personal boost on one or two
            # genres over a broad popularity-driven diet, so most of the
            # catalog stays moderately attractive even late in a run.
            n_like = min(1 + int(rng.random() < 0.5), len(other_idx))
            liked = _choice_without_replacement(rng, other_idx, n_like, genre_weight)
            match = generic_ids[generic_genres[:, liked].any(axis=1)]
            n_match = min(len(match), max(1, round(per * 0.25)))
            taken = np.zeros(len(generic_ids), dtype=bool)
            if n_match > 0:
                picks = rng.choice(match, size=n_match, replace=False)
                rated.update(dict.fromkeys(picks.tolist(), 5.0))
                taken[picks - (n_pure + n_cross)] = True
            fill_pool = generic_ids[~taken]
            n_fill = min(per - len(rated), len(fill_pool))
            if n_fill > 0:
                fill_pop = 1.0 / (1.0 + np.arange(len(fill_pool)) * 0.05)
                fill_pop /= fill_pop.sum()
                picks = _choice_without_replacement(rng, fill_pool, n_fill, fill_pop)
                rated.update(rolled(picks, 0.3, 5.0, 4.0))
            # A niche-curious minority genuinely enjoys the genre canon; the
            # rest occasionally brush against it and bounce off.
            roll = rng.random()
            if roll < 0.15 and len(canon):
                k = min(len(canon), int(rng.integers(3, 6)))
                rated.update(dict.fromkeys(rng.choice(canon, size=k, replace=False).tolist(), 4.0))
            elif roll < 0.35 and len(canon):
                rated.setdefault(int(rng.choice(canon)), 2.0)
        items = sorted(rated)
        counts.append(len(items))
        item_col += items
        rating_col += map(rated.__getitem__, items)

    consumer_col = np.repeat(np.arange(spec.consumers), counts)
    log = build_log(consumer_col, item_col, rating_col, np.arange(len(item_col)))
    return log, catalog, niche_consumers


def _choice_without_replacement(
    rng: np.random.Generator, a: np.ndarray, size: int, p: np.ndarray
) -> np.ndarray:
    """``rng.choice(a, size, replace=False, p=p)``'s own draw, without its
    per-call argument checks: the same picks from the same uniforms, and
    ``rng`` left in the same state. ``p`` sums to 1. One pick is also the
    pick of ``rng.choice(a, p=p)``, which draws one uniform the same way.

    Each round draws one uniform per missing pick and keeps the new items
    in the order of their first draw; the next round zeroes the weights of
    the items picked so far.
    """
    p = np.array(p, dtype=np.float64)
    if np.count_nonzero(p > 0) < size:
        raise ValueError("fewer non-zero weights than picks")
    found: list[int] = []
    while len(found) < size:
        x = rng.random(size - len(found))
        p[found] = 0.0
        cdf = p.cumsum()
        cdf /= cdf[-1]
        found += dict.fromkeys(cdf.searchsorted(x, side="right").tolist())
    return a[found]
