"""Per-recommender model training and slate serving.

Each recommender retrains once per cycle on the profile data visible to it
and serves top-n slates. Serving falls back through three tiers: model
scores for known consumers, click popularity among the recommender's
current subscribers for unknown consumers, and a seeded sample of a shared
global popular list when the recommender has no usable data at all.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .dataset import InteractionLog
from .errors import ConfigError, TrainingError


@dataclass(frozen=True)
class RecommenderConfig:
    """Identity and model hyperparameters for one recommender."""

    recommender_id: str
    latent_factors: int = 32
    epochs: int = 10
    regularization: float = 0.1
    confidence_weight: float = 40.0
    popular_list_size: int = 100

    def validate(self, slate_size: int = 1) -> None:
        """Check the hyperparameters, and that the popular list fills a slate
        of ``slate_size``; they apply to every recommender of a roster."""
        if self.latent_factors < 1:
            raise ConfigError("latent_factors must be >= 1")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if not (math.isfinite(self.regularization) and self.regularization >= 0):
            raise ConfigError("regularization must be finite and >= 0")
        if not (math.isfinite(self.confidence_weight) and self.confidence_weight >= 0):
            raise ConfigError("confidence_weight must be finite and >= 0")
        if self.popular_list_size < 1:
            raise ConfigError("popular_list_size must be >= 1")
        if self.popular_list_size < slate_size:
            raise ConfigError(f"popular_list_size must be >= slate_size ({slate_size})")


class Provenance(enum.Enum):
    MODEL = "Model"
    USER_POPULARITY = "UserPopularity"
    GLOBAL_POPULAR_FALLBACK = "GlobalPopularFallback"


@dataclass(frozen=True)
class TrainedModel:
    """Immutable factor matrices keyed by consumer and item id."""

    user_index: dict[int, int]
    item_index: dict[int, int]
    user_factors: np.ndarray
    item_factors: np.ndarray
    trained_at_cycle: int = 0

    @classmethod
    def empty(cls, latent_factors: int, trained_at_cycle: int = 0) -> "TrainedModel":
        z = np.zeros((0, latent_factors))
        z.flags.writeable = False
        return cls({}, {}, z, z, trained_at_cycle)

    def knows_consumer(self, consumer_id: int) -> bool:
        return consumer_id in self.user_index

    def dump(self, path: str | Path) -> None:
        """Write factor matrices as ``id,f1,...,fd`` rows (debug aid)."""
        lines = ["# user factors"]
        for cid in sorted(self.user_index):
            row = self.user_factors[self.user_index[cid]]
            lines.append(",".join([str(cid)] + [repr(float(v)) for v in row]))
        lines.append("# item factors")
        for iid in sorted(self.item_index):
            row = self.item_factors[self.item_index[iid]]
            lines.append(",".join([str(iid)] + [repr(float(v)) for v in row]))
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


TrainingSnapshot = Mapping[int, Sequence[tuple[int, int]]]


def train(
    snapshot: TrainingSnapshot,
    config: RecommenderConfig,
    seed: int,
    trained_at_cycle: int = 0,
) -> TrainedModel:
    """``fit`` on the snapshot's (consumer, item) pairs, each counted once."""
    users = sorted(c for c, entries in snapshot.items() if entries)
    items = np.array(sorted({item for c in users for item, _day in snapshot[c]}), np.int64)
    observed = np.zeros((len(users), len(items)), dtype=bool)
    for row, c in enumerate(users):
        observed[row, np.searchsorted(items, [item for item, _day in snapshot[c]])] = True
    return fit(observed, users, items, config, seed, trained_at_cycle)


def fit(
    observed: np.ndarray,
    user_ids: Sequence[int],
    item_ids: Sequence[int],
    config: RecommenderConfig,
    seed: int,
    trained_at_cycle: int = 0,
) -> TrainedModel:
    """Fit implicit-feedback matrix factorization by alternating least squares.

    ``observed`` is a boolean users x items matrix over the ascending
    ``user_ids`` and ``item_ids``, with a True in every row and column. Each
    True is an observation of weight 1 and confidence ``1 + confidence_weight``,
    every other pair a zero preference. The result is deterministic.
    """
    (n_users, n_items), d = observed.shape, config.latent_factors
    # Row-major pairs: user rows list their items ascending, item rows their users
    user_chunks = _count_chunks(*np.nonzero(observed), n_users, d)
    item_chunks = _count_chunks(*np.nonzero(observed.T), n_items, d)

    rng = np.random.default_rng(seed)
    user_mat = rng.standard_normal((n_users, d)) * 0.01
    item_mat = rng.standard_normal((n_items, d)) * 0.01

    alpha = config.confidence_weight
    reg = config.regularization
    for epoch in range(config.epochs):
        user_mat = _solve_side(user_chunks, n_users, item_mat, alpha, reg)
        item_mat = _solve_side(item_chunks, n_items, user_mat, alpha, reg)
        if not (np.isfinite(user_mat).all() and np.isfinite(item_mat).all()):
            raise TrainingError(
                f"{config.recommender_id}: non-finite factors in epoch {epoch}, "
                f"cycle {trained_at_cycle}"
            )
    # One model can serve several scenarios of a suite, so it is read-only.
    user_mat.flags.writeable = False
    item_mat.flags.writeable = False
    user_index = {int(c): k for k, c in enumerate(user_ids)}
    item_index = {int(i): k for k, i in enumerate(item_ids)}
    return TrainedModel(user_index, item_index, user_mat, item_mat, trained_at_cycle)


# Cap on the floats one chunk's stacked systems and gathered rows hold
# (256 KB): one stack per count instead raised a run's peak RSS by up to 13%.
_CHUNK_FLOATS = 1 << 15

# (row indices, rows x count array of each row's observed columns) per chunk
_Chunks = list[tuple[np.ndarray, np.ndarray]]


def _count_chunks(rows: np.ndarray, cols: np.ndarray, n_rows: int, d: int) -> _Chunks:
    """Group rows by their number of observations and cut each group into chunks.

    ``rows``/``cols`` are the observed pairs, sorted by row. Each chunk is
    its row indices and a ``rows x count`` array of their observed columns
    in pair order.
    """
    counts = np.bincount(rows, minlength=n_rows)
    starts = np.cumsum(counts) - counts
    chunks = []
    # Not np.unique: its first call imports numpy.ma, 12-16 ms of a run
    for count in sorted(set(counts.tolist()) - {0}):
        group = np.flatnonzero(counts == count)
        group_cols = cols[starts[group, None] + np.arange(count)]
        step = max(1, _CHUNK_FLOATS // (d * (d + int(count))))
        for s in range(0, len(group), step):
            chunks.append((group[s : s + step], group_cols[s : s + step]))
    return chunks


def _solve_side(
    chunks: _Chunks, n_rows: int, other: np.ndarray, alpha: float, reg: float
) -> np.ndarray:
    """One half of an ALS round: ridge solves against the fixed side, stacked
    per chunk of equal-count rows.

    Each row's system is the same BLAS ``syrk`` and LAPACK ``gesv`` call on
    the same operands as a per-row solve, so the factors are bit-identical
    to one; padding rows to a common count, or another solver, is not.
    """
    d = other.shape[1]
    gram = other.T @ other + reg * np.eye(d)
    out = np.zeros((n_rows, d))
    for rows, cols in chunks:
        m = other[cols]
        a = m.transpose(0, 2, 1) @ m
        a *= alpha
        a += gram
        b = m.sum(axis=1)
        b *= 1.0 + alpha
        out[rows] = np.linalg.solve(a, b[..., None])[..., 0]
    return out


def popular_list(log: InteractionLog, k: int) -> list[int]:
    """Items by descending rating count, ties by ascending id, cut to k."""
    items, counts = np.unique(log.item_ids, return_counts=True)
    # unique lists the items ascending, so a stable sort breaks ties by id
    return items[np.argsort(-counts, kind="stable")[: max(k, 0)]].tolist()


@dataclass(frozen=True)
class CatalogModel:
    """A trained model with its item factors laid out by catalog row.

    Catalog rows index a sorted array of catalog item ids. Items the model
    never saw in training keep an all-zero row, so they score 0.
    """

    model: TrainedModel
    item_factors: np.ndarray  # catalog rows x latent factors

    @classmethod
    def align(cls, model: TrainedModel, item_ids: np.ndarray) -> "CatalogModel":
        ids = np.fromiter(model.item_index.keys(), np.int64, count=len(model.item_index))
        src = np.fromiter(model.item_index.values(), np.intp, count=len(model.item_index))
        keep = np.isin(ids, item_ids)  # items outside the catalog are never served
        aligned = np.zeros((len(item_ids), model.item_factors.shape[1]))
        aligned[np.searchsorted(item_ids, ids[keep])] = model.item_factors[src[keep]]
        aligned.flags.writeable = False  # shared like the model's own factors
        return cls(model, aligned)

    def user_vector(self, consumer_id: int) -> np.ndarray | None:
        u = self.model.user_index.get(consumer_id)
        return None if u is None else self.model.user_factors[u]


def serve(
    model: CatalogModel,
    consumer_id: int,
    cand_rows: np.ndarray,
    n: int,
    rng: np.random.Generator,
    subscriber_counts: Callable[[], np.ndarray],
    popular_rows: np.ndarray,
) -> tuple[Provenance, np.ndarray]:
    """Serve a top-n slate from exactly one provenance tier.

    ``cand_rows`` are ascending catalog rows, already filtered to the
    recommender's pool and by the consumer's visible profile at it, so
    equal scores or counts break by ascending item id.
    ``subscriber_counts`` returns click counts per catalog row and is
    called only when the popularity tier is tried; ``popular_rows`` is the
    global popular list as catalog rows, most popular first. Returns the
    tier and the slate's catalog rows in slate order. A short (possibly
    empty) slate is returned when candidates run out; tiers never pad each
    other.
    """
    uvec = model.user_vector(consumer_id)
    if cand_rows.size == 0:
        tier = Provenance.MODEL if uvec is not None else Provenance.GLOBAL_POPULAR_FALLBACK
        return tier, cand_rows

    if uvec is not None:
        # The product over the candidate subset only: a product over all
        # catalog rows can differ in the last bit and reorder near-ties.
        scores = model.item_factors.take(cand_rows, axis=0) @ uvec
        return Provenance.MODEL, cand_rows[(-scores).argsort(kind="stable")[:n]]

    counts = subscriber_counts()[cand_rows]
    if counts.sum() > 0:
        return Provenance.USER_POPULARITY, cand_rows[np.argsort(-counts, kind="stable")[:n]]

    pool = popular_rows[np.isin(popular_rows, cand_rows)]
    if len(pool) > n:
        pool = rng.choice(pool, size=n, replace=False)
    return Provenance.GLOBAL_POPULAR_FALLBACK, pool
