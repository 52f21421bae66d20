"""Consumer decision model: slate utility, recency-weighted satisfaction,
item selection, and the threshold rule for switching recommenders."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class BehaviorParams:
    """Tunable constants of the decision model.

    ``recency_bias`` weights the running satisfaction estimate toward its
    previous value; ``satisfaction_threshold`` is the estimate level below
    which a consumer considers switching; ``select_threshold`` is the minimum
    similarity an item needs to be clickable.
    """

    recency_bias: float = 2.0
    satisfaction_threshold: float = 0.2
    select_threshold: float = 0.2

    def validate(self) -> None:
        if not (math.isfinite(self.recency_bias) and self.recency_bias >= 0):
            raise ConfigError("recency_bias (beta) must be finite and >= 0")
        if not 0.0 <= self.satisfaction_threshold <= 1.0:
            raise ConfigError("satisfaction_threshold (tau) must lie in [0, 1]")
        if not 0.0 <= self.select_threshold <= 1.0:
            raise ConfigError("select_threshold must lie in [0, 1]")


def genre_similarities(preferences: np.ndarray, genre_matrix: np.ndarray) -> np.ndarray:
    """Cosine similarity of every preference row to every item genre row.

    A pair is 0 when either vector is all zeros.
    """
    pref_norm = np.linalg.norm(preferences, axis=1, keepdims=True)
    pref_norm[pref_norm == 0.0] = 1.0
    genre_norm = np.linalg.norm(genre_matrix, axis=1, keepdims=True)
    genre_norm[genre_norm == 0.0] = 1.0
    return (preferences / pref_norm) @ (genre_matrix / genre_norm).T


def slate_utility(sims: np.ndarray) -> float:
    """List utility: mean similarity of the slate's items (0 if empty)."""
    # bit-equal to float(sims.mean()), without np.mean's per-call overhead
    return float(sims.sum()) / sims.size if sims.size else 0.0


def update_utility(prev: float, observed: float, recency_bias: float) -> float:
    """Recency-weighted update: (prev * bias + observed) / (1 + bias).

    The exact formula never leaves the closed interval between its two
    inputs, so the float result is clamped to it; that keeps the fixed
    point (prev == observed) exact, and bias == 0 returns ``observed``
    unchanged.
    """
    value = (prev * recency_bias + observed) / (1.0 + recency_bias)
    lo, hi = (prev, observed) if prev <= observed else (observed, prev)
    return min(max(value, lo), hi)


def choose_item(
    sims: np.ndarray, select_threshold: float, rng: np.random.Generator
) -> int | None:
    """Pick one slate position with probability proportional to similarity.

    ``sims`` holds the similarity of each slate item, in slate order. Items
    below ``select_threshold`` are not candidates; if nothing on the slate
    qualifies (or all qualifying similarities are zero), the consumer
    selects nothing.
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


def maybe_switch(
    estimates_row: np.ndarray,
    tried_row: np.ndarray,
    current_column: int,
    params: BehaviorParams,
) -> int | None:
    """The threshold switching rule for one consumer: the column to switch
    to, or ``None`` to stay. It reads and changes nothing else.

    Columns are recommenders in id order; ``estimates_row`` holds the
    satisfaction estimate of each (NaN where unset) and ``tried_row`` marks
    those the consumer has used. A consumer satisfied with the current
    recommender (estimate at or above the threshold) stays. Otherwise it
    moves to the most promising eligible alternative: one it has not tried
    (ranked above everything), or one whose estimate is at least the current
    one, an unset estimate counting as 0. Ties break by recommender id.
    """
    estimates = estimates_row.tolist()
    current_estimate = estimates[current_column]
    if current_estimate >= params.satisfaction_threshold:
        return None
    best, best_rank = None, -math.inf
    for column, (estimate, tried) in enumerate(zip(estimates, tried_row.tolist())):
        rank = (0.0 if math.isnan(estimate) else estimate) if tried else math.inf
        if column != current_column and rank >= current_estimate and rank > best_rank:
            best, best_rank = column, rank
    return best
