"""Consumer decision model: genre similarity, recency-weighted
satisfaction, and the threshold rule for switching recommenders. The
engine's day loop applies the selection rule to a batch of slates."""

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


def update_utility(
    prev: float | np.ndarray, observed: float | np.ndarray, recency_bias: float
) -> float | np.ndarray:
    """Recency-weighted update: (prev * bias + observed) / (1 + bias).

    The exact formula never leaves the closed interval between its two
    inputs, so the float result is clamped to it; that keeps the fixed
    point (prev == observed) exact, and bias == 0 returns ``observed``
    unchanged. ``prev`` and ``observed`` are floats, giving a float, or
    arrays, giving each element the float's bits.
    """
    value = (prev * recency_bias + observed) / (1.0 + recency_bias)
    # Python's min and max, elementwise: each keeps its first argument on a tie
    ordered = prev <= observed
    lo, hi = np.where(ordered, prev, observed), np.where(ordered, observed, prev)
    value = np.where(lo > value, lo, value)
    value = np.where(hi < value, hi, value)
    return value if value.ndim else float(value)


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
