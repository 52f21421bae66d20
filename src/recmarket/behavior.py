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


def maybe_switch(estimates: np.ndarray, current: np.ndarray, params: BehaviorParams) -> np.ndarray:
    """The threshold switching rule for a batch of consumers of the two
    recommenders: each row's column to switch to, or -1 to stay. It reads
    and changes nothing else.

    ``estimates`` holds each row's satisfaction estimate at both columns
    (NaN where unset) and ``current`` each row's current column. A row
    whose current estimate is below the threshold moves to the other
    column when it has no estimate there, having never been served by it,
    or one at least the current one.
    """
    rows = np.arange(len(current))
    other = 1 - current
    mine, theirs = estimates[rows, current], estimates[rows, other]
    move = (mine < params.satisfaction_threshold) & (np.isnan(theirs) | (theirs >= mine))
    return np.where(move, other, -1)
