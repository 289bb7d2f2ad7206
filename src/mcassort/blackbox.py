"""Offline randomized flipping procedures for one arriving customer.

A coin set carries success probabilities, fractional weights and a patience
cap.  The run rounds the weights with dependent rounding, draws one uniform
per surviving coin, sorts by the case-appropriate key and flips in order
until the first heads or the patience cap.  Under either hypothesis
(sum of probabilities at most one, or patience covering the whole set) every
coin is flipped with probability at least x_i * (1 - e^{-w_i}) / w_i.

Outside the two certified cases the procedure still runs (with the
full-patience ordering) but carries no guarantee; callers see the case tag
``"none"`` on such sets.  :func:`certified_case` picks the tag.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .rounding import gkps_round_batch

CASE_SMALL = "small-probs"
CASE_FULL = "full-patience"
CASE_NONE = "none"

_TOL = 1e-9

__all__ = [
    "CoinSet",
    "certified_case",
    "f",
    "w_value",
    "batch_flip",
    "CASE_SMALL",
    "CASE_FULL",
    "CASE_NONE",
]


def f(z: float) -> float:
    """(1 - e^{-z}) / z on [0,1], with the limit value 1 at z = 0.

    Decreasing and convex; bounded first derivative (-1/2 at 0, -1+2/e at 1).
    """
    if z < -_TOL or z > 1 + _TOL:
        raise ValueError(f"f is only used on [0,1], got {z}")
    if z <= _TOL:
        return 1.0
    return (1.0 - math.exp(-z)) / z


def certified_case(masses: Sequence[float], patience: int) -> str:
    """The guarantee a coin set with these heads masses and patience carries.

    ``CASE_FULL`` when the patience covers every coin (preferred: its bound
    is tighter), else ``CASE_SMALL`` when the masses sum to at most one, else
    ``CASE_NONE``.
    """
    if patience >= len(masses):
        return CASE_FULL
    if math.fsum(masses) <= 1 + _TOL:
        return CASE_SMALL
    return CASE_NONE


@dataclass(frozen=True)
class CoinSet:
    """Coins for one customer: ids, heads probabilities, weights, patience."""

    probs: tuple[float, ...]
    weights: tuple[float, ...]
    patience: int
    case: str

    def __post_init__(self):
        n = len(self.probs)
        if n != len(self.weights) or n == 0:
            raise ValueError("probs and weights must be equal-length and non-empty")
        if any(p < -_TOL or p > 1 + _TOL for p in self.probs):
            raise ValueError("probabilities outside [0,1]")
        if any(x < -_TOL or x > 1 + _TOL for x in self.weights):
            raise ValueError("weight outside [0,1]")
        if self.patience < 1:
            raise ValueError("patience must be a positive integer")
        px = sum(p * x for p, x in zip(self.probs, self.weights))
        if px > 1 + 1e-7:
            raise ValueError(f"sum p_i x_i = {px} exceeds 1")
        if sum(self.weights) > self.patience + 1e-7:
            raise ValueError("sum of weights exceeds patience")
        if self.case == CASE_SMALL and sum(self.probs) > 1 + 1e-7:
            raise ValueError("small-probs case requires sum p_i <= 1")
        if self.case == CASE_FULL and self.patience < n:
            raise ValueError("full-patience case requires patience >= number of coins")
        if self.case not in (CASE_SMALL, CASE_FULL, CASE_NONE):
            raise ValueError(f"unknown case {self.case}")


def _key_denom(p, x, small):
    """Coins flip in increasing order of Y / this denominator: 1 - p in the
    small-probs case, 1 - p x otherwise.  Elementwise on arrays."""
    return np.where(small, 1.0 - p, 1.0 - p * x)


def w_value(coin: int, coins: CoinSet, case: str | None = None) -> float:
    """The case-appropriate w_i; equals 1 by convention when its denominator vanishes."""
    rest = sum(p * x for k, (p, x) in enumerate(zip(coins.probs, coins.weights)) if k != coin)
    denom = float(_key_denom(coins.probs[coin], coins.weights[coin], (case or coins.case) == CASE_SMALL))
    if denom <= _TOL:
        return 1.0
    w = rest / denom
    if w > 1 + 1e-7:
        raise ValueError(f"w_i = {w} exceeds 1; coin-set preconditions violated")
    return min(w, 1.0)


def flip_bound(coin: int, coins: CoinSet) -> float:
    """Guaranteed lower bound x_i * (1 - e^{-w_i}) / w_i on the flip probability."""
    return coins.weights[coin] * f(w_value(coin, coins))


def batch_flip(
    probs: np.ndarray,
    x_rows: np.ndarray,
    patience,
    case,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized black-box across many independent runs.

    ``x_rows`` has one weight vector per row (zero rows are skipped wholesale);
    ``probs`` is one shared vector or a per-row matrix (used when stripping
    makes heads probabilities replica-dependent).  ``patience`` and ``case``
    may also vary per row (an int array, and a boolean array marking rows
    that use the small-probs ordering key).  Returns (flipped, winner): a
    boolean matrix of flipped coins per row and the winning coin per row
    (-1 when no heads occurred).
    """
    x_rows = np.asarray(x_rows, dtype=float)
    B, n = x_rows.shape
    p = np.asarray(probs, dtype=float)
    p_rows = np.broadcast_to(p, (B, n)) if p.ndim == 1 else p
    if isinstance(case, str):
        small_rows = np.full(B, case == CASE_SMALL)
    else:
        small_rows = np.asarray(case, dtype=bool)
    ell_rows = np.broadcast_to(np.asarray(patience, dtype=np.int64), (B,))
    in_set = gkps_round_batch(x_rows, rng)
    Y = rng.random((B, n))
    denom = _key_denom(p_rows, x_rows, small_rows[:, None])
    keys = np.where(denom > _TOL, Y / np.maximum(denom, _TOL), np.inf)
    keys = np.where(in_set, keys, np.nan)  # NaN sorts last, after any inf
    order = np.argsort(keys, axis=1, kind="stable")
    heads_draw = rng.random((B, n)) < p_rows
    in_sorted = np.take_along_axis(in_set, order, axis=1)
    heads_sorted = np.take_along_axis(heads_draw, order, axis=1) & in_sorted
    ranks = np.arange(n)[None, :]
    first_heads = np.where(heads_sorted.any(axis=1), heads_sorted.argmax(axis=1), n)
    allowed = np.minimum(first_heads, ell_rows - 1)
    flip_sorted = in_sorted & (ranks <= allowed[:, None])
    flipped = np.zeros_like(in_set)
    np.put_along_axis(flipped, order, flip_sorted, axis=1)
    won = first_heads <= np.minimum(ell_rows - 1, n - 1)
    winner = np.where(won, np.take_along_axis(order, np.minimum(first_heads, n - 1)[:, None], axis=1)[:, 0], -1)
    return flipped, winner.astype(np.int64)
