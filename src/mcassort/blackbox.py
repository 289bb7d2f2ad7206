"""Offline randomized flipping procedures for one arriving customer.

A coin set carries success probabilities, fractional weights and a patience
cap.  The run rounds the weights with dependent rounding and draws one uniform
per surviving coin, which gives it a case-appropriate key.  Survivors are
flipped in increasing (key, index) order until the first heads or the
patience cap.  Under either hypothesis
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

from .rounding import _fold_last, gkps_round_batch

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
    small-probs case, 1 - p x otherwise.  Elementwise on arrays; when no
    element is small-probs, the small-probs branch is not computed."""
    if not np.any(small):
        return -(p * x) + 1.0  # 1 - p x exactly; numpy reuses the product's buffer
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

    ``x_rows`` has one weight vector per row (a zero row has no survivors);
    ``probs`` is one shared vector or a per-row matrix (used when stripping
    makes heads probabilities replica-dependent).  ``patience`` and ``case``
    may also vary per row (an int array, and a boolean array marking rows
    that use the small-probs ordering key).  Returns (flipped, winner): a
    boolean matrix of flipped coins per row and the winning coin per row
    (-1 when no heads occurred).

    A survivor is reachable when fewer than ``patience`` survivors precede it
    in (key, index) order.  The winner is the reachable heads coin with the
    smallest (key, index); a reachable coin is flipped when no reachable coin
    came up heads, or when its (key, index) is at most the winner's.  Only
    rows with more survivors than patience need their survivors ranked.

    Per-row reductions loop over the n columns, two to four times faster than numpy's
    row-at-a-time reduction of a short axis; a minimum, count or first index is order-free.
    """
    x_rows = np.asarray(x_rows, dtype=float)
    B, n = x_rows.shape
    p = np.asarray(probs, dtype=float)
    small = np.asarray(case == CASE_SMALL if isinstance(case, str) else case, dtype=bool)
    ell_rows = np.broadcast_to(np.asarray(patience, dtype=np.int64), (B,))
    reach = gkps_round_batch(x_rows, rng)
    draws = rng.random((B, n))
    denom = _key_denom(p, x_rows, np.broadcast_to(small, (B,))[:, None])
    sure = denom <= _TOL
    with np.errstate(divide="ignore", invalid="ignore"):
        keys = np.divide(draws, denom, out=denom)
    np.copyto(keys, np.inf, where=sure)
    hit = np.less(rng.random(out=draws), p, out=sure)  # heads, drawn into spent buffers
    short = np.nonzero(ell_rows < n)[0]
    crowded = short[_fold_last(np.add, reach[short], 0) > ell_rows[short]]
    if crowded.size:
        sub = reach[crowded]
        order = np.argsort(np.where(sub, keys[crowded], np.nan), axis=1, kind="stable")  # NaN sorts last
        rank = np.empty_like(order)
        np.put_along_axis(rank, order, np.arange(n)[None, :], axis=1)
        reach[crowded] = sub & (rank < ell_rows[crowded, None])
    hit &= reach
    # keys / hit keeps each heads key exactly; any other becomes inf or NaN (0/0), which fmin skips
    with np.errstate(divide="ignore", invalid="ignore"):
        best = _fold_last(np.fmin, np.divide(keys, hit, out=draws), np.inf)[:, None]
    del draws  # lowers the flip's peak memory: the bool temporaries below come on top of it
    tie = keys == best
    hit &= tie
    win = np.full(B, n)
    for j in range(n - 1, -1, -1):  # the lowest-index heads coin at the best key
        np.copyto(win, j, where=hit[:, j])
    flipped = reach & ((keys < best) | (tie & (np.arange(n) <= win[:, None])))
    return flipped, np.where(win < n, win, -1)
