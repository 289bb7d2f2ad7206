"""Scalar reference implementations that only the tests use.

Each one is the readable, draw-by-draw or formula-by-formula version of a
library routine, kept as its differential oracle: ``gkps_round`` for
``rounding.gkps_round_batch``, ``run_blackbox`` for ``blackbox.batch_flip``'s
distribution, ``sorted_batch_flip`` for ``batch_flip``'s exact draws,
``no_purchase_prob`` for the complement of ``model.choice_prob`` sums, and
``bincount_reduced_costs`` for the simplex's slot pricing.
``pair_model`` writes an ``LpModel`` from ``(column, value)`` pair lists, the
form hand-written test LPs and the row-by-row MCDLP build use.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from mcassort.blackbox import _TOL, CASE_SMALL, CoinSet, _key_denom
from mcassort.lpcore import LpModel, LpRow
from mcassort.model import ChoiceModel, Mnl
from mcassort.rounding import SNAP_TOL, gkps_round_batch


@dataclass(frozen=True)
class RoundingOutput:
    values: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.values)


def _snap(z: float) -> float:
    if abs(z) <= SNAP_TOL:
        return 0.0
    if abs(z - 1.0) <= SNAP_TOL:
        return 1.0
    return min(max(z, 0.0), 1.0)


def gkps_round(weights, rng: random.Random | None = None, seed: int | None = None) -> RoundingOutput:
    """Round a weight vector in [0,1]^N to 0/1 with the dependent-rounding
    guarantees: the lowest-index pairwise scan that ``gkps_round_batch`` runs
    one column at a time across its rows."""
    if rng is None:
        rng = random.Random(seed)
    for w in weights:
        if w < -SNAP_TOL or w > 1 + SNAP_TOL:
            raise ValueError(f"weight {w} outside [0,1]")
    z = [_snap(float(w)) for w in weights]
    out = [0] * len(z)
    carry_idx = -1
    for i, zi in enumerate(z):
        if zi in (0.0, 1.0):
            out[i] = int(zi)
            continue
        if carry_idx < 0:
            carry_idx = i
            continue
        a, b = z[carry_idx], zi
        up = min(1.0 - a, b)     # shift mass onto the carrier
        down = min(a, 1.0 - b)   # shift mass off the carrier
        if rng.random() * (up + down) < down:
            a, b = _snap(a + up), _snap(b - up)
        else:
            a, b = _snap(a - down), _snap(b + down)
        z[carry_idx], z[i] = a, b
        if a in (0.0, 1.0):
            out[carry_idx] = int(a)
            carry_idx = -1
        if b in (0.0, 1.0):
            out[i] = int(b)
        elif carry_idx < 0:
            carry_idx = i
        # when both stay fractional the mass shift was degenerate, which the
        # min() choices rule out: at least one endpoint is hit every time
    if carry_idx >= 0:
        out[carry_idx] = 1 if rng.random() < z[carry_idx] else 0
    result = RoundingOutput(tuple(out))
    ceil_sum = int(np.ceil(sum(_snap(float(w)) for w in weights) - SNAP_TOL))
    if result.total > max(ceil_sum, 0):
        raise RuntimeError(f"degree preservation violated: {result.total} ones, cap {ceil_sum}")
    return result


@dataclass(frozen=True)
class FlipOutcome:
    """Result of one run: flip order, per-coin flags and the first heads."""

    order: tuple[int, ...]          # coins flipped, in flip order
    flipped: tuple[bool, ...]
    heads: tuple[bool, ...]
    winner: int | None

    def __post_init__(self):
        # flipping must stop right after a heads
        seen_heads = False
        for i in self.order:
            if seen_heads:
                raise ValueError(f"coin {i} flipped after a heads")
            seen_heads = self.heads[i]


def run_blackbox(coins: CoinSet, seed: int | None = None, rng: random.Random | None = None) -> FlipOutcome:
    """Round the weights, order the survivors and flip until heads or patience."""
    if rng is None:
        rng = random.Random(seed)
    n = len(coins.probs)
    rounded = gkps_round(coins.weights, rng=rng)
    survivors = [i for i in range(n) if rounded.values[i]]
    keyed = []
    for i in survivors:
        y = rng.random()
        denom = float(_key_denom(coins.probs[i], coins.weights[i], coins.case == CASE_SMALL))
        key = y / denom if denom > _TOL else math.inf
        keyed.append((key, i))
    keyed.sort()  # ties (probability-zero under floats) resolve by lower id
    order: list[int] = []
    flipped = [False] * n
    heads = [False] * n
    winner = None
    for key, i in keyed:
        if len(order) >= coins.patience:
            break
        order.append(i)
        flipped[i] = True
        if rng.random() < coins.probs[i]:
            heads[i] = True
            winner = i
            break
    return FlipOutcome(tuple(order), tuple(flipped), tuple(heads), winner)


def sorted_batch_flip(probs, x_rows, patience, case, rng: np.random.Generator):
    """``batch_flip`` by sorting: every row's survivors are put in stable
    key order (non-survivors last), flipped up to the first heads or the
    patience cap, and scattered back.  Draws in ``batch_flip``'s order."""
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


def no_purchase_prob(model: ChoiceModel, assortment: frozenset[int] | Iterable[int]) -> float:
    """Probability that nothing is purchased from the displayed assortment."""
    if not isinstance(assortment, frozenset):
        assortment = frozenset(assortment)
    if isinstance(model, Mnl):
        denom = model.no_purchase + sum(model.weights[k] for k in assortment)
        return model.no_purchase / denom
    return 1.0 - sum(model.prob(k, assortment) for k in assortment)


def pair_model(objective, rows, upper, lower=None) -> LpModel:
    """The LP with ``rows`` given as ``(pairs, rhs, tag)``, ``pairs`` a list
    of ``(column, value)``; lower bounds default to zero."""
    n = len(objective)
    return LpModel(
        num_vars=n,
        objective=tuple(float(c) for c in objective),
        rows=tuple(LpRow(tuple(j for j, _ in pairs), tuple(float(a) for _, a in pairs), float(rhs), tag)
                   for pairs, rhs, tag in rows),
        lower=tuple(lower) if lower is not None else (0.0,) * n,
        upper=tuple(float(u) for u in upper),
    )


def bincount_reduced_costs(simplex, cvec, y) -> np.ndarray:
    """``cvec - y A`` for an ``lpcore._Simplex`` as one ``bincount`` over its
    nonzeros sorted by column: the structural coefficients in row order
    (repeated entries in triplet order), then one 1 per slack and one -1 per
    artificial.  ``bincount`` adds each column's products to 0.0 in that
    order, which the column-slot pricing must reproduce bit for bit."""
    m, n = simplex.m, simplex.n_struct
    row_of, col_of, coefs = simplex.model._triplets
    order = np.argsort(col_of, kind="stable")
    art_rows = [int(np.flatnonzero(simplex.A[:, j])[0]) for j in simplex.art]
    rows = np.concatenate([row_of[order], np.arange(m), art_rows]).astype(np.intp)
    cols = np.concatenate([col_of[order], np.arange(n, n + m), simplex.art]).astype(np.intp)
    vals = np.concatenate([coefs[order], np.ones(m), np.full(len(art_rows), -1.0)])
    return cvec - np.bincount(cols, weights=y[rows] * vals, minlength=len(cvec))
