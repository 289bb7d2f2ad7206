"""Dependent randomized rounding of a fractional weight vector into 0/1.

The procedure repeatedly takes the two lowest-index fractional coordinates
and moves probability mass between them so that one of the two becomes
integral, choosing between the two feasible shifts with probabilities that
keep every expectation fixed.  A final lone fractional coordinate is rounded
up with probability equal to its value.  The output satisfies, exactly on
every sample path, sum(Z) <= ceil(sum(z)); statistically it has the stated
marginals and negative correlation within any index subset.

Pair order is fixed (lowest indices first) so results are reproducible given
a seed; GKPS permits any order.
"""
from __future__ import annotations

import numpy as np

SNAP_TOL = 1e-12

__all__ = ["gkps_round_batch"]


def _fold_last(ufunc, a: np.ndarray, initial) -> np.ndarray:
    """``ufunc.reduce(a, axis=-1, initial=initial)`` as a loop over the last
    axis, which numpy reduces row by row, slowly when it is short.  Exact for
    min, max, OR and counts; a float add sums left to right, not pairwise."""
    out = np.full(a.shape[:-1], initial)
    for j in range(a.shape[-1]):
        ufunc(out, a[..., j], out=out)
    return out


def gkps_round_batch(z_rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Vectorized rounding of many weight vectors at once (rows are independent).

    Runs the lowest-index pairwise scan one column at a time across all rows,
    visiting only the columns that hold a fractional entry, so 0/1 input
    draws nothing (``tests/scalar_oracles.py`` keeps the scalar scan as its
    oracle).
    """
    given = np.asarray(z_rows, dtype=float)
    if given.ndim != 2:
        raise ValueError("z_rows must be 2-d")
    if given.size and (given.min() < -SNAP_TOL or given.max() > 1 + SNAP_TOL):
        raise ValueError("weights outside [0,1]")
    B = given.shape[0]
    out = given >= 1 - SNAP_TOL
    # an entry within SNAP_TOL of 0 or 1 is already rounded (each of ``out`` exceeds SNAP_TOL,
    # so the XOR drops it); the scan reads only the others, which snapping leaves unchanged
    fractional = (given > SNAP_TOL) ^ out
    carry_idx = np.full(B, -1, dtype=np.int64)
    carry_val = np.zeros(B)
    rows = np.arange(B)
    for i in range(given.shape[1]) if fractional.any() else ():
        frac = fractional[:, i]
        if not frac.any():
            continue
        zi = given[:, i]
        fresh = frac & (carry_idx < 0)
        carry_idx[fresh] = i
        carry_val[fresh] = zi[fresh]
        pair = frac & ~fresh
        if not np.any(pair):
            continue
        a = carry_val[pair]
        b = zi[pair]
        up = np.minimum(1.0 - a, b)
        down = np.minimum(a, 1.0 - b)
        u = rng.random(int(pair.sum()))
        take_up = u * (up + down) < down
        a2 = np.where(take_up, a + up, a - down)
        b2 = np.where(take_up, b - up, b + down)
        a2[np.abs(a2) <= SNAP_TOL] = 0.0
        a2[np.abs(a2 - 1.0) <= SNAP_TOL] = 1.0
        b2[np.abs(b2) <= SNAP_TOL] = 0.0
        b2[np.abs(b2 - 1.0) <= SNAP_TOL] = 1.0
        pr = rows[pair]
        a_int = (a2 == 0.0) | (a2 == 1.0)
        b_int = (b2 == 0.0) | (b2 == 1.0)
        out[pr[a_int], carry_idx[pr[a_int]]] = a2[a_int] == 1.0
        out[pr[b_int], i] = b2[b_int] == 1.0
        # new carrier: the endpoint (if any) that stayed fractional
        carry_idx[pr] = np.where(a_int, np.where(b_int, -1, i), carry_idx[pr])
        carry_val[pr] = np.where(a_int, np.where(b_int, 0.0, b2), a2)
    left = carry_idx >= 0
    if np.any(left):
        u = rng.random(int(left.sum()))
        out[rows[left], carry_idx[left]] = u < carry_val[left]
    # the row sums' order does not matter: SNAP_TOL dwarfs their rounding error
    totals = _fold_last(np.add, out, 0)
    caps = np.ceil(_fold_last(np.add, given, 0.0) - SNAP_TOL)
    bad = np.nonzero(totals > np.maximum(caps, 0))[0]
    if bad.size:
        raise RuntimeError(f"degree preservation violated in row {bad[0]}: "
                           f"{totals[bad[0]]} ones, cap {caps[bad[0]]}")
    return out
