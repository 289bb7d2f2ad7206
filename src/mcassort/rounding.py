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


def gkps_round_batch(z_rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Vectorized rounding of many weight vectors at once (rows are independent).

    Runs the lowest-index pairwise scan one column at a time across all rows
    (``tests/scalar_oracles.py`` keeps the scalar scan as its oracle).
    """
    given = np.asarray(z_rows, dtype=float)
    if given.ndim != 2:
        raise ValueError("z_rows must be 2-d")
    if np.any(given < -SNAP_TOL) or np.any(given > 1 + SNAP_TOL):
        raise ValueError("weights outside [0,1]")
    B, N = given.shape
    z = np.clip(given, 0.0, 1.0)
    near0 = z <= SNAP_TOL
    near1 = z >= 1 - SNAP_TOL
    z[near0] = 0.0
    z[near1] = 1.0
    out = np.zeros((B, N), dtype=bool)
    out[near1] = True
    carry_idx = np.full(B, -1, dtype=np.int64)
    carry_val = np.zeros(B)
    rows = np.arange(B)
    for i in range(N):
        zi = z[:, i]
        frac = (zi > 0.0) & (zi < 1.0)
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
    totals = out.sum(axis=1)
    caps = np.ceil(given.sum(axis=1) - SNAP_TOL)
    bad = np.nonzero(totals > np.maximum(caps, 0))[0]
    if bad.size:
        raise RuntimeError(f"degree preservation violated in row {bad[0]}: "
                           f"{totals[bad[0]]} ones, cap {caps[bad[0]]}")
    return out
