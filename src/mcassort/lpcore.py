"""Minimal bounded linear-program abstraction and dense simplex solver.

Problems have the fixed shape ``max c.x  s.t.  A x <= b,  lo <= x <= hi`` with
``lo >= 0`` and every structural variable bounded above.  The solver is a
two-phase revised simplex over bounded variables: Dantzig pricing with ties
broken by lowest variable index, falling back to Bland's rule after a long
degenerate streak.  Every optimal solve returns row duals and is checked for
primal feasibility and strong duality before being handed back, with its
pivot, bound-flip, refactor and pricing counts on ``LpSolution.stats``.

Pricing works on sparse columns (Maros, *Computational Techniques of the
Simplex Method*, 2003, ch. 9), only when the basis has changed; a bound flip
keeps the reduced costs.  The matrix sits in K column slots, K the largest
column count: slot s holds each column's s-th nonzero (rows ascending,
repeated entries in row order), and a shorter column pads with value 0.0 on
an extra zero entry of y.  One gather, one product and a fold over the slots
into zeros add each column's products to 0.0 in order, as a ``bincount``
over the column-sorted nonzeros does: the reduced costs equal its bit for
bit, signed zeros included (padding adds +0.0, which such a sum absorbs),
and a non-finite dual reaches only its row's columns.  Each pivot refreshes
the basic solution from the nonbasic variables at a nonzero bound only (most
sit at a zero lower bound), runs the ratio test in vector form (every row's
step cap in one pass, then the sequential tie rule over the rows near the
smallest cap, see ``_ratio_test``), and updates the basis inverse on the
rows that the entering column touches.

``solve`` uses fixed pivot rules and no randomness, and concurrent solves on
distinct models are safe.  Its last bits are not a function of the model
alone: the basis inverse (``np.linalg.inv``) and the matrix-vector products
with it go through the BLAS and LAPACK, whose thread count can move the
objective, x and the duals by an ulp.  On a hotel LP the x of one cell
differs between one and two OpenBLAS threads even with every matrix-vector
product computed outside the BLAS, so the inverse alone carries the
dependence.  With the thread count fixed, identical models produce identical
solutions.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Mapping

import numpy as np

TOL_FEAS = 1e-7
TOL_DUAL = 1e-7
_PIVOT_TOL = 1e-9
_REFACTOR_EVERY = 64

__all__ = [
    "LpModel",
    "LpRow",
    "LpSolution",
    "LpError",
    "LpNumericalError",
    "solve",
]


class LpError(Exception):
    pass


class LpNumericalError(LpError):
    """Raised when pivot refinement cannot restore the optimality certificates."""


RowTag = str | tuple


@dataclass(frozen=True)
class LpRow:
    """One constraint ``sum(vals[i] * x[cols[i]]) <= rhs``: parallel column
    indices and coefficients, a column repeated within a row adding up."""

    cols: tuple[int, ...]
    vals: tuple[float, ...]
    rhs: float
    tag: RowTag | None = None


@dataclass(frozen=True)
class LpModel:
    num_vars: int
    objective: tuple[float, ...]
    rows: tuple[LpRow, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        if len(self.objective) != self.num_vars:
            raise LpError("objective length mismatch")
        if len(self.lower) != self.num_vars or len(self.upper) != self.num_vars:
            raise LpError("bound length mismatch")
        for r, row in enumerate(self.rows):
            if len(row.cols) != len(row.vals):
                raise LpError(f"row {r} ({row.tag!r}) has {len(row.cols)} columns and {len(row.vals)} values")
        if not np.isfinite(np.asarray(self.objective, dtype=float)).all():
            raise LpError("objective coefficients must be finite")
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        # per variable, the first failing check in the order below names the error
        bad_lo = (lo < 0) | ~np.isfinite(lo)
        bad_hi = ~np.isfinite(hi)
        bad_order = hi < lo
        bad = np.flatnonzero(bad_lo | bad_hi | bad_order)
        if bad.size:
            j = bad[0]
            if bad_lo[j]:
                raise LpError("lower bounds must be finite and >= 0")
            if bad_hi[j]:
                raise LpError("every variable needs a finite upper bound")
            raise LpError("upper bound below lower bound")
        rhs = np.array([row.rhs for row in self.rows], dtype=float)
        row_of, cols, coefs = self._triplets
        bad_rhs = ~np.isfinite(rhs)
        bad_col = ~((cols >= 0) & (cols < self.num_vars) & (cols == np.floor(cols)))
        bad_coef = bad_col | ~np.isfinite(coefs)
        bad_rows = np.concatenate([np.flatnonzero(bad_rhs), row_of[bad_coef]])
        if bad_rows.size:
            # per row, the rhs is checked first, then the coefficients in order
            r = int(bad_rows.min())
            if bad_rhs[r]:
                raise LpError("row rhs must be finite")
            k = int(np.flatnonzero(bad_coef & (row_of == r))[0])
            if bad_col[k]:
                j = cols[k]
                raise LpError(f"row references unknown variable {int(j) if j.is_integer() else j}")
            raise LpError("row coefficients must be finite")

    @cached_property
    def _triplets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every row coefficient as flat (row, column, value) arrays in row order."""
        counts = np.fromiter((len(row.cols) for row in self.rows), dtype=np.intp, count=len(self.rows))
        total = int(counts.sum())
        cols = np.fromiter(chain.from_iterable(row.cols for row in self.rows), dtype=float, count=total)
        vals = np.fromiter(chain.from_iterable(row.vals for row in self.rows), dtype=float, count=total)
        return np.repeat(np.arange(len(self.rows)), counts), cols, vals

    def dense(self) -> tuple[np.ndarray, np.ndarray]:
        row_of, cols, coefs = self._triplets
        A = np.zeros((len(self.rows), self.num_vars))
        np.add.at(A, (row_of, cols.astype(np.intp)), coefs)  # repeated entries add in row order
        return A, np.array([row.rhs for row in self.rows], dtype=float)


@dataclass(frozen=True)
class LpStats:
    """What one solve did.

    ``phase1_pivots`` and ``phase2_pivots`` count basis changes (phase 2
    includes any refinement pass after a failed certificate check),
    ``degenerate_pivots`` the basis changes of either phase whose step was
    at most the 1e-9 pivot tolerance, ``bound_flips`` entering variables
    that ran to their opposite bound instead, ``refactors`` explicit basis
    inversions, ``pricings`` reduced-cost passes (one per basis the pivot
    loop prices, plus one per certificate check: bound flips reuse them),
    ``bland`` whether a degenerate streak switched pricing to Bland's rule,
    and ``certificate_error`` the scaled certificate error of the returned
    optimum (None when none was checked: the solve ended infeasible or
    unbounded, or the model has no rows).
    """

    phase1_pivots: int = 0
    phase2_pivots: int = 0
    degenerate_pivots: int = 0
    bound_flips: int = 0
    refactors: int = 0
    pricings: int = 0
    bland: bool = False
    certificate_error: float | None = None


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: float
    x: tuple[float, ...]
    duals: tuple[float, ...]
    row_tags: tuple[RowTag | None, ...]
    _tag_index: Mapping[RowTag, int] = field(default_factory=dict, repr=False)
    stats: LpStats = field(default=LpStats(), compare=False, repr=False)

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"

    def dual(self, row: int | RowTag) -> float:
        """Dual multiplier of a constraint row, addressed by index or builder tag."""
        if not self.optimal:
            raise LpError("duals are only available for optimal solutions")
        if isinstance(row, int) and not isinstance(row, bool):
            if row < 0 or row >= len(self.duals):
                raise LpError(f"unknown row index {row}")
            return self.duals[row]
        try:
            return self.duals[self._tag_index[row]]
        except KeyError:
            raise LpError(f"unknown row tag {row!r}") from None


def _ratio_test(
    step: np.ndarray, xB: np.ndarray, lo: np.ndarray, hi: np.ndarray, basis: np.ndarray
) -> tuple[float, int, bool]:
    """Leaving row for an entering move of size delta >= 0 that changes the
    basic variables by ``-step * delta``; ``lo``/``hi`` are the basic
    variables' bounds and ``basis`` their column indices.

    Returns (delta, row, to_upper), with row -1 and delta inf when nothing
    blocks.  Caps are computed for every row at once; the sequential rule
    (a cap below the running minimum by more than 1e-12, or within 1e-12 of
    it on a lower basis index) then runs over the rows near the smallest
    cap.  That rule only ever moves to a cap within 1e-12 of the running
    minimum, so when those rows are separated from the other caps by a
    clear gap it picks the same row as a scan of all of them; without such
    a gap every finite cap is scanned.
    """
    dec = step > _PIVOT_TOL  # basic variable decreases toward its lower bound
    inc = step < -_PIVOT_TOL  # basic variable increases toward its upper bound
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cap = np.maximum(np.where(dec, (xB - lo) / step, (hi - xB) / -step), 0.0)
    rows = ((dec | inc) & np.isfinite(cap)).nonzero()[0]
    if rows.size == 0:
        return np.inf, -1, False
    caps = cap[rows]
    cmin = caps.min()
    gap = 1e-9 * (1.0 + cmin)
    near = caps <= cmin + gap
    if not (caps[~near] > cmin + 3 * gap).all():
        near[:] = True
    rows = rows[near]
    delta, leave, leave_basic = np.inf, -1, -1
    for r, cap_r, basic in zip(rows.tolist(), caps[near].tolist(), basis[rows].tolist()):
        if cap_r < delta - 1e-12 or (cap_r < delta + 1e-12 and leave >= 0 and basic < leave_basic):
            delta, leave, leave_basic = cap_r, r, basic
    return delta, leave, bool(inc[leave])


class _Simplex:
    """Bounded-variable primal simplex on max c.x, A x <= b, lo <= x <= hi."""

    def __init__(self, model: LpModel):
        m, n = len(model.rows), model.num_vars
        self.m, self.n_struct = m, n
        row_of, col_of, coefs = model._triplets
        col_of = col_of.astype(np.intp)
        # columns: structural | slacks | artificials (phase 1 only); the
        # structural block is written as LpModel.dense() writes it
        self.A = np.zeros((m, n + m))
        np.add.at(self.A, (row_of, col_of), coefs)
        self.A[np.arange(m), np.arange(n, n + m)] = 1.0
        # the same columns in slots: slot s holds each column's s-th nonzero
        # (rows ascending, repeated entries in row order, then one 1 per
        # slack); a column with fewer nonzeros is padded with row m and 0.0
        order = np.argsort(col_of, kind="stable")
        rows = np.concatenate([row_of[order], np.arange(m)])
        cols = np.concatenate([col_of[order], np.arange(n, n + m)])
        counts = np.bincount(cols, minlength=n + m)
        slot = np.arange(cols.size) - (np.cumsum(counts) - counts)[cols]
        self.slot_rows = np.full((int(counts.max(initial=0)), n + m), m)
        self.slot_rows[slot, cols] = rows
        self.slot_vals = np.zeros(self.slot_rows.shape)
        self.slot_vals[slot, cols] = np.concatenate([coefs[order], np.ones(m)])
        self._y = np.zeros(m + 1)  # y, then the 0.0 that padding reads
        self.b = np.array([row.rhs for row in model.rows], dtype=float)
        self.lo = np.concatenate([np.array(model.lower), np.zeros(m)])
        self.hi = np.concatenate([np.array(model.upper), np.full(m, np.inf)])
        self.c = np.concatenate([np.array(model.objective), np.zeros(m)])
        self.art: list[int] = []
        self.model = model
        self.pivots = self.phase1_pivots = self.degenerate = self.flips = self.refactors = self.pricings = 0
        self.bland = False

    def _install_artificials(self) -> None:
        resid = self.b - self.A[:, : self.n_struct] @ self.lo[: self.n_struct]
        art_rows = (resid < -TOL_FEAS).nonzero()[0]  # rows the slack alone cannot satisfy
        k = len(art_rows)
        basis = self.n_struct + np.arange(self.m)  # slacks basic
        if k:
            cols = self.A.shape[1]
            self.art = list(range(cols, cols + k))
            basis[art_rows] = self.art
            art = np.zeros((self.m, k))
            art[art_rows, np.arange(k)] = -1.0
            self.A = np.hstack([self.A, art])
            pad = len(self.slot_rows) - 1  # every slack fills slot 0
            self.slot_rows = np.hstack([self.slot_rows, np.vstack([art_rows, np.full((pad, k), self.m)])])
            self.slot_vals = np.hstack([self.slot_vals, np.vstack([np.full(k, -1.0), np.zeros((pad, k))])])
            self.lo = np.concatenate([self.lo, np.zeros(k)])
            self.hi = np.concatenate([self.hi, np.full(k, np.inf)])
            self.c = np.concatenate([self.c, np.zeros(k)])
        self.basis = basis
        self.at_upper = np.zeros(self.A.shape[1], dtype=bool)
        self.xN = np.array(self.lo)  # nonbasic values (lo or hi), 0 where basic; pivots and flips keep it
        self.xN[basis] = 0.0

    def _refactor(self) -> None:
        self.refactors += 1
        B = self.A[:, self.basis]
        try:
            self.Binv = np.linalg.inv(B)
        except np.linalg.LinAlgError as exc:
            raise LpNumericalError(f"singular basis: {exc}") from exc

    def _xB(self) -> np.ndarray:
        # most nonbasics sit at a zero lower bound; with all there, b - 0 is b bit for bit
        nz = self.xN.nonzero()[0]
        return self.Binv @ (self.b - self.A[:, nz] @ self.xN[nz] if nz.size else self.b)

    def _reduced_costs(self, cvec: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``cvec - y A`` from the column slots, each column's products
        added to 0.0 in slot order (see the module docstring)."""
        self.pricings += 1
        self._y[:-1] = y
        prod = np.take(self._y, self.slot_rows)
        prod *= self.slot_vals
        yA = np.zeros(prod.shape[1])
        for p in prod:
            yA += p
        return np.subtract(cvec, yA, out=yA)

    def _iterate(self, cvec: np.ndarray, max_iter: int) -> str:
        bland = False
        degen_streak = 0
        since_refactor = 0
        d = None  # reduced costs of the current basis; a bound flip keeps them
        for _ in range(max_iter):
            if since_refactor >= _REFACTOR_EVERY:
                self._refactor()
                since_refactor = 0
                d = None
            xB = self._xB()
            if d is None:
                y = cvec[self.basis] @ self.Binv
                d = self._reduced_costs(cvec, y)
            viol = np.where(self.at_upper, -d, d)
            viol[self.basis] = 0.0
            best = np.fmax.reduce(viol)  # skips a NaN, which is never a candidate
            if not best > TOL_DUAL:
                return "optimal"
            # Bland takes the lowest candidate index, Dantzig the lowest within 1e-15 of the best
            cand = viol > TOL_DUAL
            e = int((cand if bland else cand & (viol >= best - 1e-15)).argmax())
            sigma = -1.0 if self.at_upper[e] else 1.0
            w = self.Binv @ self.A[:, e]
            # ratio test: entering moves by delta >= 0 in direction sigma
            delta, leave_pos, leave_to_upper = _ratio_test(
                sigma * w, xB, self.lo[self.basis], self.hi[self.basis], self.basis
            )
            bound_gap = self.hi[e] - self.lo[e]
            if not np.isfinite(delta) and not np.isfinite(bound_gap):
                return "unbounded"
            if bound_gap <= delta:
                # bound flip: entering variable runs to its opposite bound
                self.at_upper[e] = not self.at_upper[e]
                self.xN[e] = self.hi[e] if self.at_upper[e] else self.lo[e]
                self.flips += 1
                degen_streak = degen_streak + 1 if bound_gap <= _PIVOT_TOL else 0
            else:
                leaving = self.basis[leave_pos]
                self.basis[leave_pos] = e
                self.at_upper[leaving] = leave_to_upper
                self.at_upper[e] = False
                self.xN[leaving] = self.hi[leaving] if leave_to_upper else self.lo[leaving]
                self.xN[e] = 0.0
                # product-form update of Binv, on the rows that w touches.
                # A skipped row i (w_i == 0) keeps its entries, where the
                # full update would subtract 0 * row and could turn a -0.0
                # into +0.0.  Signed zeros compare equal and add to a
                # nonzero without effect, and no quotient by one reaches a
                # decision (pivots and ratio-test steps pass a 1e-9
                # magnitude test first), so no pivot choice can see the
                # difference; the returned x and duals come from a fresh
                # inverse.
                piv = w[leave_pos]
                if abs(piv) < _PIVOT_TOL:
                    self._refactor()
                else:
                    row = self.Binv[leave_pos] / piv
                    touched = w.nonzero()[0]
                    self.Binv[touched] -= np.outer(w[touched], row)
                    self.Binv[leave_pos] = row
                d = None
                self.pivots += 1
                since_refactor += 1
                degen_streak = degen_streak + 1 if delta <= _PIVOT_TOL else 0
                self.degenerate += delta <= _PIVOT_TOL
            if degen_streak > 2 * (self.m + 10):
                bland = self.bland = True
        raise LpNumericalError("simplex iteration limit reached")

    def run(self) -> LpSolution:
        model = self.model
        tags = tuple(row.tag for row in model.rows)
        tag_index = {t: i for i, t in enumerate(tags) if t is not None}
        if self.m == 0:
            x = np.where(np.array(model.objective) > 0, model.upper, model.lower).astype(float)
            obj = float(np.dot(model.objective, x))
            return LpSolution("optimal", obj, tuple(x), (), tags, tag_index)
        self._install_artificials()
        self._refactor()
        max_iter = 200 * (self.A.shape[1] + self.m) + 2000
        if self.art:
            c1 = np.zeros(self.A.shape[1])
            c1[self.art] = -1.0
            status = self._iterate(c1, max_iter)
            if status != "optimal":
                raise LpNumericalError("phase 1 did not converge")
            self.phase1_pivots = self.pivots
            xfull = self._assemble_x()
            if float(np.sum(xfull[self.art])) > TOL_FEAS * (1 + abs(self.b).sum()):
                return LpSolution("infeasible", float("nan"), (), (), tags, tag_index, self._stats())
            self.hi[self.art] = 0.0  # lock artificials at zero for phase 2
        status = self._iterate(self.c, max_iter)
        if status == "unbounded":
            return LpSolution("unbounded", float("inf"), (), (), tags, tag_index, self._stats())
        return self._certified_solution(tags, tag_index)

    def _assemble_x(self) -> np.ndarray:
        x = np.array(self.xN)
        x[self.basis] = self._xB()
        return x

    def _certified_solution(self, tags, tag_index) -> LpSolution:
        for attempt in range(3):
            self._refactor()
            x = self._assemble_x()
            y = self.c[self.basis] @ self.Binv
            err = self._certificate_error(x, y)
            if err <= TOL_FEAS:
                xs = x[: self.n_struct]
                obj = float(np.dot(self.model.objective, xs))
                return LpSolution("optimal", obj, tuple(xs), tuple(y), tags, tag_index, self._stats(err))
            if attempt < 2:
                # one more pivoting pass from the refactored basis
                self._iterate(self.c, 50 * (self.m + 10))
        raise LpNumericalError(f"optimality certificates violated by {err:g}")

    def _stats(self, certificate_error: float | None = None) -> LpStats:
        return LpStats(
            phase1_pivots=self.phase1_pivots,
            phase2_pivots=self.pivots - self.phase1_pivots,
            degenerate_pivots=self.degenerate,
            bound_flips=self.flips,
            refactors=self.refactors,
            pricings=self.pricings,
            bland=self.bland,
            certificate_error=certificate_error,
        )

    def _certificate_error(self, x: np.ndarray, y: np.ndarray) -> float:
        A, b = self.A, self.b
        scale = 1.0 + float(np.abs(b).max(initial=0.0)) + float(np.abs(x).max(initial=0.0))
        feas = max(
            float(np.max(A @ x - b, initial=0.0)),
            float(np.max(self.lo - x, initial=0.0)),
            float(np.max((x - self.hi)[np.isfinite(self.hi)], initial=0.0)),
        )
        dual_feas = max(0.0, float(-y.min(initial=0.0)))
        d = self._reduced_costs(self.c, y)
        pos = d > TOL_DUAL
        neg = d < -TOL_DUAL
        hi_terms = np.where(np.isfinite(self.hi), self.hi, 0.0)
        unbounded_pos = pos & ~np.isfinite(self.hi)
        if unbounded_pos.any():
            return float("inf")
        dual_obj = float(y @ b + np.sum(d[pos] * hi_terms[pos]) + np.sum(d[neg] * self.lo[neg]))
        primal_obj = float(self.c @ x)
        gap = abs(primal_obj - dual_obj)
        objscale = 1.0 + abs(primal_obj)
        return max(feas / scale, dual_feas, gap / objscale)


def solve(model: LpModel) -> LpSolution:
    """Solve to optimality with primal and dual certificates, or report status."""
    return _Simplex(model).run()
