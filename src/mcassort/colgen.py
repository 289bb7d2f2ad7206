"""Approximate column generation for the no-repeat and repeated-offer LPs.

The master loop starts from the empty set plus singletons, solves the
restricted LP, reads the duals (zeta per item, gamma/beta per type, sigma per
(type, product) for no-repeat variants), and prices columns per type with
an exchangeable subproblem oracle: exhaustive search, the exact nested-scan
optimum for MNL without overlap penalties, or the knapsack-style FPTAS for
MNL with penalties.  Any assortment whose pricing value exceeds beta_j by
more than a tolerance joins the restricted family; termination within |S|
iterations is guaranteed because no set is ever added twice.

An oracle with approximation factor alpha carries that factor onto the
master objective: the returned plan is within alpha of the full optimum.
"""
from __future__ import annotations

import functools
import logging
import math
import time
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from . import lpcore, mcdlp
# choice_prob is unused here but stays bound: perfbench's tracer rebinds it in every importer
from .model import MAX_TABULAR_FAMILY, Instance, Mnl, choice_prob, family_probs, slot_sums  # noqa: F401

TOL_RC = 1e-7

log = logging.getLogger(__name__)

# memory cap on one stacked FPTAS DP (tables of several gamma guesses at once)
_DP_STACK_BYTES = 1 << 20

__all__ = [
    "DualBundle",
    "FamilyTable",
    "SubproblemInstance",
    "FptasConfig",
    "PricingOracle",
    "BruteForceOracle",
    "MnlExactOracle",
    "MnlFptasOracle",
    "ColgenResult",
    "subproblem_bruteforce",
    "subproblem_mnl_repeated",
    "subproblem_mnl_fptas",
    "column_generate",
]


@dataclass(frozen=True)
class DualBundle:
    """Optimal duals of a restricted master, keyed by semantic name."""

    zeta: np.ndarray    # per item
    gamma: np.ndarray   # per type (sell-at-most-one)
    beta: np.ndarray    # per type (patience)
    sigma: np.ndarray   # (m, n_products); identically zero without overlap rows

    def __post_init__(self):
        for arr in (self.zeta, self.gamma, self.beta, self.sigma):
            if not (arr >= -1e-7).all():
                raise ValueError("dual variables must be non-negative")


def extract_duals(inst: Instance, sol: lpcore.LpSolution, no_repeat: bool) -> DualBundle:
    zeta = np.array([max(0.0, sol.dual(("inventory", i))) for i in range(inst.n_items)])
    gamma = np.array([max(0.0, sol.dual(("sell_one", j))) for j in range(inst.m)])
    beta = np.array([max(0.0, sol.dual(("patience", j))) for j in range(inst.m)])
    sigma = np.zeros((inst.m, inst.n_products))
    if no_repeat:
        for j in range(inst.m):
            for i in range(inst.n_products):
                sigma[j, i] = max(0.0, sol.dual(("overlap", j, i)))
    return DualBundle(zeta, gamma, beta, sigma)


class FamilyTable:
    """One choice model's purchase probabilities on every set of a family,
    padded so that ``values`` prices the whole family in one numpy pass.

    Row r is the r-th set of ``family.assortments(n_products)``, priced by
    ``model.family_probs``: its slots hold the set's members in the
    frozenset's own iteration order, which is the order
    ``SubproblemInstance.value`` sums in.  A padding slot names product
    ``n_products``, priced at w = sigma = 0 with probability 0, so it adds an
    exact +0.0.  Nothing here depends on the duals; the arrays are built on
    first use.
    """

    def __init__(self, choice, family, n_products: int):
        self.choice, self.family, self.n_products = choice, family, n_products
        self._enumerate = functools.cache(functools.partial(family.assortments, n_products))

    @property
    def sets(self) -> tuple[frozenset[int], ...]:
        return self._enumerate()

    @functools.cached_property
    def _slots(self) -> tuple[np.ndarray, np.ndarray]:
        members, probs = family_probs([self.choice], self.sets, self.n_products)
        return members, probs[0]

    def values(self, w, sigma) -> np.ndarray:
        """sum_{i in S} (w_i p(i,S) - sigma_i) for every set S, with the same
        float operations, in the same order, as ``SubproblemInstance.value``."""
        idx, prob = self._slots
        return slot_sums(np.append(w, 0.0)[idx] * prob - np.append(sigma, 0.0)[idx])


@dataclass(frozen=True)
class SubproblemInstance:
    """Pricing problem for one type: max_S sum_{i in S} (w_i p(i,S) - sigma_i).

    ``table`` holds the family's purchase probabilities for brute-force
    pricing; when none is given the instance makes its own.
    """

    w: np.ndarray
    sigma: np.ndarray
    choice: object
    family: object      # AssortmentFamily
    n_products: int
    table: FamilyTable | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.table is None:
            object.__setattr__(self, "table", FamilyTable(self.choice, self.family, self.n_products))
        elif (self.table.choice, self.table.family, self.table.n_products) != (
                self.choice, self.family, self.n_products):
            raise ValueError("pricing table was built for another choice model, family or product count")

    def value(self, S: frozenset[int]) -> float:
        if not S:
            return 0.0
        return sum(self.w[i] * p - self.sigma[i] for i, p in self.choice.probs(S))

    @staticmethod
    def from_duals(inst: Instance, j: int, duals: DualBundle, table: FamilyTable) -> "SubproblemInstance":
        Q = inst.types[j].total_rate(inst.T)
        w = np.array([
            (inst.types[j].revenues[i] - duals.zeta[inst.products[i].item]) * Q - duals.gamma[j]
            for i in range(inst.n_products)
        ])
        return SubproblemInstance(
            w=w, sigma=duals.sigma[j].copy(), choice=inst.types[j].choice,
            family=inst.family, n_products=inst.n_products, table=table,
        )


class PricingOracle(Protocol):
    def solve(self, sub: SubproblemInstance) -> tuple[frozenset[int], float]: ...


def subproblem_bruteforce(
    sub: SubproblemInstance, exclude: set | None = None
) -> tuple[frozenset[int], float]:
    """Exact maximizer over the whole family, the first set in family order
    winning ties within 1e-15; sets in ``exclude`` are skipped.

    Every set's value comes from one pass over ``sub.table``.  A set replaces
    the incumbent only when it beats it by more than 1e-15, so every
    replacement beats all earlier sets and 0; only those strict prefix maxima
    go through the record rule.
    """
    vals = sub.table.values(sub.w, sub.sigma)
    sets = sub.table.sets
    if exclude:
        vals[[k for k, S in enumerate(sets) if S in exclude]] = -np.inf
    ceiling = np.fmax.accumulate(np.concatenate(([0.0], vals[:-1])))
    best, best_v = frozenset(), 0.0
    for k in np.flatnonzero(vals > ceiling).tolist():
        if vals[k] > best_v + 1e-15:
            best, best_v = sets[k], vals[k]
    return best, best_v


def subproblem_mnl_repeated(sub: SubproblemInstance) -> tuple[frozenset[int], float]:
    """Exact optimum of max_S sum w_i v_i / (sum_{k in S} v_k + 1) for MNL.

    Requires zero overlap penalties on the items with w > 0 and an
    unrestricted family: the optimum is then among the nested prefixes of
    items sorted by descending w (items with w <= 0 can only hurt and are
    excluded up front, whatever their penalty).
    """
    if not isinstance(sub.choice, Mnl):
        raise ValueError("nested-scan pricing needs an MNL choice model")
    if np.any(np.abs(np.asarray(sub.sigma)[np.asarray(sub.w) > 0]) > 1e-12):
        raise ValueError("nested-scan pricing requires sigma = 0 (repeated-offer dual)")
    if not sub.family.is_unrestricted(sub.n_products):
        raise ValueError("nested-scan pricing requires an unrestricted family; use brute force")
    v = np.array(sub.choice.weights)
    v0 = sub.choice.no_purchase
    order = sorted(range(sub.n_products), key=lambda i: (-sub.w[i], i))
    best, best_v = frozenset(), 0.0
    members: list[int] = []
    num = 0.0
    den = v0
    for i in order:
        if sub.w[i] <= 0:
            break
        members.append(i)
        num += sub.w[i] * v[i]
        den += v[i]
        val = num / den
        if val > best_v + 1e-15:
            best, best_v = frozenset(members), val
    return best, best_v


@dataclass(frozen=True)
class FptasConfig:
    """Geometric guess grids and DP index ranges for one pricing instance.

    Grids step by (1+eps) from the smallest relevant value and always include
    the theoretical ceiling as a final point so the search space is covered
    even when the last power overshoots it.
    """

    phi_grid: tuple[float, ...]
    gamma_grid: tuple[float, ...]
    delta_grid: tuple[float, ...]
    I: int
    J: int

    @staticmethod
    def _grid(lo: float, hi: float, eps: float) -> tuple[float, ...]:
        if lo <= 0:
            raise ValueError("grid anchor must be positive")
        pts = []
        v = lo
        while v < hi * (1 - 1e-12):
            pts.append(v)
            v *= 1.0 + eps
        pts.append(hi)
        return tuple(pts)

    @staticmethod
    def from_subproblem(sub: SubproblemInstance, eps: float) -> "FptasConfig":
        """Grids for ``sub`` at accuracy ``eps``, which the caller has checked
        lies in (0, 1)."""
        keep = [i for i in range(sub.n_products) if sub.w[i] > 0]
        n = max(len(keep), 1)
        v = np.array(sub.choice.weights)
        pos_sigma = [sub.sigma[i] for i in keep if sub.sigma[i] > 0]
        sig_lo = min(pos_sigma) if pos_sigma else 1.0
        sig_hi = max(pos_sigma) if pos_sigma else 1.0
        wv = [sub.w[i] * v[i] for i in keep]
        wv_lo, wv_hi = (min(wv), max(wv)) if wv else (1.0, 1.0)
        v_lo = min(v[i] for i in keep) if keep else 1.0
        v_hi = max(v[i] for i in keep) if keep else 1.0
        return FptasConfig(
            phi_grid=FptasConfig._grid(sig_lo, n * sig_hi, eps),
            gamma_grid=FptasConfig._grid(wv_lo, n * wv_hi, eps),
            delta_grid=FptasConfig._grid(v_lo, n * v_hi, eps),
            I=max(math.floor(n / eps) - n, 1),
            J=math.ceil(n / eps) + n,
        )


def _fptas_dp_stack(wt: np.ndarray, vt: np.ndarray, sigma: np.ndarray, I: int, J: int) -> np.ndarray:
    """Minimum-mass DP over (target a, budget b, prefix c), for a stack of
    weight discretizations sharing one volume discretization.

    Table k, V[k, a, b, c], is the least total sigma over subsets of the
    first c items whose weights ``wt[k]`` sum to >= a and whose volumes
    ``vt`` sum to <= b; index a = 0 collapses every non-positive target.
    Returns the (L, I+1, J+1, n+1) array for the (L, n) array ``wt``.  Each
    cell sees the same min and add as in a single-table run, so every table
    is bit-identical to one.
    """
    wt = np.asarray(wt).astype(np.int64)
    L, n = wt.shape
    # prefix-major storage keeps each DP step on contiguous memory
    W = np.empty((n + 1, L, I + 1, J + 1))
    W[0] = np.inf
    W[0, :, 0, :] = 0.0
    a_idx = np.arange(I + 1)
    layer = np.arange(L)[:, None]
    for c in range(1, n + 1):
        v_c, s_c = int(vt[c - 1]), sigma[c - 1]
        prev, here = W[c - 1], W[c]
        # min(prev, inf) is prev: volumes below v_c cannot take item c
        here[..., :v_c] = prev[..., :v_c]
        if v_c <= J:
            src_a = np.maximum(0, a_idx - wt[:, c - 1, None])
            width = J + 1 - v_c
            np.minimum(prev[..., v_c:], prev[layer, src_a, :width] + s_c, out=here[..., v_c:])
    return W.transpose(1, 2, 3, 0)


def _dp_backtrack_stack(V: np.ndarray, wt: np.ndarray, vt, k, a, b) -> np.ndarray:
    """Recover one subset achieving each of many cells of a stacked DP at
    once, preferring exclusion on ties: cell i is (a[i], b[i]) of table k[i].
    Returns the (cells, n) mask of chosen items."""
    n = V.shape[-1] - 1
    chosen = np.zeros((len(k), n), dtype=bool)
    for c in range(n, 0, -1):
        take = V[k, a, b, c] != V[k, a, b, c - 1]
        chosen[:, c - 1] = take
        a = np.where(take, np.maximum(0, a - wt[k, c - 1]), a)
        b = np.where(take, b - vt[c - 1], b)
    return chosen


def subproblem_mnl_fptas(sub: SubproblemInstance, eps: float = 0.1) -> tuple[frozenset[int], float]:
    """Knapsack-style approximation of the MNL pricing problem with penalties.

    Guesses the optimal penalty total phi, weighted-value total gamma and
    volume total delta on geometric grids, discretizes, and solves the
    minimum-penalty DP; candidate cells within the phi budget are re-scored
    with the true objective and the overall best assortment is returned.
    Items with w <= 0 are dropped (they can never help); items with zero
    penalty ride along without consuming any phi budget.  With every penalty
    zero the exact nested-scan routine applies instead.

    Each (gamma, delta) table is scanned for the whole phi grid at once.
    V[a, b, n] is nondecreasing in the target a: V[., ., 0] is 0 then inf,
    and each DP step takes the minimum of the previous column and a shifted
    copy of it plus sigma_c, where the shift max(0, a - w_c) is monotone and
    floating-point min and addition preserve order.  So the entries of a
    volume column b within a budget phi form a prefix, and the largest
    feasible target is the length of that prefix minus one.  Every phi's
    best cell (a*, b*) follows from those counts; each distinct cell is
    backtracked once per table and each distinct set is scored once per
    call.  A set seen before can never beat the incumbent by more than the
    1e-15 margin, so visiting candidates in (gamma, delta, phi) order with
    first-wins ties returns exactly what a per-phi scan returns.

    With the module logger at DEBUG, each call logs one record with its grid
    sizes, the DPs run, the cells backtracked and the distinct sets scored;
    the record's ``fptas`` attribute holds them as a dict.
    """
    if not isinstance(sub.choice, Mnl):
        raise ValueError("FPTAS pricing needs an MNL choice model")
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0,1)")
    if not sub.family.is_unrestricted(sub.n_products):
        raise ValueError("FPTAS pricing requires an unrestricted family; use brute force")
    ids = [i for i in range(sub.n_products) if sub.w[i] > 0]
    if not ids:
        return frozenset(), 0.0
    if all(sub.sigma[i] <= 0 for i in ids):
        return subproblem_mnl_repeated(sub)
    cfg = FptasConfig.from_subproblem(sub, eps)
    n = len(ids)
    w = np.array([sub.w[i] for i in ids])
    v = np.array([sub.choice.weights[i] for i in ids])
    sig = np.array([sub.sigma[i] for i in ids])
    wv = w * v
    I, J = cfg.I, cfg.J
    best_set, best_val = frozenset(), 0.0
    b_idx = np.arange(J + 1)
    # budgets phi + 1e-12, ascending as searchsorted needs: ``_grid`` builds
    # every guess grid strictly ascending and never empty
    budget = np.array(cfg.phi_grid, dtype=float) + 1e-12
    n_phi = len(budget)
    # gamma guesses share a delta's volume discretization: stack them per DP
    gammas = np.array(cfg.gamma_grid, dtype=float)
    stack = max(1, _DP_STACK_BYTES // (8 * (I + 1) * (J + 1) * (n + 1)))
    scored: set[frozenset[int]] = set()
    n_cells = 0
    for lo in range(0, len(gammas), stack):
        g = gammas[lo:lo + stack]
        L = len(g)
        wt = np.floor(n * wv / (eps * g[:, None])).astype(np.int64)   # (L, n)
        tables, deltas, masks = [], [], []
        for di, d in enumerate(cfg.delta_grid):
            vt = np.ceil(n * v / (eps * d)).astype(np.int64)
            V = _fptas_dp_stack(wt, vt, sig, I, J)
            # first budget rank admitting each cell, histogrammed per (table,
            # column): the cumulative count is the number of targets within
            # budget, one more than the largest feasible target
            first = np.searchsorted(budget, V[..., n], side="left")
            first += (np.arange(L * (J + 1)) * (n_phi + 1)).reshape(L, 1, J + 1)
            hist = np.bincount(first.ravel(), minlength=L * (J + 1) * (n_phi + 1))
            counts = hist.reshape(L, J + 1, n_phi + 1)[:, :, :n_phi].cumsum(axis=2)
            amax = counts.transpose(0, 2, 1) - 1    # (L, phi, b)
            est = np.where(
                amax >= 0,
                (amax * eps * g[:, None, None] / n) / (b_idx * eps * d / n + 1.0),
                -np.inf,
            )
            b_star = est.argmax(axis=2)
            a_star = np.take_along_axis(amax, b_star[:, :, None], axis=2)[:, :, 0]
            # distinct (table, cell) pairs, in (table, phi) order
            key = (np.arange(L)[:, None] * (I + 1) + a_star) * (J + 1) + b_star
            live = np.flatnonzero(a_star >= 0)
            _, hit = np.unique(key.ravel()[live], return_index=True)
            k, p = np.unravel_index(live[np.sort(hit)], a_star.shape)
            masks.append(_dp_backtrack_stack(V, wt, vt, k, a_star[k, p], b_star[k, p]))
            tables.append(k)
            deltas.append(np.full(len(k), di))
            n_cells += len(k)
        # score each set at its first (gamma, delta, phi) visit; a set seen
        # before cannot beat the incumbent, so later visits are skipped
        cand = np.concatenate(masks)[np.lexsort((np.concatenate(deltas), np.concatenate(tables)))]
        _, hit = np.unique(cand, axis=0, return_index=True)
        for row in cand[np.sort(hit)]:
            S = frozenset(ids[c] for c in np.flatnonzero(row))
            if S in scored:
                continue
            scored.add(S)
            val = sub.value(S)
            if val > best_val + 1e-15:
                best_set, best_val = S, val
    if log.isEnabledFor(logging.DEBUG):
        stats = {
            "eps": eps, "n": n, "phi": n_phi, "gamma": len(cfg.gamma_grid),
            "delta": len(cfg.delta_grid), "dps": len(cfg.gamma_grid) * len(cfg.delta_grid),
            "cells": n_cells, "sets": len(scored),
        }
        log.debug(
            "FPTAS pricing: %s", " ".join(f"{name}={x}" for name, x in stats.items()),
            extra={"fptas": stats},
        )
    return best_set, best_val


class BruteForceOracle:
    def solve(self, sub: SubproblemInstance) -> tuple[frozenset[int], float]:
        return subproblem_bruteforce(sub)


class MnlExactOracle:
    def solve(self, sub: SubproblemInstance) -> tuple[frozenset[int], float]:
        return subproblem_mnl_repeated(sub)


class MnlFptasOracle:
    """FPTAS-backed pricing.  The certified factor depends on an instance
    condition (f* large against the penalty total), so tests measure the
    realized factor against brute force."""

    def __init__(self, eps: float = 0.1):
        self.eps = eps

    def solve(self, sub: SubproblemInstance) -> tuple[frozenset[int], float]:
        return subproblem_mnl_fptas(sub, self.eps)


@dataclass
class ColgenResult:
    """The final plan and how the master loop reached it.

    ``pricing_s`` holds the wall seconds of each ``oracle.solve`` call, in
    call order (iteration-major, then type); ``added_per_iteration`` the
    number of columns each iteration added to the master.
    """

    solution: mcdlp.McdlpSolution
    iterations: int
    added: list[frozenset[int]]
    family_size: int
    duals: DualBundle
    objective_history: list[float] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    pricing_s: list[float] = field(default_factory=list)
    added_per_iteration: list[int] = field(default_factory=list)

    @property
    def objective(self) -> float:
        return self.solution.objective


def column_generate(
    inst: Instance,
    variant: mcdlp.McdlpVariant,
    oracle: PricingOracle,
) -> ColgenResult:
    """Master loop: restricted solves plus per-type pricing until no column
    has reduced cost above beta_j + tol.  Starts from the empty set and all
    feasible singletons.

    Each master is the variant's own LP on the restricted family, so the
    last master's solution is the plan.  For the no-repeat variants the
    pricing certificate is exact: their bounds never bind, so included
    columns always satisfy the dual constraint and the oracle's maximizer
    being included implies termination.  Capped variants (repeated offers,
    single items) can have a column nonbasic at its cap, whose reduced cost
    the duals do not show; when the oracle lands on one and the family is
    enumerable the loop re-prices by exhaustive search over the absent
    columns, otherwise it stops and records an uncertified-termination
    warning.
    """
    singles = [frozenset({i}) for i in range(inst.n_products) if frozenset({i}) in inst.family]
    restricted: list[frozenset[int]] = [frozenset()] + singles
    have = set(restricted)
    family_size = inst.family.count(inst.n_products)
    added: list[frozenset[int]] = []
    history: list[float] = []
    warns: list[str] = []
    pricing_s: list[float] = []
    per_iteration: list[int] = []
    enumerable = family_size <= MAX_TABULAR_FAMILY
    tables = [FamilyTable(ct.choice, inst.family, inst.n_products) for ct in inst.types]
    for table in tables[1:]:  # one enumeration, made on first use, serves every type
        table._enumerate = tables[0]._enumerate
    for it in range(1, family_size + 2):
        sol = mcdlp.solve_variant(inst, variant, assortments=restricted)
        if history and not sol.objective >= history[-1] - 1e-7:
            raise RuntimeError(
                f"master objective decreased: {history[-1]!r} -> {sol.objective!r} "
                f"at iteration {it}"
            )
        history.append(sol.objective)
        duals = extract_duals(inst, sol.lp, variant.no_repeat)
        new_cols: list[frozenset[int]] = []
        for j in range(inst.m):
            sub = SubproblemInstance.from_duals(inst, j, duals, tables[j])
            start = time.perf_counter()
            S, value = oracle.solve(sub)
            pricing_s.append(time.perf_counter() - start)
            if value <= duals.beta[j] + TOL_RC or not S:
                continue
            if S not in have:
                new_cols.append(S)
                continue
            # an included at-cap column shadows the oracle's view
            if enumerable:
                S2, v2 = subproblem_bruteforce(sub, exclude=have)
                if v2 > duals.beta[j] + TOL_RC and S2:
                    new_cols.append(S2)
            else:
                warns.append(
                    f"type {j}: pricing maximizer already in the master at its cap; "
                    "termination certificate degraded (family not enumerable)"
                )
        if not new_cols:
            per_iteration.append(0)
            return ColgenResult(sol, it, added, family_size, duals, history, warns,
                                pricing_s, per_iteration)
        before = len(added)
        for S in new_cols:
            if S not in have:
                restricted.append(S)
                have.add(S)
                added.append(S)
        per_iteration.append(len(added) - before)
    raise RuntimeError("column generation exceeded its iteration bound")
