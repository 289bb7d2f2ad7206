"""Builders translating an instance into each of its LP relaxations.

All variants share one matrix layout: one column per (customer type,
assortment) pair, ordered type-major with assortments in lexicographic
order; rows are inventory (one per item, right-hand side equal to its
stock), sell-at-most-one and patience (one per type), and, for the
no-repeat variants, one overlap row per (type, product).  Rows carry tags
so dual values are retrievable by semantic name.

Builders are pure functions and safe to call concurrently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

import numpy as np

from . import lpcore
# build prices its sets with family_probs and calls no choice_prob; the name
# stays bound only because perfbench/test_perfbench.py lists this module among
# those whose choice_prob copy its tracer rebinds.
from .model import CustomerType, Instance, choice_prob, family_probs, slot_sums, validate  # noqa: F401

INT_TOL = 1e-9

__all__ = [
    "McdlpVariant",
    "McdlpSolution",
    "MonteCarloEstimate",
    "RevenueSamples",
    "Verdict",
    "build",
    "solve_variant",
    "integralize",
    "verify_policy_upper_bound",
]


class McdlpVariant(Enum):
    SINGLE_ITEM = "single-item"
    MCDLP_R = "mcdlp-r"
    MCDLP_NR = "mcdlp-nr"
    MCDLP_NRS = "mcdlp-nrs"
    MMCDLP_NR = "mmcdlp-nr"

    @property
    def no_repeat(self) -> bool:
        return self in (McdlpVariant.MCDLP_NR, McdlpVariant.MCDLP_NRS, McdlpVariant.MMCDLP_NR)


@dataclass(frozen=True)
class McdlpSolution:
    """Optimal fractional plan: per-type weights over assortments."""

    variant: McdlpVariant
    objective: float
    assortments: tuple[frozenset[int], ...]
    plan: tuple[dict, ...]              # per type: {assortment: weight > 0}
    lp: lpcore.LpSolution

    def support(self, j: int) -> list[tuple[frozenset[int], float]]:
        """Type j's (set, weight) pairs of weight above 1e-12 with a non-empty
        set, sorted by the set's members: the sets the online policies offer."""
        return [(S, v) for S, v in sorted(self.plan[j].items(), key=lambda kv: tuple(sorted(kv[0])))
                if v > 1e-12 and len(S) > 0]

    def single_item_plan(self, n_products: int) -> np.ndarray:
        """x[j, i] for matching instances (singleton assortments)."""
        m = len(self.plan)
        x = np.zeros((m, n_products))
        for j in range(m):
            for S, v in self.plan[j].items():
                if len(S) == 1:
                    (i,) = tuple(S)
                    x[j, i] = v
        return x


def _patience_rhs(ct: CustomerType) -> float:
    """Patience cap; non-deterministic patience uses its expectation 1/p_out."""
    if ct.patience is not None:
        return float(ct.patience)
    return 1.0 / ct.leave_prob


def _check_preconditions(inst: Instance, variant: McdlpVariant) -> None:
    if variant == McdlpVariant.SINGLE_ITEM:
        if not inst.family.is_singleton_family(inst.n_products):
            raise ValueError("single-item LP requires the family {S: |S| <= 1}")
    if variant == McdlpVariant.MCDLP_NR:
        rates = [ct.total_rate(inst.T) for ct in inst.types]
        if any(abs(r - round(r)) > 1e-6 for r in rates):
            raise ValueError(
                "MCDLP-NR requires integral arrival rates; integralize() the instance "
                "or use the homogeneous-revenue NRS variant"
            )
    if variant == McdlpVariant.MCDLP_NRS:
        base = inst.types[0].revenues
        for ct in inst.types[1:]:
            if any(abs(a - b) > INT_TOL for a, b in zip(ct.revenues, base)):
                raise ValueError("MCDLP-NRS requires homogeneous revenues r_ij = r_i")
    if variant == McdlpVariant.MMCDLP_NR and inst.price_levels < 2:
        raise ValueError("MMCDLP-NR requires at least two price levels")


def build(
    inst: Instance,
    variant: McdlpVariant,
    assortments: Sequence[frozenset[int]] | None = None,
    colgen_master: bool = False,
) -> lpcore.LpModel:
    """Emit the LP for ``variant``; ``assortments`` restricts the columns
    (used by column generation), defaulting to the whole enumerated family.

    With ``colgen_master`` the per-variable caps move out of the bound vector:
    variables get a slack bound that can never bind (the patience row binds
    first), and the variants whose formulation really caps x at 1 (repeated
    offers, single-item) carry explicit ("xcap", j, k) rows instead.  Pricing
    then sees every dual it needs; a nonbasic-at-bound column would otherwise
    hide its reduced cost in a bound dual invisible to the subproblem.
    """
    _check_preconditions(inst, variant)
    fam = tuple(assortments) if assortments is not None else inst.family.assortments(inst.n_products)
    m = inst.m
    n_items = inst.n_items
    F = len(fam)
    Q = [ct.total_rate(inst.T) for ct in inst.types]
    item_of = np.array([p.item if 0 <= p.item < n_items else n_items for p in inst.products] + [n_items])

    nvars = m * F
    var = lambda j, k: j * F + k
    nonzeros = lambda a, j: list(zip((j * F + np.flatnonzero(a)).tolist(), a[a != 0].tolist()))
    objective: list[float] = []
    upper = [1.0] * nvars

    # every coefficient is a slot-by-slot sum from 0.0 over the set's members
    # in frozenset order, as a row-by-row build's ``sum`` adds them
    inventory: list[list[tuple[int, float]]] = [[] for _ in range(n_items)]
    sell_one: list[list[tuple[int, float]]] = []
    for j, ct in enumerate(inst.types):
        members, probs = family_probs(ct.choice, fam, inst.n_products)
        objective += (Q[j] * slot_sums(np.append(ct.revenues, 0.0)[members] * probs)).tolist()
        by_item = np.zeros((n_items + 1, F))  # row n_items takes padding and itemless products
        np.add.at(by_item, (item_of[members], np.arange(F)[:, None]), probs)  # in slot order
        for item, coeffs in enumerate(Q[j] * by_item[:n_items]):
            inventory[item] += nonzeros(coeffs, j)
        sell_one.append(nonzeros(slot_sums(probs), j))

    rows: list[tuple[list[tuple[int, float]], float, lpcore.RowTag]] = [
        (inventory[item], float(inst.items[item].inventory), ("inventory", item)) for item in range(n_items)
    ]
    rows += [(sell_one[j], 1.0, ("sell_one", j)) for j in range(m)]
    for j in range(m):
        coeffs = [(var(j, k), 1.0) for k in range(F)]
        rows.append((coeffs, _patience_rhs(inst.types[j]), ("patience", j)))
    if variant.no_repeat:
        holders = [[k for k, S in enumerate(fam) if prod in S] for prod in range(inst.n_products)]
        for j in range(m):
            for prod in range(inst.n_products):
                rows.append(([(var(j, k), 1.0) for k in holders[prod]], 1.0, ("overlap", j, prod)))

    caps_are_real = variant in (McdlpVariant.SINGLE_ITEM, McdlpVariant.MCDLP_R)
    if variant == McdlpVariant.SINGLE_ITEM:
        # aggregated copies of a multi-unit item admit weights up to the stock
        for j in range(m):
            for k, S in enumerate(fam):
                if len(S) == 1:
                    (i,) = tuple(S)
                    upper[var(j, k)] = float(inst.items[inst.products[i].item].inventory)

    if colgen_master:
        if caps_are_real:
            for j in range(m):
                for k in range(F):
                    rows.append(([(var(j, k), 1.0)], upper[var(j, k)], ("xcap", j, k)))
        for j in range(m):
            slack = 2.0 * _patience_rhs(inst.types[j]) + 2.0
            for k in range(F):
                upper[var(j, k)] = slack

    return lpcore.LpModel.build(objective, rows, upper)


def solve_variant(
    inst: Instance,
    variant: McdlpVariant,
    assortments: Sequence[frozenset[int]] | None = None,
    colgen_master: bool = False,
) -> McdlpSolution:
    """Build and solve ``variant``; raises ``InvalidInstanceError`` on an
    instance that fails ``validate``."""
    validate(inst).require()
    fam = tuple(assortments) if assortments is not None else inst.family.assortments(inst.n_products)
    model = build(inst, variant, fam, colgen_master=colgen_master)
    sol = lpcore.solve(model)
    if not sol.optimal:
        raise lpcore.LpError(f"MCDLP solve returned status {sol.status}")
    F = len(fam)
    plan = tuple(
        {fam[k]: sol.x[j * F + k] for k in range(F) if sol.x[j * F + k] > 1e-12}
        for j in range(inst.m)
    )
    return McdlpSolution(variant, sol.objective, fam, plan, sol)


def integralize(inst: Instance) -> Instance:
    """Split types until every type has unit expected arrivals (T q_j = 1).

    Mirrors the integral-arrival normalization: requires stationary arrivals
    with integral per-type rates; the result has q_j = 1/T for every type.
    """
    if not inst.stationary:
        raise ValueError("integralize requires stationary arrival probabilities")
    new_types: list[CustomerType] = []
    for ct in inst.types:
        rate = ct.total_rate(inst.T)
        copies = round(rate)
        if abs(rate - copies) > 1e-6:
            raise ValueError(f"type {ct.id}: arrival rate {rate} is not integral")
        for _ in range(copies):
            new_types.append(replace(ct, id=len(new_types), arrival=1.0 / inst.T))
    return replace(inst, types=tuple(new_types))


@dataclass(frozen=True)
class MonteCarloEstimate:
    mean: float
    std_error: float
    count: int

    @staticmethod
    def from_samples(samples) -> "MonteCarloEstimate":
        arr = np.asarray(samples, dtype=float)
        se = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
        return MonteCarloEstimate(float(arr.mean()), se, len(arr))


class RevenueSamples:
    """Mean revenue and its standard error for a result with per-replica ``revenues``."""

    def estimate(self) -> MonteCarloEstimate:
        return MonteCarloEstimate.from_samples(self.revenues)

    @property
    def revenue_mean(self) -> float:
        return self.estimate().mean

    @property
    def revenue_se(self) -> float:
        return self.estimate().std_error


@dataclass(frozen=True)
class Verdict:
    consistent: bool
    margin: float  # opt + 3 se - mean; negative means the bound is violated

    def __bool__(self) -> bool:
        return self.consistent


def verify_policy_upper_bound(
    inst: Instance, mcdlp_opt: float, empirical_revenue: MonteCarloEstimate
) -> Verdict:
    """Sanity oracle: any policy's mean revenue must stay below the LP optimum.

    Consistent iff mean <= OPT + 3 standard errors.
    """
    margin = mcdlp_opt + 3.0 * empirical_revenue.std_error - empirical_revenue.mean
    return Verdict(consistent=margin >= 0.0, margin=margin)
