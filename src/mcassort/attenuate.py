"""Availability schedule and the attenuated online policies.

The schedule gamma_1 = 1, gamma_{t+1} = gamma_t - (1 - e^{-gamma_t})/T pins
the probability that each item is available at the start of every time-step.
The online policies run the offline black-box each step, then damp two knobs
with Monte-Carlo-estimated attenuation factors: an edge factor per coin
forcing its realized sale rate onto (1 - e^{-gamma_t}) times its planned
rate, and a vertex factor retiring surviving items so availability lands
exactly on gamma_{t+1}.

Both policies run on one engine.  A coin is a support set of an arriving
type's plan; algorithm 6 (repeated-offer assortments) flips its MNL or
tabular assortments, and algorithm 1 (matching with timeouts) is the case
where every set is a singleton, one per item.  The engine lays the coins out
as padded (type, set, slot) arrays, strips sold-out items from every set,
flips all arriving types in one vectorized black-box pass per step, and
shares one factor-estimation loop and one evaluation loop between the two.

Factors are estimated on one ensemble of ``mc_budget`` replicas carried
through the horizon, each step's factors set on the ensemble that the earlier
ones produced: T times the budget in replica-steps.  Each step draws from its
own generator stream derived from the seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import mcdlp
from .blackbox import CASE_NONE, CASE_SMALL, batch_flip, certified_case
from .mcdlp import RevenueSamples
from .model import Instance, Mnl, choice_prob, family_probs, slot_sums, validate
from .rounding import _fold_last
from .trace import check_replicas, check_seed

__all__ = [
    "GammaSchedule",
    "gamma_schedule",
    "h_limit",
    "AttenuationFactors",
    "AttenuationRunResult",
    "compute_attenuation_factors",
    "run_algorithm1",
    "run_algorithm6",
]

_EPS = 1e-12
_CHUNK = 100_000      # evaluation replicas simulated at once
_MAX_ROWS = 16_000    # rows per stacked offer-estimation pass


def h_limit(z: float) -> float:
    """Limit availability curve h(z) = ln((e-1) e^{-z} + 1); h(1) = ln(2 - 1/e)."""
    return math.log((math.e - 1.0) * math.exp(-z) + 1.0)


@dataclass(frozen=True)
class GammaSchedule:
    """gamma_1..gamma_{T+1} plus the horizon-average offer rate."""

    T: int
    values: tuple[float, ...]

    def gamma(self, t: int) -> float:
        """gamma_t for t in 1..T+1."""
        return self.values[t - 1]

    @property
    def ratio(self) -> float:
        """(1/T) sum_t (1 - e^{-gamma_t}); telescopes to gamma_1 - gamma_{T+1}."""
        return sum(1.0 - math.exp(-g) for g in self.values[:-1]) / self.T


def gamma_schedule(T: int) -> GammaSchedule:
    if T < 1:
        raise ValueError("T must be at least 1")
    vals = [1.0]
    g = 1.0
    for _ in range(T):
        g = g - (1.0 - math.exp(-g)) / T
        vals.append(g)
    if vals[0] != 1.0:
        raise RuntimeError(f"gamma_1 must be 1, got {vals[0]!r}")
    if not all(b < a for a, b in zip(vals, vals[1:])):
        raise RuntimeError("gamma must be strictly decreasing")
    if not 0.0 < vals[-1] <= h_limit(1.0) + 1e-12:
        raise RuntimeError(f"gamma_{{T+1}} = {vals[-1]!r} must be positive and must not exceed h(1)")
    return GammaSchedule(T, tuple(vals))


@dataclass
class AttenuationFactors:
    """Edge and vertex damping factors plus the estimation error budget.

    ``edge`` is indexed (t, type, set, slot).  For matching the sets are the
    n singletons in item order, so ``edge[t, j, i, 0]`` belongs to item i; a
    (T, m, n) array is accepted there too.
    """

    edge: np.ndarray          # (T, m, K, L)
    vertex: np.ndarray        # (T, n)
    surv_rel_var: np.ndarray  # (T, n): per-step relative variance of survival estimates
    mc_budget: int
    diagnostics: list[str] = field(default_factory=list)
    # (T+1, n): the estimation ensemble's mean availability at the start of
    # t = 1..T+1; empty for factors that were not estimated
    ensemble_avail: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))


class _Coins(NamedTuple):
    """Each row's coins, stripped to the items still available in that row."""

    types: np.ndarray   # (B,)
    av: np.ndarray      # (B, K, L) slot item available
    denom: np.ndarray | None  # (B, K) stripped choice denominator (1 outside MNL); None for matching
    mass: np.ndarray    # (B, K) heads probability of each coin (read where weight > 0)
    weight: np.ndarray  # (B, K) plan weight, 0 when no item of the set is left


class _Kernel:
    """Vectorized simulation of either attenuated policy.

    Each type's coins are its support sets, padded into (type, set, slot)
    arrays whose slots hold item indices; a padding slot repeats its set's
    first item with choice weight 0.  ``family`` holds the sets the certified
    case is judged on.
    """

    def __init__(self, inst: Instance, policy: str, sets: list[list[frozenset[int]]],
                 weights, family, allow_uncertified: bool):
        if not inst.stationary:
            raise ValueError(f"{policy} assumes stationary arrival probabilities")
        if not inst.unit_inventory:
            raise ValueError("split_inventory() the instance first: unit stocks required")
        if any(ct.patience is None for ct in inst.types):
            raise ValueError(f"{policy} needs deterministic patience levels")
        n, m = inst.n_products, inst.m
        self.n, self.m, self.T = n, m, inst.T
        self.sets = sets
        self.choices = [ct.choice for ct in inst.types]
        self.cum_q = np.cumsum([inst.q(0, j) for j in range(m)])
        self.ell = np.array([ct.patience for ct in inst.types], dtype=np.int64)
        self.r = np.array([ct.revenues for ct in inst.types], dtype=float)
        K = max(1, max(len(s) for s in sets))
        L = max([1] + [len(S) for s in sets for S in s])
        self.K, self.L = K, L
        self.items = np.zeros((m, K, L), dtype=np.intp)
        self.slot_ok = np.zeros((m, K, L), dtype=bool)
        self.p_full = np.zeros((m, K, L))   # p_j(i, S) on the full set
        self.weights = np.zeros((m, K))
        # stripped choice probability = pw * available / denom, where MNL
        # types use their item weights over v0 plus the stripped weight sum
        # and the others p_j(i, S) over 1 (exact for singletons and for
        # set-independent item probabilities); any other model with a
        # multi-item set is evaluated row by row ("general")
        self.pw = np.zeros((m, K, L))
        v0 = np.zeros(m)
        self.mnl = np.zeros(m, dtype=bool)
        self.general = np.zeros(m, dtype=bool)
        for j, choice in enumerate(self.choices):
            for k, S in enumerate(sets[j]):
                order = sorted(S)
                self.items[j, k] = order[0]
                self.items[j, k, : len(order)] = order
                self.slot_ok[j, k, : len(order)] = True
                self.p_full[j, k, : len(order)] = [choice_prob(choice, i, S) for i in order]
            self.weights[j, : len(sets[j])] = weights[j]
            if isinstance(choice, Mnl):
                self.mnl[j] = True
                v0[j] = choice.no_purchase
                self.pw[j] = np.where(self.slot_ok[j], np.asarray(choice.weights)[self.items[j]], 0.0)
            else:
                self.pw[j] = self.p_full[j]
                self.general[j] = any(len(S) > 1 for S in sets[j]) and not choice.set_independent
        masses = slot_sums(family_probs(self.choices, [S for S in family if S], n)[1]).tolist()
        self.case = [certified_case(mass, int(ct.patience)) for mass, ct in zip(masses, inst.types)]
        self.denom0 = np.where(self.mnl, v0, 1.0)
        self.small = np.array([c == CASE_SMALL for c in self.case])
        uncertified = [j for j, c in enumerate(self.case) if c == CASE_NONE]
        if uncertified and not allow_uncertified:
            raise ValueError(
                f"hypothesis violated for types {uncertified}: need coin masses summing to "
                "at most 1 or patience covering every coin "
                "(pass allow_uncertified=True to run without a guarantee)"
            )
        self.identity = L == 1 and K == n and bool((self.items[:, :, 0] == np.arange(n)).all())
        self.sells = self.slot_ok & (self.p_full > 0)

    def draw_types(self, B: int, rng: np.random.Generator) -> np.ndarray:
        return np.searchsorted(self.cum_q, rng.random(B), side="right")  # == m: no arrival

    def _coins(self, avail: np.ndarray, types: np.ndarray) -> _Coins:
        if self.identity:  # set k is {k}: nothing to gather, a singleton keeps p_j(k, {k})
            weight = self.weights.take(types, axis=0)
            weight *= avail
            return _Coins(types, avail[:, :, None], None, self.p_full[:, :, 0].take(types, axis=0), weight)
        flat = self.items.reshape(self.m, -1).take(types, axis=0) + np.arange(len(types))[:, None] * self.n
        av = avail.take(flat).reshape(-1, self.K, self.L)  # a gather from avail's flat rows
        v = np.einsum("bkl,bkl->bk", self.pw.take(types, axis=0), av)
        denom = self.denom0[types][:, None] + self.mnl[types][:, None] * v
        mass = np.divide(v, denom, out=np.zeros_like(v), where=denom > 0)
        weight = self.weights.take(types, axis=0)
        weight *= _fold_last(np.logical_or, av, False)
        c = _Coins(types, av, denom, mass, weight)
        general = np.nonzero(self.general[types])[0]
        mass[general] = self._general_mass(c, general)
        return c

    def _general_mass(self, c: _Coins, rows: np.ndarray) -> np.ndarray:
        """Set masses of rows whose model has no closed form; numpy's slot sum keeps their order."""
        return self.stripped_probs(c, rows).sum(axis=2)

    def stripped_probs(self, c: _Coins, rows: np.ndarray, k: np.ndarray | None = None) -> np.ndarray:
        """p_j(i, stripped S) for every (set, slot) of row ``rows[w]``, shape
        (len(rows), K, L); 0 on unavailable and padding slots.  Given ``k``,
        only set ``k[w]`` of each row, shape (len(rows), L)."""
        types = c.types[rows]
        at = (rows,) if k is None else (rows, k)
        val = self.pw[(types,) + at[1:]]
        val *= c.av[at]
        val /= c.denom[at][..., None]
        for w in np.nonzero(self.general[types])[0]:  # no closed form: row by row
            val[w] = self._general_probs(types[w], c.av[rows[w]])[() if k is None else k[w]]
        return val

    def _general_probs(self, j: int, av: np.ndarray) -> np.ndarray:
        val = np.zeros((self.K, self.L))
        for k in range(len(self.sets[j])):
            slots = np.nonzero(av[k] & self.slot_ok[j, k])[0]
            stripped = frozenset(self.items[j, k, slots].tolist())
            for slot in slots:
                val[k, slot] = choice_prob(self.choices[j], int(self.items[j, k, slot]), stripped)
        return val

    def flip(self, avail: np.ndarray, types: np.ndarray, rng: np.random.Generator,
             arrived: np.ndarray | None = None):
        """One black-box pass over every row; rows outside ``arrived`` have no coins.

        Returns (coins, flipped (B,K), winning set per row or -1).
        """
        c = self._coins(avail, types)
        if arrived is not None:
            c.weight[~arrived] = 0.0
        flipped, winner = batch_flip(c.mass, c.weight, self.ell[types], self.small[types], rng)
        return c, flipped, winner

    def draw_slot(self, c: _Coins, rows: np.ndarray, k: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
        """The bought slot of set ``k[w]`` in row ``rows[w]``, given a sale."""
        if self.L == 1:
            return np.zeros(len(rows), dtype=np.intp)
        cum = self.stripped_probs(c, rows, k).cumsum(axis=1)
        u = rng.random(len(rows)) * cum[:, -1]
        return (cum > u[:, None]).argmax(axis=1)

    def advance(
        self,
        avail: np.ndarray,
        edge_t: np.ndarray,
        vertex_t: np.ndarray,
        rng: np.random.Generator,
        accept_out: np.ndarray | None = None,
        revenue_out: np.ndarray | None = None,
    ) -> None:
        """One time-step for every replica row in ``avail`` (modified in place)."""
        types = self.draw_types(avail.shape[0], rng)
        arrived = types < self.m
        c, _, winner = self.flip(avail, np.where(arrived, types, 0), rng, arrived)
        won = np.nonzero(winner >= 0)[0]
        if won.size:
            w_types, k = c.types[won], winner[won]
            slot = self.draw_slot(c, won, k, rng)
            keep = rng.random(won.size) < edge_t[w_types, k, slot]
            s_rows, s_types = won[keep], w_types[keep]
            s_items = self.items[s_types, k[keep], slot[keep]]
            avail[s_rows, s_items] = False
            if accept_out is not None:
                np.add.at(accept_out, (s_types, s_items), 1)
            if revenue_out is not None:
                revenue_out[s_rows] += self.r[s_types, s_items]
        # vertex attenuation retires surviving items independently
        avail &= rng.random(avail.shape) < vertex_t[None, :]

    def edge_factors(self, factors: AttenuationFactors) -> np.ndarray:
        return np.reshape(factors.edge, (self.T, self.m, self.K, self.L))

    def offer_estimates(self, avail: np.ndarray,
                        rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Pre-attenuation expected sales per (type, set, slot), relative to p_j(i, S).

        Each type is forced against the whole availability ensemble (types
        are stacked into blocks so one vectorized pass covers many types).
        A row tallies flipped x p_j(i, stripped S) / p_j(i, S), so for
        matching this is the flip frequency of the item.  Returns the mean
        tally and its standard error (from the tally's second moment).
        Types without coins are skipped.
        """
        B, K, L = avail.shape[0], self.K, self.L
        mean = np.zeros((self.m, K, L))
        sq = np.zeros((self.m, K, L))  # mean squared tally
        active = np.array([j for j in range(self.m) if self.sets[j]], dtype=np.intp)
        per_block = max(1, _MAX_ROWS // max(B, 1))
        for start in range(0, len(active), per_block):
            block = active[start : start + per_block]
            R = len(block)
            c, flipped, _ = self.flip(np.tile(avail, (R, 1)), np.repeat(block, B), rng)
            if L == 1:  # a flipped singleton is available and keeps its choice probability
                mean[block] = sq[block] = flipped.reshape(R, B, K, 1).mean(axis=1)
            else:
                sold = self.stripped_probs(c, np.arange(R * B))
                sold *= flipped[:, :, None]
                sold = sold.reshape(R, B, K, L)
                # p_j(i, S) is fixed per type, so it divides the row sums
                inv = np.divide(1.0, self.p_full[block], out=np.zeros((R, K, L)), where=self.sells[block])
                mean[block] = np.einsum("rbkl->rkl", sold) * inv / B
                sq[block] = np.einsum("rbkl,rbkl->rkl", sold, sold) * (inv * inv) / B
                del sold
            del c, flipped  # free this block's rows before the next block is drawn
        return mean, np.sqrt(np.maximum(sq - mean * mean, 0.0) / B)


def _estimate_factors(kern: _Kernel, mc_budget: int, streams) -> AttenuationFactors:
    """Edge and vertex factors for every step on one carried ensemble of ``mc_budget`` rows.

    At step t (stream ``streams[t-1]``) offer estimates on the ensemble set the
    edge factors, its survival through t sets the vertex factors, and retiring
    its survivors by those makes it step t+1's prefix.  Targets exceeding their
    estimate by more than two standard errors are recorded as diagnostics (the
    factor clamps to 1 rather than aborting).
    """
    if mc_budget < 1:
        raise ValueError("mc_budget must be positive")
    T, m, n = kern.T, kern.m, kern.n
    sched = gamma_schedule(T)
    edge = np.ones((T, m, kern.K, kern.L))
    vertex = np.ones((T, n))
    surv_rel_var = np.zeros((T, n))
    diags: list[str] = []
    B = mc_budget
    avail = np.ones((B, n), dtype=bool)
    ensemble_avail = np.ones((T + 1, n))
    for t in range(1, T + 1):
        rng = np.random.default_rng(streams[t - 1])
        est, se = kern.offer_estimates(avail, rng)
        scale = 1.0 - math.exp(-sched.gamma(t))
        target = np.broadcast_to((kern.weights * scale)[:, :, None], est.shape)
        ratio = np.where(est > 0, target / np.maximum(est, _EPS), 1.0)
        over = (target > est + 2 * se + _EPS) & (target > 0) & kern.sells
        for j, k, slot in zip(*np.nonzero(over)):
            S = kern.sets[j][k]
            coin = f"item={int(kern.items[j, k, slot])}" + (f" set={sorted(S)}" if len(S) > 1 else "")
            diags.append(
                f"t={t} type={j} {coin}: offer target {target[j, k, slot]:.4f} exceeds "
                f"estimate {est[j, k, slot]:.4f} + 2se"
            )
        edge[t - 1] = np.clip(ratio, 0.0, 1.0)
        # survival through step t under the freshly set edge factors
        kern.advance(avail, edge[t - 1], np.ones(n), rng)
        p_surv = avail.mean(axis=0)
        g_next = sched.gamma(t + 1)
        se = np.sqrt(np.maximum(p_surv * (1 - p_surv), 0.0) / B)
        over = g_next > p_surv + 2 * se + _EPS
        for i in np.nonzero(over)[0]:
            diags.append(
                f"t={t} item={int(i)}: availability target {g_next:.4f} exceeds "
                f"survival estimate {p_surv[i]:.4f} + 2se"
            )
        vertex[t - 1] = np.clip(g_next / np.maximum(p_surv, _EPS), 0.0, 1.0)
        surv_rel_var[t - 1] = np.where(p_surv > 0, (1 - p_surv) / np.maximum(p_surv * B, _EPS), 0.0)
        avail &= rng.random(avail.shape) < vertex[t - 1]
        ensemble_avail[t] = avail.mean(axis=0)
    return AttenuationFactors(edge, vertex, surv_rel_var, mc_budget, diags, ensemble_avail)


@dataclass
class AttenuationRunResult(RevenueSamples):
    """Aggregate outcome of an attenuated run over many replicas."""

    schedule: GammaSchedule
    factors: AttenuationFactors
    replicas: int
    revenues: np.ndarray          # (replicas,)
    avail_freq: np.ndarray        # (T+1, n): availability at the start of t = 1..T+1
    accept_freq: np.ndarray       # (T, m, n): realized sale frequency per (type, item)

    def avail_sigma(self, t: int) -> np.ndarray:
        """Std budget for |avail_freq(t) - gamma_t|: eval noise plus factor noise.

        The vertex factors are estimated from finite samples, so availability
        performs a multiplicative random walk around gamma_t; the per-step
        relative variances accumulated in the factor pass quantify it.  The sum
        is conservative, as each vertex factor pulls the carried estimation
        ensemble back onto gamma (hardness-14, budget 2000: terminal sd 0.029
        predicted, 0.0053 observed).
        """
        freq = self.avail_freq[t - 1]
        eval_var = freq * (1 - freq) / self.replicas
        g = self.schedule.gamma(t)
        sched_var = (g ** 2) * self.factors.surv_rel_var[: t - 1].sum(axis=0)
        return np.sqrt(eval_var + sched_var)


def _evaluate(kern: _Kernel, factors: AttenuationFactors, replicas: int,
              rng: np.random.Generator) -> AttenuationRunResult:
    """Run the attenuated policy on ``replicas`` fresh horizons."""
    T, n, m = kern.T, kern.n, kern.m
    edge = kern.edge_factors(factors)
    revenues = np.zeros(replicas)
    avail_counts = np.zeros((T + 1, n))
    accept_counts = np.zeros((T, m, n))
    for start in range(0, replicas, _CHUNK):
        rev = revenues[start : start + _CHUNK]
        avail = np.ones((len(rev), n), dtype=bool)
        for t in range(1, T + 1):
            avail_counts[t - 1] += avail.sum(axis=0)
            kern.advance(
                avail, edge[t - 1], factors.vertex[t - 1], rng,
                accept_out=accept_counts[t - 1], revenue_out=rev,
            )
        avail_counts[T] += avail.sum(axis=0)
    return AttenuationRunResult(
        schedule=gamma_schedule(T),
        factors=factors,
        replicas=replicas,
        revenues=revenues,
        avail_freq=avail_counts / replicas,
        accept_freq=accept_counts / replicas,
    )


# ---------------------------------------------------------------------------
# Single-item case (online stochastic matching with timeouts), Algorithm 1.


def _as_plan_array(inst: Instance, plan) -> np.ndarray:
    if isinstance(plan, mcdlp.McdlpSolution):
        return plan.single_item_plan(inst.n_products)
    return np.asarray(plan, dtype=float)


def _matching_kernel(inst: Instance, plan, allow_uncertified: bool) -> _Kernel:
    """The n singletons in item order, zero weights included, for every type."""
    if not inst.family.is_singleton_family(inst.n_products):
        raise ValueError("algorithm 1 needs a matching instance (|S| <= 1 assortments)")
    x = _as_plan_array(inst, plan)
    if x.shape != (inst.m, inst.n_products):
        raise ValueError(f"plan must have shape {(inst.m, inst.n_products)}")
    validate(inst).require()
    singletons = [frozenset({i}) for i in range(inst.n_products)]
    return _Kernel(inst, "algorithm 1", [singletons] * inst.m, x, singletons, allow_uncertified)


def compute_attenuation_factors(
    inst: Instance,
    plan,
    mc_budget: int = 2000,
    seed: int = 0,
    allow_uncertified: bool = False,
) -> AttenuationFactors:
    """Estimate algorithm 1's edge and vertex factors for every step."""
    check_seed(seed)
    kern = _matching_kernel(inst, plan, allow_uncertified)
    return _estimate_factors(kern, mc_budget, np.random.SeedSequence(seed).spawn(kern.T))


def run_algorithm1(
    inst: Instance,
    plan,
    mc_budget: int = 2000,
    replicas: int = 10_000,
    seed: int = 0,
    factors: AttenuationFactors | None = None,
    allow_uncertified: bool = False,
) -> AttenuationRunResult:
    """Attenuated online policy for matching with timeouts.

    Computes attenuation factors (unless supplied) and evaluates the policy on
    ``replicas`` fresh horizons, tracking availability, sales and revenue.
    """
    check_replicas(replicas)
    check_seed(seed)
    kern = _matching_kernel(inst, plan, allow_uncertified)
    if factors is None:
        factor_seed = seed * 2_654_435_761 % (2**31) + 1
        factors = _estimate_factors(kern, mc_budget, np.random.SeedSequence(factor_seed).spawn(kern.T))
    return _evaluate(kern, factors, replicas, np.random.default_rng(np.random.SeedSequence(seed)))


# ---------------------------------------------------------------------------
# Assortment case with repeated offerings allowed, Algorithm 6.


def _assortment_kernel(inst: Instance, solution: mcdlp.McdlpSolution, allow_uncertified: bool) -> _Kernel:
    """Each type's support sets (``McdlpSolution.support``) are its coins."""
    if not inst.repeated_offers_allowed:
        raise ValueError("algorithm 6 needs repeated_offers_allowed")
    if inst.price_levels != 1:
        raise ValueError("algorithm 6 runs on single-price instances")
    mcdlp._check_plan_fits(solution, inst)
    support = [solution.support(j) for j in range(inst.m)]
    return _Kernel(inst, "algorithm 6", [[S for S, _ in s] for s in support],
                   [[v for _, v in s] for s in support], solution.assortments, allow_uncertified)


def run_algorithm6(
    inst: Instance,
    solution: mcdlp.McdlpSolution,
    mc_budget: int = 2000,
    replicas: int = 10_000,
    seed: int = 0,
    allow_uncertified: bool = False,
) -> tuple[AttenuationRunResult, AttenuationFactors]:
    """Attenuated online policy offering assortments with repeats allowed.

    Sold-out items are stripped from every positive-weight assortment before
    the black-box runs; edge attenuation acts per (type, assortment, item).
    Returns the aggregate run result plus its factors (``result.factors``);
    ``accept_freq`` is indexed (t, type, item) with sales summed over
    assortments.
    """
    if solution.variant not in (mcdlp.McdlpVariant.MCDLP_R, mcdlp.McdlpVariant.SINGLE_ITEM):
        raise ValueError("algorithm 6 rounds an MCDLP-R (or single-item) plan")
    check_replicas(replicas)
    check_seed(seed)
    validate(inst).require()
    kern = _assortment_kernel(inst, solution, allow_uncertified)
    streams = np.random.SeedSequence(seed).spawn(kern.T + 1)
    factors = _estimate_factors(kern, mc_budget, streams)
    result = _evaluate(kern, factors, replicas, np.random.default_rng(streams[kern.T]))
    return result, factors
