"""Experiment engine: benchmark policies, special instances, MNL fitting, sweeps.

Everything stochastic takes an explicit seed and derives child streams from
it, so a sweep with the same spec and seed reproduces its CSV byte for byte.
The serving simulators run all replicas of a call together, in row blocks
of ``trace.BLOCK_ROWS`` (``trace.serve_batches``), and aggregate by plain
means and standard errors.
"""
from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import lpcore, mcdlp, norepeat
from .mcdlp import McdlpVariant, MonteCarloEstimate, RevenueSamples
# choice_prob is unused here but stays bound: perfbench's tracer rebinds it in every importer
from .model import (  # noqa: F401
    AssortmentFamily,
    CustomerType,
    Instance,
    Item,
    Mnl,
    Product,
    Tabular,
    choice_prob,
    family_probs,
    slot_sums,
    validate,
)
from .trace import PolicyTrace, RunSampler, check_replicas, check_seed, memo_lookup, record_step, serve_batches

__all__ = [
    "BenchmarkResult",
    "run_benchmark",
    "gen_hardness_instance",
    "hardness_sold_fraction",
    "gen_gap_instance",
    "gap_lp_formula_opt",
    "gap_analytic_ceiling",
    "gap_policy_sale_probability",
    "TransactionRecord",
    "mnl_loglik",
    "fit_mnl",
    "HotelTemplate",
    "gen_hotel_like",
    "build_hotel_instance",
    "SweepSpec",
    "run_sweep",
    "sweep_to_csv",
    "random_matching_instance",
    "random_norepeat_instance",
    "random_homog_instance",
]


# ---------------------------------------------------------------------------
# Benchmark policies: myopic expected-revenue greedy and its high-fare variant.


@dataclass
class BenchmarkResult(RevenueSamples):
    replicas: int
    revenues: np.ndarray
    item_sales: np.ndarray
    offers_made: np.ndarray                # (replicas,) displayed stages
    traces: list[PolicyTrace] = field(default_factory=list)


class _GreedyChooser:
    """Argmax of immediate expected revenue over feasible displays.

    The family's non-empty sets are listed once, in its lexicographic order,
    as (sorted set, bitmask) pairs; conservative mode leaves out every set
    with a product in ``low``, the bits below the highest price level.  Each
    listed set's expected revenue is computed once per type.  Ties break to
    the first set in family order, the empty set losing to any positive-value
    set.  It keeps no cache: ``run_benchmark``'s per-run memo asks it once per
    (type, candidate mask).
    """

    def __init__(self, inst: Instance, high_only: bool):
        if high_only and inst.price_levels < 2:
            raise ValueError("conservative policy needs at least two price levels")
        high = inst.price_levels - 1
        self.low = sum(1 << p.id for p in inst.products if p.level != high) if high_only else 0
        listed = ((tuple(sorted(S)), sum(1 << i for i in S)) for S in inst.family.assortments(inst.n_products))
        self.sets = [(S, bits) for S, bits in listed if S and not bits & self.low]
        self.values = self.revenues(inst.types, [frozenset(S) for S, _ in self.sets], inst.n_products)

    def choose(self, j: int, mask: int) -> tuple[tuple[int, ...], int]:
        """Best display for type ``j`` among the products whose bits are set
        in ``mask``, with its own bitmask."""
        best: tuple[tuple[int, ...], int] = ((), 0)
        best_val = 0.0
        for listed, val in zip(self.sets, self.values[j]):
            if not listed[1] & ~mask and val > best_val + 1e-12:
                best, best_val = listed, val
        if best[1] & self.low:
            raise RuntimeError(f"conservative greedy displayed low fares in {best[0]}")
        return best

    @staticmethod
    def revenues(types: tuple[CustomerType, ...], sets: list[frozenset[int]], n_products: int) -> list[list[float]]:
        """Each type's ``sum(r_i p(i, S))`` on each set, over its products in
        sorted order, with the floats of ``model.family_probs``."""
        members, probs = family_probs([ct.choice for ct in types], sets, n_products)
        terms = np.array([np.append(ct.revenues, 0.0) for ct in types])[:, members] * probs
        return slot_sums(np.take_along_axis(terms, np.argsort(members, axis=1)[None], axis=2)).tolist()


def run_benchmark(
    inst: Instance,
    policy: str,
    replicas: int,
    seed: int = 0,
    record_traces: int = 0,
) -> BenchmarkResult:
    """Simulate the greedy or conservative benchmark (no repeated displays).

    Every arriving customer sees stage after stage the chooser's best display
    among the displayable products in stock that she has not been shown,
    until she buys, runs out of patience or leaves, or nothing is left to
    show.  The replicas are served together (``trace.serve_batches``): each
    stage looks up every row's (type, candidate mask) in a per-run memo that
    asks the chooser on a miss.
    """
    if policy not in ("greedy", "conservative"):
        raise ValueError(f"unknown benchmark policy {policy!r}")
    check_replicas(replicas)
    check_seed(seed)
    validate(inst).require()
    chooser = _GreedyChooser(inst, high_only=(policy == "conservative"))
    displayable = np.array([not chooser.low >> i & 1 for i in range(inst.n_products)])
    sampler = RunSampler(inst)
    memo: dict[bytes, int] = {}  # (type, candidate mask) -> display index, -1 for none

    def best_display(j: int, cand: int) -> int:
        S, bits = chooser.choose(j, cand)
        return sampler.display(j, bits) if S else -1

    def step(rng, t, j, first, avail, traces):
        cand = avail & displayable
        stage = np.zeros(len(j), dtype=np.int64)
        bought = np.full(len(j), -1)
        act = np.arange(len(j))
        while act.size:
            shown = memo_lookup(memo, j[act], cand[act], best_display)
            act, shown = act[shown >= 0], shown[shown >= 0]
            if not act.size:
                break
            ja = j[act]
            stage[act] += 1
            choice = sampler.draw_purchases(shown, rng.random(act.size))
            cand[act] &= ~sampler.shown[shown]
            for q in range(np.searchsorted(act, len(traces))):
                record_step(traces[act[q]], inst, t, ja[q], stage[act[q]], sampler.offered[shown[q]], choice[q])
            sold = choice >= 0
            bought[act[sold]] = choice[sold]
            more = ~sold & (stage[act] < sampler.patience[ja])
            if sampler.leave.any():
                more &= rng.random(act.size) >= sampler.leave[ja]
            act = act[more]
        return bought, stage

    result = BenchmarkResult(
        replicas=replicas,
        revenues=np.zeros(replicas),
        item_sales=np.zeros(inst.n_items),
        offers_made=np.zeros(replicas),
    )
    serve_batches(inst, result, seed, record_traces, sampler, step)
    return result


# ---------------------------------------------------------------------------
# Special instances.


def gen_hardness_instance(n: int) -> Instance:
    """Symmetric matching instance: n items/types, p = 1/n, full patience.

    The LP packs x = 1 everywhere for an optimum of exactly n, while no online
    policy can sell more than a 1 - ln(2 - 1/e) fraction as n grows.
    """
    if n < 1:
        raise ValueError("n must be positive")
    types = tuple(
        CustomerType(
            id=j,
            arrival=1.0 / n,
            revenues=(1.0,) * n,
            choice=Tabular(entries={}, item_probs=(1.0 / n,) * n),
            patience=n,
        )
        for j in range(n)
    )
    return Instance.single_level(
        T=n,
        inventories=[1] * n,
        types=types,
        family=AssortmentFamily.size_capped(1),
        matching_with_timeouts=True,
    )


def hardness_sold_fraction(n: int, replicas: int, seed: int = 0) -> np.ndarray:
    """Offer-all policy on the hardness instance: per-replica sold fractions.

    Each step one customer arrives and sees every available item, so a sale
    happens with probability 1 - (1 - 1/n)^{N_t}; only the count N_t matters.
    """
    if n < 1:
        raise ValueError("n must be positive")
    check_replicas(replicas)
    check_seed(seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    N = np.full(replicas, n, dtype=np.int64)
    base = 1.0 - 1.0 / n
    for _ in range(n):
        sale_prob = 1.0 - base ** N
        N -= (rng.random(replicas) < sale_prob).astype(np.int64)
    return (n - N) / n


def gen_gap_instance(M: int) -> Instance:
    """Single-customer integrality-gap family: M base assortments, one shared
    item per pair, patience M/2, unit prices, constant choice probabilities.

    The explicit family lists only the bases (plus the empty set): the LP
    optimum over the full downward closure equals the optimum over the bases
    because the sell-at-most-one constraint caps the unit-price objective at 1
    and the half-weight solution on the bases attains it.
    """
    if M < 4 or M % 2 != 0:
        raise ValueError("M must be an even integer >= 4")
    pair_id: dict[tuple[int, int], int] = {}
    for a, b in itertools.combinations(range(M), 2):
        pair_id[(a, b)] = len(pair_id)
    n = len(pair_id)  # C(M, 2)
    bases = []
    for a in range(M):
        members = [pair_id[tuple(sorted((a, b)))] for b in range(M) if b != a]
        bases.append(frozenset(members))
    c = 2.0 / (M * (M - 1))
    ct = CustomerType(
        id=0,
        arrival=1.0,
        revenues=(1.0,) * n,
        choice=Tabular(entries={}, item_probs=(c,) * n),
        patience=M // 2,
    )
    return Instance.single_level(
        T=1,
        inventories=[1] * n,
        types=(ct,),
        family=AssortmentFamily.explicit(bases),
    )


def gap_lp_formula_opt(M: int) -> float:
    """Closed-form LP optimum of the gap family: x = 1/2 on every base gives
    M * (1/2) * (M-1) * 2/(M(M-1)) = 1, and the sell-one row caps it there."""
    return M * 0.5 * (M - 1) * (2.0 / (M * (M - 1)))


def gap_analytic_ceiling(M: int) -> float:
    """Upper bound on any policy's sale probability on the gap instance."""
    return 1.0 - math.exp(-3.0 * M * M / (4.0 * M * (M - 1))) + 1.0 / M


def gap_policy_sale_probability(M: int) -> float:
    """Exact sale probability of the natural sequential policy: offer each
    base in turn, stripped of items already shown, until patience runs out."""
    c = 2.0 / (M * (M - 1))
    prob_none = 1.0
    for k in range(M // 2):
        size = (M - 1) - k
        prob_none *= 1.0 - c * size
    return 1.0 - prob_none


# ---------------------------------------------------------------------------
# MNL maximum likelihood.

# gradient ascent stops when the sup-norm of the gradient reaches _FIT_TOL
_FIT_TOL = 1e-6
_FIT_MAX_ITER = 5000


@dataclass(frozen=True)
class TransactionRecord:
    features: tuple
    offered: frozenset[int]
    chosen: int | None  # None marks an observed no-purchase

    def __post_init__(self):
        if self.chosen is not None and self.chosen not in self.offered:
            raise ValueError("chosen product must lie in the offered set")


def mnl_loglik(theta: np.ndarray, records: list[TransactionRecord], ridge: float = 0.0):
    """Log-likelihood and gradient with the no-purchase weight fixed at 1."""
    ll = 0.0
    grad = np.zeros_like(theta)
    for rec in records:
        idx = sorted(rec.offered)
        ex = np.exp(theta[idx])
        denom = 1.0 + ex.sum()
        if rec.chosen is not None:
            ll += theta[rec.chosen]
        ll -= math.log(denom)
        sm = ex / denom
        for pos, i in enumerate(idx):
            grad[i] -= sm[pos]
        if rec.chosen is not None:
            grad[rec.chosen] += 1.0
    if ridge:
        ll -= ridge * float(theta @ theta)
        grad -= 2.0 * ridge * theta
    return ll, grad


def _fit_group(records, n_products, ridge):
    theta = np.zeros(n_products)
    ll, grad = mnl_loglik(theta, records, ridge)
    step = 1.0
    for _ in range(_FIT_MAX_ITER):
        gnorm = float(np.linalg.norm(grad, ord=np.inf))
        if gnorm <= _FIT_TOL:
            return theta, True
        while step > 1e-12:
            cand = theta + step * grad
            ll2, grad2 = mnl_loglik(cand, records, ridge)
            if ll2 > ll + 1e-4 * step * float(grad @ grad):
                theta, ll, grad = cand, ll2, grad2
                step = min(step * 2.0, 64.0)
                break
            step *= 0.5
        else:
            break
    return theta, float(np.linalg.norm(grad, ord=np.inf)) <= _FIT_TOL


def fit_mnl(
    records: list[TransactionRecord],
    n_products: int,
    scale_factor: float = 1.0,
) -> dict:
    """Per-type MNL weights by gradient ascent on the concave log-likelihood.

    Groups records by their feature tuple, one MNL per group.  Data
    that fails to converge (separable or degenerate) is refit with a small
    ridge and flagged with a warning.  The no-purchase weight is then pinned
    by the shift rule: equal to the largest product weight, multiplied by the
    scale factor when fares are scaled up (the alternative reading, shifting
    utilities instead of weights, would exponentiate rather than multiply).
    """
    if not records:
        raise ValueError("need at least one transaction record")
    for rec in records:
        outside = sorted(i for i in rec.offered if not 0 <= i < n_products)
        if outside:
            raise ValueError(f"offered product {outside[0]} lies outside 0..{n_products - 1}")
    groups: dict = {}
    for rec in records:
        groups.setdefault(rec.features, []).append(rec)
    out = {}
    for key in sorted(groups, key=repr):
        recs = groups[key]
        theta, converged = _fit_group(recs, n_products, 0.0)
        if not converged or np.abs(theta).max() > 15.0:
            # separable or degenerate data: weight ratios blow up
            warnings.warn(f"MNL fit for type {key!r} is degenerate; refitting with ridge 1e-4")
            theta, _ = _fit_group(recs, n_products, 1e-4)
        weights = np.exp(theta)
        v0 = float(weights.max()) * scale_factor
        out[key] = Mnl(weights=tuple(float(w) for w in weights), no_purchase=v0)
    return out


# ---------------------------------------------------------------------------
# Hotel-like template and parameter sweeps.


@dataclass(frozen=True)
class HotelTemplate:
    """Four room categories at two fares each, with relative inventory shares."""

    low_fares: tuple[float, ...] = (307.0, 304.0, 384.0, 306.0)
    high_fares: tuple[float, ...] = (361.0, 361.0, 496.0, 342.0)
    shares: tuple[float, ...] = (0.52, 0.15, 0.13, 0.20)
    n_types: int = 12
    weight_seed: int = 0

    @property
    def n_rooms(self) -> int:
        return len(self.low_fares)


def gen_hotel_like(seed: int = 0, n_types: int = 12) -> HotelTemplate:
    return HotelTemplate(n_types=n_types, weight_seed=seed)


def _allocate_inventory(total: int, shares: tuple[float, ...]) -> list[int]:
    raw = [total * s for s in shares]
    base = [int(x) for x in raw]
    rem = total - sum(base)
    order = sorted(range(len(shares)), key=lambda i: (-(raw[i] - base[i]), i))
    for i in order[:rem]:
        base[i] += 1
    return base


def build_hotel_instance(
    template: HotelTemplate,
    loading_factor: float,
    scale_factor: float = 1.0,
    patience: int = 2,
    cap: int = 4,
    seed: int = 0,
) -> Instance:
    """One sweep cell: T = m customers in expectation, inventory T / loading.

    High fares are scaled, then per-type fares are jittered with a Gaussian
    whose standard deviation is the square root of the fare, resampling until
    low < high per room (clamped after 100 attempts).  MNL weights are
    lognormal per type; the no-purchase weight is the largest product weight
    times the scale factor.
    """
    rng = np.random.default_rng(np.random.SeedSequence((template.weight_seed, seed)))
    m = template.n_types
    T = m
    R = template.n_rooms
    total_inv = max(1, round(T / loading_factor))
    inventories = _allocate_inventory(total_inv, template.shares)
    items = tuple(Item(i, inventories[i]) for i in range(R))
    products = tuple(Product(i * 2 + lv, i, lv) for i in range(R) for lv in range(2))
    types = []
    for j in range(m):
        fares = []
        for room in range(R):
            lo_mean = template.low_fares[room]
            hi_mean = template.high_fares[room] * scale_factor
            lo, hi = -1.0, -1.0
            for _ in range(100):
                lo = rng.normal(lo_mean, math.sqrt(lo_mean))
                hi = rng.normal(hi_mean, math.sqrt(hi_mean))
                if 0 < lo < hi:
                    break
            else:
                hi = max(hi, 1.0)
                lo = min(max(lo, 0.5), hi * 0.99)
            fares.append((lo, hi))
        revenues = tuple(fares[p.item][p.level] for p in products)
        weights = tuple(float(w) for w in rng.lognormal(mean=0.0, sigma=0.6, size=len(products)))
        v0 = max(weights) * scale_factor
        types.append(
            CustomerType(
                id=j,
                arrival=1.0 / m,
                revenues=revenues,
                choice=Mnl(weights=weights, no_purchase=v0),
                patience=patience,
            )
        )
    return Instance(
        T=T,
        items=items,
        products=products,
        types=tuple(types),
        family=AssortmentFamily.size_capped(cap),
        price_levels=2,
    )


@dataclass(frozen=True)
class SweepSpec:
    loading_factors: tuple[float, ...] = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)
    patiences: tuple[int, ...] = (2,)
    caps: tuple[int, ...] = (4,)
    scale_factors: tuple[float, ...] = (2.0,)
    replicas: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.replicas < 30:
            raise ValueError("need at least 30 replicas per cell")
        if not all(lf > 0 for lf in self.loading_factors):
            raise ValueError("loading factors must be positive")
        if any(p < 1 for p in self.patiences):
            raise ValueError(f"patiences must be at least 1, got {self.patiences}")
        if any(c < 1 for c in self.caps):
            raise ValueError(f"caps must be at least 1, got {self.caps}")
        if not all(sf > 0 for sf in self.scale_factors):
            raise ValueError(f"scale factors must be positive, got {self.scale_factors}")
        check_seed(self.seed)


_SWEEP_POLICIES = ("greedy", "conservative", "algorithm3", "modified-algorithm3")


def run_sweep(
    template: HotelTemplate,
    spec: SweepSpec,
    policies: tuple[str, ...] = _SWEEP_POLICIES,
) -> list[dict]:
    """Grid of (loading factor, patience, cap, scale) cells; per cell reports
    each policy's mean revenue as a percentage of the MMCDLP-NR optimum."""
    for policy in policies:
        if policy not in _SWEEP_POLICIES:
            raise ValueError(f"unknown sweep policy {policy!r}")
    rows: list[dict] = []
    cell_id = 0
    for lf in spec.loading_factors:
        for pat in spec.patiences:
            for cap in spec.caps:
                for sf in spec.scale_factors:
                    cell_id += 1
                    inst = build_hotel_instance(template, lf, sf, pat, cap, seed=spec.seed + cell_id)
                    try:
                        lp = mcdlp.solve_variant(inst, McdlpVariant.MMCDLP_NR)
                    except lpcore.LpError as exc:
                        warnings.warn(f"LP failed on cell lf={lf} pat={pat} cap={cap} sf={sf}: {exc}")
                        continue
                    for policy in policies:
                        seed_p = spec.seed * 1_000_003 + cell_id * 101 + _SWEEP_POLICIES.index(policy)
                        if policy in ("greedy", "conservative"):
                            res = run_benchmark(inst, policy, spec.replicas, seed=seed_p)
                            revenues = res.revenues
                        elif policy == "algorithm3":
                            r3 = norepeat.run_algorithm3(inst, lp, alpha=1.0,
                                                         replicas=spec.replicas, seed=seed_p)
                            revenues = r3.revenues
                        else:
                            # modified-algorithm3: the ungated policy on heterogeneous revenues, as in
                            # the hotel experiments (its 0.15 guarantee formally needs homogeneous ones)
                            r3 = norepeat._run(inst, lp, alpha=1.0, replicas=spec.replicas,
                                               seed=seed_p, gate_first_arrival=False)
                            revenues = r3.revenues
                        est = MonteCarloEstimate.from_samples(revenues)
                        pct = 100.0 * est.mean / lp.objective
                        pct_se = 100.0 * est.std_error / lp.objective
                        rows.append(
                            {
                                "loading_factor": lf,
                                "patience": pat,
                                "cap": cap,
                                "scale_factor": sf,
                                "policy": policy,
                                "replicas": spec.replicas,
                                "lp_opt": lp.objective,
                                "mean_revenue": est.mean,
                                "se_revenue": est.std_error,
                                "pct_of_bound": pct,
                                "pct_se": pct_se,
                            }
                        )
    return rows


def sweep_to_csv(rows: list[dict]) -> str:
    cols = (
        "loading_factor", "patience", "cap", "scale_factor", "policy", "replicas",
        "lp_opt", "mean_revenue", "se_revenue", "pct_of_bound", "pct_se",
    )
    out = [",".join(cols)]
    for row in rows:
        cells = []
        for c in cols:
            v = row[c]
            cells.append(f"{v:.6f}" if isinstance(v, float) else str(v))
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Random instance generators for test suites.


def random_matching_instance(
    seed: int, n: int, m: int, T: int, certify: str = "mixed"
) -> Instance:
    """Matching-with-timeouts instance satisfying the per-type hypothesis:
    either full patience (ell_j >= n) or purchase probabilities summing
    below one, chosen per type (``certify`` in {"full", "small", "mixed"})."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    types = []
    q = rng.uniform(0.3, 1.0, size=m)
    q = q / q.sum() * min(1.0, rng.uniform(0.7, 1.0))
    for j in range(m):
        mode = certify if certify != "mixed" else ("full" if rng.random() < 0.5 else "small")
        if mode == "full":
            probs = rng.uniform(0.05, 0.9, size=n)
            patience = n
        else:
            probs = rng.uniform(0.05, 0.9, size=n)
            probs = probs / probs.sum() * rng.uniform(0.5, 1.0)
            patience = int(rng.integers(1, max(2, n // 2 + 1)))
        revenues = rng.uniform(0.2, 3.0, size=n)
        types.append(
            CustomerType(
                id=j,
                arrival=float(q[j]),
                revenues=tuple(float(r) for r in revenues),
                choice=Tabular(entries={}, item_probs=tuple(float(p) for p in probs)),
                patience=patience,
            )
        )
    return Instance.single_level(
        T=T,
        inventories=[1] * n,
        types=types,
        family=AssortmentFamily.size_capped(1),
        matching_with_timeouts=True,
    )


def random_norepeat_instance(seed: int, n: int, cap: int = 3, m: int | None = None) -> Instance:
    """Integralized assortment instance (T = m, q = 1/m) with MNL types."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    m = m if m is not None else int(rng.integers(4, 9))
    types = []
    for j in range(m):
        weights = tuple(float(w) for w in rng.lognormal(0.0, 0.5, size=n))
        v0 = float(rng.uniform(1.0, 3.0) * max(weights))
        revenues = tuple(float(r) for r in rng.uniform(0.2, 2.0, size=n))
        types.append(
            CustomerType(
                id=j,
                arrival=1.0 / m,
                revenues=revenues,
                choice=Mnl(weights=weights, no_purchase=v0),
                patience=int(rng.integers(1, 4)),
            )
        )
    return Instance.single_level(
        T=m,
        inventories=[1] * n,
        types=types,
        family=AssortmentFamily.size_capped(cap),
    )


def random_homog_instance(
    seed: int, n: int, cap: int = 3, m: int | None = None, stationary: bool = False
) -> Instance:
    """Homogeneous-revenue instance; arrivals non-stationary unless asked."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    m = m if m is not None else int(rng.integers(3, 7))
    T = int(rng.integers(m, 2 * m + 1))
    revenues = tuple(float(r) for r in rng.uniform(0.2, 2.0, size=n))
    types = []
    arrival_table = rng.uniform(0.1, 1.0, size=(T, m))
    arrival_table /= arrival_table.sum(axis=1, keepdims=True)
    arrival_table *= rng.uniform(0.6, 1.0, size=(T, 1))
    for j in range(m):
        weights = tuple(float(w) for w in rng.lognormal(0.0, 0.5, size=n))
        v0 = float(rng.uniform(1.0, 3.0) * max(weights))
        arrival = 1.0 / m if stationary else tuple(float(x) for x in arrival_table[:, j])
        types.append(
            CustomerType(
                id=j,
                arrival=arrival,
                revenues=revenues,
                choice=Mnl(weights=weights, no_purchase=v0),
                patience=int(rng.integers(1, 4)),
            )
        )
    return Instance.single_level(
        T=T if not stationary else m,
        inventories=[1] * n,
        types=types,
        family=AssortmentFamily.size_capped(cap),
    )
