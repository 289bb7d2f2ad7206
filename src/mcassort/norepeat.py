"""No-repeat assortment policies built on a uniformly random assortment order.

Per served customer the policy draws a uniform permutation over the
positive-weight assortments of her type, walks it, and offers each assortment
independently with probability x*(S)/alpha after stripping sold-out items and
items the customer has already seen.  Purchases resolve on the stripped set,
which by substitutability can only raise the remaining items' probabilities.

Three entry points share the walk: the first-arrival-gated base policy, its
ungated modification for homogeneous revenues, and the geometric-patience
variant where the customer leaves with probability p_out after every
unsuccessful stage.  Replica state is fully isolated, so replicas could run
concurrently.
"""
from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass, field

import numpy as np

from .mcdlp import McdlpSolution, RevenueSamples
from .model import Instance, choice_prob
from .trace import PolicyTrace, RunSampler, StepRecord

__all__ = [
    "NoRepeatResult",
    "run_algorithm3",
    "run_modified_algorithm3",
    "run_algorithm3_random_patience",
    "ALPHA_STAR",
]

ALPHA_STAR = (3.0 + math.sqrt(17.0)) / 2.0  # maximizer of the gated policy's bound


@dataclass
class NoRepeatResult(RevenueSamples):
    """Aggregate statistics over replicas, including conditional event counts.

    Conditioning for the event counters is on a type arriving at all
    (``type_arrivals``).  ``imatch`` counts items already sold at the first
    arrival; ``seen`` and ``timeout_cmatch`` count the already-seen and
    stopped states observed when the permutation reaches each assortment.
    Conditional estimates are only asserted on cells whose conditioning count
    reaches ``min_condition_count``.
    """

    replicas: int
    revenues: np.ndarray
    type_arrivals: np.ndarray              # (m,) replicas in which the type arrived
    imatch: np.ndarray                     # (m, n_products)
    seen: dict                             # (j, set_index, item) -> count
    timeout_cmatch: dict                   # (j, set_index) -> count
    support: list                          # per type: ordered positive-weight sets
    item_sales: np.ndarray                 # (n_items,)
    offers_made: np.ndarray                # (replicas,) displayed stages
    traces: list[PolicyTrace] = field(default_factory=list)
    min_condition_count: int = 200


def _support(solution: McdlpSolution, j: int, alpha: float) -> list[tuple[frozenset[int], float, int]]:
    """Positive-weight assortments in deterministic order, each with its
    inclusion probability and product bitmask; the empty set can never be
    displayed so it is excluded from the permutation."""
    return [
        (S, _inclusion_prob(v, alpha), sum(1 << i for i in S))
        for S, v in sorted(solution.plan[j].items(), key=lambda kv: tuple(sorted(kv[0])))
        if v > 1e-12 and len(S) > 0
    ]


def _inclusion_prob(x: float, alpha: float) -> float:
    p = x / alpha
    if p > 1.0:
        warnings.warn(f"x*(S)/alpha = {p:.3f} > 1 clamped; the analysis assumes alpha >= 1")
        return 1.0
    return p


def _walk_customer(
    inst: Instance,
    j: int,
    support: list[tuple[frozenset[int], float, int]],
    stock: list[int],
    avail: int,
    rng: random.Random,
    leave_prob: float | None,
    result: NoRepeatResult | None,
    trace: PolicyTrace | None,
    t: int,
    sampler: RunSampler,
    checked: set[tuple[int, int, int]],
) -> tuple[float, int, int | None]:
    """Serve one customer; returns (revenue, displayed stages, item bought).

    ``avail`` has the bits of the products whose item is in stock; ``checked``
    holds the (type, support index, stripped bitmask) triples whose
    substitutability this run has checked, over every product left."""
    ct = inst.types[j]
    patience = ct.patience if leave_prob is None else None
    order = list(range(len(support)))
    rng.shuffle(order)
    seen = 0
    offers = 0
    purchased: int | None = None
    left = False
    revenue = 0.0
    for k in order:
        S, incl, bits = support[k]
        stopped = (purchased is not None) or left or (patience is not None and offers >= patience)
        if result is not None:
            key = (j, k)
            result.timeout_cmatch[key] = result.timeout_cmatch.get(key, 0) + int(stopped)
            for i in S:
                if seen >> i & 1:
                    skey = (j, k, i)
                    result.seen[skey] = result.seen.get(skey, 0) + 1
        if stopped:
            continue
        if rng.random() >= incl:
            continue
        stripped = bits & avail & ~seen
        if not stripped:
            continue  # nothing displayable: no stage is consumed
        offers += 1
        seen |= stripped
        if (j, k, stripped) not in checked:
            shown = sampler.purchase_row(j, stripped)[0]
            fs = frozenset(shown)
            for i in shown:
                p_str = choice_prob(ct.choice, i, fs)
                if p_str < choice_prob(ct.choice, i, S) - 1e-9:
                    raise RuntimeError(f"substitutability broken: p({i}, {list(shown)}) = {p_str} "
                                       f"< p({i}, {sorted(S)})")
            checked.add((j, k, stripped))
        choice = sampler.draw_choice(j, stripped, rng)
        if trace is not None:
            rev_here = ct.revenues[choice] if choice is not None else 0.0
            trace.steps.append(StepRecord(t, j, offers, sampler.purchase_row(j, stripped)[0], choice, rev_here))
        if choice is not None:
            item = inst.products[choice].item
            stock[item] -= 1
            if stock[item] < 0:
                raise RuntimeError(f"negative stock of item {item}")
            revenue += ct.revenues[choice]
            purchased = choice
        elif leave_prob is not None and rng.random() < leave_prob:
            left = True
    return revenue, offers, purchased


def _run(
    inst: Instance,
    solution: McdlpSolution,
    alpha: float,
    replicas: int,
    seed: int,
    gate_first_arrival: bool,
    leave_prob_mode: bool,
    record_traces: int = 0,
) -> NoRepeatResult:
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    m = inst.m
    support = [_support(solution, j, alpha) for j in range(m)]
    sampler = RunSampler(inst)
    checked: set[tuple[int, int, int]] = set()
    result = NoRepeatResult(
        replicas=replicas,
        revenues=np.zeros(replicas),
        type_arrivals=np.zeros(m),
        imatch=np.zeros((m, inst.n_products)),
        seen={},
        timeout_cmatch={},
        support=[[S for S, _, _ in sup] for sup in support],
        item_sales=np.zeros(inst.n_items),
        offers_made=np.zeros(replicas),
    )
    for rep in range(replicas):
        rng = random.Random(seed * (2**33) + rep)
        stock = [it.inventory for it in inst.items]
        avail = sum(1 << p.id for p in inst.products if stock[p.item] > 0)
        sold_out = [p.id for p in inst.products if stock[p.item] == 0]
        arrived: set[int] = set()
        revenue = 0.0
        offers_total = 0
        trace = PolicyTrace(rep, tuple(stock)) if rep < record_traces else None
        for t in range(inst.T):
            j = sampler.draw_type(t, rng)
            if j is None:
                continue
            first = j not in arrived
            arrived.add(j)
            if gate_first_arrival and not first:
                continue
            count_events = gate_first_arrival and first
            if count_events:
                result.type_arrivals[j] += 1
                for i in sold_out:
                    result.imatch[j, i] += 1
            rev, offers, choice = _walk_customer(
                inst, j, support[j], stock, avail, rng,
                inst.types[j].leave_prob if leave_prob_mode else None,
                result if count_events else None, trace, t, sampler, checked,
            )
            revenue += rev
            offers_total += offers
            if choice is not None:
                item = inst.products[choice].item
                result.item_sales[item] += 1
                if stock[item] == 0:
                    gone = inst.products_of_item(item)
                    avail &= ~sum(1 << i for i in gone)
                    sold_out += gone
        result.revenues[rep] = revenue
        result.offers_made[rep] = offers_total
        if trace is not None:
            trace.final_inventory = tuple(stock)
            trace.check_conservation(inst)
            result.traces.append(trace)
    return result


def run_algorithm3(
    inst: Instance,
    solution: McdlpSolution,
    alpha: float = ALPHA_STAR,
    replicas: int = 10_000,
    seed: int = 0,
    record_traces: int = 0,
) -> NoRepeatResult:
    """First-arrival-gated no-repeat policy on an integralized instance."""
    rates = [ct.total_rate(inst.T) for ct in inst.types]
    if any(abs(r - 1.0) > 1e-6 for r in rates):
        raise ValueError("run_algorithm3 expects an integralized instance (T q_j = 1 per type)")
    if any(ct.patience is None for ct in inst.types):
        raise ValueError("run_algorithm3 needs deterministic patience levels")
    return _run(inst, solution, alpha, replicas, seed,
                gate_first_arrival=True, leave_prob_mode=False, record_traces=record_traces)


def run_modified_algorithm3(
    inst: Instance,
    solution: McdlpSolution,
    alpha: float = 3.0,
    replicas: int = 10_000,
    seed: int = 0,
    record_traces: int = 0,
) -> NoRepeatResult:
    """Ungated variant for homogeneous item revenues; arrivals may be non-stationary."""
    base = inst.types[0].revenues
    for ct in inst.types[1:]:
        if any(abs(a - b) > 1e-9 for a, b in zip(ct.revenues, base)):
            raise ValueError("modified algorithm needs homogeneous revenues r_ij = r_i")
    if any(ct.patience is None for ct in inst.types):
        raise ValueError("run_modified_algorithm3 needs deterministic patience levels")
    return _run(inst, solution, alpha, replicas, seed,
                gate_first_arrival=False, leave_prob_mode=False, record_traces=record_traces)


def run_algorithm3_random_patience(
    inst: Instance,
    solution: McdlpSolution,
    alpha: float = ALPHA_STAR,
    replicas: int = 10_000,
    seed: int = 0,
    record_traces: int = 0,
) -> NoRepeatResult:
    """Gated policy under geometric patience: leave w.p. p_out after each miss."""
    if any(ct.leave_prob is None for ct in inst.types):
        raise ValueError("random-patience variant needs leave_prob on every type")
    rates = [ct.total_rate(inst.T) for ct in inst.types]
    if any(abs(r - 1.0) > 1e-6 for r in rates):
        raise ValueError("expects an integralized instance (T q_j = 1 per type)")
    return _run(inst, solution, alpha, replicas, seed,
                gate_first_arrival=True, leave_prob_mode=True, record_traces=record_traces)
