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
import warnings
from dataclasses import dataclass, field

import numpy as np

from .mcdlp import McdlpSolution, RevenueSamples
from .model import Instance, choice_prob, validate
from .trace import PolicyTrace, RunSampler, StepRecord, check_replicas, serve_replicas

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
    """The plan's support sets, each with its inclusion probability and
    product bitmask; the empty set can never be displayed, so the support
    leaves it out of the permutation."""
    return [(S, _inclusion_prob(v, alpha), sum(1 << i for i in S)) for S, v in solution.support(j)]


def _inclusion_prob(x: float, alpha: float) -> float:
    p = x / alpha
    if p > 1.0:
        warnings.warn(f"x*(S)/alpha = {p:.3f} > 1 clamped; the analysis assumes alpha >= 1")
        return 1.0
    return p


def _run(
    inst: Instance,
    solution: McdlpSolution,
    alpha: float,
    replicas: int,
    seed: int,
    gate_first_arrival: bool,
    record_traces: int = 0,
) -> NoRepeatResult:
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    check_replicas(replicas)
    for j, ct in enumerate(inst.types):
        if (ct.patience is None) == (ct.leave_prob is None):
            raise ValueError(f"type {j}: exactly one of patience and leave_prob must be set")
    validate(inst).require()
    m = inst.m
    support = [_support(solution, j, alpha) for j in range(m)]
    sampler = RunSampler(inst)
    # (type, support index, stripped bitmask) triples whose substitutability
    # this run has checked, over every product left
    checked: set[tuple[int, int, int]] = set()
    all_products = (1 << inst.n_products) - 1
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

    def walk(rng, t, j, first, avail, trace):
        if gate_first_arrival and not first:
            return None, 0
        if gate_first_arrival:
            result.type_arrivals[j] += 1
            gone = all_products & ~avail
            while gone:  # one pass per sold-out product, lowest id first
                result.imatch[j, (gone & -gone).bit_length() - 1] += 1
                gone &= gone - 1
        ct = inst.types[j]
        patience = ct.patience
        leave_prob = ct.leave_prob
        sup = support[j]
        order = list(range(len(sup)))
        rng.shuffle(order)
        seen = 0
        offers = 0
        purchased: int | None = None
        left = False
        for k in order:
            S, incl, bits = sup[k]
            stopped = (purchased is not None) or left or (patience is not None and offers >= patience)
            if gate_first_arrival:
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
                purchased = choice
            elif leave_prob is not None and rng.random() < leave_prob:
                left = True
        return purchased, offers

    serve_replicas(inst, result, seed, record_traces, sampler, walk)
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
                gate_first_arrival=True, record_traces=record_traces)


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
                gate_first_arrival=False, record_traces=record_traces)


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
                gate_first_arrival=True, record_traces=record_traces)
