"""No-repeat assortment policies built on a uniformly random assortment order.

Per served customer the policy draws a uniform permutation over the
positive-weight assortments of her type, walks it, and offers each assortment
independently with probability x*(S)/alpha after stripping sold-out items and
items the customer has already seen.  Purchases resolve on the stripped set,
which by substitutability can only raise the remaining items' probabilities.

Three entry points share the walk: the first-arrival-gated base policy, its
ungated modification for homogeneous revenues, and the geometric-patience
variant where the customer leaves with probability p_out after every
unsuccessful stage.  The walk serves all arriving customers of a step at
once, one row per replica, on the engine ``trace.serve_batches``.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .mcdlp import McdlpSolution, RevenueSamples
# choice_prob is unused here but stays bound: perfbench's tracer rebinds it in every importer
from .model import Instance, choice_prob, validate  # noqa: F401
from .trace import PolicyTrace, RunSampler, check_replicas, check_seed, memo_lookup, record_step, serve_batches

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
    """Serve the permutation walk to every customer (only to a type's first
    arrival when ``gate_first_arrival``), all replicas at once.

    Type j's support (the plan's positive-weight sets; the empty set can
    never be displayed, so it is left out) is padded to the longest one.  A
    served customer orders her sets by ``argsort`` of uniforms and includes
    each with probability x*(S)/alpha; an included set is stripped of the
    products seen or out of stock and, when anything is left, displayed.
    Each (type, set, stripped set) has its substitutability checked once per
    run.  The gated event counters are tallied after each step from the
    position of every set in the order, the position at which each product
    was first shown and the position at which the customer stopped.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    check_replicas(replicas)
    check_seed(seed)
    validate(inst).require()
    m, P = inst.m, inst.n_products
    support = [solution.support(j) for j in range(m)]
    sizes = np.array([len(sup) for sup in support])
    K = max(1, int(sizes.max()))
    sets = np.zeros((m, K, P), dtype=bool)      # padded support sets as product masks
    incl = np.zeros((m, K))
    for j, sup in enumerate(support):
        for k, (S, v) in enumerate(sup):
            sets[j, k, list(S)] = True
            incl[j, k] = _inclusion_prob(v, alpha)
    patience = np.array([P + 1 if ct.patience is None else ct.patience for ct in inst.types])
    leave = np.array([ct.leave_prob or 0.0 for ct in inst.types])
    sampler = RunSampler(inst)
    memo: dict[bytes, int] = {}  # (type * K + set index, stripped mask) -> display index
    timeouts = np.zeros(m * K, dtype=np.int64)
    seen_counts = np.zeros(m * K * P, dtype=np.int64)
    result = NoRepeatResult(
        replicas=replicas,
        revenues=np.zeros(replicas),
        type_arrivals=np.zeros(m),
        imatch=np.zeros((m, P)),
        seen={},
        timeout_cmatch={},
        support=[[S for S, _ in sup] for sup in support],
        item_sales=np.zeros(inst.n_items),
        offers_made=np.zeros(replicas),
    )

    def checked_display(head: int, stripped: int) -> int:
        j, k = divmod(head, K)
        ct = inst.types[j]
        S = support[j][k][0]
        shown = sampler.purchase_row(j, stripped)[0]
        full = dict(ct.choice.probs(S))
        for i, p_str in sorted(ct.choice.probs(frozenset(shown))):
            if p_str < full[i] - 1e-9:
                raise RuntimeError(f"substitutability broken: p({i}, {list(shown)}) = {p_str} "
                                   f"< p({i}, {sorted(S)})")
        return sampler.display(j, stripped)

    def step(rng, t, j, first, avail, traces):
        served = np.flatnonzero(first) if gate_first_arrival else np.arange(len(j))
        js, avail = j[served], avail[served]
        n = len(js)
        bought = np.full(n, -1)
        offers = np.zeros(n, dtype=np.int64)
        traces = [traces[r] for r in served[:np.searchsorted(served, len(traces))]]
        if gate_first_arrival:
            result.type_arrivals += np.bincount(js, minlength=m)
            r, i = np.nonzero(~avail)
            result.imatch += np.bincount(js[r] * P + i, minlength=m * P).reshape(m, P)
        # column q of each row is the set at position q of the customer's order
        size = sizes[js]
        real = np.arange(K) < size[:, None]
        order = np.argsort(np.where(real, rng.random((n, K)), 2.0), axis=1)
        head = js[:, None] * K + order
        u_incl, u_buy, u_leave = rng.random((3, n, K))
        go = u_incl < incl.ravel()[head]
        leaves = u_leave < leave[js][:, None]
        shows = sets.reshape(m * K, P)[head]
        shown_at = np.full((n, P), K)           # position at which each product was first shown
        stop_at = np.full(n, K)                 # position after which the customer has stopped
        act = np.arange(n)
        for pos in range(K):
            act = act[pos < size[act]]
            if not act.size:
                break
            c = act[go[act, pos]]
            stripped = shows[c, pos] & avail[c] & (shown_at[c] == K)
            some = stripped.any(axis=1)
            c, stripped = c[some], stripped[some]
            if not c.size:
                continue
            ja = js[c]
            offers[c] += 1
            shown_at[c] = np.where(stripped, pos, shown_at[c])
            shown = memo_lookup(memo, head[c, pos], stripped, checked_display)
            choice = sampler.draw_purchases(shown, u_buy[c, pos])
            for q in range(np.searchsorted(c, len(traces))):
                record_step(traces[c[q]], inst, t, ja[q], offers[c[q]], sampler.offered[shown[q]], choice[q])
            sold = choice >= 0
            bought[c[sold]] = choice[sold]
            stop = sold | (offers[c] >= patience[ja]) | leaves[c, pos]
            stop_at[c[stop]] = pos
            act = act[stop_at[act] == K]
        if gate_first_arrival:
            # a set reached after the customer stopped counts a timeout; a
            # product of it shown at an earlier position counts as seen
            later = np.arange(K)
            timeouts[:] += np.bincount(head[real & (later > stop_at[:, None])], minlength=m * K)
            r, q, i = np.nonzero(shows & (shown_at[:, None, :] < later[:, None]))
            seen_counts[:] += np.bincount(head[r, q] * P + i, minlength=m * K * P)
        out_bought = np.full(len(j), -1)
        out_offers = np.zeros(len(j), dtype=np.int64)
        out_bought[served], out_offers[served] = bought, offers
        return out_bought, out_offers

    serve_batches(inst, result, seed, record_traces, sampler, step)
    if gate_first_arrival:
        for j in np.flatnonzero(result.type_arrivals):
            for k in range(sizes[j]):
                result.timeout_cmatch[(int(j), k)] = int(timeouts[j * K + k])
        for idx in np.flatnonzero(seen_counts):
            cell, i = divmod(int(idx), P)
            result.seen[divmod(cell, K) + (i,)] = int(seen_counts[idx])
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
