"""Scalar reference simulators for the greedy, conservative and no-repeat
policies (one replica at a time, one ``random.Random`` per replica), the
exact expected revenue of greedy and conservative, and the statistical
comparison of two runs.

This is the replica loop and the two per-customer walks (greedy's stage walk
and the no-repeat permutation walk) that the library ran before its
replica-batched engine.  It is the differential oracle for that engine: the
``GOLDEN`` digests and ``SWEEP_SHA`` in ``test_sim_goldens.py`` pin its
outputs, and the batched runs are compared with it in distribution.  It
builds the library's own result types and greedy chooser, memoizing the
chooser itself, and adds up its own purchase rows from ``choice_prob``, so
only the serving loop differs.
"""
from __future__ import annotations

import functools
import random
from bisect import bisect_right
from itertools import accumulate

import numpy as np

from mcassort import norepeat, simlab
from mcassort.model import Instance, choice_prob, validate
from mcassort.trace import PolicyTrace, StepRecord, check_replicas


class ScalarSampler:
    """One ``rng.random()`` per draw, found in running sums added up in the
    library's order: types in index order, displayed products in id order."""

    def __init__(self, inst: Instance):
        rows = [list(accumulate(inst.q(t, j) for j in range(inst.m)))
                for t in range(1 if inst.stationary else inst.T)]
        self._arrivals = rows * inst.T if inst.stationary else rows
        self._models = [ct.choice for ct in inst.types]
        self._rows: dict[tuple[int, int], tuple[tuple[int, ...], list[float]]] = {}

    def purchase_row(self, j: int, displayed: int):
        """(displayed products in id order, their running purchase probability)."""
        row = self._rows.get((j, displayed))
        if row is None:
            items = tuple(i for i in range(displayed.bit_length()) if displayed >> i & 1)
            shown = frozenset(items)
            row = self._rows[(j, displayed)] = (
                items, list(accumulate(choice_prob(self._models[j], i, shown) for i in items)))
        return row

    def draw_type(self, t: int, rng: random.Random) -> int | None:
        """Sample which customer type arrives at step ``t`` (None for no arrival)."""
        cdf = self._arrivals[t]
        j = bisect_right(cdf, rng.random())
        return j if j < len(cdf) else None

    def draw_choice(self, j: int, displayed: int, rng: random.Random) -> int | None:
        """Sample type ``j``'s purchase from the products whose bits are set in
        ``displayed`` (None for no purchase)."""
        items, cdf = self.purchase_row(j, displayed)
        k = bisect_right(cdf, rng.random())
        return items[k] if k < len(items) else None


def serve_replicas(inst: Instance, result, seed: int, record_traces: int,
                   sampler: ScalarSampler, walk) -> None:
    """Serve ``result.replicas`` horizons of at most one arrival per step.

    Replica ``rep`` draws from ``random.Random(seed * 2**33 + rep)``.  The loop
    draws only the arriving type ``j`` at step ``t``; ``walk(rng, t, j, first,
    avail, trace)`` serves that customer with every other draw and returns the
    product bought (or None) and the number of stages displayed.  ``avail``
    has the bits of the products whose item is in stock.  The loop books each
    sale as the batched engine does.
    """
    products = inst.products
    revenues = [ct.revenues for ct in inst.types]
    item_bits = [sum(1 << i for i in inst.products_of_item(it.id)) for it in inst.items]
    initial = [it.inventory for it in inst.items]
    in_stock = sum(1 << p.id for p in products if initial[p.item] > 0)
    draw_type = sampler.draw_type
    item_sales = result.item_sales
    for rep in range(result.replicas):
        rng = random.Random(seed * 2**33 + rep)
        stock = initial.copy()
        avail = in_stock
        arrived = 0
        revenue = 0.0
        stages = 0
        trace = PolicyTrace(rep, tuple(stock)) if rep < record_traces else None
        for t in range(inst.T):
            j = draw_type(t, rng)
            if j is None:
                continue
            first = not arrived >> j & 1
            arrived |= 1 << j
            bought, shown = walk(rng, t, j, first, avail, trace)
            stages += shown
            if bought is None:
                continue
            item = products[bought].item
            stock[item] -= 1
            if stock[item] < 0:
                raise RuntimeError(f"negative stock of item {item}")
            if stock[item] == 0:
                avail &= ~item_bits[item]
            revenue += revenues[j][bought]
            item_sales[item] += 1
        result.revenues[rep] = revenue
        result.offers_made[rep] = stages
        if trace is not None:
            trace.final_inventory = tuple(stock)
            trace.check_conservation(inst)
            result.traces.append(trace)


def run_benchmark(inst: Instance, policy: str, replicas: int, seed: int = 0,
                  record_traces: int = 0) -> simlab.BenchmarkResult:
    """Greedy or conservative benchmark, one replica at a time."""
    if policy not in ("greedy", "conservative"):
        raise ValueError(f"unknown benchmark policy {policy!r}")
    check_replicas(replicas)
    validate(inst).require()
    chooser = simlab._GreedyChooser(inst, high_only=(policy == "conservative"))
    choose = functools.cache(chooser.choose)
    displayable = ((1 << inst.n_products) - 1) & ~chooser.low
    sampler = ScalarSampler(inst)
    result = simlab.BenchmarkResult(
        replicas=replicas,
        revenues=np.zeros(replicas),
        item_sales=np.zeros(inst.n_items),
        offers_made=np.zeros(replicas),
    )

    def walk(rng, t, j, first, avail, trace):
        ct = inst.types[j]
        cand = avail & displayable
        stage = 0
        while ct.patience is None or stage < ct.patience:
            S, bits = choose(j, cand)
            if not S:
                break
            stage += 1
            choice = sampler.draw_choice(j, bits, rng)
            cand &= ~bits
            if trace is not None:
                rev_here = ct.revenues[choice] if choice is not None else 0.0
                trace.steps.append(StepRecord(t, j, stage, S, choice, rev_here))
            if choice is not None:
                return choice, stage
            if ct.leave_prob is not None and rng.random() < ct.leave_prob:
                break
        return None, stage

    serve_replicas(inst, result, seed, record_traces, sampler, walk)
    return result


def run_norepeat(inst: Instance, solution, alpha: float, replicas: int, seed: int,
                 gate_first_arrival: bool, record_traces: int = 0) -> norepeat.NoRepeatResult:
    """The no-repeat permutation walk, one replica at a time."""
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    check_replicas(replicas)
    validate(inst).require()
    m = inst.m
    support = [[(S, norepeat._inclusion_prob(v, alpha), sum(1 << i for i in S))
                for S, v in solution.support(j)] for j in range(m)]
    sampler = ScalarSampler(inst)
    checked: set[tuple[int, int, int]] = set()
    all_products = (1 << inst.n_products) - 1
    result = norepeat.NoRepeatResult(
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


def run_algorithm3(inst: Instance, solution, alpha: float = norepeat.ALPHA_STAR, replicas: int = 10_000,
                   seed: int = 0, record_traces: int = 0) -> norepeat.NoRepeatResult:
    """The first-arrival-gated walk (algorithm 3 and its geometric-patience variant)."""
    return run_norepeat(inst, solution, alpha, replicas, seed, True, record_traces)


def run_modified_algorithm3(inst: Instance, solution, alpha: float = 3.0, replicas: int = 10_000,
                            seed: int = 0, record_traces: int = 0) -> norepeat.NoRepeatResult:
    """The ungated walk."""
    return run_norepeat(inst, solution, alpha, replicas, seed, False, record_traces)


def benchmark_exact_revenue(inst: Instance, policy: str) -> float:
    """Exact expected revenue of the greedy or conservative benchmark.

    The display is a function of (type, candidate mask) (``choose`` above),
    so expected revenue is a finite-horizon dynamic program over (t, stock
    vector): at each step a type arrives with probability q_tj, and her
    stage walk is expanded exactly, purchase by purchase.
    """
    chooser = simlab._GreedyChooser(inst, high_only=(policy == "conservative"))
    choose = functools.cache(chooser.choose)
    displayable = ((1 << inst.n_products) - 1) & ~chooser.low
    item_of = [p.item for p in inst.products]
    values: dict[tuple[int, tuple[int, ...]], float] = {}

    def value(t: int, stock: tuple[int, ...]) -> float:
        if t == inst.T:
            return 0.0
        key = (t, stock)
        if key not in values:
            stay = value(t + 1, stock)
            avail = sum(1 << p.id for p in inst.products if stock[p.item] > 0)
            total = (1.0 - sum(inst.q(t, j) for j in range(inst.m))) * stay
            for j in range(inst.m):
                if inst.q(t, j) > 0:
                    total += inst.q(t, j) * customer(t, j, stock, avail & displayable, 0, stay)
            values[key] = total
        return values[key]

    def customer(t, j, stock, cand, stage, stay) -> float:
        ct = inst.types[j]
        if ct.patience is not None and stage >= ct.patience:
            return stay
        S, bits = choose(j, cand)
        if not S:
            return stay
        out = 0.0
        miss = 1.0
        for i in S:
            p = choice_prob(ct.choice, i, frozenset(S))
            after = list(stock)
            after[item_of[i]] -= 1
            out += p * (ct.revenues[i] + value(t + 1, tuple(after)))
            miss -= p
        more = customer(t, j, stock, cand & ~bits, stage + 1, stay)
        if ct.leave_prob is not None:
            more = ct.leave_prob * stay + (1.0 - ct.leave_prob) * more
        return out + miss * more

    return value(0, tuple(it.inventory for it in inst.items))


def _within(a, b, sigma, k=4.0):
    return abs(a - b) <= k * sigma + 1e-12


def _rate_sigma(pa, pb, ra, rb, top=1.0):
    """Standard error of a difference of two mean counts in [0, top], from
    their pooled mean (Bhatia-Davis: variance <= mean (top - mean))."""
    p = (pa * ra + pb * rb) / (ra + rb)
    return np.sqrt(max(p * (top - p), 0.0) * (1 / ra + 1 / rb))


def disagreements(inst: Instance, a, b) -> list:
    """Every reported statistic on which the runs ``a`` and ``b`` differ by
    more than 4 sigma: mean revenue, mean displayed stages, per-item sale
    frequencies and, for the no-repeat policies, every event rate."""
    bad = []
    ra, rb = a.replicas, b.replicas
    se = np.hypot(a.revenue_se, b.revenue_se)
    if not _within(a.revenue_mean, b.revenue_mean, se):
        bad.append(("revenue", a.revenue_mean, b.revenue_mean, se))
    se = np.hypot(a.offers_made.std(ddof=1) / np.sqrt(ra), b.offers_made.std(ddof=1) / np.sqrt(rb))
    if not _within(a.offers_made.mean(), b.offers_made.mean(), se):
        bad.append(("offers", a.offers_made.mean(), b.offers_made.mean(), se))
    for item in range(inst.n_items):
        fa, fb = a.item_sales[item] / ra, b.item_sales[item] / rb
        if not _within(fa, fb, _rate_sigma(fa, fb, ra, rb, inst.items[item].inventory)):
            bad.append(("sales", item, fa, fb))
    if isinstance(a, norepeat.NoRepeatResult):
        rates = {("arrivals", j): (a.type_arrivals[j], b.type_arrivals[j]) for j in range(inst.m)}
        rates.update({("imatch", j, i): (a.imatch[j, i], b.imatch[j, i])
                      for j in range(inst.m) for i in range(inst.n_products)})
        for name, counts in (("seen", (a.seen, b.seen)), ("timeout", (a.timeout_cmatch, b.timeout_cmatch))):
            for key in counts[0].keys() | counts[1].keys():
                rates[(name,) + key] = (counts[0].get(key, 0), counts[1].get(key, 0))
        for key, (ca, cb) in rates.items():
            fa, fb = ca / ra, cb / rb
            if not _within(fa, fb, _rate_sigma(fa, fb, ra, rb)):
                bad.append((key, fa, fb))
    return bad
