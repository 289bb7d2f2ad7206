"""Per-replica trace records, the per-run sampler and the replica loop the
scalar simulators share."""
from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable

from .model import Instance, choice_prob

__all__ = ["StepRecord", "PolicyTrace", "RunSampler", "check_replicas", "serve_replicas"]


@dataclass(frozen=True)
class StepRecord:
    t: int
    customer_type: int
    stage: int
    offered: tuple[int, ...]
    purchased: int | None
    revenue: float


@dataclass
class PolicyTrace:
    """Everything one simulated horizon did: offers, purchases, stock."""

    replica: int
    initial_inventory: tuple[int, ...]
    steps: list[StepRecord] = field(default_factory=list)
    final_inventory: tuple[int, ...] = ()

    @property
    def revenue(self) -> float:
        return sum(s.revenue for s in self.steps)

    def check_conservation(self, inst: Instance) -> None:
        """Initial minus sold must equal final stock, and stock never goes negative."""
        sold = [0] * len(self.initial_inventory)
        for s in self.steps:
            if s.purchased is not None:
                sold[inst.products[s.purchased].item] += 1
        remaining = tuple(b - c for b, c in zip(self.initial_inventory, sold))
        if remaining != self.final_inventory:
            raise RuntimeError(
                f"inventory conservation violated: initial minus sold is {remaining}, "
                f"final stock is {self.final_inventory}"
            )
        if any(v < 0 for v in remaining):
            raise RuntimeError(f"negative stock {remaining}")


class RunSampler:
    """Arrival and purchase draws of one simulator run, from tables built once.

    Every draw takes one ``rng.random()`` and finds it in a running sum,
    accumulated in the order a draw-by-draw loop would add it up: types in
    index order, displayed products in id order.  The partial sums are the
    same floats and, with non-negative probabilities, never decrease, so a
    draw returns the same outcome from the same generator state; an index
    past the end means no arrival or no purchase.

    Arrival rows are built up front: one for stationary instances, one per
    time-step otherwise.  Purchase rows are built on first use per (type
    index, displayed-product bitmask).  The cache is keyed on the type index,
    so a sampler serves one instance; build one per simulator call.
    """

    def __init__(self, inst: Instance):
        rows = [list(accumulate(inst.q(t, j) for j in range(inst.m)))
                for t in range(1 if inst.stationary else inst.T)]
        self._arrivals = rows * inst.T if inst.stationary else rows
        self._models = [ct.choice for ct in inst.types]
        self._purchases: dict[tuple[int, int], tuple[tuple[int, ...], list[float]]] = {}

    def draw_type(self, t: int, rng: random.Random) -> int | None:
        """Sample which customer type arrives at step ``t`` (None for no arrival)."""
        cdf = self._arrivals[t]
        j = bisect_right(cdf, rng.random())
        return j if j < len(cdf) else None

    def purchase_row(self, j: int, displayed: int) -> tuple[tuple[int, ...], list[float]]:
        """(displayed products in id order, their running purchase probability)."""
        key = (j, displayed)
        row = self._purchases.get(key)
        if row is None:
            items = tuple(i for i in range(displayed.bit_length()) if displayed >> i & 1)
            shown = frozenset(items)
            model = self._models[j]
            row = self._purchases[key] = (items, list(accumulate(choice_prob(model, i, shown) for i in items)))
        return row

    def draw_choice(self, j: int, displayed: int, rng: random.Random) -> int | None:
        """Sample type ``j``'s purchase from the products whose bits are set in
        ``displayed`` (None for no purchase)."""
        items, cdf = self.purchase_row(j, displayed)
        k = bisect_right(cdf, rng.random())
        return items[k] if k < len(items) else None


def check_replicas(replicas: int) -> None:
    """Refuse a run of fewer than one replica: its mean and rates would be NaN."""
    if replicas < 1:
        raise ValueError(f"replicas must be at least 1, got {replicas}")


# walk(rng, t, j, first, avail, trace) -> (product bought or None, stages displayed)
Walk = Callable[[random.Random, int, int, bool, int, "PolicyTrace | None"], tuple["int | None", int]]


def serve_replicas(inst: Instance, result, seed: int, record_traces: int,
                   sampler: RunSampler, walk: Walk) -> None:
    """Serve ``result.replicas`` horizons of at most one arrival per step.

    Replica ``rep`` draws from ``random.Random(seed * 2**33 + rep)``.  The loop
    draws only the arriving type ``j`` at step ``t``; ``walk`` serves that
    customer with every other draw and returns the product bought (or None)
    and the number of stages displayed.  ``first`` says whether this is the
    type's first arrival in the replica, ``avail`` has the bits of the
    products whose item is in stock, and ``trace`` (the first
    ``record_traces`` replicas, else None) collects the walk's step records.

    The loop books each sale: the item's stock drops by one (negative stock
    raises), its products' bits clear when it sells out, and the revenue and
    the sale go to ``result.revenues`` and ``result.item_sales``; the stages
    go to ``result.offers_made``.  Recorded traces are checked for inventory
    conservation and appended to ``result.traces``.
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
