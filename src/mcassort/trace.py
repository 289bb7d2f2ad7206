"""Per-replica trace records and the per-run sampler the simulators share."""
from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

from .model import Instance, choice_prob

__all__ = ["StepRecord", "PolicyTrace", "RunSampler"]


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
