"""Per-replica trace records and shared sampling primitives."""
from __future__ import annotations

import random
from dataclasses import dataclass, field

from .model import ChoiceModel, Instance, choice_prob

__all__ = ["StepRecord", "PolicyTrace", "draw_type", "draw_choice"]


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


def draw_type(inst: Instance, t: int, rng: random.Random) -> int | None:
    """Sample which customer type arrives at step ``t`` (None for no arrival)."""
    u = rng.random()
    acc = 0.0
    for j in range(inst.m):
        acc += inst.q(t, j)
        if u < acc:
            return j
    return None


def draw_choice(model: ChoiceModel, assortment: frozenset[int], rng: random.Random) -> int | None:
    """Sample the purchase from a displayed assortment (None for no purchase)."""
    u = rng.random()
    acc = 0.0
    for i in sorted(assortment):
        acc += choice_prob(model, i, assortment)
        if u < acc:
            return i
    return None
