"""Per-replica trace records, the per-run sampler and the replica-batched
serving engine the greedy, conservative and no-repeat simulators share."""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable

import numpy as np

from .model import Instance, choice_prob

__all__ = [
    "StepRecord",
    "PolicyTrace",
    "RunSampler",
    "BLOCK_ROWS",
    "check_replicas",
    "check_seed",
    "memo_lookup",
    "record_step",
    "serve_batches",
]

# Replicas are served in blocks of at most this many rows, block b drawing
# from child b of SeedSequence(seed), so memory stays bounded for any replica
# count and a run's draws do not depend on anything but its seed.
BLOCK_ROWS = 4096


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

    A draw finds a uniform in a running sum, accumulated in the order a
    draw-by-draw loop would add it up: types in index order, displayed
    products in id order.  The partial sums are the same floats and, with
    non-negative probabilities, never decrease, so a uniform gets the outcome
    that loop would give it; an index past the end means no arrival or no
    purchase.

    Arrival rows are built up front: one for stationary instances, one per
    time-step otherwise.  A display is a (type, displayed products) pair;
    ``display`` registers it as one new row of a padded table of running
    purchase sums, so a batch of purchases is drawn by one gather.  The
    caller's per-run memo decides when a row is registered; a pair registered
    twice gets two equal rows.  Rows and the per-type ``patience`` and
    ``leave`` arrays belong to one instance, so build one sampler per
    simulator call.
    """

    def __init__(self, inst: Instance):
        rows = [np.array(list(accumulate(inst.q(t, j) for j in range(inst.m))))
                for t in range(1 if inst.stationary else inst.T)]
        self._arrivals = rows * inst.T if inst.stationary else rows
        self._models = [ct.choice for ct in inst.types]
        self.patience = np.array([inst.n_products + 1 if ct.patience is None else ct.patience for ct in inst.types])
        self.leave = np.array([ct.leave_prob or 0.0 for ct in inst.types])
        self.offered: list[tuple[int, ...]] = []     # per display: products in id order
        self.shown = np.zeros((0, inst.n_products), dtype=bool)
        self._cdf = np.zeros((0, 0))                  # padded with 2.0, above every uniform
        self._items = np.zeros((0, 1), dtype=np.int64)  # padded with -1: no purchase

    def draw_types(self, t: int, u: np.ndarray) -> np.ndarray:
        """The type each uniform in ``u`` sends at step ``t``; m means no arrival."""
        return np.searchsorted(self._arrivals[t], u, side="right")

    def display(self, j: int, displayed: int) -> int:
        """Register the display of the products whose bits are set in
        ``displayed`` to type ``j`` and return its index."""
        items = tuple(i for i in range(displayed.bit_length()) if displayed >> i & 1)
        shown = frozenset(items)
        idx = len(self.offered)
        self.offered.append(items)
        rows = len(self.shown) if idx < len(self.shown) else max(16, 2 * idx)
        width = max(len(items), self._cdf.shape[1])
        if rows > len(self.shown) or width > self._cdf.shape[1]:
            self.shown = _grown(self.shown, rows, self.shown.shape[1], False)
            self._cdf = _grown(self._cdf, rows, width, 2.0)
            self._items = _grown(self._items, rows, width + 1, -1)
        self.shown[idx, list(items)] = True
        self._cdf[idx, :len(items)] = list(accumulate(choice_prob(self._models[j], i, shown) for i in items))
        self._items[idx, :len(items)] = items
        return idx

    def draw_purchases(self, displays: np.ndarray, u: np.ndarray) -> np.ndarray:
        """The product each display index buys at its uniform in ``u``; -1
        means no purchase."""
        k = (self._cdf[displays] <= u[:, None]).sum(axis=1)
        return self._items[displays, k]


def _grown(a: np.ndarray, rows: int, cols: int, fill) -> np.ndarray:
    """``a`` copied into the top-left corner of a (rows, cols) array of ``fill``."""
    out = np.full((rows, cols), fill, dtype=a.dtype)
    out[:a.shape[0], :a.shape[1]] = a
    return out


def record_step(trace: PolicyTrace, inst: Instance, t: int, j, stage, offered: tuple[int, ...], choice) -> None:
    """Append one displayed stage to ``trace``; ``choice`` -1 means no purchase."""
    bought = int(choice) if choice >= 0 else None
    revenue = inst.types[j].revenues[bought] if bought is not None else 0.0
    trace.steps.append(StepRecord(t, int(j), int(stage), offered, bought, revenue))


def check_replicas(replicas: int) -> None:
    """Refuse a run of fewer than one replica: its mean and rates would be NaN."""
    if replicas < 1:
        raise ValueError(f"replicas must be at least 1, got {replicas}")


def check_seed(seed: int) -> None:
    """Refuse a negative seed: the generator streams take non-negative entropy only."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


def memo_lookup(memo: dict, head: np.ndarray, masks: np.ndarray, make: Callable[[int, int], int]) -> np.ndarray:
    """``memo``'s value for each row's key (``head[r]``, product mask ``masks[r]``).

    Keys are the bytes of the head and the packed mask, so any product count
    works.  A key seen for the first time gets ``make(head, mask)``, with the
    mask as an int whose bit i is product i.
    """
    n = len(head)
    packed = np.packbits(masks, axis=1, bitorder="little")
    raw = np.concatenate([head.astype("<i8").view(np.uint8).reshape(n, 8), packed], axis=1)
    keys = raw.view(f"V{raw.shape[1]}").ravel().tolist()
    vals = list(map(memo.get, keys))
    if None in vals:
        for q, key in enumerate(keys):
            if vals[q] is None:
                val = memo.get(key)
                if val is None:
                    val = memo[key] = make(int(head[q]), int.from_bytes(key[8:], "little"))
                vals[q] = val
    return np.array(vals, dtype=np.int64)


# step(rng, t, j, first, avail, traces) -> (product bought or -1, stages displayed)
Step = Callable[[np.random.Generator, int, np.ndarray, np.ndarray, np.ndarray, list],
                tuple[np.ndarray, np.ndarray]]


def serve_batches(inst: Instance, result, seed: int, record_traces: int,
                  sampler: RunSampler, step: Step) -> None:
    """Serve ``result.replicas`` horizons of at most one arrival per step.

    Replicas run in blocks of ``BLOCK_ROWS`` rows; block b draws from
    ``default_rng`` on child b of ``SeedSequence(seed)``.  Each row keeps an
    integer stock per item, an in-stock mask over products and the set of
    types that have arrived.  Per step one uniform per row draws the arriving
    type, and ``step`` serves the arriving rows at once: ``j`` are their
    types, ``first`` says whether this is the type's first arrival in the
    replica, ``avail`` is their in-stock product mask and ``traces`` the
    ``PolicyTrace`` of each of the leading rows that are recorded (the first
    ``record_traces`` replicas).  It returns each row's product bought (-1
    for none) and its number of stages displayed.

    The engine books the sales: the item's stock drops by one (negative
    stock raises), its products leave the in-stock mask when it sells out,
    and the revenue and the sale go to ``result.revenues`` and
    ``result.item_sales``; the stages go to ``result.offers_made``.
    Recorded traces are checked for inventory conservation and appended to
    ``result.traces``.
    """
    item_of = np.array([p.item for p in inst.products], dtype=np.int64)
    products_of = np.zeros((inst.n_items, inst.n_products), dtype=bool)
    products_of[item_of, np.arange(inst.n_products)] = True
    revenues = np.array([ct.revenues for ct in inst.types], dtype=float)
    initial = np.array([it.inventory for it in inst.items], dtype=np.int64)
    replicas = result.replicas
    n_blocks = -(-replicas // BLOCK_ROWS)
    for b, stream in enumerate(np.random.SeedSequence(seed).spawn(n_blocks)):
        rng = np.random.default_rng(stream)
        lo = b * BLOCK_ROWS
        B = min(BLOCK_ROWS, replicas - lo)
        stock = np.tile(initial, (B, 1))
        in_stock = np.tile(initial[item_of] > 0, (B, 1))
        arrived = np.zeros((B, inst.m), dtype=bool)
        revenue = np.zeros(B)
        stages = np.zeros(B, dtype=np.int64)
        traces = [PolicyTrace(rep, tuple(initial.tolist())) for rep in range(lo, min(lo + B, record_traces))]
        for t in range(inst.T):
            j = sampler.draw_types(t, rng.random(B))
            rows = np.flatnonzero(j < inst.m)
            if not rows.size:
                continue
            j = j[rows]
            first = ~arrived[rows, j]
            arrived[rows, j] = True
            recorded = [traces[r] for r in rows[:np.searchsorted(rows, len(traces))]]
            bought, shown = step(rng, t, j, first, in_stock[rows], recorded)
            stages[rows] += shown
            sold = bought >= 0
            r, p = rows[sold], bought[sold]
            item = item_of[p]
            left = stock[r, item] - 1
            if (left < 0).any():
                raise RuntimeError(f"negative stock of item {item[left < 0][0]}")
            stock[r, item] = left
            out = left == 0
            in_stock[r[out]] &= ~products_of[item[out]]
            revenue[r] += revenues[j[sold], p]
            result.item_sales += np.bincount(item, minlength=inst.n_items)
        result.revenues[lo:lo + B] = revenue
        result.offers_made[lo:lo + B] = stages
        for trace in traces:
            trace.final_inventory = tuple(stock[trace.replica - lo].tolist())
            trace.check_conservation(inst)
            result.traces.append(trace)
