"""The per-run sampler against draw-by-draw scalar oracles.

``draw_type`` and ``draw_choice`` are the running-sum loops the simulators
used before ``RunSampler``: one ``rng.random()`` per draw, compared against
the probabilities added up one at a time.  The sampler's batched draws must
give every uniform the outcome the loop gives it, including when the uniform
lands exactly on a partial sum.
"""
import math
import random
from itertools import accumulate

import numpy as np
import pytest

from mcassort.model import (
    AssortmentFamily,
    ChoiceModel,
    CustomerType,
    Instance,
    Mnl,
    Tabular,
    choice_prob,
)
from mcassort.trace import RunSampler


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


class _Replay:
    """A generator stand-in that returns preset uniforms in order."""

    def __init__(self, values):
        self.values = list(values)

    def random(self) -> float:
        return self.values.pop(0)


def _bits(S) -> int:
    return sum(1 << i for i in S)


def _types(sampler: RunSampler, inst: Instance, t: int, us) -> list:
    """The sampler's batched arrival draws, with None for no arrival."""
    return [None if j == inst.m else int(j) for j in sampler.draw_types(t, np.array(us, dtype=float))]


def _choices(sampler: RunSampler, j: int, S, us) -> list:
    """The sampler's batched purchase draws from display ``S`` to type ``j``."""
    shown = np.full(len(us), sampler.display(j, _bits(S)))
    return [None if i < 0 else int(i) for i in sampler.draw_purchases(shown, np.array(us, dtype=float))]


def _arrival_instance(rng: random.Random, m: int, T: int, n: int = 4) -> Instance:
    """Non-stationary arrivals with zero-probability types and mass below,
    at or just under one."""
    rows = []
    for _ in range(T):
        w = [0.0 if rng.random() < 0.3 else rng.random() for _ in range(m)]
        mass = rng.choice([1.0, 0.999999, rng.uniform(0.2, 0.95)])
        total = sum(w) or 1.0
        rows.append([x / total * mass for x in w])
    types = [
        CustomerType(id=j, arrival=tuple(row[j] for row in rows), revenues=(1.0,) * n,
                     choice=Mnl(weights=tuple(rng.uniform(0.2, 2.0) for _ in range(n)),
                                no_purchase=rng.uniform(0.5, 2.0)),
                     patience=2)
        for j in range(m)
    ]
    return Instance.single_level(T=T, inventories=[1] * n, types=types,
                                 family=AssortmentFamily.size_capped(n))


class TestArrivals:
    @pytest.mark.parametrize("seed", range(6))
    def test_same_draws_as_oracle(self, seed):
        gen = random.Random(seed)
        inst = _arrival_instance(gen, m=gen.randint(1, 7), T=5)
        sampler = RunSampler(inst)
        a = random.Random(100 + seed)
        for t in range(inst.T):
            us = [a.random() for _ in range(400)]
            assert _types(sampler, inst, t, us) == [draw_type(inst, t, _Replay([u])) for u in us]

    def test_uniform_on_a_partial_sum(self):
        inst = _arrival_instance(random.Random(7), m=6, T=3)
        sampler = RunSampler(inst)
        for t in range(inst.T):
            sums = list(accumulate(inst.q(t, j) for j in range(inst.m)))
            probes = [0.0] + sums + [math.nextafter(s, 0.0) for s in sums] + [0.9999999999999999]
            probes = [u for u in probes if 0.0 <= u < 1.0]
            got = _types(sampler, inst, t, probes)
            want = [draw_type(inst, t, _Replay([u])) for u in probes]
            assert got == want
            # a uniform equal to a partial sum belongs to the next positive type
            for u in sums:
                if u < 1.0:
                    (j,) = _types(sampler, inst, t, [u])
                    assert j is None or sums[j] > u

    def test_stationary_uses_one_row(self):
        ct = CustomerType(id=0, arrival=0.25, revenues=(1.0,), choice=Mnl((1.0,), 1.0), patience=1)
        ct2 = CustomerType(id=1, arrival=0.5, revenues=(1.0,), choice=Mnl((1.0,), 1.0), patience=1)
        inst = Instance.single_level(T=3, inventories=[1], types=(ct, ct2),
                                     family=AssortmentFamily.size_capped(1))
        sampler = RunSampler(inst)
        for t in range(3):
            assert _types(sampler, inst, t, (0.0, 0.25, 0.5, 0.75, 0.9)) == [0, 1, 1, None, None]


class TestPurchases:
    def _models(self, gen: random.Random, n: int) -> list:
        mnl = Mnl(weights=tuple(gen.uniform(0.1, 3.0) for _ in range(n)), no_purchase=gen.uniform(0.5, 3.0))
        sets = [frozenset(S) for S in AssortmentFamily.size_capped(n).assortments(n)]
        # a table with zero-probability entries and a set summing to one
        entries = {}
        for S in sets:
            w = {i: (0.0 if gen.random() < 0.25 else gen.random()) for i in S}
            mass = 1.0 if len(S) == n else gen.uniform(0.3, 0.9)
            total = sum(w.values()) or 1.0
            entries.update({(i, S): w[i] / total * mass for i in S})
        return [mnl, Tabular(entries=entries)]

    @pytest.mark.parametrize("seed", range(4))
    def test_same_draws_as_oracle(self, seed):
        gen = random.Random(seed)
        n = 5
        models = self._models(gen, n)
        types = [CustomerType(id=j, arrival=0.5, revenues=(1.0,) * n, choice=model, patience=1)
                 for j, model in enumerate(models)]
        inst = Instance.single_level(T=2, inventories=[1] * n, types=types,
                                     family=AssortmentFamily.size_capped(n))
        sampler = RunSampler(inst)
        a = random.Random(200 + seed)
        for _ in range(600):
            j = gen.randrange(len(models))
            S = frozenset(i for i in range(n) if gen.random() < 0.5)
            us = [a.random() for _ in range(3)]
            assert _choices(sampler, j, S, us) == [draw_choice(models[j], S, _Replay([u])) for u in us]
        for j, model in enumerate(models):
            for S in AssortmentFamily.size_capped(n).assortments(n):
                sums = list(accumulate(choice_prob(model, i, S) for i in sorted(S)))
                probes = [u for u in [0.0] + sums if u < 1.0]
                got = _choices(sampler, j, S, probes)
                assert got == [draw_choice(model, S, _Replay([u])) for u in probes]

    def test_purchase_row(self):
        """Each ``display`` call registers one new row: its items, running
        purchase sums and shown mask, equal rows for a repeated display."""
        mnl = Mnl(weights=(1.0, 2.0, 3.0), no_purchase=4.0)
        ct = CustomerType(id=0, arrival=1.0, revenues=(1.0,) * 3, choice=mnl, patience=1)
        inst = Instance.single_level(T=1, inventories=[1] * 3, types=(ct,),
                                     family=AssortmentFamily.size_capped(3))
        sampler = RunSampler(inst)
        assert [sampler.display(0, 0b101), sampler.display(0, 0), sampler.display(0, 0b101)] == [0, 1, 2]
        assert sampler.offered == [(0, 2), (), (0, 2)]
        assert sampler._cdf[:3].tolist() == [[1.0 / 8.0, 1.0 / 8.0 + 3.0 / 8.0], [2.0, 2.0],
                                             [1.0 / 8.0, 1.0 / 8.0 + 3.0 / 8.0]]
        assert sampler._items[:3].tolist() == [[0, 2, -1], [-1, -1, -1], [0, 2, -1]]
        assert sampler.shown[:3].tolist() == [[True, False, True], [False, False, False], [True, False, True]]
        us = np.array([0.0, 0.2, 0.6, 0.0])
        assert sampler.draw_purchases(np.array([0, 2, 0, 1]), us).tolist() == [0, 2, -1, -1]
