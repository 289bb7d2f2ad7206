"""The replica-batched serving engine against exact values and the scalar
reference, including product counts past one machine word."""
import tracemalloc

import numpy as np
import pytest

import scalar_serving as scalar
from mcassort import mcdlp, norepeat, simlab
from mcassort.mcdlp import McdlpVariant
from mcassort.trace import RunSampler


def _small_hotel():
    return simlab.build_hotel_instance(simlab.gen_hotel_like(seed=3, n_types=6), 2.0,
                                       scale_factor=2.0, patience=2, cap=3, seed=1)


class TestBenchmarkAgainstExactValue:
    def test_dynamic_program_reproduces_the_known_value(self):
        inst = simlab.random_norepeat_instance(seed=3, n=6, cap=3, m=4)
        assert scalar.benchmark_exact_revenue(inst, "greedy") == pytest.approx(3.18194, abs=5e-6)

    @pytest.mark.parametrize("make, policy, seed", [
        (lambda: simlab.random_norepeat_instance(seed=3, n=6, cap=3, m=4), "greedy", 21),
        (_small_hotel, "greedy", 22),
        (_small_hotel, "conservative", 23),
    ], ids=["norepeat-greedy", "hotel-greedy", "hotel-conservative"])
    def test_batched_mean_within_3_se_of_exact(self, make, policy, seed):
        inst = make()
        exact = scalar.benchmark_exact_revenue(inst, policy)
        res = simlab.run_benchmark(inst, policy, 40_000, seed=seed)
        assert abs(res.revenue_mean - exact) <= 3 * res.revenue_se, (res.revenue_mean, res.revenue_se, exact)


class TestProductsPastOneWord:
    """gen_gap_instance(12) has 66 products: masks are bytes, not one int64."""

    @pytest.fixture(scope="class")
    def gap(self):
        inst = simlab.gen_gap_instance(12)
        return inst, mcdlp.solve_variant(inst, McdlpVariant.MCDLP_NR)

    @pytest.mark.parametrize("policy", ["greedy", "algorithm3"])
    def test_agrees_with_scalar_reference(self, gap, policy):
        inst, sol = gap
        assert inst.n_products == 66
        if policy == "greedy":
            run = lambda mod, seed: mod.run_benchmark(inst, "greedy", 4000, seed=seed)
        else:
            run = lambda mod, seed: mod.run_algorithm3(inst, sol, replicas=4000, seed=seed)
        tracemalloc.start()
        try:
            fast = run(simlab if policy == "greedy" else norepeat, 31)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        slow = run(scalar, 32)
        assert scalar.disagreements(inst, fast, slow) == []
        assert fast.revenue_mean > 0
        # no table indexed by product subsets: the run stays within a few MB
        assert peak < 32 * 2**20, peak
        assert np.isfinite(fast.revenues).all()


class TestOneCachePerRun:
    """The per-run memo is the only serving cache: per run each memo key is
    built once, and each build registers exactly one display."""

    @staticmethod
    def _count(monkeypatch, module):
        """Record each memo build ((head, mask), display index) and each
        registered (type, mask) of the runs ``module`` serves."""
        built, registered = [], []
        lookup, display = module.memo_lookup, RunSampler.display

        def counted_lookup(memo, head, masks, make):
            def counted_make(key_head, mask):
                idx = make(key_head, mask)
                built.append(((key_head, mask), idx))
                return idx
            return lookup(memo, head, masks, counted_make)

        def counted_display(sampler, j, displayed):
            registered.append((j, displayed))
            return display(sampler, j, displayed)

        monkeypatch.setattr(module, "memo_lookup", counted_lookup)
        monkeypatch.setattr(RunSampler, "display", counted_display)
        return built, registered

    @pytest.mark.parametrize("policy", ["greedy", "conservative"])
    def test_benchmark(self, monkeypatch, policy):
        built, registered = self._count(monkeypatch, simlab)
        asked = []
        choose = simlab._GreedyChooser.choose

        def counted_choose(chooser, j, mask):
            asked.append((j, mask))
            return choose(chooser, j, mask)

        monkeypatch.setattr(simlab._GreedyChooser, "choose", counted_choose)
        simlab.run_benchmark(_small_hotel(), policy, 3000, seed=5)
        keys = [key for key, _ in built]
        assert len(set(keys)) == len(keys) > 0
        assert asked == keys
        # a miss whose best display is empty registers none
        assert [idx for _, idx in built if idx >= 0] == list(range(len(registered)))

    @pytest.mark.parametrize("gated", [True, False], ids=["algorithm3", "modified-algorithm3"])
    def test_norepeat(self, monkeypatch, gated):
        inst = _small_hotel()
        sol = mcdlp.solve_variant(inst, McdlpVariant.MMCDLP_NR)
        built, registered = self._count(monkeypatch, norepeat)
        norepeat._run(inst, sol, alpha=1.0, replicas=3000, seed=5, gate_first_arrival=gated)
        keys = [key for key, _ in built]
        assert len(set(keys)) == len(keys) > 0
        assert [idx for _, idx in built] == list(range(len(registered)))
        assert [mask for _, mask in registered] == [mask for _, mask in keys]
