"""The replica-batched serving engine against exact values and the scalar
reference, including product counts past one machine word."""
import tracemalloc

import numpy as np
import pytest

import scalar_serving as scalar
from mcassort import mcdlp, norepeat, simlab
from mcassort.mcdlp import McdlpVariant


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
