import math

import numpy as np
import pytest

from mcassort import mcdlp, norepeat, simlab
from mcassort.mcdlp import McdlpVariant, MonteCarloEstimate, verify_policy_upper_bound
from mcassort.model import AssortmentFamily, CustomerType, Instance, InvalidInstanceError, Mnl, Tabular
from mcassort.norepeat import ALPHA_STAR
from mcassort.trace import RunSampler, serve_batches


def _solved_nr(seed, n=5, cap=2, m=4):
    inst = simlab.random_norepeat_instance(seed=seed, n=n, cap=cap, m=m)
    sol = mcdlp.solve_variant(inst, McdlpVariant.MCDLP_NR)
    return inst, sol


class TestAlgorithm3:
    def test_first_arrival_gating(self):
        inst, sol = _solved_nr(0)
        res = norepeat.run_algorithm3(inst, sol, replicas=500, seed=1, record_traces=100)
        for tr in res.traces:
            seen_types = set()
            for s in tr.steps:
                # a second arrival of a type would have produced records at a
                # later time-step; gating makes type/time pairs unique per type
                seen_types.add((s.customer_type, s.t))
            per_type = {}
            for j, t in seen_types:
                per_type.setdefault(j, set()).add(t)
            assert all(len(ts) == 1 for ts in per_type.values())

    def test_no_item_displayed_twice(self):
        inst, sol = _solved_nr(1)
        res = norepeat.run_algorithm3(inst, sol, replicas=400, seed=2, record_traces=400)
        for tr in res.traces:
            per_customer: dict = {}
            for s in tr.steps:
                key = (s.t, s.customer_type)
                prev = per_customer.setdefault(key, set())
                assert not (prev & set(s.offered)), "item displayed twice"
                prev |= set(s.offered)

    def test_requires_integralized_instance(self):
        inst = simlab.random_homog_instance(seed=0, n=4, stationary=False)
        sol = mcdlp.solve_variant(inst, McdlpVariant.MCDLP_NRS)
        with pytest.raises(ValueError, match="integralized"):
            norepeat.run_algorithm3(inst, sol, replicas=10, seed=0)

    def test_event_bounds_small_suite(self):
        a = ALPHA_STAR
        for seed in (3, 4):
            inst, sol = _solved_nr(seed, n=5, cap=2, m=5)
            res = norepeat.run_algorithm3(inst, sol, alpha=a, replicas=6000, seed=seed)
            for j in range(inst.m):
                cond = res.type_arrivals[j]
                if cond < res.min_condition_count:
                    continue
                # proven conditional bound: Pr[IMatch | Type] <= 1/(2 alpha)
                for i in range(inst.n_products):
                    freq = res.imatch[j, i] / cond
                    sigma = math.sqrt(max(freq * (1 - freq), 1e-9) / cond)
                    assert freq <= 1 / (2 * a) + 3 * sigma
                for k, S in enumerate(res.support[j]):
                    tc = res.timeout_cmatch.get((j, k), 0) / cond
                    sigma = math.sqrt(max(tc * (1 - tc), 1e-9) / cond)
                    assert tc <= 1 / (2 * a) + 2 / (3 * a * a) + 3 * sigma
                    for i in S:
                        sn = res.seen.get((j, k, i), 0) / cond
                        sigma = math.sqrt(max(sn * (1 - sn), 1e-9) / cond)
                        assert sn <= 1 / (2 * a) + 3 * sigma

    def test_ratio_and_upper_bound(self):
        inst, sol = _solved_nr(5, n=6, cap=3, m=5)
        res = norepeat.run_algorithm3(inst, sol, replicas=8000, seed=6)
        ratio = res.revenue_mean / sol.objective
        assert ratio >= 0.093 - 0.02
        verdict = verify_policy_upper_bound(
            inst, sol.objective, MonteCarloEstimate.from_samples(res.revenues))
        assert verdict.consistent


class TestModifiedAlgorithm3:
    def test_rejects_heterogeneous_revenues(self):
        inst, sol = _solved_nr(0)
        with pytest.raises(ValueError, match="homogeneous"):
            norepeat.run_modified_algorithm3(inst, sol, replicas=10, seed=0)

    def test_per_item_sale_bound_alpha3(self):
        inst = simlab.random_homog_instance(seed=7, n=5, cap=2, stationary=False)
        sol = mcdlp.solve_variant(inst, McdlpVariant.MCDLP_NRS)
        res = norepeat.run_modified_algorithm3(inst, sol, alpha=3.0,
                                               replicas=20_000, seed=8)
        # p_it = sum_j q_tj sum_{S ni i} x_j(S) p_j(i, S)
        from mcassort.model import choice_prob
        for item in range(inst.n_items):
            total = 0.0
            for t in range(inst.T):
                for j in range(inst.m):
                    q = inst.q(t, j)
                    for S, v in sol.plan[j].items():
                        for i in S:
                            if inst.products[i].item == item:
                                total += q * v * choice_prob(inst.types[j].choice, i, S)
            bound = 1 - math.exp(-total / 6.0)
            freq = res.item_sales[item] / res.replicas
            sigma = math.sqrt(max(freq * (1 - freq), 1e-9) / res.replicas)
            assert freq >= bound - 3 * sigma, (item, freq, bound)

    def test_ratio_beats_proven_bound(self):
        inst = simlab.random_homog_instance(seed=9, n=5, cap=2, stationary=False)
        sol = mcdlp.solve_variant(inst, McdlpVariant.MCDLP_NRS)
        res = norepeat.run_modified_algorithm3(inst, sol, alpha=3.0,
                                               replicas=10_000, seed=10)
        assert res.revenue_mean / sol.objective >= (1 - math.exp(-1 / 6)) - 0.02

    def test_zero_revenue_instance(self):
        inst0 = simlab.random_homog_instance(seed=11, n=3, cap=2, stationary=False)
        types = tuple(
            CustomerType(id=ct.id, arrival=ct.arrival, revenues=(0.0,) * inst0.n_products,
                         choice=ct.choice, patience=ct.patience)
            for ct in inst0.types
        )
        inst = Instance(T=inst0.T, items=inst0.items, products=inst0.products,
                        types=types, family=inst0.family)
        sol = mcdlp.solve_variant(inst, McdlpVariant.MCDLP_NRS)
        res = norepeat.run_modified_algorithm3(inst, sol, replicas=300, seed=1)
        assert res.revenue_mean == 0.0


class TestRandomPatience:
    def _with_leave_prob(self, inst, p_out):
        types = tuple(
            CustomerType(id=ct.id, arrival=ct.arrival, revenues=ct.revenues,
                         choice=ct.choice, leave_prob=p_out)
            for ct in inst.types
        )
        return Instance(T=inst.T, items=inst.items, products=inst.products,
                        types=types, family=inst.family)

    def test_pout_one_matches_patience_one(self):
        base = simlab.random_norepeat_instance(seed=12, n=4, cap=2, m=4)
        types1 = tuple(
            CustomerType(id=ct.id, arrival=ct.arrival, revenues=ct.revenues,
                         choice=ct.choice, patience=1)
            for ct in base.types
        )
        inst1 = Instance(T=base.T, items=base.items, products=base.products,
                         types=types1, family=base.family)
        instg = self._with_leave_prob(base, 1.0)
        sol1 = mcdlp.solve_variant(inst1, McdlpVariant.MCDLP_NR)
        solg = mcdlp.solve_variant(instg, McdlpVariant.MCDLP_NR)
        assert solg.objective == pytest.approx(sol1.objective, abs=1e-7)
        r1 = norepeat.run_algorithm3(inst1, sol1, replicas=20_000, seed=13)
        rg = norepeat.run_algorithm3_random_patience(instg, solg, replicas=20_000, seed=14)
        se = math.hypot(r1.revenue_se, rg.revenue_se)
        assert abs(r1.revenue_mean - rg.revenue_mean) <= 4 * se

    def test_mean_offers_bounded_by_expected_patience(self):
        base = simlab.random_norepeat_instance(seed=15, n=4, cap=2, m=4)
        inst = self._with_leave_prob(base, 0.5)
        sol = mcdlp.solve_variant(inst, McdlpVariant.MCDLP_NR)
        res = norepeat.run_algorithm3_random_patience(inst, sol, replicas=8000, seed=16)
        # each served customer views at most Geometric(1/2) stages: mean <= 2
        arrivals = res.type_arrivals.sum()
        mean_offers = res.offers_made.sum() / max(arrivals, 1)
        se = res.offers_made.std(ddof=1) / math.sqrt(len(res.offers_made))
        assert mean_offers <= 2.0 + 3 * se

    def test_ratio(self):
        base = simlab.random_norepeat_instance(seed=17, n=5, cap=2, m=5)
        inst = self._with_leave_prob(base, 0.4)
        sol = mcdlp.solve_variant(inst, McdlpVariant.MCDLP_NR)
        res = norepeat.run_algorithm3_random_patience(inst, sol, replicas=8000, seed=18)
        assert res.revenue_mean / sol.objective >= 0.093 - 0.02

    def test_rejects_deterministic_patience(self):
        inst, sol = _solved_nr(0)
        with pytest.raises(ValueError, match="leave_prob"):
            norepeat.run_algorithm3_random_patience(inst, sol, replicas=10, seed=0)

    @pytest.mark.parametrize("patience, leave_prob", [(2, 0.5), (None, None)])
    def test_rejects_type_without_exactly_one_patience_rule(self, patience, leave_prob):
        # the walk reads both fields, so validate refuses a type with both or neither
        inst, sol = _solved_nr(0)
        types = list(inst.types)
        ct = types[1]
        types[1] = CustomerType(id=ct.id, arrival=ct.arrival, revenues=ct.revenues,
                                choice=ct.choice, patience=patience, leave_prob=leave_prob)
        bad = Instance(T=inst.T, items=inst.items, products=inst.products,
                       types=tuple(types), family=inst.family)
        with pytest.raises(InvalidInstanceError) as refused:
            norepeat._run(bad, sol, ALPHA_STAR, 10, 0, gate_first_arrival=True)
        assert "type 1: exactly one of patience and leave_prob must be set" in refused.value.violations


class TestInputsRefused:
    @pytest.mark.parametrize("alpha", [0.0, math.nan])
    def test_alpha_not_positive(self, alpha):
        inst, sol = _solved_nr(seed=2)
        with pytest.raises(ValueError, match="alpha must be positive"):
            norepeat.run_algorithm3(inst, sol, alpha=alpha, replicas=3, seed=0)

    @pytest.mark.parametrize("plan_shape, inst_shape, message", [
        ((4, 5), (6, 5), "plan has 4 customer types, the instance has 6"),
        ((6, 5), (4, 5), "plan has 6 customer types, the instance has 4"),
        ((4, 7), (4, 5), "plan names 6 products, the instance has 5"),
    ], ids=["fewer-types", "more-types", "more-products"])
    def test_plan_for_another_instance(self, plan_shape, inst_shape, message):
        _, sol = _solved_nr(seed=2, n=plan_shape[1], m=plan_shape[0])
        inst = simlab.random_norepeat_instance(seed=2, n=inst_shape[1], cap=2, m=inst_shape[0])
        with pytest.raises(ValueError, match=message):
            norepeat.run_algorithm3(inst, sol, replicas=3, seed=0)


class TestInvariantsRaise:
    PAIR = frozenset({0, 1})

    def _instance(self, entries, inventories):
        ct = CustomerType(id=0, arrival=1.0, revenues=(1.0, 1.0), choice=Tabular(entries=entries),
                          patience=1)
        return Instance.single_level(T=1, inventories=inventories, types=(ct,),
                                     family=AssortmentFamily.explicit([self.PAIR]))

    def _plan(self, S):
        return mcdlp.McdlpSolution(McdlpVariant.MCDLP_NR, 1.0, (S,), ({S: 1.0},), lp=None)

    def test_substitutability_violation_raises(self):
        # a doctored table: stripping product 1 lowers product 0's probability
        entries = {(0, self.PAIR): 0.5, (1, self.PAIR): 0.3,
                   (0, frozenset({0})): 0.2, (1, frozenset({1})): 0.4}
        inst = self._instance(entries, inventories=[1, 0])
        with pytest.raises(RuntimeError, match="substitutability broken"):
            norepeat.run_algorithm3(inst, self._plan(self.PAIR), alpha=1.0, replicas=3, seed=0)

    def test_negative_stock_raises(self):
        # a step that sells product 0 although its item has no unit left; the
        # engine books every policy's sales, so the check fires there
        S = frozenset({0})
        inst = self._instance({(0, S): 1.0, (0, self.PAIR): 0.5, (1, self.PAIR): 0.5}, [0, 1])
        result = simlab.BenchmarkResult(replicas=3, revenues=np.zeros(3), item_sales=np.zeros(2),
                                        offers_made=np.zeros(3))
        step = lambda rng, t, j, first, avail, traces: (np.zeros(len(j), dtype=np.int64),
                                                          np.ones(len(j), dtype=np.int64))
        with pytest.raises(RuntimeError, match="negative stock of item 0"):
            serve_batches(inst, result, 0, 0, RunSampler(inst), step)
