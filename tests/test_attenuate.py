import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mcassort import attenuate, mcdlp, simlab
from mcassort.attenuate import gamma_schedule, h_limit
from mcassort.mcdlp import McdlpVariant
from mcassort.model import (
    AssortmentFamily,
    CustomerType,
    Instance,
    Mnl,
    Tabular,
)


def _toy_instance(p=0.5, r=1.0):
    ct = CustomerType(id=0, arrival=1.0, revenues=(r,),
                      choice=Tabular(entries={}, item_probs=(p,)), patience=1)
    return Instance.single_level(T=1, inventories=[1], types=(ct,),
                                 family=AssortmentFamily.size_capped(1),
                                 matching_with_timeouts=True)


def _kernel_estimates(inst, plan, factors, t, budget, seed):
    """Availability at the start of step ``t`` and the (type, item)
    pre-attenuation offer estimates there, from one fresh engine ensemble of
    ``budget`` replicas run through the attenuated steps 1..t-1."""
    kern = attenuate._matching_kernel(inst, plan, allow_uncertified=False)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    avail = kern.prefix(kern.edge_factors(factors), factors.vertex, t, budget, rng)
    return avail.mean(axis=0), kern.offer_estimates(avail, rng)[0][:, :, 0]


class TestGammaSchedule:
    def test_one_step_closed_form(self):
        sched = gamma_schedule(1)
        assert sched.gamma(2) == pytest.approx(math.exp(-1))

    def test_h_limit_value(self):
        assert h_limit(1.0) == pytest.approx(math.log(2 - 1 / math.e), abs=1e-12)

    def test_monotone_decreasing_and_capped_by_h1(self):
        for T in (1, 3, 10, 100, 1000):
            sched = gamma_schedule(T)
            vals = sched.values
            assert vals[0] == 1.0
            assert all(b < a for a, b in zip(vals, vals[1:]))
            assert vals[-1] <= h_limit(1.0) + 1e-12
            assert all(0 < g <= 1 for g in vals)

    def test_recursion_exact(self):
        sched = gamma_schedule(50)
        for t in range(1, 51):
            expect = sched.gamma(t) - (1 - math.exp(-sched.gamma(t))) / 50
            assert sched.gamma(t + 1) == expect  # recursion holds bit for bit

    def test_gamma_final_nondecreasing_in_T(self):
        finals = [gamma_schedule(T).gamma(T + 1) for T in (1, 2, 5, 10, 50, 200, 1000)]
        assert all(a <= b + 1e-15 for a, b in zip(finals, finals[1:]))

    def test_ratio_telescopes(self):
        sched = gamma_schedule(37)
        assert sched.ratio == pytest.approx(1.0 - sched.gamma(38), abs=1e-12)


class TestToyAccept:
    def test_accept_rate_matches_theory(self):
        inst = _toy_instance()
        sol = mcdlp.solve_variant(inst, McdlpVariant.SINGLE_ITEM)
        res = attenuate.run_algorithm1(inst, sol, mc_budget=2000,
                                       replicas=120_000, seed=3)
        target = (1 - math.exp(-1)) * 0.5  # x* = 1, q = 1, gamma_1 = 1
        freq = res.accept_freq[0, 0, 0]
        sigma = math.sqrt(target * (1 - target) / res.replicas)
        assert freq == pytest.approx(target, abs=4 * sigma)

    def test_t2_pre_vertex_survival_and_estimator_determinism(self):
        # with the step-1 edge factor in place but vertex damping still off,
        # the item survives to t=2 w.p. 1 - (1-1/e)/2 ~ 0.684; the vertex
        # factor is exactly what pushes that down to gamma_2 = 1/e
        ct = CustomerType(id=0, arrival=1.0, revenues=(1.0,),
                          choice=Tabular(entries={}, item_probs=(0.5,)), patience=1)
        inst = Instance.single_level(T=2, inventories=[1], types=(ct,),
                                     family=AssortmentFamily.size_capped(1),
                                     matching_with_timeouts=True)
        sol = mcdlp.solve_variant(inst, McdlpVariant.SINGLE_ITEM)
        budget = 20_000
        factors = attenuate.compute_attenuation_factors(inst, sol, budget, seed=3)
        pre = attenuate.AttenuationFactors(
            edge=factors.edge, vertex=np.ones_like(factors.vertex),
            surv_rel_var=factors.surv_rel_var, mc_budget=budget)
        avail, offer = _kernel_estimates(inst, sol, pre, 2, budget, seed=4)
        avail_se = math.sqrt(avail[0] * (1 - avail[0]) / budget)
        expect = 1 - (1 - math.exp(-1)) * 0.5
        assert avail[0] == pytest.approx(expect, abs=4 * avail_se + 3 * expect / math.sqrt(budget))
        avail2, offer2 = _kernel_estimates(inst, sol, pre, 2, budget, seed=4)
        assert (avail == avail2).all()
        assert (offer == offer2).all()

    def test_t2_availability_tracks_vertex_target(self):
        # two steps on the toy: availability before attenuation ~ 1 - 0.316,
        # after vertex attenuation it must sit at gamma_2
        ct = CustomerType(id=0, arrival=1.0, revenues=(1.0,),
                          choice=Tabular(entries={}, item_probs=(0.5,)), patience=1)
        inst = Instance.single_level(T=2, inventories=[1], types=(ct,),
                                     family=AssortmentFamily.size_capped(1),
                                     matching_with_timeouts=True)
        sol = mcdlp.solve_variant(inst, McdlpVariant.SINGLE_ITEM)
        res = attenuate.run_algorithm1(inst, sol, mc_budget=4000,
                                       replicas=80_000, seed=5)
        sched = res.schedule
        diff = abs(res.avail_freq[1, 0] - sched.gamma(2))
        assert diff <= 4 * res.avail_sigma(2)[0] + 1e-9


class TestHardnessFifty:
    def test_ratio_on_symmetric_hardness_instance(self):
        # symmetric n = 50 instance: certified under both hypotheses, the
        # attenuated policy must keep at least a 0.49 fraction of the LP
        inst = simlab.gen_hardness_instance(50)
        sol = mcdlp.solve_variant(inst, McdlpVariant.SINGLE_ITEM)
        assert sol.objective == pytest.approx(50.0, abs=1e-5)
        res = attenuate.run_algorithm1(inst, sol, mc_budget=2000,
                                       replicas=4000, seed=31)
        ratio = res.revenue_mean / sol.objective
        assert ratio >= 0.51 - 0.02
        assert res.revenue_mean <= sol.objective + 3 * res.revenue_se


class TestHypothesisGate:
    def test_uncertified_instance_rejected(self):
        # sum p = 1.8 > 1 and patience < n for the single type
        ct = CustomerType(id=0, arrival=1.0, revenues=(1.0, 1.0),
                          choice=Tabular(entries={}, item_probs=(0.9, 0.9)), patience=1)
        inst = Instance.single_level(T=1, inventories=[1, 1], types=(ct,),
                                     family=AssortmentFamily.size_capped(1),
                                     matching_with_timeouts=True)
        sol = mcdlp.solve_variant(inst, McdlpVariant.SINGLE_ITEM)
        with pytest.raises(ValueError, match="hypothesis"):
            attenuate.run_algorithm1(inst, sol, mc_budget=100, replicas=100, seed=0)
        res = attenuate.run_algorithm1(inst, sol, mc_budget=400, replicas=400,
                                       seed=0, allow_uncertified=True)
        assert res.revenue_mean >= 0.0


class TestAlgorithm6:
    def test_single_assortment_accept_rate(self):
        ct = CustomerType(id=0, arrival=1.0, revenues=(1.0, 1.0),
                          choice=Mnl(weights=(1.0, 1.0), no_purchase=1.0), patience=1)
        inst = Instance.single_level(T=1, inventories=[1, 1], types=(ct,),
                                     family=AssortmentFamily.explicit([[0, 1]]),
                                     repeated_offers_allowed=True)
        sol = mcdlp.solve_variant(inst, McdlpVariant.MCDLP_R)
        budget = 20_000
        res, factors = attenuate.run_algorithm6(inst, sol, mc_budget=budget,
                                                replicas=150_000, seed=2)
        x = sol.plan[0][frozenset({0, 1})]
        target = (1 - math.exp(-1)) * (1 / 3) * x
        for i in (0, 1):
            freq = res.accept_freq[0, 0, i]
            sigma = math.sqrt(
                target * (1 - target) / res.replicas  # evaluation noise
                + (target ** 2) * (1 - 1 / 3) / ((1 / 3) * budget)  # factor noise
            )
            assert freq == pytest.approx(target, abs=4 * sigma)

    def test_singleton_family_matches_algorithm1(self):
        # with singleton assortments the two policies have the same law
        inst1 = simlab.random_matching_instance(seed=8, n=4, m=3, T=5, certify="full")
        inst6 = Instance(
            T=inst1.T, items=inst1.items, products=inst1.products, types=inst1.types,
            family=inst1.family, price_levels=1, repeated_offers_allowed=True,
        )
        sol = mcdlp.solve_variant(inst1, McdlpVariant.SINGLE_ITEM)
        res1 = attenuate.run_algorithm1(inst1, sol, mc_budget=4000,
                                        replicas=60_000, seed=11)
        sol6 = mcdlp.McdlpSolution(McdlpVariant.MCDLP_R, sol.objective,
                                   sol.assortments, sol.plan, sol.lp)
        res6, _ = attenuate.run_algorithm6(inst6, sol6, mc_budget=4000,
                                           replicas=60_000, seed=12)
        # mean revenue and availability trajectories agree statistically
        se = math.hypot(res1.revenue_se, res6.revenue_se)
        factor_rel = 2.0 / math.sqrt(4000)  # factor estimation noise, both runs
        tol = 4 * se + factor_rel * max(res1.revenue_mean, res6.revenue_mean)
        assert abs(res1.revenue_mean - res6.revenue_mean) <= tol
        for t in range(1, inst1.T + 2):
            d = np.abs(res1.avail_freq[t - 1] - res6.avail_freq[t - 1])
            tol_t = 4 * (res1.avail_sigma(t) + res6.avail_sigma(t)) + 1e-9
            assert (d <= tol_t).all()

    def test_sold_out_items_never_offered(self):
        # per-path check on the scalar assortment walk via batch internals:
        # after an item sells, no later offered set may contain it.  The
        # vectorized kernel enforces this by masking; spot-check via seeds.
        ct = CustomerType(id=0, arrival=1.0, revenues=(1.0, 1.0, 1.0),
                          choice=Mnl(weights=(1.0, 1.0, 1.0), no_purchase=1.0),
                          patience=2)
        inst = Instance.single_level(
            T=3, inventories=[1, 1, 1], types=(ct,),
            family=AssortmentFamily.explicit([[0, 1], [1, 2]]),
            repeated_offers_allowed=True,
        )
        sol = mcdlp.solve_variant(inst, McdlpVariant.MCDLP_R)
        kern = attenuate._assortment_kernel(inst, sol, allow_uncertified=True)
        rng = np.random.default_rng(0)
        avail = np.ones((2000, 3), dtype=bool)
        types = np.zeros(2000, dtype=np.int64)
        edge = np.ones((kern.m, kern.K, kern.L))
        for t in range(3):
            coins = kern._coins(avail, types)
            # an unavailable item contributes nothing to any assortment mass,
            # and a set with nothing left to show is never flipped
            for k, S in enumerate(kern.sets[0]):
                val = kern._slot_probs(coins, np.arange(2000), np.full(2000, k))
                assert (val[~avail[:, kern.items[0, k]]] == 0).all()
                dead = ~avail[:, sorted(S)].any(axis=1)
                assert (coins.mass[dead, k] == 0).all()
                assert (coins.weight[dead, k] == 0).all()
            kern.advance(avail, edge, np.ones(3), rng)

    def test_alg6_result_carries_its_factors(self):
        ct = CustomerType(id=0, arrival=0.8, revenues=(1.0, 2.0, 1.5),
                          choice=Mnl(weights=(1.0, 0.5, 0.8), no_purchase=1.0), patience=3)
        inst = Instance.single_level(
            T=3, inventories=[1, 1, 1], types=(ct,),
            family=AssortmentFamily.explicit([[0, 1], [1, 2], [0, 2]]),
            repeated_offers_allowed=True,
        )
        sol = mcdlp.solve_variant(inst, McdlpVariant.MCDLP_R)
        res, factors = attenuate.run_algorithm6(inst, sol, mc_budget=200, replicas=300, seed=1)
        assert res.factors is factors
        assert factors.edge.shape[:2] == (inst.T, inst.m) and factors.edge.shape[3] == 2
        assert res.accept_freq.shape == (inst.T, inst.m, inst.n_products)

    def test_general_tabular_path_reproduces_mnl(self):
        # a table holding an MNL's probabilities on every set and stripped
        # subset is evaluated row by row (coin masses, within-set draws and
        # offer estimates); it must reproduce the closed-form MNL run
        mnl = Mnl(weights=(1.0, 0.5, 0.8), no_purchase=1.0)
        subsets = [frozenset(S) for S in ([0], [1], [2], [0, 1], [1, 2], [0, 2])]
        table = Tabular(entries={(i, S): mnl.prob(i, S) for S in subsets for i in S})
        runs = []
        for choice in (mnl, table):
            ct = CustomerType(id=0, arrival=0.8, revenues=(1.0, 2.0, 1.5), choice=choice, patience=3)
            inst = Instance.single_level(
                T=3, inventories=[1, 1, 1], types=(ct,),
                family=AssortmentFamily.explicit([[0, 1], [1, 2], [0, 2]]),
                repeated_offers_allowed=True,
            )
            if choice is mnl:
                sol = mcdlp.solve_variant(inst, McdlpVariant.MCDLP_R)
            kern = attenuate._assortment_kernel(inst, sol, allow_uncertified=False)
            assert kern.general.tolist() == [choice is table]
            runs.append(attenuate.run_algorithm6(inst, sol, mc_budget=300, replicas=400, seed=3))
        (res_m, fac_m), (res_t, fac_t) = runs
        assert 0 < fac_m.edge.min() < 1  # the offer estimates are exercised
        np.testing.assert_allclose(fac_t.edge, fac_m.edge, rtol=1e-9)
        np.testing.assert_allclose(fac_t.vertex, fac_m.vertex, rtol=1e-9)
        assert fac_t.diagnostics == fac_m.diagnostics
        np.testing.assert_array_equal(res_t.accept_freq, res_m.accept_freq)
        np.testing.assert_array_equal(res_t.revenues, res_m.revenues)
        assert res_m.accept_freq.sum() > 0


GOLDEN = Path(__file__).parent / "data" / "attenuation_golden.npz"


def _handset_factors(T, m, n):
    t, j, i = np.meshgrid(np.arange(T), np.arange(m), np.arange(n), indexing="ij")
    edge = 0.55 + 0.45 * ((3 * t + 5 * j + 7 * i) % 11) / 10
    vertex = 0.8 + 0.2 * ((2 * t[:, 0, :] + i[:, 0, :]) % 5) / 4
    return attenuate.AttenuationFactors(edge=edge, vertex=vertex,
                                        surv_rel_var=np.zeros((T, n)), mc_budget=1)


def _sha(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


class TestMatchingGoldens:
    """Algorithm 1 on the shared engine reproduces the separate matching
    kernel it replaced draw for draw.

    The plans, factors and digests were recorded from that kernel: hand-set
    factors (``_handset_factors``) evaluated with ``replicas=3000, seed=7``;
    the availability and offer estimates at t=3 from a budget-300 ensemble
    drawn from seed 2 (``_kernel_estimates``); and
    ``compute_attenuation_factors`` with budget 400 and seed 9.
    """

    CASES = {
        "hardness": (lambda: simlab.gen_hardness_instance(14), {
            "revenues": "0d72710c6d6723257113b95cf112b1fdd52376709d05a090ad2a85beea36c426",
            "avail_freq": "653c1dbae6eb13baefed5a6e9caf75267ecaa25c8812fb5841b16490180622ce",
            "accept_freq": "cb0d88bde218a410f3deb4ed2d8091fe97735b4e2e374de6b0d439d266ddc463",
            "availability": "6f53de3012e0b92aa397fc4b8b4813b075597443490188f7bd3cf601e636c023",
            "offer": "ff4437328d8f3b8c4d0be8b3b3f3d23a41701fcc03f73fa375ec2b9cb8902c37",
        }),
        "random": (lambda: simlab.random_matching_instance(seed=4, n=5, m=3, T=6), {
            "revenues": "441b09c68216bba3709b20048a30c3618971bb304796163a47c11ee672ce6e08",
            "avail_freq": "be933108a8fc8f8844f5f148c89b3f88b7873a632c2a682abb4dca929e54239c",
            "accept_freq": "e222356736e98de41f2da6f6bf9fdfb180651e7464ef29441586ee5e51adecbd",
            "availability": "4c4136f12fd33bd9c28408f12e7d2fbcea6e1adf6a8db18ae9bd36be0acffe38",
            "offer": "acf34384a2a8f41ce1271d0615e5d9685fd5e045505d26e727e596d144c508bc",
        }),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_handset_factors_bit_identical(self, name):
        make, want = self.CASES[name]
        inst = make()
        plan = np.load(GOLDEN)[f"{name}_plan"]
        fac = _handset_factors(inst.T, inst.m, inst.n_products)
        res = attenuate.run_algorithm1(inst, plan, replicas=3000, seed=7, factors=fac)
        for key in ("revenues", "avail_freq", "accept_freq"):
            assert _sha(getattr(res, key)) == want[key], key
        availability, offer = _kernel_estimates(inst, plan, fac, 3, 300, seed=2)
        assert offer.shape == (inst.m, inst.n_products)
        assert _sha(availability) == want["availability"]
        assert _sha(offer) == want["offer"]

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_factors_match_recorded(self, name):
        make, _ = self.CASES[name]
        inst = make()
        golden = np.load(GOLDEN)
        f = attenuate.compute_attenuation_factors(inst, golden[f"{name}_plan"], mc_budget=400, seed=9)
        edge = f.edge.reshape(golden[f"{name}_edge"].shape)
        for got, key in ((edge, "edge"), (f.vertex, "vertex"), (f.surv_rel_var, "surv_rel_var")):
            np.testing.assert_allclose(got, golden[f"{name}_{key}"], rtol=1e-12, atol=0)
        assert f.diagnostics == golden[f"{name}_diagnostics"].tolist()


class TestInvariantsRaise:
    def _trace(self):
        inst = simlab.random_matching_instance(seed=4, n=5, m=3, T=6)
        res = simlab.run_benchmark(inst, "greedy", replicas=10, seed=1, record_traces=10)
        return inst, next(tr for tr in res.traces if any(s.purchased is not None for s in tr.steps))

    def test_doctored_trace_fails_conservation(self):
        inst, tr = self._trace()
        tr.check_conservation(inst)
        tr.final_inventory = tuple(1 for _ in tr.final_inventory)  # hide a sale
        with pytest.raises(RuntimeError, match="conservation"):
            tr.check_conservation(inst)

    def test_conservation_check_survives_optimize_flag(self):
        code = (
            "from mcassort import simlab\n"
            "from mcassort.trace import PolicyTrace, StepRecord\n"
            "inst = simlab.random_matching_instance(seed=4, n=5, m=3, T=6)\n"
            "tr = PolicyTrace(0, (1,) * 5, [StepRecord(1, 0, 1, (2,), 2, 1.0)], (1,) * 5)\n"
            "try:\n"
            "    tr.check_conservation(inst)\n"
            "except RuntimeError as exc:\n"
            "    print('raised:', exc)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                              text=True, env=env, timeout=120, check=True)
        assert "raised: inventory conservation violated" in done.stdout

    def test_gamma_schedule_check_survives_optimize_flag(self):
        # with h(1) patched to 0 every schedule breaks gamma_{T+1} <= h(1)
        code = (
            "from mcassort import attenuate\n"
            "attenuate.h_limit = lambda z: 0.0\n"
            "try:\n"
            "    attenuate.gamma_schedule(10)\n"
            "except RuntimeError as exc:\n"
            "    print('raised:', exc)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                              text=True, env=env, timeout=120, check=True)
        assert "raised:" in done.stdout and "must not exceed h(1)" in done.stdout
