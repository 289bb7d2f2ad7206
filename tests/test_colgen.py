import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcassort import colgen, mcdlp, simlab
from mcassort.colgen import (
    BruteForceOracle,
    DualBundle,
    FamilyTable,
    FptasConfig,
    MnlExactOracle,
    MnlFptasOracle,
    SubproblemInstance,
    column_generate,
    subproblem_bruteforce,
    subproblem_mnl_fptas,
    subproblem_mnl_repeated,
)
from mcassort.mcdlp import McdlpVariant
from mcassort.model import AssortmentFamily, Mnl, Tabular


def _random_sub(rng, n, sigma_scale=1.0, family=None):
    w = rng.uniform(0.1, 1.5, n)
    v = rng.uniform(0.3, 1.2, n)
    sig = rng.uniform(0.03, 0.12, n) * sigma_scale
    return SubproblemInstance(
        w=w, sigma=sig, choice=Mnl(weights=tuple(v), no_purchase=1.0),
        family=family if family is not None else AssortmentFamily.size_capped(n),
        n_products=n,
    )


def scalar_bruteforce(sub, exclude=None):
    """Reference for ``subproblem_bruteforce``: one ``value`` call per set,
    in family order, under the same record rule."""
    best, best_v = frozenset(), 0.0
    for S in sub.family.assortments(sub.n_products):
        if exclude and S in exclude:
            continue
        v = sub.value(S)
        if v > best_v + 1e-15:
            best, best_v = S, v
    return best, best_v


def _same_as_scalar(sub, exclude=None):
    S, v = subproblem_bruteforce(sub, exclude)
    Sr, vr = scalar_bruteforce(sub, exclude)
    assert S == Sr and v == vr, (S, v, Sr, vr)
    return S, v


def _random_tabular(rng, n, family):
    """A table with its own probability for every (product, set) of ``family``."""
    entries = {}
    for S in family.assortments(n):
        shares = rng.dirichlet(np.ones(len(S) + 1))
        entries.update(((i, S), float(p)) for i, p in zip(S, shares))
    return Tabular(entries=entries)


class TestBruteForceAgainstScalar:
    """The vectorized oracle returns the scalar loop's set and an equal value."""

    def test_random_mnl(self):
        rng = np.random.default_rng(40)
        for _ in range(40):
            n = int(rng.integers(1, 9))
            k = int(rng.integers(0, n + 1))
            sub = _random_sub(rng, n, sigma_scale=float(rng.choice([0.0, 1.0, 5.0])),
                              family=AssortmentFamily.size_capped(k))
            sub = SubproblemInstance(w=sub.w - rng.uniform(0, 1.0), sigma=sub.sigma,
                                     choice=sub.choice, family=sub.family, n_products=n)
            _same_as_scalar(sub)

    def test_tie_heavy_duals(self):
        # equal weights make every set of one size tie exactly; nudges of a
        # few ulps put other values within the 1e-15 record margin
        rng = np.random.default_rng(41)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            w = np.full(n, 0.8) + rng.integers(-3, 4, n) * 2e-16
            sigma = np.full(n, 0.05) + rng.integers(-3, 4, n) * 1e-17
            sub = SubproblemInstance(
                w=w, sigma=sigma, choice=Mnl(weights=(1.0,) * n, no_purchase=1.0),
                family=AssortmentFamily.size_capped(int(rng.integers(1, n + 1))), n_products=n)
            _same_as_scalar(sub)

    def test_exclude(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            sub = _random_sub(rng, n, family=AssortmentFamily.size_capped(3))
            fam = sub.family.assortments(n)
            best, _ = _same_as_scalar(sub)
            drop = {fam[k] for k in rng.choice(len(fam), size=len(fam) // 2, replace=False)}
            for exclude in ({best}, drop, set(fam)):
                _same_as_scalar(sub, exclude)

    def test_tabular_choice(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            fam = AssortmentFamily.size_capped(int(rng.integers(1, n + 1)))
            sub = SubproblemInstance(
                w=rng.uniform(-0.2, 1.5, n), sigma=rng.uniform(0.0, 0.2, n),
                choice=_random_tabular(rng, n, fam), family=fam, n_products=n)
            _same_as_scalar(sub)

    def test_explicit_family(self):
        rng = np.random.default_rng(44)
        fam = AssortmentFamily.explicit([{4, 1}, {0}, {2, 3, 1}, {3}, {0, 4, 2, 1}])
        for _ in range(10):
            _same_as_scalar(_random_sub(rng, 5, family=fam))

    def test_empty_set_only_family(self):
        rng = np.random.default_rng(45)
        for fam in (AssortmentFamily.explicit([]), AssortmentFamily.size_capped(0)):
            sub = _random_sub(rng, 3, family=fam)
            assert _same_as_scalar(sub) == (frozenset(), 0.0)

    def test_non_positive_w(self):
        rng = np.random.default_rng(46)
        sub = _random_sub(rng, 6, family=AssortmentFamily.size_capped(3))
        for w in (-sub.w, np.zeros(6)):
            got = _same_as_scalar(SubproblemInstance(
                w=w, sigma=sub.sigma, choice=sub.choice, family=sub.family, n_products=6))
            assert got == (frozenset(), 0.0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 7), st.integers(0, 7), st.integers(0, 2**32 - 1),
           st.sampled_from([0.0, 1e-16, 1.0]))
    def test_random_duals_property(self, n, k, seed, tie):
        rng = np.random.default_rng(seed)
        v = tuple(rng.uniform(0.3, 1.2, n))
        w = rng.uniform(-0.5, 1.5, n)
        # with tie < 1 every weight sits within a few ulps of the first
        w = w[0] + (w - w[0]) * tie if tie < 1 else w
        sub = SubproblemInstance(
            w=w, sigma=rng.uniform(0.0, 0.15, n) * rng.integers(0, 2, n),
            choice=Mnl(weights=v, no_purchase=float(rng.uniform(0.5, 2.0))),
            family=AssortmentFamily.size_capped(min(k, n)), n_products=n)
        _same_as_scalar(sub)


class TestFamilyTable:
    def test_shared_family_prices_per_choice_and_size(self):
        # one family object under two choice models and two product counts:
        # each subproblem prices as a fresh scalar scan of its own model
        rng = np.random.default_rng(47)
        fam = AssortmentFamily.size_capped(2)
        for n in (3, 5):
            for choice in (Mnl(weights=tuple(rng.uniform(0.3, 1.2, n)), no_purchase=1.0),
                           _random_tabular(rng, n, fam)):
                for _ in range(3):
                    sub = SubproblemInstance(w=rng.uniform(-0.2, 1.5, n), sigma=rng.uniform(0, 0.1, n),
                                             choice=choice, family=fam, n_products=n)
                    _same_as_scalar(sub)
                    assert len(sub.table.sets) == fam.count(n)

    def test_table_is_reused_across_duals(self):
        rng = np.random.default_rng(48)
        base = _random_sub(rng, 5, family=AssortmentFamily.size_capped(3))
        table = FamilyTable(base.choice, base.family, 5)
        for _ in range(4):
            sub = SubproblemInstance(w=rng.uniform(-0.2, 1.5, 5), sigma=rng.uniform(0, 0.1, 5),
                                     choice=base.choice, family=base.family, n_products=5, table=table)
            _same_as_scalar(sub)
            assert sub.table is table

    def test_table_for_another_model_or_size_refused(self):
        rng = np.random.default_rng(49)
        sub = _random_sub(rng, 4, family=AssortmentFamily.size_capped(2))
        other = Mnl(weights=(1.0,) * 4, no_purchase=1.0)
        for table in (FamilyTable(other, sub.family, 4), FamilyTable(sub.choice, sub.family, 3)):
            with pytest.raises(ValueError, match="pricing table"):
                SubproblemInstance(w=sub.w, sigma=sub.sigma, choice=sub.choice,
                                   family=sub.family, n_products=4, table=table)


class TestBruteForce:
    def test_all_negative_w_gives_empty(self):
        sub = SubproblemInstance(
            w=np.array([-1.0, -0.5]), sigma=np.zeros(2),
            choice=Mnl(weights=(1.0, 1.0), no_purchase=1.0),
            family=AssortmentFamily.size_capped(2), n_products=2)
        S, v = subproblem_bruteforce(sub)
        assert S == frozenset() and v == 0.0

    def test_single_item_arithmetic(self):
        sub = SubproblemInstance(
            w=np.array([1.0]), sigma=np.array([0.1]),
            choice=Mnl(weights=(1.0,), no_purchase=1.0),
            family=AssortmentFamily.size_capped(1), n_products=1)
        S, v = subproblem_bruteforce(sub)
        assert S == frozenset({0})
        assert v == pytest.approx(1.0 * 0.5 - 0.1)


class TestValue:
    def test_mnl_value_matches_choice_prob_path(self):
        rng = np.random.default_rng(35)
        sub = _random_sub(rng, 9)
        for r in range(1, 10):
            S = frozenset(int(i) for i in rng.choice(9, size=r, replace=False))
            slow = sum(sub.w[i] * sub.choice.prob(i, S) - sub.sigma[i] for i in S)
            assert repr(float(sub.value(S))) == repr(float(slow))


class TestInvariants:
    def test_negative_dual_raises(self):
        ok = np.zeros(2)
        with pytest.raises(ValueError, match="non-negative"):
            DualBundle(zeta=np.array([0.0, -1e-3]), gamma=ok, beta=ok, sigma=np.zeros((2, 2)))

    def test_decreasing_master_objective_raises(self, monkeypatch):
        inst = simlab.random_norepeat_instance(seed=3, n=5, cap=2, m=4)
        real = mcdlp.solve_variant
        calls = []  # each restricted master reports a lower objective than the last

        def sinking(*args, **kwargs):
            sol = real(*args, **kwargs)
            calls.append(sol)
            return dataclasses.replace(sol, objective=sol.objective - 1e3 * len(calls))

        monkeypatch.setattr(mcdlp, "solve_variant", sinking)
        with pytest.raises(RuntimeError, match="master objective decreased"):
            column_generate(inst, McdlpVariant.MCDLP_NR, colgen.BruteForceOracle())


class TestMnlExact:
    def test_single_item(self):
        sub = SubproblemInstance(
            w=np.array([1.0]), sigma=np.zeros(1),
            choice=Mnl(weights=(1.0,), no_purchase=1.0),
            family=AssortmentFamily.size_capped(1), n_products=1)
        S, v = subproblem_mnl_repeated(sub)
        assert S == frozenset({0}) and v == pytest.approx(0.5)

    def test_negative_w_excluded(self):
        sub = SubproblemInstance(
            w=np.array([2.0, -1.0]), sigma=np.zeros(2),
            choice=Mnl(weights=(1.0, 1.0), no_purchase=1.0),
            family=AssortmentFamily.size_capped(2), n_products=2)
        S, v = subproblem_mnl_repeated(sub)
        Sb, vb = subproblem_bruteforce(
            SubproblemInstance(w=sub.w, sigma=sub.sigma, choice=sub.choice,
                               family=sub.family, n_products=2))
        assert S == frozenset({0}) == Sb
        assert v == pytest.approx(vb)

    def test_matches_bruteforce_random(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            n = int(rng.integers(2, 11))
            sub = _random_sub(rng, n)
            sub0 = SubproblemInstance(w=sub.w - rng.uniform(0, 0.8),
                                      sigma=np.zeros(n), choice=sub.choice,
                                      family=sub.family, n_products=n)
            Se, ve = subproblem_mnl_repeated(sub0)
            Sb, vb = subproblem_bruteforce(sub0)
            assert ve == pytest.approx(vb, abs=1e-10)

    def test_penalty_on_nonpositive_w_is_ignored(self):
        # items with w <= 0 are never offered, so their penalty cannot matter
        sub = SubproblemInstance(
            w=np.array([1.2, 0.7, -0.4, 0.0]), sigma=np.array([0.0, 0.0, 0.3, 0.1]),
            choice=Mnl(weights=(0.8, 1.1, 0.9, 0.5), no_purchase=1.0),
            family=AssortmentFamily.size_capped(4), n_products=4)
        Sb, vb = subproblem_bruteforce(sub)
        for S, v in (subproblem_mnl_repeated(sub), subproblem_mnl_fptas(sub, 0.1)):
            assert S == Sb
            assert v == pytest.approx(vb, abs=1e-12)

    def test_rejects_penalty_on_positive_w(self):
        sub = SubproblemInstance(
            w=np.array([1.2, -0.4]), sigma=np.array([0.05, 0.0]),
            choice=Mnl(weights=(0.8, 0.9), no_purchase=1.0),
            family=AssortmentFamily.size_capped(2), n_products=2)
        with pytest.raises(ValueError, match="sigma = 0"):
            subproblem_mnl_repeated(sub)

    def test_rejects_capped_family(self):
        rng = np.random.default_rng(1)
        sub = _random_sub(rng, 4, family=AssortmentFamily.size_capped(2))
        with pytest.raises(ValueError, match="unrestricted"):
            subproblem_mnl_repeated(
                SubproblemInstance(w=sub.w, sigma=np.zeros(4), choice=sub.choice,
                                   family=sub.family, n_products=4))


class TestFptas:
    def test_huge_sigma_gives_empty(self):
        rng = np.random.default_rng(2)
        sub = _random_sub(rng, 4, sigma_scale=100.0)
        S, v = subproblem_mnl_fptas(sub, 0.2)
        assert v == 0.0 and S == frozenset()

    def test_zero_sigma_reroutes_to_exact(self):
        rng = np.random.default_rng(3)
        sub = _random_sub(rng, 5)
        sub0 = SubproblemInstance(w=sub.w, sigma=np.zeros(5), choice=sub.choice,
                                  family=sub.family, n_products=5)
        S, v = subproblem_mnl_fptas(sub0, 0.2)
        Se, ve = subproblem_mnl_repeated(sub0)
        assert v == pytest.approx(ve)

    def test_invalid_eps(self):
        rng = np.random.default_rng(4)
        sub = _random_sub(rng, 3)
        with pytest.raises(ValueError):
            subproblem_mnl_fptas(sub, 1.5)

    def test_guarantee_against_bruteforce(self):
        rng = np.random.default_rng(5)
        for eps, n in ((0.2, 7), (0.1, 6)):
            for trial in range(4):
                sub = _random_sub(rng, n)
                Sb, f_minus_h_star = subproblem_bruteforce(sub)
                if not Sb:
                    continue
                fstar = sum(sub.w[i] * sub.choice.prob(i, Sb) for i in Sb)
                hstar = float(sum(sub.sigma[i] for i in Sb))
                Sf, vf = subproblem_mnl_fptas(sub, eps)
                if hstar == 0:
                    assert vf >= (1 - eps) * f_minus_h_star - 1e-9
                    continue
                alpha_c = 2 * hstar / max(fstar - hstar, 1e-12)
                if not (0 < alpha_c < 1 / eps - 1):
                    continue  # certification hypothesis fails: no certified factor
                assert vf >= (1 - (alpha_c + 1) * eps) * (fstar - hstar) - 1e-9

    def test_dp_matches_exhaustive_minimum_mass(self):
        rng = np.random.default_rng(6)
        n = 6
        sub = _random_sub(rng, n)
        cfg = FptasConfig.from_subproblem(sub, 0.25)
        v = np.array([sub.choice.weights[i] for i in range(n)])
        wv = sub.w * v
        eps = 0.25
        g = cfg.gamma_grid[len(cfg.gamma_grid) // 2]
        d = cfg.delta_grid[len(cfg.delta_grid) // 2]
        wt = np.floor(n * wv / (eps * g)).astype(np.int64)
        vt = np.ceil(n * v / (eps * d)).astype(np.int64)
        V = colgen._fptas_dp_stack(wt[None], vt, sub.sigma, cfg.I, cfg.J)[0]
        # exhaustive oracle over all subsets and a grid of cells
        for a in range(0, cfg.I + 1, max(cfg.I // 6, 1)):
            for b in range(0, cfg.J + 1, max(cfg.J // 6, 1)):
                best = math.inf
                for r in range(n + 1):
                    for combo in itertools.combinations(range(n), r):
                        if sum(wt[list(combo)]) >= a and sum(vt[list(combo)]) <= b:
                            best = min(best, float(sum(sub.sigma[list(combo)])))
                got = V[a, b, n]
                if math.isinf(best):
                    assert math.isinf(got)
                else:
                    assert got == pytest.approx(best, abs=1e-12)


class TestFptasRuntimeSmoke:
    def test_runtime_grows_with_inverse_eps_but_stays_bounded(self):
        # polylog/eps^5 growth is only smoke-checked: both calls must finish
        # quickly and the fine run may not be absurdly slower than the coarse
        import time
        rng = np.random.default_rng(7)
        sub = _random_sub(rng, 5)
        t0 = time.time()
        subproblem_mnl_fptas(sub, 0.3)
        coarse = time.time() - t0
        t0 = time.time()
        subproblem_mnl_fptas(sub, 0.15)
        fine = time.time() - t0
        assert fine < 30.0
        assert fine < 4000 * max(coarse, 1e-3)


class TestColumnGeneration:
    def test_exact_oracle_matches_full_enumeration(self):
        for seed in (0, 1, 2):
            inst = simlab.random_norepeat_instance(seed=seed, n=5, cap=2, m=3)
            full = mcdlp.solve_variant(inst, McdlpVariant.MCDLP_NR)
            res = column_generate(inst, McdlpVariant.MCDLP_NR, BruteForceOracle())
            assert res.objective == pytest.approx(full.objective, abs=1e-6)
            assert res.iterations <= res.family_size

    def test_monotone_objective_and_nonneg_duals(self):
        inst = simlab.random_norepeat_instance(seed=3, n=5, cap=2, m=4)
        res = column_generate(inst, McdlpVariant.MCDLP_NR, BruteForceOracle())
        assert all(b >= a - 1e-7 for a, b in zip(res.objective_history,
                                                 res.objective_history[1:]))
        assert (res.duals.zeta >= -1e-7).all()
        assert (res.duals.sigma >= -1e-7).all()

    def test_pricing_time_and_columns_per_iteration(self):
        inst = simlab.random_norepeat_instance(seed=3, n=5, cap=2, m=4)
        res = column_generate(inst, McdlpVariant.MCDLP_NR, BruteForceOracle())
        assert len(res.pricing_s) == res.iterations * inst.m
        assert all(isinstance(s, float) and s >= 0.0 for s in res.pricing_s)
        assert len(res.added_per_iteration) == res.iterations
        assert sum(res.added_per_iteration) == len(res.added)
        assert res.added_per_iteration[-1] == 0 and min(res.added_per_iteration[:-1]) >= 1

    def test_family_enumerated_once_per_run(self, monkeypatch):
        # every type's pricing table reads one enumeration, made on first use
        inst = simlab.random_norepeat_instance(seed=3, n=5, cap=2, m=4)
        calls = []
        enumerate_family = AssortmentFamily.assortments
        monkeypatch.setattr(AssortmentFamily, "assortments",
                            lambda fam, n: calls.append(n) or enumerate_family(fam, n))
        res = column_generate(inst, McdlpVariant.MCDLP_NR, BruteForceOracle())
        assert res.iterations > 1 and calls == [5]

    @pytest.mark.parametrize("variant, seed, n, cap, m, oracle", [
        (McdlpVariant.MCDLP_NR, 3, 5, 2, 4, BruteForceOracle()),
        (McdlpVariant.MCDLP_R, 5, 4, 4, 3, MnlExactOracle()),
    ], ids=["mcdlp-nr", "mcdlp-r"])
    def test_plan_is_the_last_master(self, monkeypatch, variant, seed, n, cap, m, oracle):
        # every master is the variant's own LP on its family, so the last
        # master's solution is returned without a re-solve
        inst = simlab.random_norepeat_instance(seed=seed, n=n, cap=cap, m=m)
        solves = []
        solve = mcdlp.lpcore.solve
        monkeypatch.setattr(mcdlp.lpcore, "solve", lambda model: solves.append(model) or solve(model))
        res = column_generate(inst, variant, oracle)
        assert res.iterations > 1 and len(solves) == res.iterations
        assert res.objective == res.objective_history[-1]
        fresh = mcdlp.solve_variant(inst, variant, res.solution.assortments)
        assert res.solution == fresh
        assert (np.array(res.solution.lp.x).tobytes(), np.array(res.solution.lp.duals).tobytes()) == (
            np.array(fresh.lp.x).tobytes(), np.array(fresh.lp.duals).tobytes())

    def test_at_cap_maximizer_is_re_priced_over_absent_sets(self, monkeypatch):
        # a repeated-offer column nonbasic at its x <= 1 cap hides its reduced
        # cost from the duals; brute force over the absent sets takes over
        inst = simlab.random_norepeat_instance(seed=37, n=5, cap=2, m=3)
        excluded = []
        bruteforce = colgen.subproblem_bruteforce

        def counting(sub, exclude=None):
            if exclude is not None:
                excluded.append(len(exclude))
            return bruteforce(sub, exclude)
        monkeypatch.setattr(colgen, "subproblem_bruteforce", counting)
        res = column_generate(inst, McdlpVariant.MCDLP_R, BruteForceOracle())
        full = mcdlp.solve_variant(inst, McdlpVariant.MCDLP_R)
        assert len(excluded) > 0 and not res.warnings
        assert res.objective == pytest.approx(full.objective, rel=1e-6)

    def test_at_cap_maximizer_without_enumeration_degrades_the_certificate(self, monkeypatch):
        inst = simlab.random_norepeat_instance(seed=1, n=4, cap=4, m=3)
        monkeypatch.setattr(colgen, "MAX_TABULAR_FAMILY", inst.family.count(inst.n_products) - 1)
        res = column_generate(inst, McdlpVariant.MCDLP_R, MnlExactOracle())
        full = mcdlp.solve_variant(inst, McdlpVariant.MCDLP_R)
        assert res.warnings and all("termination certificate degraded" in w for w in res.warnings)
        assert res.objective <= full.objective + 1e-6

    def test_complete_start_terminates_immediately(self):
        # family = empty set + singletons: the starting set is everything
        inst = simlab.random_norepeat_instance(seed=4, n=4, cap=1, m=3)
        res = column_generate(inst, McdlpVariant.MCDLP_NR, BruteForceOracle())
        assert res.iterations == 1
        assert not res.added

    def test_repeated_variant_with_exact_mnl_oracle(self):
        # unrestricted family so the nested-scan oracle applies
        inst = simlab.random_norepeat_instance(seed=5, n=4, cap=4, m=3)
        full = mcdlp.solve_variant(inst, McdlpVariant.MCDLP_R)
        res = column_generate(inst, McdlpVariant.MCDLP_R, MnlExactOracle())
        assert res.objective == pytest.approx(full.objective, abs=1e-6)

    def test_fptas_oracle_reaches_measured_factor(self):
        inst = simlab.random_norepeat_instance(seed=6, n=4, cap=4, m=2)
        full = mcdlp.solve_variant(inst, McdlpVariant.MCDLP_NR)

        class MeasuringOracle(MnlFptasOracle):
            def __init__(self, eps):
                super().__init__(eps)
                self.worst = 1.0

            def solve(self, sub):
                S, v = super().solve(sub)
                Sb, vb = subproblem_bruteforce(sub)
                if vb > 1e-9:
                    self.worst = min(self.worst, v / vb)
                return S, v

        oracle = MeasuringOracle(0.1)
        res = column_generate(inst, McdlpVariant.MCDLP_NR, oracle)
        assert res.objective >= oracle.worst * full.objective - 1e-6
