import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mcassort import mcdlp, simlab
from mcassort.mcdlp import (
    McdlpVariant,
    MonteCarloEstimate,
    integralize,
    verify_policy_upper_bound,
)
from mcassort.model import (
    AssortmentFamily,
    CustomerType,
    Instance,
    Item,
    Mnl,
    Product,
    Tabular,
    choice_prob,
    validate,
)
from scalar_oracles import pair_model


def _toy_matching():
    ct = CustomerType(id=0, arrival=1.0, revenues=(2.0,),
                      choice=Tabular(entries={}, item_probs=(0.5,)), patience=1)
    return Instance.single_level(T=1, inventories=[1], types=(ct,),
                                 family=AssortmentFamily.size_capped(1),
                                 matching_with_timeouts=True)


def row_by_row_build(inst, variant, assortments=None):
    """The LP build as it was before the one-pass builder: probabilities
    cached per (type, assortment), then each row assembled on its own.  The
    bounds follow the builder's rule: slack for the no-repeat variants."""
    mcdlp._check_preconditions(inst, variant)
    fam = tuple(assortments) if assortments is not None else inst.family.assortments(inst.n_products)
    m = inst.m
    F = len(fam)
    Q = [ct.total_rate(inst.T) for ct in inst.types]
    var = lambda j, k: j * F + k
    objective = [0.0] * (m * F)
    upper = [1.0] * (m * F)
    probs = [[{i: choice_prob(inst.types[j].choice, i, S) for i in S} for S in fam] for j in range(m)]
    for j in range(m):
        rev = inst.types[j].revenues
        for k, S in enumerate(fam):
            objective[var(j, k)] = Q[j] * sum(rev[i] * probs[j][k][i] for i in S)
    rows = []
    for item in range(inst.n_items):
        prods = set(inst.products_of_item(item))
        coeffs = []
        for j in range(m):
            for k, S in enumerate(fam):
                a = Q[j] * sum(probs[j][k][i] for i in S if i in prods)
                if a:
                    coeffs.append((var(j, k), a))
        rows.append((coeffs, float(inst.items[item].inventory), ("inventory", item)))
    for j in range(m):
        coeffs = []
        for k, S in enumerate(fam):
            a = sum(probs[j][k][i] for i in S)
            if a:
                coeffs.append((var(j, k), a))
        rows.append((coeffs, 1.0, ("sell_one", j)))
    for j in range(m):
        rows.append(([(var(j, k), 1.0) for k in range(F)], mcdlp._patience_rhs(inst.types[j]), ("patience", j)))
    if variant.no_repeat:
        for j in range(m):
            for prod in range(inst.n_products):
                coeffs = [(var(j, k), 1.0) for k, S in enumerate(fam) if prod in S]
                rows.append((coeffs, 1.0, ("overlap", j, prod)))
    if variant == McdlpVariant.SINGLE_ITEM:
        for j in range(m):
            for k, S in enumerate(fam):
                if len(S) == 1:
                    (i,) = tuple(S)
                    upper[var(j, k)] = float(inst.items[inst.products[i].item].inventory)
    # no-repeat overlap rows already cap every non-empty set at 1
    if variant.no_repeat:
        for j in range(m):
            slack = 2.0 * mcdlp._patience_rhs(inst.types[j]) + 2.0
            for k in range(F):
                upper[var(j, k)] = slack
    return pair_model(objective, rows, upper)


def _two_level_tabular():
    """Two items at two price levels with table choice: explicit entries on
    some sets, set-independent probabilities elsewhere."""
    K, n_items = 2, 3
    P = n_items * K
    types = []
    for j, scale in enumerate((0.1, 0.07)):
        ip = tuple(scale * (1 + i % 3) for i in range(P))
        entries = {(0, frozenset({0, 3})): 0.8 * ip[0], (3, frozenset({0, 3})): 0.5 * ip[3],
                   (1, frozenset({1})): 1.5 * ip[1], (4, frozenset({2, 4})): 0.75 * ip[4]}
        types.append(CustomerType(id=j, arrival=(0.3, 0.2, 0.4), revenues=tuple(1.0 + 0.5 * i for i in range(P)),
                                  choice=Tabular(entries=entries, item_probs=ip), patience=2))
    return Instance(T=3, items=tuple(Item(i, 1 + i) for i in range(n_items)),
                    products=tuple(Product(i * K + lv, i, lv) for i in range(n_items) for lv in range(K)),
                    types=tuple(types), family=AssortmentFamily.size_capped(2), price_levels=K)


class TestOnePassBuild:
    """The one-pass builder emits models equal to the row-by-row build, float for float."""

    def _same(self, inst, variant, assortments=None):
        got = mcdlp.build(inst, variant, assortments)
        assert got == row_by_row_build(inst, variant, assortments)
        return got

    def test_hotel_mmcdlp_nr_cells(self):
        template = simlab.gen_hotel_like(seed=0, n_types=24)
        for lf, cell_seed in ((1.0, 1), (4.0, 2), (7.0, 3)):
            inst = simlab.build_hotel_instance(template, lf, 2.0, 2, 4, seed=cell_seed)
            self._same(inst, McdlpVariant.MMCDLP_NR)

    def test_hardness_single_item(self):
        self._same(simlab.gen_hardness_instance(14), McdlpVariant.SINGLE_ITEM)

    def test_single_item_multi_unit_stock(self):
        # a singleton's weight is capped by its item's stock, in the bounds
        inst = replace(simlab.random_matching_instance(seed=5, n=5, m=4, T=6),
                       items=tuple(Item(i, b) for i, b in enumerate((3, 1, 2, 1, 4))))
        model = self._same(inst, McdlpVariant.SINGLE_ITEM)
        assert sorted(set(model.upper)) == [1.0, 2.0, 3.0, 4.0]

    def test_attenuated_online_mcdlp_r(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        from workloads import AttenuatedOnline, assortment_instance

        self._same(assortment_instance(AttenuatedOnline.ASSORT_SEED), McdlpVariant.MCDLP_R)

    def test_colgen_masters(self):
        # a colgen master is the standard build on a restricted family
        inst = simlab.random_norepeat_instance(seed=3, n=6, cap=3, m=4)
        fam = inst.family.assortments(inst.n_products)[::7]
        for variant in (McdlpVariant.MCDLP_NR, McdlpVariant.MCDLP_R):
            model = self._same(inst, variant, fam)
            assert model.num_vars == inst.m * len(fam)

    def test_tabular_two_price_levels(self):
        inst = _two_level_tabular()
        assert validate(inst).ok, validate(inst).violations
        for variant in (McdlpVariant.MMCDLP_NR, McdlpVariant.MCDLP_R):
            self._same(inst, variant)

    # past 8 products a frozenset does not iterate in sorted order, so only
    # here can a summation-order slip show (the hotel sets all iterate sorted)
    @pytest.fixture(scope="class")
    def unsorted_inst(self):
        inst = simlab.random_norepeat_instance(seed=7, n=14, cap=3, m=10)
        fam = inst.family.assortments(inst.n_products)
        assert sum(list(S) != sorted(S) for S in fam) == 257
        return inst

    def test_unsorted_sets_full_family(self, unsorted_inst):
        for variant in (McdlpVariant.MCDLP_NR, McdlpVariant.MCDLP_R):
            self._same(unsorted_inst, variant)

    def test_unsorted_sets_restricted(self, unsorted_inst):
        fam = unsorted_inst.family.assortments(unsorted_inst.n_products)
        restricted = [S for S in fam if list(S) != sorted(S)][::3] + list(fam[:15])
        for variant in (McdlpVariant.MCDLP_NR, McdlpVariant.MCDLP_R):
            self._same(unsorted_inst, variant, restricted)


def _no_repeat_builds():
    norepeat = simlab.random_norepeat_instance(seed=3, n=6, cap=3, m=4)
    homog = simlab.random_homog_instance(seed=1, n=5, cap=2, m=4)
    hotel = simlab.build_hotel_instance(simlab.gen_hotel_like(seed=2, n_types=6), 2.0, 2.0, 2, 3, seed=1)
    nr_fam = norepeat.family.assortments(norepeat.n_products)
    homog_fam = homog.family.assortments(homog.n_products)
    return [
        ("mcdlp-nr", norepeat, McdlpVariant.MCDLP_NR, None),
        ("mcdlp-nr-restricted", norepeat, McdlpVariant.MCDLP_NR, nr_fam[::7]),
        ("mcdlp-nr-no-empty-set", norepeat, McdlpVariant.MCDLP_NR, nr_fam[1::3]),
        ("mcdlp-nrs", homog, McdlpVariant.MCDLP_NRS, None),
        ("mcdlp-nrs-restricted", homog, McdlpVariant.MCDLP_NRS, homog_fam[::2]),
        ("mmcdlp-nr-hotel", hotel, McdlpVariant.MMCDLP_NR, None),
        ("mmcdlp-nr-tabular", _two_level_tabular(), McdlpVariant.MMCDLP_NR, None),
    ]


_NO_REPEAT_BUILDS = _no_repeat_builds()


class TestImpliedBounds:
    """A no-repeat LP's x <= 1 bounds are implied by its overlap rows, so its
    builds carry a bound that never binds."""

    @pytest.mark.parametrize("inst, variant, fam", [case[1:] for case in _NO_REPEAT_BUILDS],
                             ids=[case[0] for case in _NO_REPEAT_BUILDS])
    def test_every_nonempty_set_in_a_unit_overlap_row(self, inst, variant, fam):
        model = mcdlp.build(inst, variant, fam)
        sets = fam if fam is not None else inst.family.assortments(inst.n_products)
        F = len(sets)
        in_unit_row = set()
        for row in model.rows:
            if row.tag[0] == "overlap" and row.rhs == 1.0:
                in_unit_row.update(c for c, v in zip(row.cols, row.vals) if v == 1.0)
        assert in_unit_row == {j * F + k for j in range(inst.m) for k, S in enumerate(sets) if S}
        # the empty set's column is held by its patience row alone
        for j, ct in enumerate(inst.types):
            assert min(model.upper[j * F:(j + 1) * F]) > mcdlp._patience_rhs(ct) >= 1.0


class TestBuild:
    def test_toy_single_item_opt(self):
        sol = mcdlp.solve_variant(_toy_matching(), McdlpVariant.SINGLE_ITEM)
        assert sol.objective == pytest.approx(1.0)

    def test_hardness_instance_opt_is_n(self):
        inst = simlab.gen_hardness_instance(5)
        sol = mcdlp.solve_variant(inst, McdlpVariant.SINGLE_ITEM)
        assert sol.objective == pytest.approx(5.0, abs=1e-6)

    def test_gap_instance_feasible_half_solution_and_opt_one(self):
        inst = simlab.gen_gap_instance(4)
        model = mcdlp.build(inst, McdlpVariant.MCDLP_NRS)
        # direct feasibility of x(S) = 1/2 on the four bases
        fam = inst.family.assortments(inst.n_products)
        x = np.array([0.5 if len(S) > 0 else 0.0 for S in fam] )
        A, b = model.dense()
        assert (A @ x <= b + 1e-9).all()
        sol = mcdlp.solve_variant(inst, McdlpVariant.MCDLP_NRS)
        assert sol.objective == pytest.approx(1.0, abs=1e-6)

    def test_structural_rederivation_random_instances(self):
        # rebuild every row of the NR matrix independently and compare
        for seed in (0, 1, 2):
            inst = simlab.random_norepeat_instance(seed=seed, n=4, cap=2, m=3)
            fam = inst.family.assortments(inst.n_products)
            model = mcdlp.build(inst, McdlpVariant.MCDLP_NR)
            A, b = model.dense()
            F = len(fam)
            Q = [ct.total_rate(inst.T) for ct in inst.types]
            p = [
                [{i: choice_prob(inst.types[j].choice, i, S) for i in S} for S in fam]
                for j in range(inst.m)
            ]
            row = 0
            for item in range(inst.n_items):
                expect = np.zeros(inst.m * F)
                for j in range(inst.m):
                    for k, S in enumerate(fam):
                        expect[j * F + k] = Q[j] * sum(v for i, v in p[j][k].items()
                                                       if inst.products[i].item == item)
                assert np.allclose(A[row], expect)
                assert b[row] == inst.items[item].inventory
                row += 1
            for j in range(inst.m):
                expect = np.zeros(inst.m * F)
                for k in range(F):
                    expect[j * F + k] = sum(p[j][k].values())
                assert np.allclose(A[row], expect)
                row += 1
            for j in range(inst.m):
                expect = np.zeros(inst.m * F)
                expect[j * F : (j + 1) * F] = 1.0
                assert np.allclose(A[row], expect)
                assert b[row] == inst.types[j].patience
                row += 1
            for j in range(inst.m):
                for prod in range(inst.n_products):
                    expect = np.zeros(inst.m * F)
                    for k, S in enumerate(fam):
                        if prod in S:
                            expect[j * F + k] = 1.0
                    assert np.allclose(A[row], expect)
                    assert b[row] == 1.0
                    row += 1
            assert row == len(model.rows)

    def test_relaxation_ordering_r_dominates_nr(self):
        for seed in range(4):
            inst = simlab.random_norepeat_instance(seed=seed, n=5, cap=2, m=4)
            opt_r = mcdlp.solve_variant(inst, McdlpVariant.MCDLP_R).objective
            opt_nr = mcdlp.solve_variant(inst, McdlpVariant.MCDLP_NR).objective
            assert opt_r >= opt_nr - 1e-7

    def test_gap_scaling_formula_vs_solver(self):
        for M in (4, 6, 8):
            inst = simlab.gen_gap_instance(M)
            assert simlab.gap_lp_formula_opt(M) == pytest.approx(1.0)
            sol = mcdlp.solve_variant(inst, McdlpVariant.MCDLP_NRS)
            assert sol.objective == pytest.approx(1.0, abs=1e-6)

    def test_nr_refuses_nonintegral_rates(self):
        ct = CustomerType(id=0, arrival=0.4, revenues=(1.0,),
                          choice=Mnl(weights=(1.0,), no_purchase=1.0), patience=1)
        inst = Instance.single_level(T=3, inventories=[1], types=(ct,),
                                     family=AssortmentFamily.size_capped(1))
        with pytest.raises(ValueError, match="integral"):
            mcdlp.build(inst, McdlpVariant.MCDLP_NR)

    def test_nrs_requires_homogeneous_revenues(self):
        types = tuple(
            CustomerType(id=j, arrival=0.5, revenues=(1.0 + j,),
                         choice=Mnl(weights=(1.0,), no_purchase=1.0), patience=1)
            for j in range(2)
        )
        inst = Instance.single_level(T=2, inventories=[1], types=types,
                                     family=AssortmentFamily.size_capped(1))
        with pytest.raises(ValueError, match="homogeneous"):
            mcdlp.build(inst, McdlpVariant.MCDLP_NRS)

    def test_mmcdlp_requires_price_levels(self):
        inst = simlab.random_norepeat_instance(seed=0, n=3, cap=2, m=2)
        with pytest.raises(ValueError, match="price levels"):
            mcdlp.build(inst, McdlpVariant.MMCDLP_NR)


class TestSupport:
    def test_support_keeps_positive_non_empty_sets_in_member_order(self):
        plan = {frozenset({2, 0}): 0.25, frozenset({1}): 0.5, frozenset(): 0.2,
                frozenset({0, 1}): 1e-12, frozenset({0}): 2e-12, frozenset({1, 2}): 0.0}
        sol = mcdlp.McdlpSolution(McdlpVariant.MCDLP_R, 1.0, tuple(plan), (plan, {}), None)
        assert sol.support(0) == [(frozenset({0}), 2e-12), (frozenset({0, 2}), 0.25),
                                  (frozenset({1}), 0.5)]
        assert sol.support(1) == []


class TestIntegralize:
    def test_splits_to_unit_rates(self):
        ct0 = CustomerType(id=0, arrival=0.5, revenues=(1.0,),
                           choice=Mnl(weights=(1.0,), no_purchase=1.0), patience=1)
        ct1 = CustomerType(id=1, arrival=0.25, revenues=(2.0,),
                           choice=Mnl(weights=(1.0,), no_purchase=1.0), patience=2)
        inst = Instance.single_level(T=4, inventories=[1], types=(ct0, ct1),
                                     family=AssortmentFamily.size_capped(1))
        out = integralize(inst)
        assert out.m == 3  # rates 2 and 1
        assert all(abs(ct.total_rate(out.T) - 1.0) < 1e-9 for ct in out.types)
        mcdlp.build(out, McdlpVariant.MCDLP_NR)  # now accepted

    def test_rejects_nonintegral(self):
        ct = CustomerType(id=0, arrival=0.4, revenues=(1.0,),
                          choice=Mnl(weights=(1.0,), no_purchase=1.0), patience=1)
        inst = Instance.single_level(T=4, inventories=[1], types=(ct,),
                                     family=AssortmentFamily.size_capped(1))
        with pytest.raises(ValueError, match="not integral"):
            integralize(inst)


class TestUpperBoundHarness:
    def test_honest_policy_consistent(self):
        inst = simlab.random_norepeat_instance(seed=1, n=4, cap=2, m=3)
        sol = mcdlp.solve_variant(inst, McdlpVariant.MCDLP_NR)
        res = simlab.run_benchmark(inst, "greedy", replicas=800, seed=0)
        verdict = verify_policy_upper_bound(inst, sol.objective, res.estimate())
        assert verdict.consistent

    def test_oversold_policy_flagged(self):
        # one item, three certain customers with p = 0.9: the inventory row
        # caps the LP at 2.0, but a policy ignoring stock sells ~2.7 units
        types = (CustomerType(id=0, arrival=1.0, revenues=(2.0,),
                              choice=Tabular(entries={}, item_probs=(0.9,)),
                              patience=1),)
        inst2 = Instance.single_level(T=3, inventories=[1], types=types,
                                      family=AssortmentFamily.size_capped(1),
                                      matching_with_timeouts=True)
        sol = mcdlp.solve_variant(inst2, McdlpVariant.SINGLE_ITEM)
        assert sol.objective == pytest.approx(2.0)
        rng = np.random.default_rng(0)
        samples = (rng.random((50_000, 3)) < 0.9).sum(axis=1) * 2.0
        verdict = verify_policy_upper_bound(inst2, sol.objective,
                                            MonteCarloEstimate.from_samples(samples))
        assert not verdict.consistent

    def test_zero_revenue_consistent(self):
        verdict = verify_policy_upper_bound(None, 0.0, MonteCarloEstimate(0.0, 0.0, 100))
        assert verdict.consistent
