import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from exact_chains import hardness_offer_all_fraction
from mcassort import attenuate, lpcore, mcdlp, norepeat, simlab
from mcassort.mcdlp import McdlpVariant, MonteCarloEstimate, verify_policy_upper_bound
from mcassort.model import (
    MAX_TABULAR_FAMILY,
    AssortmentFamily,
    CustomerType,
    Instance,
    Item,
    Mnl,
    Product,
    Tabular,
    choice_prob,
)


class TestGreedy:
    def test_single_product_offered_while_stocked(self):
        ct = CustomerType(id=0, arrival=1.0, revenues=(1.0,),
                          choice=Mnl(weights=(5.0,), no_purchase=1.0), patience=1)
        inst = Instance.single_level(T=4, inventories=[2], types=(ct,),
                                     family=AssortmentFamily.size_capped(1))
        res = simlab.run_benchmark(inst, "greedy", replicas=60, seed=0, record_traces=60)
        for tr in res.traces:
            sold = sum(1 for s in tr.steps if s.purchased is not None)
            offered_steps = [s for s in tr.steps if s.offered]
            assert sold <= 2
            # while stock remains every arrival sees the product
            if sold < 2:
                assert len(offered_steps) == 4

    def test_dominated_product_never_beats_dominating_singleton(self):
        # product 1 dominates product 0 in revenue and weight
        ct = CustomerType(id=0, arrival=1.0, revenues=(1.0, 2.0),
                          choice=Mnl(weights=(0.5, 1.5), no_purchase=1.0), patience=1)
        inst = Instance.single_level(T=1, inventories=[1, 1], types=(ct,),
                                     family=AssortmentFamily.size_capped(1))
        chooser = simlab._GreedyChooser(inst, high_only=False)
        best = chooser.choose(0, 0b11)[0]
        exp0 = 1.0 * choice_prob(ct.choice, 0, {0})
        exp1 = 2.0 * choice_prob(ct.choice, 1, {1})
        assert exp1 > exp0
        assert best == (1,)

    def test_values_within_margin_tie_to_the_first_set(self):
        # product 1 is better by 1e-13, inside the 1e-12 margin, so (0,) stays
        ct = CustomerType(id=0, arrival=1.0, revenues=(1.0, 1.0),
                          choice=Tabular(entries={}, item_probs=(0.5, 0.5 + 1e-13)), patience=1)
        inst = Instance.single_level(T=1, inventories=[1, 1], types=(ct,),
                                     family=AssortmentFamily.size_capped(1))
        assert simlab._GreedyChooser(inst, high_only=False).choose(0, 0b11)[0] == (0,)
        ct2 = CustomerType(id=0, arrival=1.0, revenues=(1.0, 1.0),
                           choice=Tabular(entries={}, item_probs=(0.5, 0.5 + 1e-11)), patience=1)
        inst2 = Instance.single_level(T=1, inventories=[1, 1], types=(ct2,),
                                      family=AssortmentFamily.size_capped(1))
        assert simlab._GreedyChooser(inst2, high_only=False).choose(0, 0b11)[0] == (1,)

    def test_empty_inventory_offers_nothing(self):
        ct = CustomerType(id=0, arrival=1.0, revenues=(1.0,),
                          choice=Mnl(weights=(1.0,), no_purchase=1.0), patience=2)
        inst = Instance.single_level(T=2, inventories=[0], types=(ct,),
                                     family=AssortmentFamily.size_capped(1))
        res = simlab.run_benchmark(inst, "greedy", replicas=20, seed=0, record_traces=20)
        assert all(not tr.steps for tr in res.traces)


class TestConservative:
    def _hotel(self, lf=2.0):
        template = simlab.gen_hotel_like(seed=3, n_types=6)
        return simlab.build_hotel_instance(template, lf, scale_factor=2.0,
                                           patience=2, cap=3, seed=1)

    def test_only_high_fares_displayed(self):
        inst = self._hotel()
        res = simlab.run_benchmark(inst, "conservative", replicas=40, seed=2,
                                   record_traces=40)
        high = inst.price_levels - 1
        for tr in res.traces:
            for s in tr.steps:
                assert all(inst.products[i].level == high for i in s.offered)

    def test_equal_fares_coincides_with_greedy(self):
        # collapse fares so both levels are identical; with one singleton
        # display per customer the two policies then have the same revenue
        # law.  (With caps or patience above 1, greedy can still exploit the
        # duplicate twin product of a room, so the coincidence needs both.)
        template = simlab.gen_hotel_like(seed=3, n_types=6)
        inst = simlab.build_hotel_instance(template, 2.0, scale_factor=2.0,
                                           patience=1, cap=1, seed=1)
        types = []
        for ct in inst.types:
            rev = list(ct.revenues)
            w = list(ct.choice.weights)
            for p in inst.products:
                twin = p.item * 2 + 1
                rev[p.id] = rev[twin]
                w[p.id] = w[twin]
            types.append(CustomerType(id=ct.id, arrival=ct.arrival, revenues=tuple(rev),
                                      choice=Mnl(weights=tuple(w), no_purchase=ct.choice.no_purchase),
                                      patience=ct.patience))
        flat = Instance(T=inst.T, items=inst.items, products=inst.products,
                        types=tuple(types), family=inst.family, price_levels=2)
        g = simlab.run_benchmark(flat, "greedy", replicas=3000, seed=5)
        c = simlab.run_benchmark(flat, "conservative", replicas=3000, seed=5)
        se = math.hypot(g.revenue_se, c.revenue_se)
        assert abs(g.revenue_mean - c.revenue_mean) <= 4 * se + 1e-9

    def test_rejects_single_price_level(self):
        inst = simlab.random_norepeat_instance(seed=0, n=3, cap=2, m=2)
        with pytest.raises(ValueError, match="price levels"):
            simlab.run_benchmark(inst, "conservative", replicas=5, seed=0)


class _LazyChooser:
    """Reference for ``simlab._GreedyChooser``: on each miss it enumerates the
    candidates' own feasible subsets, sorts them and prices each (type, set)
    on first sight, summing ``choice_prob`` terms in the set's sorted order.
    Conservative mode is its callers' doing: they pass top-level masks only."""

    def __init__(self, inst):
        self.inst = inst
        self.cap = inst.family.max_size(inst.n_products)
        self.cache = {}
        self.values = {}

    def _candidates(self, cand):
        fam = self.inst.family
        if fam.mode == "size_capped":
            for size in range(1, min(self.cap, len(cand)) + 1):
                yield from itertools.combinations(cand, size)
        else:
            cset = set(cand)
            for S in fam.sets:
                if S and S <= cset:
                    yield tuple(sorted(S))

    def choose(self, j, mask):
        key = (j, mask)
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        cand = tuple(i for i in range(mask.bit_length()) if mask >> i & 1)
        ct = self.inst.types[j]
        best_set = ()
        best_val = 0.0
        for S in sorted(self._candidates(cand)):
            val = self.values.get((j, S))
            if val is None:
                fs = frozenset(S)
                val = self.values[(j, S)] = sum(ct.revenues[i] * choice_prob(ct.choice, i, fs) for i in S)
            if val > best_val + 1e-12:
                best_set, best_val = S, val
        hit = self.cache[key] = (best_set, sum(1 << i for i in best_set))
        return hit


def _random_choice(rng, kind, n, family):
    if kind == "mnl":
        return Mnl(weights=tuple(float(w) for w in rng.lognormal(0.0, 0.5, n)),
                   no_purchase=float(rng.uniform(0.5, 2.0)))
    if kind == "independent":
        return Tabular(entries={}, item_probs=tuple(float(p) for p in rng.uniform(0.05, 0.3, n)))
    if kind == "near-tie":  # singleton values 1e-13 apart, inside the 1e-12 margin
        return Tabular(entries={}, item_probs=tuple(0.2 + 1e-13 * i for i in range(n)))
    entries = {}  # a full table: its own probabilities on every set
    for S in family.assortments(n):
        probs = rng.dirichlet(np.ones(len(S) + 1))[:-1]
        entries.update({(i, S): float(p) for i, p in zip(sorted(S), probs)})
    return Tabular(entries=entries)


def _chooser_cases():
    """Small instances over every family shape, choice model and price-level count."""
    rng = np.random.default_rng(14)
    for levels, n_items in ((1, 4), (2, 3)):
        n = levels * n_items
        families = [AssortmentFamily.size_capped(k) for k in range(n + 1)]
        for _ in range(2):
            sizes = rng.integers(1, n + 1, size=5)
            families.append(AssortmentFamily.explicit(
                [rng.choice(n, size=s, replace=False).tolist() for s in sizes]))
        for family in families:
            for kind in ("mnl", "independent", "near-tie", "full"):
                types = []
                for j in range(2):
                    # revenues drawn from three values, two of them fixed, tie sets exactly
                    revenues = tuple(float(r) for r in rng.choice((1.0, 2.0, rng.uniform(0.5, 3.0)), size=n))
                    if kind == "near-tie":
                        revenues = (1.0,) * n
                    types.append(CustomerType(id=j, arrival=0.5, revenues=revenues,
                                              choice=_random_choice(rng, kind, n, family), patience=2))
                items = tuple(Item(i, 1) for i in range(n_items))
                products = tuple(Product(i * levels + lv, i, lv) for i in range(n_items) for lv in range(levels))
                yield Instance(T=2, items=items, products=products, types=tuple(types),
                               family=family, price_levels=levels)


class TestChooserAgainstLazyReference:
    def test_same_display_on_every_candidate_mask(self):
        policies = checked = 0
        for inst in _chooser_cases():
            high = inst.price_levels - 1
            for high_only in (False, True) if inst.price_levels > 1 else (False,):
                policies += 1
                chooser = simlab._GreedyChooser(inst, high_only)
                ref = _LazyChooser(inst)
                # conservative candidates are the top-level products only
                displayable = sum(1 << p.id for p in inst.products if not high_only or p.level == high)
                for j in range(inst.m):
                    for mask in range(1 << inst.n_products):
                        if mask & ~displayable:
                            continue
                        assert chooser.choose(j, mask) == ref.choose(j, mask), (inst.family, j, mask)
                        checked += 1
        assert (policies, checked) == (7 * 4 + 9 * 4 * 2, 6080)

    def test_family_too_large_to_enumerate_is_refused(self):
        n = 17  # 2^17 sets > MAX_TABULAR_FAMILY
        ct = CustomerType(id=0, arrival=1.0, revenues=(1.0,) * n,
                          choice=Mnl(weights=(1.0,) * n, no_purchase=1.0), patience=1)
        inst = Instance.single_level(T=1, inventories=[1] * n, types=(ct,),
                                     family=AssortmentFamily.size_capped(n))
        assert inst.family.count(n) > MAX_TABULAR_FAMILY
        with pytest.raises(ValueError, match="too large to enumerate"):
            simlab.run_benchmark(inst, "greedy", replicas=1)


class TestGenerators:
    def test_hardness_structure(self):
        inst = simlab.gen_hardness_instance(4)
        assert inst.T == 4 and inst.m == 4 and inst.n_items == 4
        assert all(ct.patience == 4 for ct in inst.types)
        assert inst.validate().ok
        # n = 1: the single offer sells with probability 1
        fractions = simlab.hardness_sold_fraction(1, replicas=500, seed=0)
        assert (fractions == 1.0).all()

    def test_hardness_sold_fraction_refuses_an_empty_instance(self):
        for n in (0, -1):
            with pytest.raises(ValueError, match="^n must be positive$"):
                simlab.hardness_sold_fraction(n, 10)

    def test_hardness_sold_fraction_matches_exact_chain(self):
        want = hardness_offer_all_fraction(14)
        assert want == pytest.approx(0.52551, abs=5e-6)
        fractions = simlab.hardness_sold_fraction(14, replicas=40_000, seed=0)
        se = fractions.std(ddof=1) / math.sqrt(len(fractions))
        assert abs(fractions.mean() - want) <= 3 * se

    def test_gap_structure(self):
        inst = simlab.gen_gap_instance(4)
        assert inst.n_items == 6
        bases = [S for S in inst.family.sets if S]
        assert len(bases) == 4
        assert all(len(S) == 3 for S in bases)
        for a in range(4):
            for b in range(a + 1, 4):
                assert len(bases[a] & bases[b]) == 1
        with pytest.raises(ValueError):
            simlab.gen_gap_instance(5)

    def test_gap_policy_below_ceiling(self):
        for M in (4, 8, 20, 40):
            assert simlab.gap_policy_sale_probability(M) <= simlab.gap_analytic_ceiling(M)

    def test_gap_policy_formula_against_monte_carlo(self):
        # simulate the sequential stripped-base policy at M = 4 directly
        M = 4
        inst = simlab.gen_gap_instance(M)
        c = 2.0 / (M * (M - 1))
        rng = np.random.default_rng(0)
        R = 200_000
        bases = sorted((S for S in inst.family.sets if S), key=lambda s: tuple(sorted(s)))
        sold = 0
        for _ in range(R):
            seen: set[int] = set()
            bought = False
            for k in range(M // 2):
                stripped = bases[k] - seen
                seen |= bases[k]
                if rng.random() < c * len(stripped):
                    bought = True
                    break
            sold += bought
        est = sold / R
        expect = simlab.gap_policy_sale_probability(M)
        assert est == pytest.approx(expect, abs=4 * math.sqrt(0.25 / R))

    def test_greedy_and_conservative_choosers(self):
        template = simlab.gen_hotel_like(seed=0, n_types=4)
        inst = simlab.build_hotel_instance(template, 2.0, seed=0)
        g = simlab._GreedyChooser(inst, high_only=False)
        c = simlab._GreedyChooser(inst, high_only=True)
        everything = (1 << inst.n_products) - 1
        assert g.choose(0, everything)[0]  # something offered when everything is in stock
        high = inst.price_levels - 1
        assert all(inst.products[i].level == high for i in c.choose(0, everything)[0])

    def test_hotel_instance_json_roundtrip(self, tmp_path):
        from mcassort.model import load_instance, save_instance
        template = simlab.gen_hotel_like(seed=5, n_types=4)
        inst = simlab.build_hotel_instance(template, 3.0, scale_factor=2.0, seed=2)
        path = str(tmp_path / "hotel.json")
        save_instance(inst, path)
        assert load_instance(path) == inst

    def test_hotel_template_matches_table(self):
        t = simlab.gen_hotel_like(seed=0)
        assert t.low_fares == (307.0, 304.0, 384.0, 306.0)
        assert t.high_fares == (361.0, 361.0, 496.0, 342.0)
        assert sum(t.shares) == pytest.approx(1.0)
        inst = simlab.build_hotel_instance(t, loading_factor=2.0, seed=0)
        assert inst.n_products == 8  # 4 rooms x 2 fares
        assert inst.validate().ok
        for ct in inst.types:
            for room in range(4):
                assert ct.revenues[room * 2] < ct.revenues[room * 2 + 1]

    def test_inventory_allocation_largest_remainder(self):
        assert simlab._allocate_inventory(2, (0.52, 0.15, 0.13, 0.20)) == [1, 0, 0, 1]
        assert sum(simlab._allocate_inventory(13, (0.52, 0.15, 0.13, 0.20))) == 13


class TestFitMnl:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            n = int(rng.integers(2, 6))
            recs = []
            for _ in range(30):
                size = int(rng.integers(1, n + 1))
                off = frozenset(int(i) for i in rng.choice(n, size=size, replace=False))
                ch = int(sorted(off)[rng.integers(0, len(off))]) if rng.random() < 0.7 else None
                recs.append(simlab.TransactionRecord((0,), off, ch))
            theta = rng.normal(0, 0.7, n)
            _, grad = simlab.mnl_loglik(theta, recs)
            fd = np.zeros(n)
            for i in range(n):
                e = np.zeros(n)
                e[i] = 1e-6
                lp, _ = simlab.mnl_loglik(theta + e, recs)
                lm, _ = simlab.mnl_loglik(theta - e, recs)
                fd[i] = (lp - lm) / 2e-6
            assert np.abs(grad - fd).max() < 1e-5

    def test_symmetric_data_equal_weights(self):
        recs = []
        for _ in range(60):
            recs.append(simlab.TransactionRecord(("t",), frozenset({0, 1}), 0))
            recs.append(simlab.TransactionRecord(("t",), frozenset({0, 1}), 1))
            recs.append(simlab.TransactionRecord(("t",), frozenset({0, 1}), None))
        model = simlab.fit_mnl(recs, n_products=2)[("t",)]
        assert abs(model.weights[0] - model.weights[1]) < 1e-6

    def test_separable_data_ridge_fallback(self):
        recs = [simlab.TransactionRecord(("t",), frozenset({0, 1}), 0) for _ in range(40)]
        with pytest.warns(UserWarning, match="ridge"):
            model = simlab.fit_mnl(recs, n_products=2)[("t",)]
        assert np.isfinite(model.weights).all()
        assert model.weights[0] > model.weights[1]

    def test_no_purchase_rule_and_scale(self):
        recs = []
        for _ in range(30):
            recs.append(simlab.TransactionRecord(("t",), frozenset({0, 1}), 0))
            recs.append(simlab.TransactionRecord(("t",), frozenset({0, 1}), None))
            recs.append(simlab.TransactionRecord(("t",), frozenset({0, 1}), 1))
            recs.append(simlab.TransactionRecord(("t",), frozenset({1}), None))
        model = simlab.fit_mnl(recs, n_products=2, scale_factor=2.0)[("t",)]
        assert model.no_purchase == pytest.approx(2.0 * max(model.weights))

    @pytest.mark.parametrize("product", [-1, 2])
    def test_product_outside_the_range_is_refused(self, product):
        # a negative id would wrap onto the last product's weight
        recs = [simlab.TransactionRecord(("t",), frozenset({0, product}), 0) for _ in range(10)]
        with pytest.raises(ValueError, match=f"offered product {product} lies outside 0..1"):
            simlab.fit_mnl(recs, n_products=2)


class TestSweep:
    def test_csv_deterministic(self):
        template = simlab.gen_hotel_like(seed=1, n_types=5)
        spec = simlab.SweepSpec(loading_factors=(2.0,), patiences=(2,), caps=(3,),
                                scale_factors=(2.0,), replicas=30, seed=4)
        csv1 = simlab.sweep_to_csv(simlab.run_sweep(template, spec))
        csv2 = simlab.sweep_to_csv(simlab.run_sweep(template, spec))
        assert csv1 == csv2

    def test_policies_bounded_by_lp(self):
        template = simlab.gen_hotel_like(seed=2, n_types=6)
        spec = simlab.SweepSpec(loading_factors=(1.0, 5.0), patiences=(2,), caps=(3,),
                                scale_factors=(2.0,), replicas=40, seed=5)
        rows = simlab.run_sweep(template, spec)
        assert rows
        for row in rows:
            assert row["pct_of_bound"] <= 100.0 + 3 * row["pct_se"]

    def test_lp_failure_skips_cell_with_warning(self, monkeypatch):
        def failing(*args, **kwargs):
            raise lpcore.LpError("MCDLP solve returned status infeasible")

        monkeypatch.setattr(mcdlp, "solve_variant", failing)
        template = simlab.gen_hotel_like(seed=1, n_types=5)
        spec = simlab.SweepSpec(loading_factors=(2.0,), patiences=(2,), caps=(3,),
                                scale_factors=(2.0,), replicas=30, seed=4)
        with pytest.warns(UserWarning, match="LP failed on cell lf=2.0 pat=2 cap=3 sf=2.0"):
            assert simlab.run_sweep(template, spec) == []

    def test_programming_error_is_not_swallowed(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bad argument")

        monkeypatch.setattr(mcdlp, "solve_variant", broken)
        template = simlab.gen_hotel_like(seed=1, n_types=5)
        spec = simlab.SweepSpec(loading_factors=(2.0,), patiences=(2,), caps=(3,),
                                scale_factors=(2.0,), replicas=30, seed=4)
        with pytest.raises(TypeError, match="bad argument"):
            simlab.run_sweep(template, spec)

    def test_unknown_policy_refused_before_any_lp(self, monkeypatch):
        def unreached(*args, **kwargs):
            raise AssertionError("solved an LP for a sweep with an unknown policy")

        monkeypatch.setattr(mcdlp, "solve_variant", unreached)
        template = simlab.gen_hotel_like(seed=1, n_types=5)
        spec = simlab.SweepSpec(loading_factors=(2.0,), replicas=30, seed=4)
        with pytest.raises(ValueError, match="^unknown sweep policy 'algorithm6'$"):
            simlab.run_sweep(template, spec, policies=("greedy", "algorithm6"))

    def test_replica_floor(self):
        with pytest.raises(ValueError, match="replicas"):
            simlab.SweepSpec(replicas=10)

    # unchecked, each fails inside the first cell: a zero cap gives an LP
    # optimum of 0 to divide by, a negative scale a math domain error, a zero
    # patience or scale a per-type InvalidInstanceError, and a NaN loading
    # factor a NaN-to-integer ValueError
    @pytest.mark.parametrize("field, values, message", [
        ("loading_factors", (1.0, math.nan), "^loading factors must be positive$"),
        ("patiences", (2, 0), r"^patiences must be at least 1, got \(2, 0\)$"),
        ("caps", (0,), r"^caps must be at least 1, got \(0,\)$"),
        ("scale_factors", (-1.0,), r"^scale factors must be positive, got \(-1.0,\)$"),
        ("scale_factors", (2.0, 0.0), r"^scale factors must be positive, got \(2.0, 0.0\)$"),
    ])
    def test_refuses_a_cell_parameter_out_of_range(self, field, values, message):
        with pytest.raises(ValueError, match=message):
            simlab.SweepSpec(**{field: values})


def _solved(inst, variant):
    return inst, mcdlp.solve_variant(inst, variant)


def _norepeat_case():
    return _solved(simlab.random_norepeat_instance(seed=2, n=4, cap=2, m=3), McdlpVariant.MCDLP_NR)


def _geometric_case():
    inst = simlab.random_norepeat_instance(seed=12, n=4, cap=2, m=4)
    types = tuple(replace(ct, patience=None, leave_prob=0.5) for ct in inst.types)
    return _solved(replace(inst, types=types), McdlpVariant.MCDLP_NR)


def _repeated_case():
    ct = CustomerType(id=0, arrival=0.8, revenues=(1.0, 2.0, 1.5),
                      choice=Mnl(weights=(1.0, 0.5, 0.8), no_purchase=1.0), patience=3)
    inst = Instance.single_level(T=3, inventories=[1, 1, 1], types=(ct,),
                                 family=AssortmentFamily.explicit([[0, 1], [1, 2], [0, 2]]),
                                 repeated_offers_allowed=True)
    return _solved(inst, McdlpVariant.MCDLP_R)


RUNNERS = {
    "run_benchmark": lambda r, s=0: simlab.run_benchmark(_norepeat_case()[0], "greedy", r, seed=s),
    "run_algorithm3": lambda r, s=0: norepeat.run_algorithm3(*_norepeat_case(), replicas=r, seed=s),
    "run_modified_algorithm3": lambda r, s=0: norepeat.run_modified_algorithm3(
        *_solved(simlab.random_homog_instance(seed=3, n=4, cap=2, m=3), McdlpVariant.MCDLP_NRS),
        replicas=r, seed=s),
    "run_algorithm3_random_patience": lambda r, s=0: norepeat.run_algorithm3_random_patience(
        *_geometric_case(), replicas=r, seed=s),
    "run_algorithm1": lambda r, s=0: attenuate.run_algorithm1(
        *_solved(simlab.random_matching_instance(seed=4, n=4, m=3, T=4), McdlpVariant.SINGLE_ITEM),
        mc_budget=50, replicas=r, seed=s),
    "run_algorithm6": lambda r, s=0: attenuate.run_algorithm6(*_repeated_case(), mc_budget=50, replicas=r, seed=s),
    "hardness_sold_fraction": lambda r, s=0: simlab.hardness_sold_fraction(5, r, seed=s),
    "compute_attenuation_factors": lambda r, s=0: attenuate.compute_attenuation_factors(
        *_solved(simlab.random_matching_instance(seed=4, n=4, m=3, T=4), McdlpVariant.SINGLE_ITEM),
        mc_budget=50, seed=s),
}


def _unreachable_serving(monkeypatch, why):
    def unreachable(*args, **kwargs):
        raise AssertionError(why)

    monkeypatch.setattr(attenuate, "_estimate_factors", unreachable)
    for mod in (simlab, norepeat):
        monkeypatch.setattr(mod, "serve_batches", unreachable)


@pytest.mark.parametrize("replicas", [0, -2])
@pytest.mark.parametrize("runner", sorted(set(RUNNERS) - {"compute_attenuation_factors"}))
def test_runners_refuse_fewer_than_one_replica(runner, replicas, monkeypatch):
    # a run of no replicas has a NaN mean; it is refused before any factor
    # estimation, and serving code is never reached
    _unreachable_serving(monkeypatch, "work started before the replica count was checked")
    with pytest.raises(ValueError, match="replicas"):
        RUNNERS[runner](replicas)


@pytest.mark.parametrize("runner", sorted(RUNNERS))
def test_runners_refuse_a_negative_seed(runner, monkeypatch):
    # numpy's SeedSequence would fail on it mid-run; the runner names the seed first
    _unreachable_serving(monkeypatch, "work started before the seed was checked")
    with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
        RUNNERS[runner](5, -1)


def test_sweep_spec_refuses_a_negative_seed():
    with pytest.raises(ValueError, match="^seed must be non-negative, got -3$"):
        simlab.SweepSpec(seed=-3)


def _arrival_mass_two(inst):
    """Arrival mass 2 at every step; T shrinks so that every T q_j is kept."""
    scale = 2.0 / sum(ct.arrival for ct in inst.types)
    return replace(inst, T=max(1, round(inst.T / scale)),
                   types=tuple(replace(ct, arrival=ct.arrival * scale) for ct in inst.types))


def _both_patience_rules(inst):
    return replace(inst, types=(replace(inst.types[0], leave_prob=0.5),) + inst.types[1:])


VALIDATED_RUNNERS = {
    "run_benchmark": (lambda: (_norepeat_case()[0], None),
                      lambda inst, sol: simlab.run_benchmark(inst, "greedy", 10)),
    "run_algorithm3": (lambda: _solved(simlab.random_norepeat_instance(seed=2, n=4, cap=2, m=4),
                                       McdlpVariant.MCDLP_NR),
                       lambda inst, sol: norepeat.run_algorithm3(inst, sol, replicas=10)),
    "run_algorithm1": (lambda: _solved(simlab.random_matching_instance(seed=4, n=4, m=3, T=4),
                                       McdlpVariant.SINGLE_ITEM),
                       lambda inst, sol: attenuate.run_algorithm1(inst, sol, mc_budget=50, replicas=10)),
    "run_algorithm6": (_repeated_case,
                       lambda inst, sol: attenuate.run_algorithm6(inst, sol, mc_budget=50, replicas=10)),
}


@pytest.mark.parametrize("defect, message", [
    (_arrival_mass_two, "arrival mass exceeds 1 at time-step 0"),
    (_both_patience_rules, "type 0: exactly one of patience and leave_prob must be set"),
], ids=["arrival-mass-2", "both-patience-rules"])
@pytest.mark.parametrize("runner", sorted(VALIDATED_RUNNERS))
def test_runners_refuse_instances_validate_rejects(runner, defect, message, monkeypatch):
    # the plan comes from the valid instance; the runner sees the broken one,
    # where types past cumulative arrival mass 1 would never arrive
    make, run = VALIDATED_RUNNERS[runner]
    inst, sol = make()
    _unreachable_serving(monkeypatch, "work started on an invalid instance")
    with pytest.raises(ValueError, match=message):
        run(defect(inst), sol)


@pytest.mark.parametrize("seed", range(4))
def test_mnl_expected_revenues_are_the_probs_floats(seed):
    # greedy's values from the family_probs table give the floats of summing
    # probs in sorted order, also past 8 products, where a frozenset's order
    # is not sorted; a tabular type in the same instance is priced through probs
    rng = np.random.default_rng(seed)
    n = 40
    types = [CustomerType(id=j, arrival=0.3, revenues=tuple(rng.uniform(0.1, 500.0, n)),
                          choice=Mnl(weights=tuple(rng.lognormal(0.0, 1.0, n)),
                                     no_purchase=float(rng.uniform(0.5, 9.0))),
                          patience=1) for j in range(2)]
    types.append(CustomerType(id=2, arrival=0.3, revenues=tuple(rng.uniform(0.1, 5.0, n)),
                              choice=Tabular(entries={}, item_probs=tuple(rng.uniform(0.0, 0.02, n))),
                              patience=1))
    sets = [frozenset(int(i) for i in rng.choice(n, size=int(rng.integers(0, 9)), replace=False))
            for _ in range(400)]
    assert any(list(S) != sorted(S) for S in sets)
    want = [[sum(ct.revenues[i] * p for i, p in sorted(ct.choice.probs(S))) for S in sets] for ct in types]
    assert simlab._GreedyChooser.revenues(tuple(types), sets, n) == want
