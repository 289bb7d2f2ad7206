import math
import random

import numpy as np
import pytest

from mcassort import attenuate, mcdlp
from mcassort.blackbox import (
    CASE_FULL,
    CASE_NONE,
    CASE_SMALL,
    CoinSet,
    batch_flip,
    certified_case,
    f,
    flip_bound,
    w_value,
)
from mcassort.model import AssortmentFamily, CustomerType, Instance, Mnl, Tabular, validate
from scalar_oracles import FlipOutcome, gkps_round, run_blackbox


def run_blackbox_assort(assortments, weights, patience, choice_prob, seed=None, rng=None, case=None):
    """Scalar oracle for the assortment black-box: a flip shows a whole set;
    heads means any item is chosen.

    The per-assortment mass is sum_{i in S} p(i, S).  Returns the flip outcome
    over assortment indices plus the chosen item when some assortment won.
    """
    if rng is None:
        rng = random.Random(seed)
    masses = []
    for S in assortments:
        mass = sum(choice_prob(i, S) for i in S)
        if mass > 1 + 1e-7:
            raise ValueError(f"choice probabilities sum to {mass} > 1 on {sorted(S)}")
        masses.append(mass)
    x = tuple(float(v) for v in weights)
    coins = CoinSet(tuple(masses), x, patience, case or certified_case(masses, patience))
    rounded = gkps_round(x, rng=rng)
    keyed = []
    for k in range(len(assortments)):
        if not rounded.values[k]:
            continue
        y = rng.random()
        denom = 1.0 - (masses[k] if coins.case == CASE_SMALL else masses[k] * x[k])
        keyed.append((y / denom if denom > 1e-9 else math.inf, k))
    keyed.sort()
    order = []
    flipped = [False] * len(assortments)
    heads = [False] * len(assortments)
    winner = None
    item = None
    for key, k in keyed:
        if len(order) >= patience:
            break
        order.append(k)
        flipped[k] = True
        # one categorical draw over the displayed items plus no-purchase
        u = rng.random()
        acc = 0.0
        for i in sorted(assortments[k]):
            acc += choice_prob(i, assortments[k])
            if u < acc:
                heads[k] = True
                winner = k
                item = i
                break
        if winner is not None:
            break
    return FlipOutcome(tuple(order), tuple(flipped), tuple(heads), winner), item


class TestF:
    def test_values(self):
        assert f(1.0) == pytest.approx(1 - 1 / math.e)
        assert f(0.0) == 1.0
        assert f(0.2) > f(0.8)

    def test_domain(self):
        with pytest.raises(ValueError):
            f(1.5)
        with pytest.raises(ValueError):
            f(-0.2)

    def test_convexity_midpoint_grid(self):
        grid = np.linspace(0.0, 1.0, 21)
        for a in grid:
            for b in grid:
                assert f((a + b) / 2) <= (f(a) + f(b)) / 2 + 1e-12

    def test_derivative_endpoints(self):
        h = 1e-6
        d0 = (f(2 * h) - f(h)) / h
        assert d0 == pytest.approx(-0.5, abs=1e-4)
        d1 = (f(1.0) - f(1.0 - h)) / h
        assert d1 == pytest.approx(-1 + 2 / math.e, abs=1e-4)


class TestWValue:
    def test_full_patience_direct(self):
        cs = CoinSet((0.5, 0.5), (1.0, 1.0), 2, CASE_FULL)
        assert w_value(0, cs) == pytest.approx(1.0)

    def test_small_probs_direct(self):
        cs = CoinSet((0.5, 0.25), (1.0, 1.0), 2, CASE_SMALL)
        assert w_value(0, cs) == pytest.approx(0.5)

    def test_degenerate_probability_one_convention(self):
        cs = CoinSet((1.0, 0.0), (1.0, 1.0), 2, CASE_SMALL)
        assert w_value(0, cs) == 1.0

    def test_full_patience_bound_dominates_small_probs(self):
        # w^{(1)} <= w^{(2)} pointwise wherever both cases apply
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            p = rng.uniform(0.05, 0.9, n)
            p = p / p.sum() * rng.uniform(0.3, 1.0)  # sum p <= 1
            x = rng.uniform(0, 1, n)
            if (p * x).sum() > 1:
                x = x / (p * x).sum()
            cs = CoinSet(tuple(p), tuple(x), n, CASE_FULL)
            for i in range(n):
                w_full = w_value(i, cs, case=CASE_FULL)
                w_small = w_value(i, cs, case=CASE_SMALL)
                assert w_full <= w_small + 1e-12
                assert w_full <= 1 + 1e-12 and w_small <= 1 + 1e-12


def _random_coinset(rng, case):
    n = int(rng.integers(2, 7))
    if case == CASE_SMALL:
        p = rng.uniform(0.05, 0.9, n)
        p = p / p.sum() * rng.uniform(0.4, 1.0)
        ell = int(rng.integers(1, n + 1))
    else:
        p = rng.uniform(0.05, 0.9, n)
        ell = n
    x = rng.uniform(0.1, 1.0, n)
    px = (p * x).sum()
    if px > 1:
        x *= rng.uniform(0.5, 1.0) / px
    if x.sum() > ell:
        x *= ell / x.sum()
    return CoinSet(tuple(p), tuple(np.minimum(x, 1.0)), ell, case)


class TestRunBlackbox:
    def test_single_coin_always_flipped(self):
        rng = np.random.default_rng(1)
        fl, win = batch_flip(np.array([0.5]), np.ones((40_000, 1)), 1, CASE_FULL, rng)
        assert fl.all()
        heads_rate = (win == 0).mean()
        assert abs(heads_rate - 0.5) < 4 * math.sqrt(0.25 / 40_000)

    def test_never_flips_after_heads_and_respects_patience(self):
        cs = CoinSet((0.6, 0.5, 0.7), (0.6, 0.5, 0.4), 2, CASE_NONE)
        for k in range(300):
            out = run_blackbox(cs, seed=k)
            assert len(out.order) <= 2
            if out.winner is not None:
                assert out.order[-1] == out.winner

    def test_zero_weight_coin_never_flipped(self):
        cs = CoinSet((0.5, 0.5), (1.0, 0.0), 2, CASE_FULL)
        for k in range(200):
            assert not run_blackbox(cs, seed=k).flipped[1]

    def test_guarantee_random_suite_both_cases(self):
        rng = np.random.default_rng(2)
        R = 30_000
        for case in (CASE_SMALL, CASE_FULL):
            for trial in range(8):
                cs = _random_coinset(rng, case)
                n = len(cs.probs)
                fl, _ = batch_flip(np.array(cs.probs), np.tile(cs.weights, (R, 1)),
                                   cs.patience, case, rng)
                freq = fl.mean(axis=0)
                for i in range(n):
                    bound = flip_bound(i, cs)
                    sigma = math.sqrt(max(freq[i] * (1 - freq[i]), 1e-9) / R)
                    assert freq[i] >= bound - 4 * sigma, (case, trial, i, freq[i], bound)

    def test_counterexample_wrong_key_fails_bound(self):
        # eps = 0.1: the p-only ordering key Y / (1 - p) (the small-probs key,
        # used here outside its case) flips coin 3 w.p. 0.5 + eps/2 = 0.55
        # conditioned on it surviving the rounding, strictly below f(w_3).
        eps = 0.1
        p = np.array([1 - eps, 0.0, 1 - eps])
        x = (1.0, 1 - eps, eps)
        R = 400_000
        rng = np.random.default_rng(3)
        fl, _ = batch_flip(p, np.tile(x, (R, 1)), 2, CASE_SMALL, rng)
        cond = fl[:, 2].mean() / eps  # Pr[3 in rounded set] = x_3 = eps
        sigma = math.sqrt(0.25 / (R * eps))
        assert cond == pytest.approx(0.5 + eps / 2, abs=4 * sigma)
        cs = CoinSet(tuple(p), x, 2, CASE_NONE)
        w3 = w_value(2, cs, case=CASE_FULL)
        assert cond < f(w3) - 0.05  # clear violation of the would-be bound

    def test_counterexample_right_key_clears_bound(self):
        eps = 0.1
        p = np.array([1 - eps, 0.0, 1 - eps])
        x = (1.0, 1 - eps, eps)
        R = 400_000
        rng = np.random.default_rng(4)
        fl, _ = batch_flip(p, np.tile(x, (R, 1)), 2, CASE_NONE, rng)
        cs = CoinSet(tuple(p), x, 2, CASE_NONE)
        w3 = w_value(2, cs, case=CASE_FULL)
        freq = fl[:, 2].mean()
        sigma = math.sqrt(max(freq * (1 - freq), 1e-9) / R)
        assert freq >= eps * f(w3) - 3 * sigma


class TestAssortmentBlackbox:
    def _mnl_choice(self, weights, v0):
        m = Mnl(weights=weights, no_purchase=v0)

        def prob(i, S):
            return m.prob(i, S)

        return prob

    def test_single_assortment_always_flipped(self):
        prob = self._mnl_choice((1.0, 1.0), 1.0)
        for k in range(200):
            out, item = run_blackbox_assort([frozenset({0, 1})], [1.0], 1, prob, seed=k)
            assert out.flipped[0]

    def test_two_disjoint_half_mass_assortments(self):
        # each mass 1/2 at weight 1: w(S) = 1 in the full-patience case
        probs = {0: 0.25, 1: 0.25, 2: 0.25, 3: 0.25}

        def prob(i, S):
            return probs[i]

        sets = [frozenset({0, 1}), frozenset({2, 3})]
        R = 60_000
        counts = np.zeros(2)
        for k in range(R):
            out, item = run_blackbox_assort(sets, [1.0, 1.0], 2, prob, seed=k)
            counts += np.array(out.flipped, dtype=float)
        bound = f(1.0)
        sigma = math.sqrt(0.25 / R)
        assert counts[0] / R >= bound - 4 * sigma
        assert counts[1] / R >= bound - 4 * sigma

    def test_zero_weight_assortment_never_flipped(self):
        prob = self._mnl_choice((1.0, 1.0), 1.0)
        for k in range(100):
            out, _ = run_blackbox_assort(
                [frozenset({0}), frozenset({1})], [1.0, 0.0], 2, prob, seed=k)
            assert not out.flipped[1]


class TestCertifiedCase:
    def test_full_patience_preferred(self):
        assert certified_case([0.9, 0.9], 2) == CASE_FULL

    def test_small_probs_with_tolerance(self):
        assert certified_case([0.5, 0.5 + 5e-10, 0.0], 1) == CASE_SMALL
        assert certified_case([0.5, 0.5 + 2e-9, 0.0], 1) == CASE_NONE

    def test_flip_after_heads_rejected(self):
        FlipOutcome((0, 1), (True, True), (False, True), 1)
        with pytest.raises(ValueError, match="after a heads"):
            FlipOutcome((0, 1), (True, True), (True, False), 0)

    def test_w_value_above_one_rejected(self):
        # bypass CoinSet validation to reach w_value's own precondition check
        cs = object.__new__(CoinSet)
        for name, value in (("probs", (0.5, 0.9)), ("weights", (1.0, 1.0)),
                            ("patience", 2), ("case", CASE_SMALL)):
            object.__setattr__(cs, name, value)
        with pytest.raises(ValueError, match="exceeds 1"):
            w_value(0, cs)


def _table(probs):
    """A tabular model from {set: {item: probability}}."""
    return Tabular(entries={(i, frozenset(S)): p for S, row in probs.items() for i, p in row.items()})


class TestAssortmentKernelVsOracle:
    """The engine's one-step (set, item) sales at t=1 with unit factors match
    the scalar assortment oracle in every certified case, on MNL and on a
    general tabular model, with every item available and with one sold out."""

    SETS = [frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2})]
    TABLE_SETS = [frozenset({0, 1, 2}), frozenset({0, 2}), frozenset({1, 2})]
    WEIGHTS = (0.5, 0.45, 0.4)
    # not MNL: the within-set odds change when an item is stripped; and
    # substitutable: stripping an item never lowers another's probability
    TABLE = _table({
        (0, 1, 2): {0: 0.1, 1: 0.2, 2: 0.3},
        (0, 1): {0: 0.3, 1: 0.25}, (0, 2): {0: 0.25, 2: 0.3}, (1, 2): {1: 0.25, 2: 0.35},
        (0,): {0: 0.45}, (1,): {1: 0.4}, (2,): {2: 0.5},
    })

    def test_table_is_substitutable_on_every_stripped_set(self):
        # validate checks the family's own sets; the stripped sets lie below them
        sets = [frozenset(S) for S in ((0, 1, 2), (0, 1), (0, 2), (1, 2), (0,), (1,), (2,))]
        for big in sets:
            for small in sets:
                if small < big:
                    for i in small:
                        assert self.TABLE.prob(i, small) >= self.TABLE.prob(i, big), (i, small, big)

    @pytest.mark.parametrize("choice, sets, case, patience, sold_out", [
        # masses 0.60, 0.71, 0.67; patience covers the family
        (Mnl(weights=(1.0, 0.5, 1.5), no_purchase=1.0), SETS, CASE_FULL, 3, ()),
        # masses 0.23, 0.33, 0.29; sum 0.85 <= 1
        (Mnl(weights=(1.0, 0.5, 1.5), no_purchase=5.0), SETS, CASE_SMALL, 2, ()),
        # masses 0.43, 0.56, 0.50; sum 1.48 > 1
        (Mnl(weights=(1.0, 0.5, 1.5), no_purchase=2.0), SETS, CASE_NONE, 2, ()),
        # stripped sets {0, 1}, {0}, {1}
        (Mnl(weights=(1.0, 0.5, 1.5), no_purchase=1.0), SETS, CASE_FULL, 3, (2,)),
        # masses 0.60, 0.55, 0.60; evaluated set by set, not in closed form
        (TABLE, TABLE_SETS, CASE_FULL, 3, ()),
        (TABLE, TABLE_SETS, CASE_NONE, 2, ()),
        # stripped sets {0, 1}, {0}, {1}
        (TABLE, TABLE_SETS, CASE_FULL, 3, (2,)),
        # stripped sets {1, 2}, {2}, {1, 2}
        (TABLE, TABLE_SETS, CASE_NONE, 2, (0,)),
    ], ids=["mnl-full", "mnl-small", "mnl-none", "mnl-full-stripped",
            "table-full", "table-none", "table-full-stripped", "table-none-stripped"])
    def test_sale_frequencies_agree(self, choice, sets, case, patience, sold_out):
        ct = CustomerType(id=0, arrival=1.0, revenues=(1.0, 1.0, 1.0), choice=choice,
                          patience=patience)
        inst = Instance.single_level(T=1, inventories=[1, 1, 1], types=(ct,),
                                     family=AssortmentFamily.explicit([sorted(S) for S in sets]),
                                     repeated_offers_allowed=True)
        # the comparison runs inside the model class the guarantees assume
        assert validate(inst).ok, validate(inst).violations
        sol = mcdlp.McdlpSolution(mcdlp.McdlpVariant.MCDLP_R, 0.0, tuple(sets),
                                  (dict(zip(sets, self.WEIGHTS)),), None)
        kern = attenuate._assortment_kernel(inst, sol, allow_uncertified=True)
        assert kern.case == [case] and kern.small.tolist() == [case == CASE_SMALL]
        assert kern.general.tolist() == [isinstance(choice, Tabular)]
        assert [kern.sets[0][k] for k in range(3)] == sets
        stripped = [S - set(sold_out) for S in sets]
        B = 60_000
        avail = np.ones((B, 3), dtype=bool)
        avail[:, list(sold_out)] = False
        rng = np.random.default_rng(17)
        coins, _, winner = kern.flip(avail, np.zeros(B, dtype=np.int64), rng)
        won = np.nonzero(winner >= 0)[0]
        slot = kern.draw_slot(coins, won, winner[won], rng)
        fast = np.zeros((3, 3))
        np.add.at(fast, (winner[won], kern.items[0, winner[won], slot]), 1)
        fast /= B
        R = 20_000
        oracle = np.zeros((3, 3))
        for k in range(R):
            out, item = run_blackbox_assort(stripped, self.WEIGHTS, patience, choice.prob,
                                            seed=k, case=case)
            if out.winner is not None:
                oracle[out.winner, item] += 1
        oracle /= R
        assert oracle.sum() > 0.3
        for k, S in enumerate(stripped):
            for i in range(3):
                if i not in S:
                    assert fast[k, i] == 0 and oracle[k, i] == 0
                    continue
                p = (fast[k, i] + oracle[k, i]) / 2
                sigma = math.sqrt(p * (1 - p) * (1 / B + 1 / R))
                assert abs(fast[k, i] - oracle[k, i]) <= 4 * sigma, (k, i, fast[k, i], oracle[k, i])
