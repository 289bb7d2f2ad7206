"""Acceptance suite: one test per criterion, tolerances pinned up front.

Every test prints a [PASS] line with its headline numbers (visible with
pytest -rP or -s).  Statistical tolerances follow the stated sigma budgets;
where Monte-Carlo-estimated attenuation factors enter a quantity, the factor
noise (of order 1/sqrt(mc_budget) per step) is part of the sigma budget.
"""
import itertools
import math
import time

import numpy as np
import pytest

from mcassort import attenuate, colgen, mcdlp, norepeat, simlab
from mcassort.attenuate import gamma_schedule, h_limit
from mcassort.blackbox import (
    CASE_FULL,
    CASE_NONE,
    CASE_SMALL,
    CoinSet,
    batch_flip,
    f,
    flip_bound,
    w_value,
)
from mcassort.colgen import (
    BruteForceOracle,
    FptasConfig,
    MnlFptasOracle,
    SubproblemInstance,
    column_generate,
    subproblem_bruteforce,
    subproblem_mnl_fptas,
)
from mcassort.mcdlp import McdlpVariant, MonteCarloEstimate, verify_policy_upper_bound
from mcassort.model import AssortmentFamily, Mnl
from mcassort.rounding import gkps_round_batch


def test_criterion_01_gamma_schedule():
    t0 = time.time()
    T = 100_000
    sched = gamma_schedule(T)
    g_final = sched.gamma(T + 1)
    ratio = sched.ratio
    elapsed = time.time() - t0
    assert 0.4880 < g_final <= 0.4900
    assert ratio >= 0.5100 - 1e-3
    assert elapsed < 1.0
    print(f"[PASS] criterion 1: gamma_(T+1)={g_final:.6f} in (0.4880,0.4900], "
          f"ratio={ratio:.6f} >= 0.5090, {elapsed:.2f}s")


def test_criterion_02_h_limit_formula():
    h1 = h_limit(1.0)
    assert abs(h1 - math.log(2 - 1 / math.e)) <= 1e-9
    assert abs((1 - h1) - (1 - math.log(2 - 1 / math.e))) <= 1e-9
    print(f"[PASS] criterion 2 (formula): h(1)=ln(2-1/e)={h1:.12f}, 1-h(1)={1-h1:.12f}")


def test_criterion_02_pinned_decimal_literal():
    """The criterion pins h(1) = 0.489995 +- 1e-9, but ln(2 - 1/e) =
    0.489880126...; that decimal expansion is off by 1.15e-4, far beyond the
    stated 1e-9 tolerance, so this faithful rendering of the criterion fails
    by design (the upstream ratio is only ever quoted as "0.51", matching the
    correct value).  The blocking analysis lives outside the package."""
    h1 = h_limit(1.0)
    assert h1 == pytest.approx(0.489995, abs=1e-9), (
        f"criterion literal defect: ln(2-1/e) = {h1:.12f}, not 0.489995; "
        f"difference {abs(h1-0.489995):.3e} >> 1e-9 (only '0.51' is ever quoted for 1-h(1), "
        f"matching the correct value)"
    )


def test_criterion_03_gkps_properties():
    t0 = time.time()
    rng = np.random.default_rng(30)
    R = 100_000
    worst_marginal = 0.0
    for trial in range(50):
        N = int(rng.integers(1, 7))
        z = rng.uniform(0.0, 1.0, N)
        Z = gkps_round_batch(np.tile(z, (R, 1)), rng)
        cap = max(math.ceil(z.sum() - 1e-12), 0)
        assert (Z.sum(axis=1) <= cap).all(), "degree preservation violated on a path"
        freq = Z.mean(axis=0)
        sigma = np.sqrt(np.maximum(z * (1 - z), 1e-12) / R)
        dev = np.abs(freq - z) / np.maximum(sigma, 1e-12)
        worst_marginal = max(worst_marginal, float(dev.max()))
        assert (np.abs(freq - z) <= 4 * sigma + 1e-12).all(), "marginal outside 4 sigma"
        slack = 4 * math.sqrt(0.25 / R)
        for b in (0, 1):
            E = Z if b == 1 else ~Z
            marg = E.mean(axis=0)
            for i in range(N):
                for jj in range(i + 1, N):
                    joint = float((E[:, i] & E[:, jj]).mean())
                    assert joint <= marg[i] * marg[jj] + slack, "positive correlation"
    elapsed = time.time() - t0
    assert elapsed < 30.0
    print(f"[PASS] criterion 3: 50 vectors x {R} paths, degree preserved on all, "
          f"worst marginal dev {worst_marginal:.2f} sigma, {elapsed:.1f}s")


def _random_coinset(rng, case):
    n = int(rng.integers(2, 7))
    p = rng.uniform(0.05, 0.9, n)
    if case == CASE_SMALL:
        p = p / p.sum() * rng.uniform(0.4, 1.0)
        ell = int(rng.integers(1, n + 1))
    else:
        ell = n
    x = rng.uniform(0.1, 1.0, n)
    px = float((p * x).sum())
    if px > 1:
        x *= rng.uniform(0.5, 1.0) / px
    if x.sum() > ell:
        x *= ell / x.sum()
    return CoinSet(tuple(p), tuple(np.minimum(x, 1.0)), ell, case)


def test_criterion_04_blackbox_guarantee():
    t0 = time.time()
    rng = np.random.default_rng(40)
    R = 40_000
    worst_margin = math.inf
    for case in (CASE_SMALL, CASE_FULL):
        for trial in range(50):
            cs = _random_coinset(rng, case)
            fl, _ = batch_flip(np.array(cs.probs), np.tile(cs.weights, (R, 1)),
                               cs.patience, case, rng)
            freq = fl.mean(axis=0)
            for i in range(len(cs.probs)):
                bound = flip_bound(i, cs)
                sigma = math.sqrt(max(freq[i] * (1 - freq[i]), 1e-9) / R)
                margin = (freq[i] - bound) / sigma if sigma else math.inf
                worst_margin = min(worst_margin, margin)
                assert freq[i] >= bound - 4 * sigma, (case, trial, i, freq[i], bound)

    # Known counter-example against the p-only ordering key, which is the
    # small-probs key Y / (1 - p) used outside its case.  The exact
    # conditional flip probability is 0.5 + eps/2 (0.5 is its eps -> 0
    # limit), so eps = 0.01 is used to land inside the 0.01 window.
    eps = 0.01
    p = np.array([1 - eps, 0.0, 1 - eps])
    x = (1.0, 1 - eps, eps)
    R3 = 10_000_000
    chunk = 1_000_000
    flips_wrong = 0
    flips_right = 0
    done = 0
    while done < R3:
        B = min(chunk, R3 - done)
        xw = np.tile(x, (B, 1))
        fw, _ = batch_flip(p, xw, 2, CASE_SMALL, rng)
        flips_wrong += int(fw[:, 2].sum())
        fr, _ = batch_flip(p, xw, 2, CASE_NONE, rng)
        flips_right += int(fr[:, 2].sum())
        done += B
    cond_wrong = flips_wrong / (R3 * eps)  # Pr[3 in rounded set] = x_3 = eps
    cond_right = flips_right / (R3 * eps)
    cs = CoinSet(tuple(p), x, 2, CASE_NONE)
    w3 = w_value(2, cs, case=CASE_FULL)
    assert abs(cond_wrong - 0.5) <= 0.01, cond_wrong
    assert cond_wrong < f(w3), "wrong key should sit strictly below the bound"
    assert cond_right >= f(w3) - 3 * math.sqrt(0.25 / (R3 * eps))
    elapsed = time.time() - t0
    assert elapsed < 120.0
    print(f"[PASS] criterion 4: worst flip margin {worst_margin:.2f} sigma above bound; "
          f"counter-example wrong key {cond_wrong:.4f} (=0.5 +- 0.01) < f(w3)={f(w3):.3f} "
          f"<= right key {cond_right:.4f}; {elapsed:.1f}s")


def test_criterion_05_algorithm1_end_to_end():
    t0 = time.time()
    sizes = [(5, 3, 6), (6, 4, 8), (8, 5, 8), (8, 6, 10), (10, 4, 10),
             (10, 8, 12), (12, 6, 10), (12, 10, 12), (15, 8, 14), (20, 20, 20)]
    worst_ratio = math.inf
    worst_avail_dev = 0.0
    for k, (n, m, T) in enumerate(sizes):
        inst = simlab.random_matching_instance(seed=500 + k, n=n, m=m, T=T)
        sol = mcdlp.solve_variant(inst, McdlpVariant.SINGLE_ITEM)
        res = attenuate.run_algorithm1(inst, sol, mc_budget=2000,
                                       replicas=10_000, seed=50 + k)
        ratio = res.revenue_mean / sol.objective
        worst_ratio = min(worst_ratio, ratio)
        assert ratio >= 0.51 - 0.02, (k, ratio)
        sched = res.schedule
        for t in range(1, T + 2):
            dev = np.abs(res.avail_freq[t - 1] - sched.gamma(t))
            sigma = res.avail_sigma(t)
            rel = dev / np.maximum(4 * sigma, 1e-12)
            worst_avail_dev = max(worst_avail_dev, float(rel.max()) * 4)
            assert (dev <= 4 * sigma + 1e-9).all(), (k, t, dev.max(), 4 * sigma.max())
        verdict = verify_policy_upper_bound(
            inst, sol.objective, MonteCarloEstimate.from_samples(res.revenues))
        assert verdict.consistent
    elapsed = time.time() - t0
    assert elapsed < 600.0
    print(f"[PASS] criterion 5: 10 instances, worst ratio {worst_ratio:.4f} >= 0.49, "
          f"availability within {worst_avail_dev:.2f} sigma (<= 4), {elapsed:.1f}s")


def test_criterion_06_hardness_limit():
    t0 = time.time()
    fractions = simlab.hardness_sold_fraction(500, replicas=10_000, seed=60)
    mean = float(fractions.mean())
    elapsed = time.time() - t0
    assert 0.49 <= mean <= 0.53
    # the asymptotic ceiling is 1 - ln(2 - 1/e)
    assert mean <= (1 - math.log(2 - 1 / math.e)) + 0.02
    assert elapsed < 120.0
    print(f"[PASS] criterion 6: offer-all sold fraction {mean:.4f} in [0.49, 0.53], "
          f"ceiling 0.5101, {elapsed:.1f}s")


def test_criterion_07_algorithm3():
    t0 = time.time()
    a = norepeat.ALPHA_STAR
    worst_ratio = math.inf
    bound_i = 1 / (2 * a)
    bound_tc = 1 / (2 * a) + 2 / (3 * a * a)
    for k in range(10):
        inst = simlab.random_norepeat_instance(seed=700 + k, n=int(4 + k % 5), cap=3)
        sol = mcdlp.solve_variant(inst, McdlpVariant.MCDLP_NR)
        res = norepeat.run_algorithm3(inst, sol, alpha=a, replicas=8000, seed=70 + k)
        ratio = res.revenue_mean / sol.objective
        worst_ratio = min(worst_ratio, ratio)
        assert ratio >= 0.093 - 0.02, (k, ratio)
        for j in range(inst.m):
            cond = res.type_arrivals[j]
            if cond < res.min_condition_count:
                continue
            for i in range(inst.n_products):
                freq = res.imatch[j, i] / cond
                sigma = math.sqrt(max(freq * (1 - freq), 1e-9) / cond)
                assert freq <= bound_i + 3 * sigma, "IMatch conditional bound"
            for s_idx, S in enumerate(res.support[j]):
                tc = res.timeout_cmatch.get((j, s_idx), 0) / cond
                sigma = math.sqrt(max(tc * (1 - tc), 1e-9) / cond)
                assert tc <= bound_tc + 3 * sigma, "Timeout/CMatch conditional bound"
                for i in S:
                    sn = res.seen.get((j, s_idx, i), 0) / cond
                    sigma = math.sqrt(max(sn * (1 - sn), 1e-9) / cond)
                    assert sn <= bound_i + 3 * sigma, "Seen conditional bound"
    elapsed = time.time() - t0
    assert elapsed < 600.0
    print(f"[PASS] criterion 7: 10 instances at alpha={a:.4f}, worst ratio "
          f"{worst_ratio:.4f} >= 0.073, event bounds ({bound_i:.4f}, {bound_tc:.4f}) held, "
          f"{elapsed:.1f}s")


def test_criterion_08_modified_algorithm3():
    t0 = time.time()
    from mcassort.model import choice_prob
    target = 1 - math.exp(-1 / 6)
    worst_ratio = math.inf
    for k in range(10):
        inst = simlab.random_homog_instance(seed=800 + k, n=int(4 + k % 4),
                                            cap=2 + k % 2, stationary=(k % 3 == 0))
        sol = mcdlp.solve_variant(inst, McdlpVariant.MCDLP_NRS)
        res = norepeat.run_modified_algorithm3(inst, sol, alpha=3.0,
                                               replicas=20_000, seed=80 + k)
        ratio = res.revenue_mean / sol.objective
        worst_ratio = min(worst_ratio, ratio)
        assert ratio >= target - 0.02, (k, ratio)
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
            assert freq >= bound - 3 * sigma, (k, item, freq, bound)
    elapsed = time.time() - t0
    assert elapsed < 600.0
    print(f"[PASS] criterion 8: 10 homogeneous instances, worst ratio "
          f"{worst_ratio:.4f} >= {target - 0.02:.4f}, per-item sale bounds held, {elapsed:.1f}s")


def test_criterion_09_integrality_gap():
    t0 = time.time()
    for M in (4, 8, 20, 40):
        inst = simlab.gen_gap_instance(M)
        sol = mcdlp.solve_variant(inst, McdlpVariant.MCDLP_NRS)
        assert sol.objective == pytest.approx(1.0, abs=1e-6), M
        assert simlab.gap_policy_sale_probability(M) <= simlab.gap_analytic_ceiling(M)
    ceiling40 = simlab.gap_analytic_ceiling(40)
    assert ceiling40 <= 0.565
    limit = 1 - math.exp(-0.75)
    ceilings = [simlab.gap_analytic_ceiling(M) for M in (4, 8, 20, 40)]
    assert all(b > c for b, c in zip(ceilings, ceilings[1:]))  # trending down
    assert ceilings[-1] - limit < 0.035
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(f"[PASS] criterion 9: LP OPT = 1 for M in (4,8,20,40); ceiling(40) = "
          f"{ceiling40:.4f} <= 0.565 trending to {limit:.4f}, {elapsed:.1f}s")


def test_criterion_10_column_generation():
    t0 = time.time()

    class MeasuringFptas(MnlFptasOracle):
        def __init__(self, eps):
            super().__init__(eps)
            self.worst = 1.0

        def solve(self, sub):
            S, v = super().solve(sub)
            Sb, vb = subproblem_bruteforce(sub)
            if vb > 1e-9:
                self.worst = min(self.worst, v / vb)
            return S, v

    for k in range(10):
        n = 4 + k % 3
        cap = (2 + k % 2) if k < 7 else n  # last instances: unrestricted family
        inst = simlab.random_norepeat_instance(seed=1000 + k, n=n, cap=cap, m=2 + k % 3)
        full = mcdlp.solve_variant(inst, McdlpVariant.MCDLP_NR)
        res = column_generate(inst, McdlpVariant.MCDLP_NR, BruteForceOracle())
        assert res.objective == pytest.approx(full.objective, abs=1e-6), k
        assert res.iterations <= res.family_size
        if cap == n:  # FPTAS oracle needs the unrestricted family
            oracle = MeasuringFptas(0.1)
            res_f = column_generate(inst, McdlpVariant.MCDLP_NR, oracle)
            assert res_f.objective >= oracle.worst * full.objective - 1e-6, k
    elapsed = time.time() - t0
    assert elapsed < 300.0
    print(f"[PASS] criterion 10: 10 instances, exact colgen == full OPT (1e-6); "
          f"FPTAS-oracle colgen >= measured-factor * OPT, {elapsed:.1f}s")


def _random_subproblem(rng, n):
    w = rng.uniform(0.3, 1.2, n)
    v = rng.uniform(0.4, 1.2, n)
    sig = rng.uniform(0.04, 0.12, n)
    return SubproblemInstance(
        w=w, sigma=sig, choice=Mnl(weights=tuple(v), no_purchase=1.0),
        family=AssortmentFamily.size_capped(n), n_products=n)


def test_criterion_11_fptas_vs_bruteforce():
    t0 = time.time()
    rng = np.random.default_rng(110)
    plan = [(0.2, 10, 34), (0.1, 8, 33), (0.05, 5, 33)]  # (eps, max n, count)
    checked = 0
    certified = 0
    for eps, n_max, count in plan:
        for _ in range(count):
            n = int(rng.integers(3, n_max + 1))
            sub = _random_subproblem(rng, n)
            Sb, vb = subproblem_bruteforce(sub)
            Sf, vf = subproblem_mnl_fptas(sub, eps)
            checked += 1
            if not Sb:
                assert vf >= -1e-12
                continue
            fstar = sum(sub.w[i] * sub.choice.prob(i, Sb) for i in Sb)
            hstar = float(sum(sub.sigma[i] for i in Sb))
            if hstar == 0:
                continue
            alpha_c = 2 * hstar / max(fstar - hstar, 1e-12)
            if not (0 < alpha_c < 1 / eps - 1):
                continue  # certification hypothesis fails on this instance
            certified += 1
            assert vf >= (1 - (alpha_c + 1) * eps) * (fstar - hstar) - 1e-9, (eps, n)
    assert checked == 100

    # DP cell values against the exhaustive minimum-mass oracle
    for trial in range(4):
        n = 5
        sub = _random_subproblem(rng, n)
        eps = 0.25
        cfg = FptasConfig.from_subproblem(sub, eps)
        v = np.array(sub.choice.weights[:n])
        g = cfg.gamma_grid[len(cfg.gamma_grid) // 2]
        d = cfg.delta_grid[len(cfg.delta_grid) // 3]
        wt = np.floor(n * sub.w * v / (eps * g)).astype(np.int64)
        vt = np.ceil(n * v / (eps * d)).astype(np.int64)
        V = colgen._fptas_dp_stack(wt[None], vt, sub.sigma, cfg.I, cfg.J)[0]
        for a in range(0, cfg.I + 1, max(cfg.I // 5, 1)):
            for b in range(0, cfg.J + 1, max(cfg.J // 5, 1)):
                best = math.inf
                for r in range(n + 1):
                    for combo in itertools.combinations(range(n), r):
                        sel = list(combo)
                        if sum(wt[sel]) >= a and sum(vt[sel]) <= b:
                            best = min(best, float(sum(sub.sigma[sel])))
                got = V[a, b, n]
                assert (math.isinf(best) and math.isinf(got)) or got == pytest.approx(best, abs=1e-12)
    elapsed = time.time() - t0
    assert elapsed < 600.0
    print(f"[PASS] criterion 11: 100 subproblems ({certified} met the certification hypothesis, "
          f"all within the certified factor); DP == exhaustive min-mass oracle; {elapsed:.1f}s")


def test_criterion_12_hotel_sweep():
    t0 = time.time()
    template = simlab.gen_hotel_like(seed=0, n_types=10)
    spec = simlab.SweepSpec(loading_factors=(1.0, 4.0, 7.0), patiences=(2,),
                            caps=(4,), scale_factors=(2.0,), replicas=600, seed=12)
    rows = simlab.run_sweep(template, spec)
    csv1 = simlab.sweep_to_csv(rows)
    csv2 = simlab.sweep_to_csv(simlab.run_sweep(template, spec))
    assert csv1 == csv2, "sweep CSV must be byte-identical under a fixed seed"

    def pct(lf, policy):
        return next(r["pct_of_bound"] for r in rows
                    if r["loading_factor"] == lf and r["policy"] == policy)

    policies = ("greedy", "conservative", "algorithm3", "modified-algorithm3")
    lows = {p: pct(1.0, p) for p in policies}
    highs = {p: pct(7.0, p) for p in policies}
    assert max(lows, key=lows.get) == "greedy", lows
    assert max(highs, key=highs.get) == "conservative", highs
    for r in rows:
        assert r["pct_of_bound"] <= 100.0 + 3 * r["pct_se"], r
    elapsed = time.time() - t0
    assert elapsed < 900.0
    print(f"[PASS] criterion 12: greedy best at LF=1 ({lows['greedy']:.1f}%), "
          f"conservative best at LF=7 ({highs['conservative']:.1f}%), all <= 100%+3se, "
          f"deterministic CSV, {elapsed:.1f}s")


def test_criterion_13_mnl_mle():
    rng = np.random.default_rng(130)
    for trial in range(20):
        n = int(rng.integers(2, 7))
        recs = []
        for _ in range(40):
            size = int(rng.integers(1, n + 1))
            off = frozenset(int(i) for i in rng.choice(n, size=size, replace=False))
            chosen = int(sorted(off)[rng.integers(0, len(off))]) if rng.random() < 0.7 else None
            recs.append(simlab.TransactionRecord((trial,), off, chosen))
        theta = rng.normal(0.0, 0.8, n)
        _, grad = simlab.mnl_loglik(theta, recs)
        fd = np.zeros(n)
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1e-6
            lp, _ = simlab.mnl_loglik(theta + e, recs)
            lm, _ = simlab.mnl_loglik(theta - e, recs)
            fd[i] = (lp - lm) / 2e-6
        assert np.abs(grad - fd).max() < 1e-5
    recs = []
    for _ in range(80):
        recs.append(simlab.TransactionRecord(("s",), frozenset({0, 1}), 0))
        recs.append(simlab.TransactionRecord(("s",), frozenset({0, 1}), 1))
        recs.append(simlab.TransactionRecord(("s",), frozenset({0, 1}), None))
    model = simlab.fit_mnl(recs, n_products=2)[("s",)]
    assert abs(model.weights[0] - model.weights[1]) < 1e-6
    print("[PASS] criterion 13: analytic gradient == central differences (1e-5) on 20 "
          "datasets; symmetric data gives equal weights (1e-6)")
