"""The FPTAS pricing oracle is pinned bit for bit.

``reference_fptas`` is the plain per-phi scan: for every (gamma, delta) DP
table and every phi guess it finds the best cell within budget, backtracks
one subset from it and scores that subset with the true objective.  The
library scans the whole phi grid of a table at once, stacks several gamma
guesses into one DP and skips sets it has already scored; the tests below
check that it returns exactly the same (set, value) as the plain scan, and
that it still returns the values recorded from the plain scan.
"""
import dataclasses
import logging

import numpy as np
import pytest

from mcassort import colgen, simlab
from mcassort.colgen import (
    FptasConfig,
    MnlFptasOracle,
    SubproblemInstance,
    column_generate,
    subproblem_mnl_fptas,
    subproblem_mnl_repeated,
)
from mcassort.mcdlp import McdlpVariant
from mcassort.model import AssortmentFamily, Mnl


def reference_dp(wt, vt, sigma, I, J):
    """One minimum-mass DP table, one prefix at a time."""
    n = len(wt)
    V = np.full((I + 1, J + 1, n + 1), np.inf)
    V[0, :, 0] = 0.0
    a_idx = np.arange(I + 1)
    for c in range(1, n + 1):
        w_c, v_c, s_c = int(wt[c - 1]), int(vt[c - 1]), sigma[c - 1]
        prev = V[:, :, c - 1]
        take = np.full((I + 1, J + 1), np.inf)
        if v_c <= J:
            src_a = np.maximum(0, a_idx - w_c)
            width = J + 1 - v_c
            take[:, v_c:] = prev[src_a, :width] + s_c
        V[:, :, c] = np.minimum(prev, take)
    return V


def _dp_backtrack(V, wt, vt, sigma, a, b):
    """Recover one subset achieving V[a, b, n] (exclusion preferred on ties)."""
    n = V.shape[2] - 1
    chosen = []
    for c in range(n, 0, -1):
        prev = V[:, :, c - 1]
        here = V[a, b, c]
        if here == prev[a, b]:
            continue
        chosen.append(c - 1)
        a = max(0, a - int(wt[c - 1]))
        b = b - int(vt[c - 1])
    return chosen[::-1]


def reference_fptas(sub, eps):
    """Per-phi scan over every DP table: the readable form of the oracle."""
    ids = [i for i in range(sub.n_products) if sub.w[i] > 0]
    if not ids:
        return frozenset(), 0.0
    if all(sub.sigma[i] <= 0 for i in ids):
        return subproblem_mnl_repeated(sub)
    cfg = FptasConfig.from_subproblem(sub, eps)
    n = len(ids)
    v = np.array([sub.choice.weights[i] for i in ids])
    wv = np.array([sub.w[i] for i in ids]) * v
    sig = np.array([sub.sigma[i] for i in ids])
    I, J = cfg.I, cfg.J
    best_set, best_val = frozenset(), 0.0
    for g in cfg.gamma_grid:
        wt = np.floor(n * wv / (eps * g)).astype(np.int64)
        for d in cfg.delta_grid:
            vt = np.ceil(n * v / (eps * d)).astype(np.int64)
            V = reference_dp(wt, vt, sig, I, J)
            Vn = V[:, :, n]
            for phi in cfg.phi_grid:
                # per volume budget b, the largest reachable target a
                feas = Vn <= phi + 1e-12
                any_feas = feas.any(axis=0)
                if not any_feas.any():
                    continue
                amax = np.where(any_feas, I - feas[::-1, :].argmax(axis=0), -1)
                est = np.where(
                    any_feas,
                    (amax * eps * g / n) / (np.arange(J + 1) * eps * d / n + 1.0),
                    -np.inf,
                )
                b_star = int(est.argmax())
                cell = int(amax[b_star]), b_star
                chosen = _dp_backtrack(V, wt, vt, sig, *cell)
                S = frozenset(ids[c] for c in chosen)
                val = sub.value(S)
                if val > best_val + 1e-15:
                    best_set, best_val = S, val
    return best_set, best_val


def _draw(rng, n):
    """Criterion 11's subproblem shape."""
    w = rng.uniform(0.3, 1.2, n)
    v = rng.uniform(0.4, 1.2, n)
    sig = rng.uniform(0.04, 0.12, n)
    return SubproblemInstance(
        w=w, sigma=sig, choice=Mnl(weights=tuple(v), no_purchase=1.0),
        family=AssortmentFamily.size_capped(n), n_products=n)


# (eps, n, sorted set, repr(value)) of the plain scan on rng(3030) draws:
# plan (eps, max n, count) = (0.2, 8, 8), (0.1, 7, 8), (0.05, 5, 3)
GOLDEN = [
    (0.2, 6, (0, 2, 5), '0.5590692195706031'),
    (0.2, 5, (0, 2, 3), '0.4309448261683711'),
    (0.2, 8, (0, 2), '0.5588227275689364'),
    (0.2, 6, (0, 1), '0.4680055443394697'),
    (0.2, 5, (1, 3), '0.5369753883626531'),
    (0.2, 6, (1, 3), '0.5697789117743917'),
    (0.2, 7, (0, 5), '0.45988635178610393'),
    (0.2, 7, (2, 4, 5), '0.5435252060092767'),
    (0.1, 5, (1, 2, 3), '0.5066182604793482'),
    (0.1, 5, (0, 1), '0.5311025196874855'),
    (0.1, 6, (2, 3), '0.5363632165456507'),
    (0.1, 4, (0, 2), '0.5942258328844097'),
    (0.1, 7, (1, 6), '0.5400768823132902'),
    (0.1, 7, (5, 6), '0.4141618976313626'),
    (0.1, 4, (0, 1), '0.23969327828568557'),
    (0.1, 7, (2, 5), '0.5758177554024817'),
    (0.05, 5, (3, 4), '0.6385431731924652'),
    (0.05, 4, (0, 1), '0.49723072391647205'),
    (0.05, 3, (1, 2), '0.4531322255507877'),
]

# criterion 10's unrestricted-family instances k = 7, 8, 9 (seed 1000 + k,
# n = 4 + k % 3, m = 2 + k % 3) under MnlFptasOracle(0.1):
# (k, repr(objective), iterations, added columns in order)
GOLDEN_PLANS = [
    (7, '3.9095444362981713', 6,
     [(0, 1, 2), (0, 3, 4), (2, 3, 4), (1, 3), (2, 4), (3, 4), (0, 3), (0, 4), (0, 1),
      (2, 3), (0, 2)]),
    (8, '2.945563986557229', 11,
     [(1, 2, 3, 4, 5), (1, 2, 3, 4), (0, 3, 4, 5), (0, 1, 3, 5), (1, 2, 4), (0, 4, 5),
      (2, 3, 4), (1, 3, 4), (3, 4), (0, 1), (1, 4), (3, 5), (1, 3), (1, 5), (2, 4), (0, 4),
      (2, 3), (0, 1, 3), (0, 3), (0, 2)]),
    (9, '1.7125101041655009', 2, [(0, 1, 2)]),
]


def _tie_heavy(n=5):
    """Identical items: many sets tie, so first-wins order decides."""
    return SubproblemInstance(
        w=np.full(n, 0.8), sigma=np.full(n, 0.07),
        choice=Mnl(weights=(0.6,) * n, no_purchase=1.0),
        family=AssortmentFamily.size_capped(n), n_products=n)


def _mixed(rng):
    """Random subproblem with some non-positive w and some zero penalties."""
    n = int(rng.integers(2, 8))
    sub = _draw(rng, n)
    w = sub.w - rng.uniform(0.0, 0.5) * (rng.random(n) < 0.3)
    sig = sub.sigma * (rng.random(n) < 0.8)
    sig[int(np.argmax(w))] = 0.05  # keep one penalized item worth pricing
    return SubproblemInstance(w=w, sigma=sig, choice=sub.choice,
                              family=sub.family, n_products=n)


class TestGolden:
    def test_recorded_results(self):
        rng = np.random.default_rng(3030)
        plan = [(0.2, 8, 8), (0.1, 7, 8), (0.05, 5, 3)]
        got = []
        for eps, n_max, count in plan:
            for _ in range(count):
                n = int(rng.integers(3, n_max + 1))
                S, v = subproblem_mnl_fptas(_draw(rng, n), eps)
                got.append((eps, n, tuple(sorted(S)), repr(float(v))))
        assert got == GOLDEN

    def test_tie_heavy_first_wins(self):
        S, v = subproblem_mnl_fptas(_tie_heavy(), 0.1)
        assert (tuple(sorted(S)), repr(float(v))) == ((0, 1, 2), '0.3042857142857144')
        assert reference_fptas(_tie_heavy(), 0.1) == (S, v)

    @pytest.mark.parametrize("k, objective, iterations, added", GOLDEN_PLANS,
                             ids=[f"k={k}" for k, *_ in GOLDEN_PLANS])
    def test_criterion_10_fptas_plans(self, k, objective, iterations, added):
        n = 4 + k % 3
        inst = simlab.random_norepeat_instance(seed=1000 + k, n=n, cap=n, m=2 + k % 3)
        res = column_generate(inst, McdlpVariant.MCDLP_NR, MnlFptasOracle(0.1))
        assert repr(float(res.objective)) == objective
        assert res.iterations == iterations
        assert [tuple(sorted(S)) for S in res.added] == added


class TestAgainstScalarScan:
    def _same(self, sub, eps):
        S, v = subproblem_mnl_fptas(sub, eps)
        Sr, vr = reference_fptas(sub, eps)
        assert S == Sr and repr(float(v)) == repr(float(vr))

    def test_random_subproblems(self):
        rng = np.random.default_rng(31)
        for _ in range(12):
            eps = float(rng.choice([0.3, 0.2]))
            self._same(_mixed(rng), eps)

    def test_sets_scored_in_scan_order(self):
        # the library scores each distinct set once, at its first visit in
        # (gamma, delta, phi) order; exact ties make that order visible
        def recording(sub):
            seen = []
            score = sub.value
            rec = dataclasses.replace(sub)
            object.__setattr__(rec, "value", lambda S: seen.append(S) or score(S))
            return rec, seen

        rng = np.random.default_rng(38)
        for _ in range(4):
            sub = _draw(rng, int(rng.integers(3, 6)))
            lib, lib_seen = recording(sub)
            ref, ref_seen = recording(sub)
            subproblem_mnl_fptas(lib, 0.25)
            reference_fptas(ref, 0.25)
            assert lib_seen == list(dict.fromkeys(ref_seen))

    def test_guess_grids_ascending_and_nonempty(self):
        # the phi scan searches the budgets in grid order, so every grid must
        # come out strictly ascending and never empty
        rng = np.random.default_rng(35)
        for _ in range(300):
            sub = _mixed(rng) if rng.random() < 0.5 else _draw(rng, int(rng.integers(1, 9)))
            cfg = FptasConfig.from_subproblem(sub, float(rng.uniform(0.05, 0.9)))
            for grid in (cfg.phi_grid, cfg.gamma_grid, cfg.delta_grid):
                assert len(grid) >= 1 and all(a < b for a, b in zip(grid, grid[1:]))

    def test_exact_ties_first_wins(self):
        # singletons worth exactly 0.25 tie: the one visited first (the least
        # penalty, feasible at the smallest phi) wins, as recorded from the
        # plain scan
        for w, s, first in (((1.0, 1.5, 2.0), (0.25, 0.5, 0.75), 0),
                            ((2.0, 1.0, 1.5), (0.75, 0.25, 0.5), 1),
                            ((1.5, 2.0, 1.0, 0.5), (0.5, 0.75, 0.25, 0.125), 2)):
            sub = SubproblemInstance(
                w=np.array(w), sigma=np.array(s), choice=Mnl(weights=(1.0,) * len(w), no_purchase=1.0),
                family=AssortmentFamily.size_capped(len(w)), n_products=len(w))
            for eps in (0.2, 0.1):
                S, v = subproblem_mnl_fptas(sub, eps)
                assert (S, v) == reference_fptas(sub, eps)
                assert v == 0.25 and S == frozenset({first})

    @pytest.mark.parametrize("stack_bytes", [1, 3 * 8 * 40 * 50 * 6])
    def test_gamma_stack_boundaries(self, monkeypatch, stack_bytes):
        # one table per DP, and a few tables per DP, give the same answer
        monkeypatch.setattr(colgen, "_DP_STACK_BYTES", stack_bytes)
        rng = np.random.default_rng(33)
        for _ in range(3):
            self._same(_draw(rng, int(rng.integers(3, 6))), 0.2)
        self._same(_tie_heavy(), 0.2)

    def test_stacked_dp_matches_single_tables(self):
        rng = np.random.default_rng(34)
        n, I, J = 5, 30, 40
        sig = rng.uniform(0.0, 0.1, n)
        vt = rng.integers(1, 12, n)
        wt = rng.integers(0, 10, (4, n))
        stacked = colgen._fptas_dp_stack(wt, vt, sig, I, J)
        for k in range(4):
            single = reference_dp(wt[k], vt, sig, I, J)
            assert np.array_equal(stacked[k], single)
            for a, b in ((I, J), (5, 17), (0, 3), (12, 9)):
                mask = colgen._dp_backtrack_stack(
                    stacked, wt, vt, np.array([k]), np.array([a]), np.array([b]))[0]
                assert np.flatnonzero(mask).tolist() == _dp_backtrack(
                    single, wt[k], vt, sig, a, b)


class TestObservability:
    def test_debug_record_counts(self, caplog):
        caplog.set_level(logging.DEBUG, logger="mcassort.colgen")
        rng = np.random.default_rng(36)
        sub = _draw(rng, 5)
        subproblem_mnl_fptas(sub, 0.2)
        records = [r for r in caplog.records if hasattr(r, "fptas")]
        assert len(records) == 1
        st = records[0].fptas
        cfg = FptasConfig.from_subproblem(sub, 0.2)
        assert (st["phi"], st["gamma"], st["delta"]) == (
            len(cfg.phi_grid), len(cfg.gamma_grid), len(cfg.delta_grid))
        assert st["dps"] == st["gamma"] * st["delta"]
        assert 1 <= st["sets"] <= st["cells"] <= st["dps"] * st["phi"]

    def test_silent_above_debug(self, caplog):
        caplog.set_level(logging.INFO, logger="mcassort.colgen")
        subproblem_mnl_fptas(_draw(np.random.default_rng(37), 4), 0.2)
        assert not [r for r in caplog.records if hasattr(r, "fptas")]
