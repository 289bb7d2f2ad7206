"""The three benchmark workloads, driven through mcassort's public API.

Each workload is a closed loop: one caller in one process makes each call
after the previous one returns.  Constructing a workload from a seed is its
set-up (instance generation); ``run`` is one timed pass whose outputs are
consumed as the CLI would consume them; ``reference`` and ``check`` verify a
pass outside the timed region.  ``check`` returns one message per failed
operation, where an operation is one colgen run, one policy run or one sweep
row.  Repeated passes of one workload object repeat exactly the same work.
"""
from __future__ import annotations

import math
import warnings

import numpy as np

from mcassort import attenuate, colgen, mcdlp, norepeat, simlab
from mcassort.mcdlp import McdlpVariant, MonteCarloEstimate, verify_policy_upper_bound
from mcassort.model import AssortmentFamily, CustomerType, Instance, Mnl

from tracer import rebind, replica_steps

def sub_seeds(seed: int, k: int) -> list[int]:
    """``k`` independent 32-bit seeds derived from the workload seed."""
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(k)]


class ColgenPricing:
    """The ``mcassort colgen`` flow, then each colgen plan served by algorithm 3.

    FPTAS pricing dominates the unrestricted-family cases; the size-capped
    brute-force case solves many small cold-started restricted masters.
    Column generation is deterministic and its cost varies 35x across
    instances of one shape, so the instances are fixed and the seed drives
    the serving simulations; otherwise a seed change would read as a speed
    change.
    """

    name = "colgen-pricing"
    EPS = 0.1
    # (oracle, instance seed, n, cap, m); 1009 is criterion 10's last instance.
    # Both are among the cheapest of their shape (seeds 0-13 at n=4, m=2 take
    # 2.5-12.8 s when FPTAS pricing runs at all; seeds 0-8 at n=14 take
    # 0.9-3.7 s), so that one pass is about 3 s and a run holds many passes.
    CASES = (
        ("fptas", 1009, 4, 4, 2),
        ("brute", 7, 14, 3, 10),
    )
    REPLICAS = 4000
    ops_per_pass = 2 * len(CASES)  # one colgen run and one policy run per case

    def __init__(self, seed: int):
        self.instances = [
            simlab.random_norepeat_instance(seed=s, n=n, cap=cap, m=m) for _, s, n, cap, m in self.CASES
        ]
        self.serve_seeds = sub_seeds(seed, len(self.CASES))

    def run(self, rec) -> list:
        out = []
        for k, ((kind, *_), inst) in enumerate(zip(self.CASES, self.instances)):
            oracle = colgen.MnlFptasOracle(self.EPS) if kind == "fptas" else colgen.BruteForceOracle()
            with rec.op(f"colgen[{k}]"), rec.phase("plan_s"):
                res = colgen.column_generate(inst, McdlpVariant.MCDLP_NR, oracle)
            lines = [f"objective,{res.objective:.10g}", f"iterations,{res.iterations}",
                     f"columns_added,{len(res.added)}"]
            lines += [f"added,\"{' '.join(map(str, sorted(S)))}\"" for S in res.added]
            with rec.op(f"algorithm3[{k}]"), rec.phase("sim_s", self.REPLICAS * inst.T):
                served = norepeat.run_algorithm3(
                    inst, res.solution, replicas=self.REPLICAS, seed=self.serve_seeds[k])
            out.append((res, "\n".join(lines), MonteCarloEstimate.from_samples(served.revenues)))
        return out

    def reference(self) -> list[float]:
        return [mcdlp.solve_variant(inst, McdlpVariant.MCDLP_NR).objective for inst in self.instances]

    def check(self, out, ref) -> list[str]:
        bad = []
        for k, ((kind, *_), inst, (res, _, served), opt) in enumerate(zip(self.CASES, self.instances, out, ref)):
            obj = res.objective
            lo = opt - 1e-6 if kind == "brute" else (1 - self.EPS) * opt
            if not lo <= obj <= opt + 1e-6:
                bad.append(f"colgen[{k}] {kind}: objective {obj!r} outside [{lo!r}, {opt + 1e-6!r}]")
            if not verify_policy_upper_bound(inst, opt, served).consistent:
                bad.append(f"algorithm3[{k}]: mean {served.mean!r} above OPT {opt!r} + 3 se")
        return bad

    def work(self, out) -> dict:
        return {
            "oracle_calls": sum(res.iterations * inst.m for inst, (res, _, _) in zip(self.instances, out)),
            "lp_solves": sum(res.iterations + 1 for res, _, _ in out),
            "columns_added": sum(len(res.added) for res, _, _ in out),
            "replica_steps": sum(self.REPLICAS * inst.T for inst in self.instances),
        }


def assortment_instance(seed: int, n: int = 10, m: int = 6, T: int = 20, n_sets: int = 8) -> Instance:
    """Repeated-offer, single-price MNL instance with an explicit family.

    Every type's patience equals the family size, so each type is in the
    certified full-patience case of algorithm 6.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 6)))
    sets: set[tuple[int, ...]] = set()
    while len(sets) < n_sets:
        size = int(rng.integers(2, 5))
        sets.add(tuple(sorted(int(i) for i in rng.choice(n, size=size, replace=False))))
    types = []
    for j in range(m):
        weights = tuple(float(w) for w in rng.lognormal(0.0, 0.5, size=n))
        types.append(CustomerType(
            id=j,
            arrival=1.0 / m,
            revenues=tuple(float(r) for r in rng.uniform(0.5, 2.0, size=n)),
            choice=Mnl(weights=weights, no_purchase=float(rng.uniform(1.0, 3.0) * max(weights))),
            patience=n_sets,
        ))
    return Instance.single_level(
        T=T, inventories=[1] * n, types=tuple(types),
        family=AssortmentFamily.explicit(sorted(sets)), repeated_offers_allowed=True,
    )


class AttenuatedOnline:
    """``simulate --policy attenuated`` on a hardness instance, then
    ``--policy attenuated-assort`` on a generated repeated-offer instance.

    Nested Monte Carlo factor estimation (``batch_flip``/``gkps_round_batch``)
    dominates; column generation is absent.  Both instances are fixed and the
    seed drives the Monte Carlo streams: algorithm 6 takes 0.86-1.33 s on the
    instances of generator seeds 0-7, 100 and 101, against a few percent
    between Monte Carlo seeds on one instance.
    """

    name = "attenuated-online"
    HARDNESS_N = 14  # factor estimation takes 1.3 s a pass here, 3.7 s at 20, 12 s at 30
    MC_BUDGET = 2000
    REPLICAS = 10_000
    ASSORT_SEED = 0
    MIN_RATIO = 0.49
    ops_per_pass = 2  # algorithm 1 and algorithm 6

    def __init__(self, seed: int):
        self.hard = simlab.gen_hardness_instance(self.HARDNESS_N)
        self.assort = assortment_instance(self.ASSORT_SEED)
        self.seeds = sub_seeds(seed, 3)

    def run(self, rec) -> dict:
        s_factors, s_eval, s_alg6 = self.seeds
        with rec.op("algorithm1"):
            with rec.phase("plan_s"):
                lp = mcdlp.solve_variant(self.hard, McdlpVariant.SINGLE_ITEM)
            with rec.phase("policy_prep_s"):
                factors = attenuate.compute_attenuation_factors(
                    self.hard, lp, mc_budget=self.MC_BUDGET, seed=s_factors)
            with rec.phase("sim_s", self.REPLICAS * self.hard.T):
                res1 = attenuate.run_algorithm1(
                    self.hard, lp, replicas=self.REPLICAS, seed=s_eval, factors=factors)
        with rec.op("algorithm6"):
            with rec.phase("plan_s"):
                lp6 = mcdlp.solve_variant(self.assort, McdlpVariant.MCDLP_R)
            with rec.phase("assort_policy_s"):
                res6, _ = attenuate.run_algorithm6(
                    self.assort, lp6, mc_budget=self.MC_BUDGET, replicas=self.REPLICAS, seed=s_alg6)
        return {
            "lp": lp, "res1": res1, "ratio1": res1.revenue_mean / lp.objective,
            "lp6": lp6, "res6": res6, "ratio6": res6.revenue_mean / lp6.objective,
        }

    def reference(self) -> float:
        return float(self.HARDNESS_N)  # the hardness LP packs x = 1 everywhere

    def check(self, out, ref) -> list[str]:
        bad1, bad6 = [], []
        lp, res1 = out["lp"], out["res1"]
        if abs(lp.objective - ref) > 1e-6:
            bad1.append(f"hardness LP optimum {lp.objective!r} != {ref}")
        for t in range(1, self.hard.T + 2):
            dev = np.abs(res1.avail_freq[t - 1] - res1.schedule.gamma(t))
            sigma = res1.avail_sigma(t)
            if not (dev <= 4 * sigma + 1e-9).all():
                worst = float((dev / np.maximum(sigma, 1e-12)).max())
                bad1.append(f"availability at t={t} is {worst:.2f} sigma from gamma_t (> 4)")
        cases = ((bad1, "ratio1", self.hard, lp, res1), (bad6, "ratio6", self.assort, out["lp6"], out["res6"]))
        for bad, key, inst, lp_k, res in cases:
            if out[key] < self.MIN_RATIO:
                bad.append(f"{key} {out[key]!r} < {self.MIN_RATIO}")
            est = MonteCarloEstimate.from_samples(res.revenues)
            if not verify_policy_upper_bound(inst, lp_k.objective, est).consistent:
                bad.append(f"{key}: mean revenue {est.mean!r} above OPT + 3 se")
        return [f"{op}: {'; '.join(bad)}" for op, bad in (("algorithm1", bad1), ("algorithm6", bad6)) if bad]

    def work(self, out) -> dict:
        return {
            "lp_solves": 2,
            "replica_steps": self.REPLICAS * (self.hard.T + self.assort.T),
            "factor_clamps": len(out["res1"].factors.diagnostics) + len(out["res6"].factors.diagnostics),
        }


class HotelSweep:
    """The ``mcassort sweep`` flow on a 24-type hotel template.

    Each cell solves a 3912 x 244 MMCDLP-NR LP (lpcore dominates), then runs
    the scalar simulators.  At 30 types (4890 x 304) one pass takes 10 s and
    a run times only three; at 24 types it takes 5-6 s, over half of it in
    ``lpcore.solve``.  ``run_sweep`` draws its instances and its Monte
    Carlo streams from the one ``SweepSpec.seed``, and LP time differs by up
    to 50% between sweep seeds (plan time 5.1-7.7 s over seeds 0-4), so the
    sweep seed is fixed and the workload seed is not used: a seed change
    would otherwise read as a speed change.
    """

    name = "hotel-sweep"
    N_TYPES = 24
    LOADING_FACTORS = (1.0, 4.0, 7.0)
    POLICIES = ("greedy", "conservative", "algorithm3", "modified-algorithm3")
    REPLICAS = 600
    SWEEP_SEED = 0
    # MMCDLP-NR optimum per loading factor at SWEEP_SEED, as solved when the
    # benchmark was defined: another optimum on these inputs is a defect.
    LP_OPT = {1.0: 12126.617364881025, 4.0: 4702.550817119733, 7.0: 2236.9174876328557}
    ops_per_pass = len(LOADING_FACTORS) * len(POLICIES)  # one per sweep row

    def __init__(self, seed: int):
        self.template = simlab.gen_hotel_like(seed=self.SWEEP_SEED, n_types=self.N_TYPES)
        self.spec = simlab.SweepSpec(loading_factors=self.LOADING_FACTORS, patiences=(2,), caps=(4,),
                                     scale_factors=(2.0,), replicas=self.REPLICAS, seed=self.SWEEP_SEED)

    def run(self, rec) -> dict:
        timers = [
            rec.timed(mcdlp, "solve_variant", "plan_s"),
            rec.timed(simlab, "run_benchmark", "sim_s", replica_steps),
            rec.timed(norepeat, "run_algorithm3", "sim_s", replica_steps),
        ]
        with rec.op("sweep"), rebind(timers), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows = simlab.run_sweep(self.template, self.spec, self.POLICIES)
            csv = simlab.sweep_to_csv(rows)
        return {"rows": rows, "csv": csv, "warnings": [str(w.message) for w in caught]}

    def reference(self) -> dict[float, float]:
        return self.LP_OPT

    def check(self, out, ref) -> list[str]:
        bad = []
        seen = {(r["loading_factor"], r["policy"]): r for r in out["rows"]}
        for lf in self.LOADING_FACTORS:
            for policy in self.POLICIES:
                row = seen.get((lf, policy))
                if row is None:
                    bad.append(f"lf={lf} {policy}: row missing; warnings: {out['warnings']}")
                    continue
                if not math.isclose(row["lp_opt"], ref[lf], rel_tol=1e-9, abs_tol=0.0):
                    bad.append(f"lf={lf} {policy}: lp_opt {row['lp_opt']!r} != reference {ref[lf]!r}")
                elif row["pct_of_bound"] > 100 + 3 * row["pct_se"]:
                    bad.append(f"lf={lf} {policy}: {row['pct_of_bound']:.2f}% of bound > 100 + 3 se")
        return bad

    def work(self, out) -> dict:
        rows = out["rows"]
        cells = len({r["loading_factor"] for r in rows})
        return {
            "lp_solves": cells,
            "skipped_cells": len(self.LOADING_FACTORS) - cells,
            "rows": len(rows),
            "replica_steps": len(rows) * self.REPLICAS * self.N_TYPES,
        }


WORKLOADS = {w.name: w for w in (ColgenPricing, AttenuatedOnline, HotelSweep)}
