"""Byte-level pins of the scalar simulators' outputs at fixed seeds.

The digests were recorded from the draw-by-draw simulators (a running sum
over arrival and purchase probabilities per draw) that the per-run sampler
replaced, so they hold only while every draw consumes the generator exactly
as before.  The instances cover stationary and non-stationary arrivals, MNL,
set-independent and fully tabulated choice models, deterministic and
geometric patience, and one and two price levels.
"""
import hashlib
from dataclasses import replace

import pytest

from mcassort import mcdlp, norepeat, simlab
from mcassort.mcdlp import McdlpVariant
from mcassort.model import Instance, Tabular, choice_prob


def _sha_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _outputs(res) -> list:
    """What a simulator run reports: per-replica revenues, per-item sales,
    the recorded traces and, for the no-repeat policies, the event counters."""
    out = [res.revenues.tolist(), res.item_sales.tolist(), [tr.steps for tr in res.traces]]
    if isinstance(res, norepeat.NoRepeatResult):
        out += [res.type_arrivals.tolist(), res.imatch.tolist(), res.offers_made.tolist(),
                sorted(res.seen.items()), sorted(res.timeout_cmatch.items())]
    return out


def _retyped(inst: Instance, change) -> Instance:
    """``inst`` with every customer type updated by the fields ``change(type)`` returns."""
    return replace(inst, types=tuple(replace(ct, **change(ct)) for ct in inst.types))


def _tabulated(inst: Instance) -> Instance:
    """The same instance with each choice model written out as a full table."""
    fam = inst.family.assortments(inst.n_products)
    return _retyped(inst, lambda ct: {"choice": Tabular(
        entries={(i, S): choice_prob(ct.choice, i, S) for S in fam for i in S})})


def _geometric(inst: Instance, p_out: float) -> Instance:
    return _retyped(inst, lambda ct: {"patience": None, "leave_prob": p_out})


def _digests() -> dict:
    """sha256 of one simulator run's outputs at a fixed seed, per case name."""
    ns = simlab.random_homog_instance(seed=3, n=5, cap=2, stationary=False)
    tab = _tabulated(simlab.random_norepeat_instance(seed=4, n=5, cap=2, m=4))
    geo = _geometric(simlab.random_norepeat_instance(seed=15, n=4, cap=2, m=4), 0.5)
    gap = simlab.gen_gap_instance(6)
    hotel = simlab.build_hotel_instance(simlab.gen_hotel_like(seed=3, n_types=6), 2.0,
                                        scale_factor=2.0, patience=2, cap=3, seed=1)
    lp = {
        "ns": mcdlp.solve_variant(ns, McdlpVariant.MCDLP_NRS),
        "tab": mcdlp.solve_variant(tab, McdlpVariant.MCDLP_NR),
        "geo": mcdlp.solve_variant(geo, McdlpVariant.MCDLP_NR),
        "gap": mcdlp.solve_variant(gap, McdlpVariant.MCDLP_NR),
        "hotel": mcdlp.solve_variant(hotel, McdlpVariant.MMCDLP_NR),
    }
    bench = lambda inst, policy, seed: simlab.run_benchmark(inst, policy, 400, seed=seed, record_traces=20)
    nr = lambda run, inst, key, seed, **kw: run(inst, lp[key], replicas=400, seed=seed,
                                                record_traces=20, **kw)
    cases = {
        "nonstationary-greedy": lambda: bench(ns, "greedy", 5),
        "nonstationary-modified3": lambda: nr(norepeat.run_modified_algorithm3, ns, "ns", 6),
        "tabular-greedy": lambda: bench(tab, "greedy", 7),
        "tabular-algorithm3": lambda: nr(norepeat.run_algorithm3, tab, "tab", 8),
        "leave-prob-greedy": lambda: bench(geo, "greedy", 9),
        "leave-prob-algorithm3": lambda: nr(norepeat.run_algorithm3_random_patience, geo, "geo", 10),
        "gap-greedy": lambda: bench(gap, "greedy", 11),
        "gap-algorithm3": lambda: nr(norepeat.run_algorithm3, gap, "gap", 12),
        "hotel-greedy": lambda: bench(hotel, "greedy", 13),
        "hotel-conservative": lambda: bench(hotel, "conservative", 14),
        "hotel-algorithm3": lambda: nr(norepeat.run_algorithm3, hotel, "hotel", 15, alpha=1.0),
        "hotel-modified3": lambda: norepeat._run(
            hotel, lp["hotel"], alpha=1.0, replicas=400, seed=16, gate_first_arrival=False,
            record_traces=20),
    }
    return {name: _sha_text(repr(_outputs(run()))) for name, run in cases.items()}


GOLDEN = {
    "gap-algorithm3": "59042f152053fbbeafc36d920b87105eeacc0619e676fa8fde913a6c785b073a",
    "gap-greedy": "34c5f0fc44033ba920b0e23d0576645a38768d3d38e7a907ecd50057ca4e626c",
    "hotel-algorithm3": "22e489c1fe08c1fda06ceedb1be2ea66b22bdcd0f238fa88f94019e4722c544d",
    "hotel-conservative": "c9cc4b15074fa97d4c9c732a9592a94909ac0bdfe60f34da2ef6d0e20c77c815",
    "hotel-greedy": "ca733a5bda25b9035c35752f565dee513d99ea4952215a9af0eff3ba4e4fa171",
    "hotel-modified3": "c5eaf8fd6379e1fad0403487952f2503dcf82ca87733a24f82f7b2c1bf27f57f",
    "leave-prob-algorithm3": "1775657581eb54c0e2d244c564f3b3503aa93f1c8ce1594721f85a357677e8b9",
    "leave-prob-greedy": "c66ebdb0b568af70caee02917b8818d69cdbb8c6c9d79bcaa73d5cd5e4be19a2",
    "nonstationary-greedy": "b606d11cde81918eddafeb23167bc1e4ad7cf1c1a29b4e8df9b7395501cdac6b",
    "nonstationary-modified3": "0f562add8c7afcc8c3110dd832b6a0a3c20417f591707482e749f002ba943c2c",
    "tabular-algorithm3": "aaaeffd5ca58177866cb664b29475a42c75400062c96ef5ff3de74bd0a62143a",
    "tabular-greedy": "413fb7987358df5cd2d62b4f7623893b55c3835b7401234792bdd6626dde3f6c"
}

# sha256 of sweep_to_csv for the benchmark's hotel sweep: 24 types, loading
# factors 1/4/7, patience 2, cap 4, scale 2, 600 replicas, seed 0.  It holds
# at one and at two BLAS threads.
SWEEP_SHA = "93e2f9e75ae73d175fbf17e209351b9a07d6c3267abc6236dca8a675bd997260"


@pytest.fixture(scope="module")
def digests():
    return _digests()


class TestSimulatorGoldens:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_outputs_match_recorded(self, digests, name):
        assert digests[name] == GOLDEN[name]

    def test_hotel_sweep_csv_matches_recorded(self):
        template = simlab.gen_hotel_like(seed=0, n_types=24)
        spec = simlab.SweepSpec(loading_factors=(1.0, 4.0, 7.0), patiences=(2,), caps=(4,),
                                scale_factors=(2.0,), replicas=600, seed=0)
        csv = simlab.sweep_to_csv(simlab.run_sweep(template, spec))
        assert _sha_text(csv) == SWEEP_SHA
