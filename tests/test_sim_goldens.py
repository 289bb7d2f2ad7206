"""Byte-level pins of the simulators' outputs at fixed seeds, and the
replica-batched engine against the scalar reference in distribution.

``GOLDEN`` and ``SWEEP_SHA`` pin the scalar reference simulators
(``scalar_serving``).  They were recorded from the draw-by-draw simulators
(a running sum over arrival and purchase probabilities per draw) that the
per-run sampler replaced, so they hold only while every draw consumes the
generator exactly as before.  ``BATCHED`` pins the library's batched runs of
the same cases at the same seeds.  The instances cover stationary and
non-stationary arrivals, MNL, set-independent and fully tabulated choice
models, deterministic and geometric patience, and one and two price levels.
"""
import hashlib
from dataclasses import replace

import pytest

import scalar_serving as scalar
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


def _instances() -> dict:
    """Each case's instance and its LP plan, by instance key."""
    ns = simlab.random_homog_instance(seed=3, n=5, cap=2, stationary=False)
    tab = _tabulated(simlab.random_norepeat_instance(seed=4, n=5, cap=2, m=4))
    geo = _geometric(simlab.random_norepeat_instance(seed=15, n=4, cap=2, m=4), 0.5)
    gap = simlab.gen_gap_instance(6)
    hotel = simlab.build_hotel_instance(simlab.gen_hotel_like(seed=3, n_types=6), 2.0,
                                        scale_factor=2.0, patience=2, cap=3, seed=1)
    return {
        "ns": (ns, mcdlp.solve_variant(ns, McdlpVariant.MCDLP_NRS)),
        "tab": (tab, mcdlp.solve_variant(tab, McdlpVariant.MCDLP_NR)),
        "geo": (geo, mcdlp.solve_variant(geo, McdlpVariant.MCDLP_NR)),
        "gap": (gap, mcdlp.solve_variant(gap, McdlpVariant.MCDLP_NR)),
        "hotel": (hotel, mcdlp.solve_variant(hotel, McdlpVariant.MMCDLP_NR)),
    }


# The simulators each case runs, by role: the library's batched runners and
# the scalar reference.  "ungated" is the modified walk on heterogeneous
# revenues, as the hotel sweep runs it.
LIBRARY = {
    "benchmark": simlab.run_benchmark,
    "algorithm3": norepeat.run_algorithm3,
    "random-patience": norepeat.run_algorithm3_random_patience,
    "modified3": norepeat.run_modified_algorithm3,
    "ungated": lambda inst, sol, **kw: norepeat._run(inst, sol, gate_first_arrival=False, **kw),
}
SCALAR = {
    "benchmark": scalar.run_benchmark,
    "algorithm3": scalar.run_algorithm3,
    "random-patience": scalar.run_algorithm3,
    "modified3": scalar.run_modified_algorithm3,
    "ungated": scalar.run_modified_algorithm3,
}


def _cases(data: dict, runners: dict, replicas: int, record_traces: int) -> dict:
    """Per case name: the key of its instance and its simulator run at the
    case's fixed seed."""
    def bench(key, policy, seed):
        return runners["benchmark"](data[key][0], policy, replicas, seed=seed, record_traces=record_traces)

    def nr(role, key, seed, **kw):
        return runners[role](*data[key], replicas=replicas, seed=seed, record_traces=record_traces, **kw)

    return {
        "nonstationary-greedy": ("ns", lambda: bench("ns", "greedy", 5)),
        "nonstationary-modified3": ("ns", lambda: nr("modified3", "ns", 6)),
        "tabular-greedy": ("tab", lambda: bench("tab", "greedy", 7)),
        "tabular-algorithm3": ("tab", lambda: nr("algorithm3", "tab", 8)),
        "leave-prob-greedy": ("geo", lambda: bench("geo", "greedy", 9)),
        "leave-prob-algorithm3": ("geo", lambda: nr("random-patience", "geo", 10)),
        "gap-greedy": ("gap", lambda: bench("gap", "greedy", 11)),
        "gap-algorithm3": ("gap", lambda: nr("algorithm3", "gap", 12)),
        "hotel-greedy": ("hotel", lambda: bench("hotel", "greedy", 13)),
        "hotel-conservative": ("hotel", lambda: bench("hotel", "conservative", 14)),
        "hotel-algorithm3": ("hotel", lambda: nr("algorithm3", "hotel", 15, alpha=1.0)),
        "hotel-modified3": ("hotel", lambda: nr("ungated", "hotel", 16, alpha=1.0)),
    }


def _digests(data: dict, runners: dict) -> dict:
    """sha256 of one simulator run's outputs at a fixed seed, per case name."""
    return {name: _sha_text(repr(_outputs(run()))) for name, (_, run) in _cases(data, runners, 400, 20).items()}


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


# sha256 of the library's batched runs of the same cases, seeds and replica
# counts (``_digests(data, LIBRARY)``).
BATCHED = {
    "gap-algorithm3": "6a7919f26010ff1de006a8cb6fd076132872b72ab98782797666b2e96537c55e",
    "gap-greedy": "461c7d6786a3437e34914b8572586ea2310a5100e18ebb32947f74ae94550fec",
    "hotel-algorithm3": "ce036b5400b7d2665c319ed8d1e6b9a3c8b0eddf14a713507f356bb1f6e8331d",
    "hotel-conservative": "e7514634adcb1693e284b9dc125b73e5d69392450aec1ca032d62db24349ca42",
    "hotel-greedy": "e0fd08a19e8c8748291a91dfea3d0d897fe2611ec0a73b2af712d5ff605c1f92",
    "hotel-modified3": "2731748726d0a27e06953b3e117d6ce8298879a62cc846da28bf9687ba88b5a2",
    "leave-prob-algorithm3": "3e17e64427b9b5eda7db1f18a0c19ef7e6fe7b5ecfe3b7356aa37b9287c57fba",
    "leave-prob-greedy": "dff7e4d9107ae91a03f843b43f40f78725437a48c637acc3991bbc0a39c89e96",
    "nonstationary-greedy": "c3e48473d479adc29548a36e39acddeb8d0965a14fc6752c7f32049d574adaa4",
    "nonstationary-modified3": "dd01aabe5bc0be4496f1c33dd0123cd717d9223c0056ba5cf7fc810e86b389ef",
    "tabular-algorithm3": "0074dde400b2e6b8c8ddeeb819a918a892fa97548e35718bf8ef8cdc09f16594",
    "tabular-greedy": "59e2517872c86c63d93a1f48abd79588f539edcb2085afefe40b69f1925f747b"
}

# sha256 of sweep_to_csv for the same hotel sweep run by the library.  It
# holds at one and at two BLAS threads.
BATCHED_SWEEP_SHA = "dc1b38fc5581c0c09a176ed9d3901b1b42568bb4bdc99d15fbd6d5981d104838"


@pytest.fixture(scope="module")
def data():
    return _instances()


@pytest.fixture(scope="module")
def digests(data):
    return _digests(data, SCALAR)


@pytest.fixture(scope="module")
def batched_digests(data):
    return _digests(data, LIBRARY)


def _hotel_sweep_csv() -> str:
    template = simlab.gen_hotel_like(seed=0, n_types=24)
    spec = simlab.SweepSpec(loading_factors=(1.0, 4.0, 7.0), patiences=(2,), caps=(4,),
                            scale_factors=(2.0,), replicas=600, seed=0)
    return simlab.sweep_to_csv(simlab.run_sweep(template, spec))


class TestSimulatorGoldens:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_outputs_match_recorded(self, digests, name):
        assert digests[name] == GOLDEN[name]

    def test_hotel_sweep_csv_matches_recorded(self, monkeypatch):
        # run_sweep reaches its simulators through these module bindings
        monkeypatch.setattr(simlab, "run_benchmark", scalar.run_benchmark)
        monkeypatch.setattr(norepeat, "run_algorithm3", scalar.run_algorithm3)
        monkeypatch.setattr(norepeat, "_run", scalar.run_norepeat)
        assert _sha_text(_hotel_sweep_csv()) == SWEEP_SHA


class TestBatchedGoldens:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_outputs_match_recorded(self, batched_digests, name):
        assert batched_digests[name] == BATCHED[name]

    def test_hotel_sweep_csv_matches_recorded(self):
        assert _sha_text(_hotel_sweep_csv()) == BATCHED_SWEEP_SHA


class TestBatchedAgainstScalar:
    """The batched engine and the scalar reference report the same
    distribution on every golden case: mean revenue, per-item sale
    frequencies, mean displayed stages and, for the no-repeat policies, every
    event rate, each within 4 sigma."""

    REPLICAS = 3000

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_statistics_agree(self, data, name):
        key, fast = _cases(data, LIBRARY, self.REPLICAS, 0)[name]
        _, slow = _cases(data, SCALAR, self.REPLICAS, 0)[name]
        assert scalar.disagreements(data[key][0], fast(), slow()) == []
