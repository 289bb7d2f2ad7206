"""Tests of the benchmark itself: output checks, tracer coverage, output contract.

    python3 -m pytest perfbench -q

Every test runs real workload passes; the module takes a few minutes.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402
from mcassort import attenuate, blackbox, colgen, mcdlp, model, norepeat, simlab, trace  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# The prediction table of README.md as call patterns: layers a workload must
# reach (nonzero calls) and layers it must bypass (zero calls).
EXERCISED = {
    "colgen-pricing": ("lpcore.solve", "mcdlp.build", "colgen.column_generate", "colgen.subproblem_mnl_fptas",
                       "colgen.subproblem_bruteforce", "norepeat.run_algorithm3", "model.choice_prob"),
    "attenuated-online": ("lpcore.solve", "mcdlp.build", "rounding.gkps_round_batch", "blackbox.batch_flip",
                          "attenuate.compute_attenuation_factors", "attenuate.run_algorithm1",
                          "attenuate.run_algorithm6", "model.choice_prob"),
    "hotel-sweep": ("lpcore.solve", "mcdlp.build", "norepeat.run_algorithm3", "simlab.run_benchmark",
                    "simlab.run_sweep", "model.choice_prob"),
}
BYPASSED = {
    "colgen-pricing": ("rounding.gkps_round_batch", "blackbox.batch_flip", "attenuate.compute_attenuation_factors",
                       "attenuate.run_algorithm1", "attenuate.run_algorithm6", "simlab.run_benchmark",
                       "simlab.run_sweep"),
    "attenuated-online": ("colgen.column_generate", "colgen.subproblem_mnl_fptas", "colgen.subproblem_bruteforce",
                          "norepeat.run_algorithm3", "simlab.run_benchmark", "simlab.run_sweep"),
    "hotel-sweep": ("colgen.column_generate", "colgen.subproblem_mnl_fptas", "colgen.subproblem_bruteforce",
                    "rounding.gkps_round_batch", "blackbox.batch_flip", "attenuate.compute_attenuation_factors",
                    "attenuate.run_algorithm1", "attenuate.run_algorithm6"),
}

# Bindings a call can go through other than the defining module's attribute:
# from-import copies, and choice_prob in every module that imported it.
COPIES = [(attenuate, "batch_flip"), (blackbox, "gkps_round_batch"), (colgen, "subproblem_mnl_fptas")]
COPIES += [(mod, "choice_prob") for mod in (model, mcdlp, colgen, simlab, norepeat, trace, attenuate)]


def _snapshot():
    return {(ns.__name__, key): val for ns in tracer._namespaces() for key, val in vars(ns).items()}


def test_workload_names_match_spec():
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_output_checks_pass(name, seed):
    wl = workloads.WORKLOADS[name](seed)
    out = wl.run(tracer.Recorder())
    assert wl.check(out, wl.reference()) == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_pass_reaches_predicted_layers_and_restores(name):
    before = _snapshot()
    wl = workloads.WORKLOADS[name](0)
    rec = tracer.Tracer()
    with rec.installed():
        for mod, attr in COPIES:
            assert getattr(mod, attr) is not before[(mod.__name__, attr)], f"{mod.__name__}.{attr} not rebound"
        wl.run(rec)
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before), "module attributes not restored"
    for layer in EXERCISED[name]:
        assert rec.counts[layer + ".calls"] > 0, layer
    for layer in BYPASSED[name]:
        assert rec.counts[layer + ".calls"] == 0, layer
    assert set(tracer.layer_metrics([rec], 0.0)) == {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("trace_flag, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_reports_every_metric(trace_flag, section):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "attenuated-online", "--seed", "3",
           "--seconds", "0", "--trace", str(trace_flag)]
    done = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if section == "end_to_end":
        assert all(v["value"] > 0 for v in result["metrics"].values())
