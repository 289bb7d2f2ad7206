import csv
import io
import json
import os

import numpy as np
import pytest

from mcassort import cli, colgen, mcdlp, norepeat, simlab
from mcassort.mcdlp import McdlpVariant
from mcassort.model import instance_to_dict, load_instance, save_instance


def _run(args):
    return cli.main(args)


class TestCli:
    def test_gen_and_solve(self, tmp_path, capsys):
        path = str(tmp_path / "toy.json")
        assert _run(["gen-instance", "hardness", path, "--n", "4", "--seed", "1"]) == 0
        capsys.readouterr()
        assert _run(["solve-lp", "--variant", "single-item", "--instance", path]) == 0
        out = capsys.readouterr().out
        assert "objective,4" in out
        assert "dual," in out

    def test_simulate_norepeat(self, tmp_path, capsys):
        path = str(tmp_path / "nr.json")
        inst = simlab.random_norepeat_instance(seed=2, n=4, cap=2, m=3)
        save_instance(inst, path)
        assert _run(["simulate", "--policy", "norepeat", "--instance", path,
                     "--replicas", "200", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("replica,revenue")
        assert "ratio_to_opt," in out

    @pytest.mark.parametrize("policy, variant, runner, make", [
        ("norepeat", McdlpVariant.MCDLP_NR, norepeat.run_algorithm3,
         lambda: simlab.random_norepeat_instance(seed=2, n=4, cap=2, m=3)),
        ("norepeat-homog", McdlpVariant.MCDLP_NRS, norepeat.run_modified_algorithm3,
         lambda: simlab.random_homog_instance(seed=3, n=4, cap=2, m=3)),
    ])
    def test_simulate_norepeat_default_alpha(self, tmp_path, capsys, policy, variant, runner, make):
        # without --alpha the command runs the policy at the library's default
        path = str(tmp_path / "nr.json")
        inst = make()
        save_instance(inst, path)
        assert _run(["simulate", "--policy", policy, "--instance", path,
                     "--replicas", "200", "--seed", "3"]) == 0
        lp = mcdlp.solve_variant(inst, variant)
        revenues = runner(inst, lp, replicas=200, seed=3).revenues
        mean = float(np.mean(revenues))
        expected = ["replica,revenue", *(f"{k},{v:.10g}" for k, v in enumerate(revenues)),
                    f"mean,{mean:.10g}", f"ratio_to_opt,{mean / lp.objective:.10g}"]
        assert capsys.readouterr().out == "\n".join(expected) + "\n"

    def test_simulate_attenuated(self, tmp_path, capsys):
        path = str(tmp_path / "m.json")
        inst = simlab.random_matching_instance(seed=4, n=4, m=3, T=4)
        save_instance(inst, path)
        assert _run(["simulate", "--policy", "attenuated", "--instance", path,
                     "--replicas", "300", "--mc-budget", "300", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "mean," in out

    @pytest.mark.parametrize("policy", ["attenuated", "greedy", "norepeat"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, policy):
        # refused by the argument parser, before numpy sees the seed
        path = str(tmp_path / "m.json")
        save_instance(simlab.random_matching_instance(seed=4, n=4, m=3, T=4), path)
        with pytest.raises(SystemExit) as refused:
            _run(["simulate", "--policy", policy, "--instance", path, "--replicas", "20", "--seed", "-1"])
        assert refused.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "seed must be non-negative, got -1" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--policy", "greedy", "--replicas", "0"], "--replicas: must be a positive integer, got 0"),
        (["simulate", "--policy", "attenuated", "--mc-budget", "0"], "--mc-budget: must be a positive integer, got 0"),
        (["simulate", "--policy", "norepeat", "--alpha", "0"], "--alpha: must be positive, got 0"),
        (["simulate", "--policy", "norepeat", "--alpha", "nan"], "--alpha: must be positive, got nan"),
        (["simulate", "--policy", "greedy", "--alpha", "7"],
         "--alpha: applies only to the norepeat policies, got --policy greedy"),
        (["simulate", "--policy", "attenuated-assort", "--alpha", "7"],
         "--alpha: applies only to the norepeat policies, got --policy attenuated-assort"),
        (["sweep", "--replicas", "5"], "--replicas: need at least 30 replicas per cell, got 5"),
        (["sweep", "--loading-factors", "2", "-1"], "--loading-factors: must be positive, got -1"),
        (["sweep", "--types", "0"], "--types: must be a positive integer, got 0"),
        (["verify-gamma", "--T", "0"], "--T: must be a positive integer, got 0"),
        (["gen-instance", "hardness", "OUT", "--n", "0"], "--n: must be a positive integer, got 0"),
        (["colgen", "--variant", "mcdlp-nr", "--oracle", "mnl-fptas", "--eps", "2"],
         "--eps: eps must lie in (0,1), got 2"),
        (["sweep", "--cap", "0"], "--cap: must be a positive integer, got 0"),
        (["sweep", "--patience", "0"], "--patience: must be a positive integer, got 0"),
        (["sweep", "--scale-factor", "0"], "--scale-factor: must be positive, got 0"),
        (["gen-instance", "gap", "OUT", "--M", "0"], "--M: M must be an even integer >= 4, got 0"),
        (["gen-instance", "gap", "OUT", "--M", "5"], "--M: M must be an even integer >= 4, got 5"),
        (["gen-instance", "hotel", "OUT", "--types", "0"], "--types: must be a positive integer, got 0"),
        (["gen-instance", "hotel", "OUT", "--cap", "0"], "--cap: must be a positive integer, got 0"),
        (["gen-instance", "hotel", "OUT", "--patience", "0"], "--patience: must be a positive integer, got 0"),
        (["gen-instance", "hotel", "OUT", "--loading-factor", "0"], "--loading-factor: must be positive, got 0"),
        (["gen-instance", "hotel", "OUT", "--scale-factor", "-1"], "--scale-factor: must be positive, got -1"),
        (["gen-instance", "random-matching", "OUT", "--T", "0"], "--T: must be a positive integer, got 0"),
        (["fit-mnl", "--data", "DATA", "--products", "0"], "--products: must be a positive integer, got 0"),
    ], ids=["simulate-replicas", "simulate-mc-budget", "simulate-alpha-zero", "simulate-alpha-nan",
            "simulate-alpha-greedy", "simulate-alpha-attenuated-assort", "sweep-replicas", "sweep-loading-factor",
            "sweep-types", "verify-gamma-T", "gen-instance-n", "colgen-eps", "sweep-cap", "sweep-patience",
            "sweep-scale-factor", "gen-instance-M-zero", "gen-instance-M-odd", "gen-instance-types",
            "gen-instance-cap", "gen-instance-patience", "gen-instance-loading-factor",
            "gen-instance-scale-factor", "gen-instance-T", "fit-mnl-products"])
    def test_out_of_range_number_exits_2(self, tmp_path, capsys, argv, message):
        # refused by the argument parser with one line, before any work starts
        path = str(tmp_path / "i.json")
        save_instance(simlab.random_norepeat_instance(seed=6, n=4, cap=2, m=2) if argv[0] == "colgen"
                      else simlab.random_matching_instance(seed=4, n=4, m=3, T=4), path)
        argv = [str(tmp_path / "out.json") if a == "OUT" else path if a == "DATA" else a for a in argv]
        if argv[0] in ("simulate", "colgen"):
            argv += ["--instance", path]
        if argv[0] in ("simulate", "sweep", "gen-instance"):
            argv += ["--seed", "1"]
        with pytest.raises(SystemExit) as refused:
            _run(argv)
        assert refused.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == f"mcassort {argv[0]}: error: argument {message}"

    def test_seed_required(self, tmp_path):
        path = str(tmp_path / "x.json")
        with pytest.raises(SystemExit):
            _run(["gen-instance", "hardness", path, "--n", "3"])

    def test_verify_gamma(self, capsys):
        assert _run(["verify-gamma", "--T", "1000"]) == 0
        out = capsys.readouterr().out
        assert "gamma_below_h1,True" in out

    def test_colgen(self, tmp_path, capsys):
        path = str(tmp_path / "nr.json")
        inst = simlab.random_norepeat_instance(seed=6, n=4, cap=2, m=2)
        save_instance(inst, path)
        assert _run(["colgen", "--variant", "mcdlp-nr", "--oracle", "brute",
                     "--instance", path]) == 0
        out = capsys.readouterr().out
        assert "objective," in out and "iterations," in out

    def test_colgen_prints_degraded_certificate_warnings(self, tmp_path, capsys, monkeypatch):
        # without an enumerable family an at-cap pricing maximizer ends the
        # run uncertified, and the output says so
        path = str(tmp_path / "r.json")
        inst = simlab.random_norepeat_instance(seed=1, n=4, cap=4, m=3)
        save_instance(inst, path)
        monkeypatch.setattr(colgen, "MAX_TABULAR_FAMILY", 0)
        assert _run(["colgen", "--variant", "mcdlp-r", "--oracle", "mnl-exact", "--instance", path]) == 0
        warned = [line for line in capsys.readouterr().out.splitlines() if line.startswith("warning,")]
        res = colgen.column_generate(inst, McdlpVariant.MCDLP_R, colgen.MnlExactOracle())
        assert res.warnings and warned == [f'warning,"{w}"' for w in res.warnings]
        assert all("termination certificate degraded" in line for line in warned)

    @pytest.mark.parametrize("text, named", [
        ("", ": empty file, expected a header row"),
        ("segment,offered,chosen\n", ": no transaction rows after the header"),
        ("segment,offered,chosen\na,0;1,0\na,0;1\n", " line 3: expected 3 fields as in the header, got 2"),
        ("segment,offered,chosen\na,0;1,0\na,0;1,0,x\n", " line 3: expected 3 fields as in the header, got 4"),
        ("segment,offered,chosen\na,0;2,0\n", " line 2: product 2 lies outside 0..1"),
        ("segment,offered,chosen\na,0;-1,0\n", " line 2: product -1 lies outside 0..1"),
        ("segment,offered,chosen\na,0;one,0\n", " line 2: product ids must be integers, got 'one'"),
        ("segment,offered,chosen\na,0;1,1.5\n", " line 2: product ids must be integers, got '1.5'"),
        ("segment,offered,chosen\na,0;1,0\n\na,0,1\n", " line 4: chosen product must lie in the offered set"),
    ], ids=["empty", "header-only", "short-row", "long-row", "id-too-large", "negative-id", "text-id",
            "fractional-chosen", "chosen-not-offered"])
    def test_malformed_transactions_exit_2_naming_the_line(self, tmp_path, capsys, text, named):
        data = tmp_path / "tx.csv"
        data.write_text(text)
        assert _run(["fit-mnl", "--data", str(data), "--products", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"mcassort fit-mnl: {data}{named}\n"

    def test_sweep_to_file(self, tmp_path):
        out_file = str(tmp_path / "sweep.csv")
        assert _run(["sweep", "--loading-factors", "2", "--types", "4",
                     "--replicas", "30", "--seed", "7", "--out", out_file]) == 0
        text = open(out_file).read()
        assert text.splitlines()[0].startswith("loading_factor,")
        assert len(text.splitlines()) == 1 + 4  # header + four policies

    def test_fit_mnl(self, tmp_path, capsys):
        data = tmp_path / "tx.csv"
        lines = ["segment,offered,chosen"]
        for _ in range(30):
            lines += ["a,0;1,0", "a,0;1,1", "a,0;1,"]
        data.write_text("\n".join(lines) + "\n")
        assert _run(["fit-mnl", "--data", str(data), "--products", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("type,no_purchase,weights")

    def test_instance_roundtrip_via_files(self, tmp_path):
        p1 = str(tmp_path / "a.json")
        p2 = str(tmp_path / "b.json")
        inst = simlab.random_norepeat_instance(seed=8, n=3, cap=2, m=2)
        save_instance(inst, p1)
        save_instance(load_instance(p1), p2)
        assert json.load(open(p1)) == json.load(open(p2))

    def test_invalid_instance_exits_with_violations(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        d = instance_to_dict(simlab.gen_hardness_instance(3))
        d["items"][0]["inventory"] = -1
        for td, q in zip(d["types"], (0.52, 0.52, 0.53)):
            td["arrival"] = q
        path.write_text(json.dumps(d))
        for argv in (["solve-lp", "--variant", "single-item", "--instance", str(path)],
                     ["simulate", "--policy", "greedy", "--instance", str(path), "--seed", "1"]):
            assert _run(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "item 0: negative inventory" in captured.err
            assert "arrival mass exceeds 1 at time-step 0 (got 1.57)" in captured.err
            assert "Traceback" not in captured.err

    @pytest.mark.parametrize("break_file, named", [
        (lambda d: d.pop("T"), "missing field T"),
        (lambda d: d["types"][1].pop("revenues"), "missing field types[1].revenues"),
        (lambda d: d["family"].update(mode="bogus"), "unknown family mode 'bogus'"),
        (lambda d: d["types"][0].update(arrival="x"), "types[0].arrival must be a number, got 'x'"),
        (lambda d: d["types"][2].update(patience="2"), "types[2].patience must be an integer, got '2'"),
        (lambda d: d.update(T="3"), "T must be an integer, got '3'"),
        (lambda d: d["items"][1].update(inventory=2.5), "items[1].inventory must be an integer, got 2.5"),
    ], ids=["no-T", "no-revenues", "bogus-mode", "text-arrival", "text-patience", "text-T", "float-inventory"])
    def test_malformed_instance_file_exits_with_field(self, tmp_path, capsys, break_file, named):
        path = tmp_path / "bad.json"
        d = instance_to_dict(simlab.gen_hardness_instance(3))
        break_file(d)
        path.write_text(json.dumps(d))
        assert _run(["solve-lp", "--variant", "single-item", "--instance", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert named in captured.err
        assert "Traceback" not in captured.err

    def test_fit_mnl_quoted_feature_with_comma(self, tmp_path, capsys):
        data = tmp_path / "tx.csv"
        lines = ["segment,offered,chosen"]
        for _ in range(30):
            lines += ['"Paris, FR",0;1,0', '"Paris, FR",0;1,1', '"Paris, FR",0;1,', 'b,0;1,0', 'b,0;1,1', 'b,0;1,']
        data.write_text("\n".join(lines) + "\n")
        assert _run(["fit-mnl", "--data", str(data), "--products", "2"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[0] == "type,no_purchase,weights"
        assert [r.split('",')[0] + '"' for r in rows[1:]] == ['"(\'Paris, FR\',)"', '"(\'b\',)"']

    def test_fit_mnl_output_quotes_double_quotes(self, tmp_path, capsys):
        data = tmp_path / "tx.csv"
        lines = ["segment,offered,chosen"]
        for _ in range(30):
            lines += ['"a""b",0;1,0', '"a""b",0;1,1', '"a""b",0;1,']
        data.write_text("\n".join(lines) + "\n")
        assert _run(["fit-mnl", "--data", str(data), "--products", "2"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["type", "no_purchase", "weights"]
        assert len(rows) == 2 and len(rows[1]) == 3
        assert rows[1][0] == "('a\"b',)"

    def test_offer_all_runs_the_saved_hardness_instance(self, tmp_path, capsys):
        path = str(tmp_path / "h.json")
        assert _run(["gen-instance", "hardness", path, "--n", "5", "--seed", "1"]) == 0
        capsys.readouterr()
        assert _run(["simulate", "--policy", "offer-all", "--instance", path,
                     "--replicas", "200", "--seed", "1"]) == 0
        revenues = simlab.hardness_sold_fraction(5, 200, seed=1) * 5
        assert f"mean,{float(np.mean(revenues)):.10g}" in capsys.readouterr().out

    @pytest.mark.parametrize("field, value", [("revenues", [3.0] * 5),
                                              ("item_probs", [0.9] * 5)])
    def test_offer_all_refuses_another_instance(self, tmp_path, capsys, field, value):
        # same T, m, patience and arrivals as hardness-5; the offer-all formula
        # assumes p = 1/n and unit revenues, so the run is refused
        path = tmp_path / "h.json"
        d = instance_to_dict(simlab.gen_hardness_instance(5))
        for td in d["types"]:
            (td if field == "revenues" else td["tabular"])[field] = value
        path.write_text(json.dumps(d))
        with pytest.raises(SystemExit, match="symmetric hardness instance"):
            _run(["simulate", "--policy", "offer-all", "--instance", str(path),
                  "--replicas", "200", "--seed", "1"])
        assert capsys.readouterr().out == ""
