"""Command-line entry points.

Subcommands: gen-instance, solve-lp, simulate, sweep, colgen, verify-gamma,
fit-mnl.  Stochastic commands require --seed; results go to stdout or --out.
An instance that fails validation exits with status 2 and its violations on
stderr.
"""
from __future__ import annotations

import argparse
import csv
import io
import sys

import numpy as np

from . import attenuate, colgen, mcdlp, norepeat, simlab
from .mcdlp import McdlpVariant
from .model import InvalidInstanceError, load_instance, save_instance

_VARIANTS = {v.value: v for v in McdlpVariant}


def _checked(kind, ok, rule: str):
    """An argparse ``type=``: ``kind(text)`` where ``ok`` holds; argparse exits
    2 with a one-line message on anything else."""
    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


_seed = _checked(int, lambda v: v >= 0, "seed must be non-negative")
_positive_int = _checked(int, lambda v: v >= 1, "must be a positive integer")
_positive = _checked(float, lambda v: v > 0, "must be positive")


def _out(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_gen_instance(args) -> int:
    if args.kind == "hardness":
        inst = simlab.gen_hardness_instance(args.n)
    elif args.kind == "gap":
        inst = simlab.gen_gap_instance(args.M)
    elif args.kind == "hotel":
        template = simlab.gen_hotel_like(seed=args.seed, n_types=args.types)
        inst = simlab.build_hotel_instance(
            template, args.loading_factor, args.scale_factor, args.patience, args.cap,
            seed=args.seed,
        )
    elif args.kind == "random-matching":
        inst = simlab.random_matching_instance(args.seed, args.n, args.types, args.T)
    elif args.kind == "random-norepeat":
        inst = simlab.random_norepeat_instance(args.seed, args.n, args.cap, args.types)
    else:
        raise SystemExit(f"unknown instance kind {args.kind}")
    save_instance(inst, args.out_file)
    print(f"wrote {args.kind} instance to {args.out_file}")
    return 0


def _cmd_solve_lp(args) -> int:
    inst = load_instance(args.instance)
    sol = mcdlp.solve_variant(inst, _VARIANTS[args.variant])
    lines = [f"variant,{args.variant}", f"objective,{sol.objective:.10g}"]
    for j, plan in enumerate(sol.plan):
        for S, v in sorted(plan.items(), key=lambda kv: tuple(sorted(kv[0]))):
            lines.append(f"x,{j},\"{' '.join(str(i) for i in sorted(S))}\",{v:.10g}")
    for r, tag in enumerate(sol.lp.row_tags):
        lines.append(f"dual,{tag},{sol.lp.duals[r]:.10g}")
    _out(args, "\n".join(lines) + "\n")
    return 0


def _cmd_simulate(args) -> int:
    inst = load_instance(args.instance)
    if args.policy in ("greedy", "conservative"):
        res = simlab.run_benchmark(inst, args.policy, args.replicas, seed=args.seed)
        revenues = res.revenues
        opt = None
    elif args.policy in ("norepeat", "norepeat-homog", "norepeat-randpatience"):
        variant = McdlpVariant.MCDLP_NRS if args.policy == "norepeat-homog" else McdlpVariant.MCDLP_NR
        lp = mcdlp.solve_variant(inst, variant)
        runner = {
            "norepeat": norepeat.run_algorithm3,
            "norepeat-homog": norepeat.run_modified_algorithm3,
            "norepeat-randpatience": norepeat.run_algorithm3_random_patience,
        }[args.policy]
        # each runner keeps its own default alpha
        alpha = {} if args.alpha is None else {"alpha": args.alpha}
        res = runner(inst, lp, replicas=args.replicas, seed=args.seed, **alpha)
        revenues = res.revenues
        opt = lp.objective
    elif args.policy == "attenuated":
        lp = mcdlp.solve_variant(inst, McdlpVariant.SINGLE_ITEM)
        res = attenuate.run_algorithm1(
            inst, lp, mc_budget=args.mc_budget, replicas=args.replicas, seed=args.seed
        )
        revenues = res.revenues
        opt = lp.objective
    elif args.policy == "attenuated-assort":
        lp = mcdlp.solve_variant(inst, McdlpVariant.MCDLP_R)
        res, _ = attenuate.run_algorithm6(
            inst, lp, mc_budget=args.mc_budget, replicas=args.replicas, seed=args.seed
        )
        revenues = res.revenues
        opt = lp.objective
    elif args.policy == "offer-all":
        # hardness_sold_fraction assumes p = 1/n and unit revenues, so only
        # the hardness instance itself is accepted
        n = inst.n_items
        if n < 1 or inst != simlab.gen_hardness_instance(n):
            raise SystemExit("offer-all expects a symmetric hardness instance "
                             "(gen-instance hardness)")
        fractions = simlab.hardness_sold_fraction(n, args.replicas, seed=args.seed)
        revenues = fractions * n
        opt = float(n)
    else:
        raise SystemExit(f"unknown policy {args.policy}")
    lines = ["replica,revenue"]
    lines += [f"{k},{v:.10g}" for k, v in enumerate(revenues)]
    mean = float(np.mean(revenues))
    lines.append(f"mean,{mean:.10g}")
    if opt:
        lines.append(f"ratio_to_opt,{mean / opt:.10g}")
    _out(args, "\n".join(lines) + "\n")
    return 0


def _cmd_sweep(args) -> int:
    template = simlab.gen_hotel_like(seed=args.seed, n_types=args.types)
    spec = simlab.SweepSpec(
        loading_factors=tuple(args.loading_factors),
        patiences=(args.patience,),
        caps=(args.cap,),
        scale_factors=(args.scale_factor,),
        replicas=args.replicas,
        seed=args.seed,
    )
    rows = simlab.run_sweep(template, spec)
    _out(args, simlab.sweep_to_csv(rows))
    return 0


def _cmd_colgen(args) -> int:
    inst = load_instance(args.instance)
    oracle = {
        "brute": colgen.BruteForceOracle(),
        "mnl-exact": colgen.MnlExactOracle(),
        "mnl-fptas": colgen.MnlFptasOracle(eps=args.eps),
    }[args.oracle]
    try:
        result = colgen.column_generate(inst, _VARIANTS[args.variant], oracle)
    except ValueError as exc:
        raise SystemExit(f"colgen failed: {exc}") from exc
    lines = [
        f"objective,{result.objective:.10g}",
        f"iterations,{result.iterations}",
        f"columns_added,{len(result.added)}",
    ]
    for S in result.added:
        lines.append(f"added,\"{' '.join(str(i) for i in sorted(S))}\"")
    _out(args, "\n".join(lines) + "\n")
    return 0


def _cmd_verify_gamma(args) -> int:
    sched = attenuate.gamma_schedule(args.T)
    h1 = attenuate.h_limit(1.0)
    lines = [
        f"T,{args.T}",
        f"gamma_T_plus_1,{sched.gamma(args.T + 1):.12g}",
        f"h_1,{h1:.12g}",
        f"ratio,{sched.ratio:.12g}",
        f"gamma_below_h1,{sched.gamma(args.T + 1) <= h1 + 1e-12}",
    ]
    _out(args, "\n".join(lines) + "\n")
    return 0


def _cmd_fit_mnl(args) -> int:
    records = []
    with open(args.data, newline="") as fh:
        rows = csv.reader(fh)
        n_feat = len(next(rows)) - 2
        for cells in rows:
            if not "".join(cells).strip():
                continue
            features = tuple(cells[:n_feat])
            offered = frozenset(int(x) for x in cells[n_feat].split(";") if x != "")
            chosen = int(cells[n_feat + 1]) if cells[n_feat + 1].strip() else None
            records.append(simlab.TransactionRecord(features, offered, chosen))
    fitted = simlab.fit_mnl(records, n_products=args.products)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["type", "no_purchase", "weights"])
    for key, model in fitted.items():
        writer.writerow([key, f"{model.no_purchase:.8g}", ";".join(f"{w:.8g}" for w in model.weights)])
    _out(args, buf.getvalue())
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="mcassort", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen-instance", help="write a generated instance to a JSON file")
    g.add_argument("kind", choices=["hardness", "gap", "hotel", "random-matching", "random-norepeat"])
    g.add_argument("out_file")
    g.add_argument("--n", type=_positive_int, default=5)
    g.add_argument("--M", type=int, default=4)
    g.add_argument("--T", type=int, default=6)
    g.add_argument("--types", type=int, default=6)
    g.add_argument("--cap", type=int, default=3)
    g.add_argument("--patience", type=int, default=2)
    g.add_argument("--loading-factor", type=float, default=2.0)
    g.add_argument("--scale-factor", type=float, default=2.0)
    g.add_argument("--seed", type=_seed, required=True)

    s = sub.add_parser("solve-lp", help="solve an LP relaxation and print plan and duals")
    s.add_argument("--variant", choices=sorted(_VARIANTS), required=True)
    s.add_argument("--instance", required=True)
    s.add_argument("--out")

    r = sub.add_parser("simulate", help="run a policy and emit per-replica revenue CSV")
    r.add_argument("--policy", required=True,
                   choices=["greedy", "conservative", "norepeat", "norepeat-homog",
                            "norepeat-randpatience", "attenuated", "attenuated-assort",
                            "offer-all"])
    r.add_argument("--instance", required=True)
    r.add_argument("--replicas", type=_positive_int, default=1000)
    r.add_argument("--mc-budget", type=_positive_int, default=2000)
    r.add_argument("--alpha", type=float, default=None)
    r.add_argument("--seed", type=_seed, required=True)
    r.add_argument("--out")

    w = sub.add_parser("sweep", help="hotel-like parameter sweep, CSV output")
    w.add_argument("--loading-factors", type=_positive, nargs="+", default=[1, 2, 3, 4, 5, 6, 7])
    w.add_argument("--patience", type=int, default=2)
    w.add_argument("--cap", type=int, default=4)
    w.add_argument("--scale-factor", type=float, default=2.0)
    w.add_argument("--types", type=_positive_int, default=12)
    w.add_argument("--replicas", type=_checked(int, lambda v: v >= 30, "need at least 30 replicas per cell"),
                   default=100)
    w.add_argument("--seed", type=_seed, required=True)
    w.add_argument("--out")

    c = sub.add_parser("colgen", help="column generation on an instance")
    c.add_argument("--variant", choices=["mcdlp-nr", "mcdlp-r"], required=True)
    c.add_argument("--oracle", choices=["brute", "mnl-exact", "mnl-fptas"], default="brute")
    c.add_argument("--eps", type=_checked(float, lambda v: 0 < v < 1, "eps must lie in (0,1)"), default=0.1)
    c.add_argument("--instance", required=True)
    c.add_argument("--out")

    v = sub.add_parser("verify-gamma", help="gamma schedule summary and h(1) check")
    v.add_argument("--T", type=_positive_int, default=100000)
    v.add_argument("--out")

    f = sub.add_parser("fit-mnl", help="fit per-type MNL weights from transactions CSV")
    f.add_argument("--data", required=True,
                   help="CSV: feature columns, then offered ('1;3;5'), then chosen ('' = none)")
    f.add_argument("--products", type=int, required=True)
    f.add_argument("--out")

    args = ap.parse_args(argv)
    command = {
        "gen-instance": _cmd_gen_instance,
        "solve-lp": _cmd_solve_lp,
        "simulate": _cmd_simulate,
        "sweep": _cmd_sweep,
        "colgen": _cmd_colgen,
        "verify-gamma": _cmd_verify_gamma,
        "fit-mnl": _cmd_fit_mnl,
    }[args.cmd]
    try:
        return command(args)
    except InvalidInstanceError as exc:
        sys.stderr.write(f"mcassort {args.cmd}: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
