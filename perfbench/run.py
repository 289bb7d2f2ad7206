"""mcassort benchmark: one workload, one process, fixed seed.

    python3 perfbench/run.py --workload colgen-pricing --seed 0 --seconds 40 --trace 0

Repeats passes of the workload for about ``--seconds``, checks every pass's
outputs outside the timed region, and prints human-readable lines followed,
as the last line, by one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics
(wall time as a median over passes, phase times as sums over the run per
pass); ``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, writing their spans to
``perfbench/out/``.  See perfbench/README.md.
"""
import time

T0 = time.perf_counter()  # set-up is timed from here to the first timed call

import os

# One BLAS thread: on the hotel LPs a two-thread pool is slower and far noisier.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 6  # extra cold set-ups, each in a fresh process
MIN_TIMED = 3  # untraced passes timed after the warm-up, at the least


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mcassort").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS, "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas, "git_sha": git_sha(),
        "src_sha256": digest.hexdigest()[:16],
    }


def probe_setup(args) -> float:
    """Set-up time of the same workload in a fresh process."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def measure(wl, seconds: float, trace: bool, tracer):
    """One warm-up pass, then timed passes for as long as another pass is
    expected to end within ``seconds`` of the start; at least ``MIN_TIMED``
    untraced passes run whatever ``seconds`` is.  The warm-up pass fills
    caches and the allocator: its outputs are checked, its time is not used.
    With ``trace``, untraced and traced passes alternate and at least one
    traced pass runs."""
    plain, traced, outputs = [], [], []
    deadline = time.perf_counter() + seconds
    warm_up = True
    while True:
        use_trace = trace and len(plain) > len(traced)
        rec = tracer.Tracer() if use_trace else tracer.Recorder()
        start = time.perf_counter()
        try:
            if use_trace:
                with rec.installed():
                    out = wl.run(rec)
            else:
                out = wl.run(rec)
        except Exception:  # the pass's operations count as failed
            traceback.print_exc()
            out = None
        wall = time.perf_counter() - start
        outputs.append(out)
        if warm_up:
            warm_up = False
            continue
        (traced if use_trace else plain).append((wall, rec))
        expected = statistics.median(w for w, _ in plain + traced)
        enough = len(plain) >= MIN_TIMED and (traced or not trace)
        if enough and time.perf_counter() + expected > deadline:
            return plain, traced, outputs


def phase_per_pass(plain, phase: str) -> float:
    """Time in ``phase`` summed over the timed passes, per pass.  A phase of
    tens of milliseconds a pass runs wholly at one of the host's speeds, so
    the median over passes jumps between them; the sum averages them."""
    return sum(rec.phase_s[phase] for _, rec in plain) / len(plain)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import mcassort
    import tracer
    import workloads

    if ROOT / "src" not in Path(mcassort.__file__).resolve().parents:
        raise SystemExit(f"mcassort imported from {mcassort.__file__}, not from {ROOT / 'src'}")

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - T0
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    plain, traced, outputs = measure(wl, args.seconds, bool(args.trace), tracer)

    ref = wl.reference()
    attempted = failed = 0
    for out in outputs:
        attempted += wl.ops_per_pass
        bad = ["pass raised"] * wl.ops_per_pass if out is None else wl.check(out, ref)
        failed += len(bad)
        for msg in bad:
            print(f"FAILED {msg}")
    last = next((o for o in reversed(outputs) if o is not None), None)

    walls = [w for w, _ in plain]
    print(f"# env {json.dumps(environment())}")
    print(f"# workload {args.workload} seed {args.seed}: {len(outputs)} passes, of which timed "
          f"{len(plain)} untraced and {len(traced)} traced")
    print(f"# timed untraced pass walls (s) {[round(w, 4) for w in walls]}")
    for phase in sorted({p for _, rec in plain for p in rec.phase_s}):
        print(f"# timed untraced pass {phase} (s) {[round(rec.phase_s[phase], 4) for _, rec in plain]}")
    if last is not None:
        print(f"# work per pass (from results) {json.dumps(wl.work(last))}")
    print(f"failed_frac {failed / attempted!r} ({failed} of {attempted} operations)")

    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"{args.workload}-seed{args.seed}.spans.json"
        with open(spans, "w") as fh:
            json.dump([{"wall_s": w, "spans": t.spans, "counts": t.counts} for w, t in traced], fh)
        overhead = statistics.median(w for w, _ in traced) - statistics.median(walls)
        metrics = tracer.layer_metrics([t for _, t in traced], overhead)
        print(f"# spans written to {spans.relative_to(ROOT)}")
    else:
        setups = [setup_s] + [probe_setup(args) for _ in range(SETUP_PROBES)]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "plan_s": (phase_per_pass(plain, "plan_s"), "s"),
            "sim_us_per_replica_step": (
                1e6 * sum(rec.phase_s["sim_s"] for _, rec in plain) / max(sum(rec.steps["sim_s"] for _, rec in plain), 1),
                "us"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    # phase times outside the metric set, e.g. policy_prep_s on attenuated-online
    for phase in sorted({p for _, rec in plain for p in rec.phase_s} - set(metrics)):
        print(f"{phase} {phase_per_pass(plain, phase)!r} s (per untraced pass)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
