#!/usr/bin/env python3
"""invdist benchmark.

    python3 perfbench/run.py --workload planar-warm --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 30 [--trace 1]

Run from the repository root (or any checkout of it); the library is loaded
from ./src.  One closed-loop client in one process: the next call starts
when the previous one returns.  BLAS / OpenMP threads are pinned to 1.

A run repeats "passes" (fixed op lists, fresh seeded inputs each pass) until
the next pass would overrun --seconds, and always completes at least one.
A workload's once-per-run ops (the annulus Bergman slot) run first, inside
the same budget.  With --trace 1 the run spends half of --seconds that way,
then installs the layer spans, sets up again and runs a fixed number of
traced passes and the once-per-run ops.

The last line of standard output is the JSON result object.  The line
before it, starting with "RESULT ", is the full record: every metric, the
workload-level metrics, output checks, fail_frac, the checksum
and the provenance block.  Both go to .bench_out/ as well.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:        # before numpy is imported, here or in a child
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("planar-warm", "annulus-warm", "cli-cold")
CANARY_SEED = 20121030
TRACED_FIRST_PASS = 1_000_000   # traced passes draw inputs apart from untraced ones
SLOT_STREAM = 2_000_000         # and so do the once-per-run ops, untraced and traced


def spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def git_commit():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(args, load_before):
    import numpy

    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def workload_metrics(name, recs, slot_recs):
    """The workload-level metrics of each workload (not gated)."""
    from runner import rate, tail

    def times(kinds):
        return [r.dt for r in recs if r.kind in kinds]

    out = {}

    def put(key, value, unit, **more):
        out[key] = {"value": value, "unit": unit, **more}

    def put_tail(key, kinds):
        t = tail(times(kinds))
        if t is None:
            put(key, None, "ms", note="fewer than 11 samples")
        else:
            put(key, 1e3 * t[0], "ms", percentile=round(t[1], 2), samples=t[2])

    if name == "planar-warm":
        put("closed_ops_per_s", rate(recs, ("closed",)), "1/s")
        put("jordan_ops_per_s", rate(recs, ("jordan",)), "1/s")
        put("jordan_p50_ms", 1e3 * statistics.median(times(("jordan",))), "ms",
            samples=len(times(("jordan",))))
        put_tail("jordan_tail_ms", ("jordan",))
    elif name == "annulus-warm":
        put("ann_carath_ops_per_s", rate(recs, ("ann_carath",)), "1/s")
        put_tail("ann_carath_tail_ms", ("ann_carath",))
        put("ann_lempert_ops_per_s", rate(recs, ("ann_lempert",)), "1/s")
        put("ann_metric_ops_per_s", rate(recs, ("ann_metric",)), "1/s")
        put("ann_bergman_s", sum(r.dt for r in slot_recs), "s", samples=1,
            calls=len(slot_recs), note="the run's Bergman slot: "
            + ", ".join(r.label for r in slot_recs))
    else:
        put("dist_ops_per_s", rate(recs, ("dist",)), "1/s")
        put("verify_ops_per_s", rate(recs, ("verify",)), "1/s")
    return out


def run_workload(args):
    if not (ROOT / "src" / "invdist" / "__init__.py").is_file():
        sys.stderr.write(f"error: no library sources under {ROOT / 'src' / 'invdist'}; "
                         "run from a checkout of the repository\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    load_before = os.getloadavg()
    import checks
    import runner
    import tracing
    import workloads

    bench = spec()
    OUT.mkdir(exist_ok=True)
    wl = workloads.make(args.workload, str(ROOT), str(OUT))
    if args.smoke:
        wl.shrink()
    run = runner.Runner(wl, args.seed)

    budget = args.seconds / 2.0 if args.trace else float(args.seconds)
    start = time.perf_counter()
    slot_recs = []
    if wl.has_slot:
        wl.setup()
        slot_recs = run.slot("measure", SLOT_STREAM)
    recs, walls, setup_times = run.run_passes(budget - (time.perf_counter() - start), 0,
                                              "measure", setups=wl.setup_reps)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    layer, tracer, traced_recs, traced_slot = None, None, [], []
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        run.tracer = wl.tracer = tracer
        try:
            wl.setup()
            traced_recs, _, _ = run.run_passes(
                0.0, TRACED_FIRST_PASS, "traced", max_passes=wl.trace_passes)
            traced_slot = run.slot("traced", SLOT_STREAM + 1)
        finally:
            tracer.uninstall()
            run.tracer = wl.tracer = None
        layer = tracing.layer_metrics(tracer.spans,
                                      sum(r.dt for r in traced_recs + traced_slot))
        layer["trace.overhead_s"] = runner.list_time(traced_recs) - runner.list_time(recs)
        layer["cli.report_bytes"] = sum(r.report_bytes for r in traced_recs)
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")

    canary = run.canary(CANARY_SEED)
    wl.close()
    all_recs = slot_recs + recs + traced_recs + traced_slot + canary
    failed = sum(1 for r in all_recs if r.status == "fail")
    known = sum(1 for r in all_recs if r.status == "known")
    digest = checks.checksum([v for r in canary for v in r.values])
    reference = json.loads((HERE / "reference.json").read_text()).get(args.workload)

    e2e = {
        "setup_s": statistics.median(setup_times),
        "run_s": runner.list_time(recs),
        "peak_rss_mb": peak_rss_mb,
        "light_ops_per_s": runner.rate(recs, wl.light),
        "heavy_ops_per_s": runner.rate(recs, wl.heavy),
    }
    if layer is not None:
        # error of numeric-mode values; exact closed forms (width 0) are left out
        widths = [r.width for r in all_recs if r.width and r.status == "ok"]
        layer["distances.width_p50"] = runner.median_or_zero(widths)
        layer["distances.width_max"] = max(widths, default=0.0)
        wanted, values = bench["per_layer"], layer
    else:
        wanted, values = bench["end_to_end"], e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    by_defect = {}
    for r in all_recs:
        if r.defect:
            d = by_defect.setdefault(r.defect, {"probes": 0, "failed": 0,
                                                "what": workloads.KNOWN_DEFECTS[r.defect]})
            d["probes"] += 1
            d["failed"] += r.status != "ok"
    per_pass = {}
    for r in recs:
        if r.pass_ == 0:
            per_pass[r.kind] = per_pass.get(r.kind, 0) + 1
    prov = provenance(args, load_before)
    prov["sizes"] = {"ops_per_pass": per_pass, "once_per_run_ops": len(slot_recs),
                     "measured_passes": len(walls),
                     "traced_passes": wl.trace_passes if args.trace else 0,
                     "setup_reps": wl.setup_reps, "canary_ops": len(canary)}
    result = {
        "workload": args.workload,
        "end_to_end": {k: {"value": v, "unit": _unit(bench, k)} for k, v in e2e.items()},
        "workload_metrics": workload_metrics(args.workload, recs, slot_recs),
        "fail_frac": runner.fail_frac(all_recs),
        "unexpected_failures": [{"label": r.label, "reason": r.reason}
                                for r in all_recs if r.status == "fail"][:20],
        "known_defects": by_defect,
        "values_checksum": digest,
        "checksum_reference": reference,
        "checksum_match": None if reference is None else digest == reference,
        "per_layer": layer,
        "trace_missing_hooks": tracer.missing if tracer else [],
        "pass_wall_s": walls,
        "setup_s": setup_times,
        "provenance": prov,
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=1))

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}: {len(walls)} passes, {len(all_recs)} ops")
    for group in (result["end_to_end"], result["workload_metrics"]):
        for key, m in group.items():
            extra = "".join(f" {k}={v}" for k, v in m.items() if k not in ("value", "unit"))
            print(f"  {key:32s} {_fmt(m['value']):>14s} {m['unit']}{extra}")
    print(f"  {'fail_frac':32s} {_fmt(result['fail_frac']):>14s} "
          f"(unexpected {failed}, known defects {known})")
    print(f"  {'checksum_match':32s} {str(result['checksum_match']):>14s} "
          f"({digest} vs {reference})")
    if layer is not None:
        for key, val in layer.items():
            print(f"  {key:44s} {_fmt(val):>14s} {_unit(bench, key)}")
    print("RESULT " + json.dumps(result, separators=(",", ":")))
    print(json.dumps({"correct": failed == 0, "attempted": len(all_recs),
                      "failed": failed, "metrics": metrics}))
    return 0


def _unit(bench, name):
    for m in bench["end_to_end"] + bench["per_layer"]:
        if m["name"] == name:
            return m["unit"]
    return ""


def _fmt(v):
    return "None" if v is None else f"{v:.6g}"


# ---------------------------------------------------------------------------
# all workloads
# ---------------------------------------------------------------------------


def run_all(args):
    """Every workload in its own process, then one table of all metrics."""
    results, ok = {}, True
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            ok = False
            continue
        final = json.loads(lines[-1])
        ok = ok and final["correct"]
        results[name] = next(json.loads(line[len("RESULT "):]) for line in lines
                             if line.startswith("RESULT "))
    print("\nall workloads")
    for name, res in results.items():
        print(f"[{name}]")
        rows = {**res["end_to_end"], **res["workload_metrics"]}
        for key, m in rows.items():
            print(f"  {key:32s} {_fmt(m['value']):>14s} {m['unit']}")
        print(f"  {'fail_frac':32s} {_fmt(res['fail_frac']):>14s}")
        print(f"  {'checksum_match':32s} {str(res['checksum_match']):>14s}")
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true", help="run every workload in turn")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny passes, for the smoke test (checksums will not match)")
    args = p.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        p.error("give --workload or --all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
