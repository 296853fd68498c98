"""Smoke test of the benchmark itself (not of the library).

    python3 perfbench/test_smoke.py        # or: python3 -m pytest perfbench/test_smoke.py

Runs every workload at smoke size, traced and untraced, and checks that the
JSON result line carries exactly the metrics BENCHMARK.json names, with
their units, that the RESULT record carries every workload-level metric with
a unit, that an op made to raise is counted in fail_frac, and that the
benchmark refuses to run where the library sources are missing.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = [sys.executable, str(HERE / "run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

WORKLOAD_METRICS = {
    "planar-warm": ("closed_ops_per_s", "jordan_ops_per_s", "jordan_p50_ms", "jordan_tail_ms"),
    "annulus-warm": ("ann_carath_ops_per_s", "ann_carath_tail_ms", "ann_lempert_ops_per_s",
                     "ann_metric_ops_per_s", "ann_bergman_s"),
    "cli-cold": ("dist_ops_per_s", "verify_ops_per_s"),
}


def run(*args, cwd=ROOT):
    proc = subprocess.run(RUN + list(args), cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def parse(lines):
    final = json.loads(lines[-1])
    record = json.loads(next(line[len("RESULT "):] for line in lines
                             if line.startswith("RESULT ")))
    return final, record


def check_run(workload, trace):
    proc, lines = run("--workload", workload, "--seed", "3", "--seconds", "1",
                      "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    final, record = parse(lines)
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0, record["unexpected_failures"]
    assert isinstance(final["attempted"], int) and final["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(final["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = final["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m["name"]
        if not trace:
            assert got["value"] > 0, m["name"]
    for name in WORKLOAD_METRICS[workload]:
        assert record["workload_metrics"][name]["unit"], name
    for key in ("fail_frac", "checksum_match", "values_checksum", "known_defects"):
        assert key in record, key
    prov = record["provenance"]
    for key in ("git_commit", "source_digest", "seed", "sizes", "python", "numpy", "scipy",
                "nproc", "loadavg_before", "loadavg_after", "threads"):
        assert key in prov, key
    assert set(prov["threads"].values()) == {"1"}
    # the human-readable block names every metric with its unit
    for m in wanted:
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in lines), m["name"]


def test_planar_warm():
    check_run("planar-warm", 0)
    check_run("planar-warm", 1)


def test_annulus_warm():
    check_run("annulus-warm", 0)
    check_run("annulus-warm", 1)


def test_cli_cold():
    check_run("cli-cold", 0)
    check_run("cli-cold", 1)


def test_raising_op_counts_as_failure():
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import runner
    import workloads

    def boom():
        raise RuntimeError("boom")

    ok = workloads.Op("closed", "ok", lambda: 1.0)
    recs = runner.Runner(None, 0).execute([ok, workloads.Op("closed", "boom", boom)],
                                          "measure", 0)
    assert [r.status for r in recs] == ["ok", "fail"]
    assert recs[1].reason == "RuntimeError: boom"
    assert runner.fail_frac(recs) == 0.5


def test_refuses_without_sources():
    bare = ROOT / ".bench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "planar-warm",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    os.chdir(ROOT)
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for t in tests:
        t()
        print(f"ok  {t.__name__}", flush=True)
