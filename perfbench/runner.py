"""Closed-loop execution of a workload's passes, and the statistics over them.

Timing rule.  An op label names inputs of like cost (same function, domain
and input stratum), and each label is costed at the 90th percentile of its
calls in the run (COST_QUANTILE).  `run_s` and the throughputs are built
from these costs; the raw call times stay in the tails and `jordan_p50_ms`.

Why that percentile: on a shared host the CPU runs most of the time at a
contended speed, with stretches of seconds in which calls take half as
long.  How much of a run those stretches cover changes from run to run, so
the fastest call, the median and the mean of a label swing by up to 2x
between runs; its 90th percentile stays near the contended cost unless
most of the run was fast.  Over the same runs (planar-warm and
annulus-warm, 6 and 14 seeds on a 2-vCPU virtual machine) the quartile
spread of run_s was 0.35 and 0.12 with the median, 0.02 and 0.08 with the
90th percentile.  It also moves once a tenth of a label's calls get slower,
where the median needs half; a rare stall still goes unseen.
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np

import workloads

COST_QUANTILE = 0.9


class Rec:
    """What one op did.  Slotted and small: peak RSS is a metric, and a run
    keeps one of these per op."""

    __slots__ = ("pass_", "kind", "label", "dt", "status", "reason", "defect", "width",
                 "report_bytes", "values")

    def __init__(self, pass_, kind, label, dt, status, reason, defect, width,
                 report_bytes, values):
        self.pass_, self.kind, self.label, self.dt = pass_, kind, label, dt
        self.status, self.reason, self.defect = status, reason, defect
        self.width, self.report_bytes, self.values = width, report_bytes, values


def tail(samples):
    """Highest percentile with at least ten samples beyond it:
    (value, percentile, sample count), or None below eleven samples."""
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return None
    i = n - 11
    return xs[i], 100.0 * (i + 1) / n, n


def median_or_zero(xs):
    return statistics.median(xs) if xs else 0.0


def label_costs(recs):
    """COST_QUANTILE of the call times per op label, with the label's call
    count."""
    times = {}
    for r in recs:
        times.setdefault(r.label, []).append(r.dt)
    return {label: (float(np.quantile(ts, COST_QUANTILE)), len(ts))
            for label, ts in times.items()}


def busy_time(recs):
    """Time of these calls, each at its label's cost."""
    return sum(cost * n for cost, n in label_costs(recs).values())


def rate(recs, kinds):
    """Ops per second: calls that passed every check, over the time of all
    calls of those kinds (failed calls cost time, earn nothing)."""
    sel = [r for r in recs if r.kind in kinds]
    busy = busy_time(sel)
    return sum(1 for r in sel if r.status == "ok") / busy if busy > 0 else 0.0


def list_time(recs):
    """Time of one pass of the fixed op list, each op at its label's cost."""
    passes = len({r.pass_ for r in recs})
    return busy_time(recs) / passes if passes else 0.0


def fail_frac(recs):
    """Share of ops that failed, known defects included."""
    return sum(1 for r in recs if r.status != "ok") / len(recs) if recs else 0.0


class Runner:
    def __init__(self, wl, seed):
        self.wl, self.seed = wl, seed
        self.tracer = None
        self.next_op = 0

    def rng(self, k, seed=None):
        return np.random.default_rng([self.seed if seed is None else seed, k])

    def timed_setup(self):
        t0 = time.perf_counter()
        self.wl.setup()
        return time.perf_counter() - t0

    def execute(self, ops, phase, k=None):
        recs = []
        for op in ops:
            oid = self.next_op
            self.next_op += 1
            if self.tracer is not None:
                self.tracer.op = oid
            t0 = time.perf_counter()
            try:
                res = op.call()
            except Exception as exc:  # noqa: BLE001 - any raise is a failed op
                dt = time.perf_counter() - t0
                res, reason = None, f"{type(exc).__name__}: {exc}"
            else:
                dt = time.perf_counter() - t0
                reason = op.check(res)
            if self.tracer is not None:
                self.tracer.op = -1
            if not reason:
                status, reason = "ok", None
            elif op.known is not None and op.known(reason, res):
                status = "known"
            else:
                status = "fail"
            values, width = workloads.result_values(res) if res is not None else ([], None)
            recs.append(Rec(k, sys.intern(op.kind), sys.intern(op.label), dt, status, reason,
                            op.defect, width, getattr(res, "report_bytes", 0),
                            values if phase == "canary" else None))
        return recs

    def run_passes(self, budget_s, first, phase, max_passes=None, setups=0):
        """Passes until the next one would overrun budget_s (at least one),
        or exactly max_passes when given.  With `setups`, also sets the
        workload up that many times from cold: once before the first pass,
        the rest spread over the run between passes (any left over after
        the last pass), so set-up times sample the same stretch of host
        conditions as the passes.  Returns the records, the wall time of
        each pass and the set-up times."""
        start = time.perf_counter()
        walls, recs, setup_times = [], [], []
        k = first
        while True:
            elapsed = time.perf_counter() - start
            if len(setup_times) < setups and elapsed >= budget_s * len(setup_times) / setups:
                setup_times.append(self.timed_setup())
                continue
            rng = self.rng(k)
            ops = workloads.shuffled(self.wl.pass_ops(rng, k), rng)
            t0 = time.perf_counter()
            recs += self.execute(ops, phase, k)
            walls.append(time.perf_counter() - t0)
            k += 1
            if max_passes is not None:
                if len(walls) >= max_passes:
                    break
            elif time.perf_counter() - start + statistics.median(walls) > budget_s:
                break
        while len(setup_times) < setups:
            setup_times.append(self.timed_setup())
        return recs, walls, setup_times

    def slot(self, phase, k):
        """The workload's once-per-run ops, from random stream k."""
        return self.execute(self.wl.slot_ops(self.rng(k)), phase, k)

    def canary(self, seed):
        """The fixed-input pass behind checksum_match (ops marked canary)."""
        rng = self.rng(0, seed)
        ops = self.wl.pass_ops(rng, 0) + self.wl.slot_ops(rng)
        return self.execute([op for op in ops if op.canary], "canary")
