"""The three workloads.  Each one is a set-up step plus a seeded generator of
"passes": fixed lists of ops whose composition never changes and whose
inputs come from the pass's own random stream.  The library only sees the
generated inputs.

- planar-warm: Caratheodory / Lempert / Bergman distances and Kobayashi /
  Bergman metric and kernel points on closed-form domains and on Jordan
  domains whose Riemann maps were built in set-up (warm map cache).
- annulus-warm: the same on annuli A_r, r in {1.05, 2, 5}, with the
  theta-product engines built in set-up, plus Lempert probes on A_1.005 in
  every pass and one Bergman-distance slot per run.
- cli-cold: `invdist verify` and `invdist dist` runs, each in a fresh
  process, reports written to files.

Edge slices (A_1.05 Caratheodory pairs, antipodal Lempert probes on
A_1.005, Jordan points at boundary depth 1e-4 .. 1e-6) are part of every
pass, so known defects show in each run instead of being sampled away.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks
import tracing

import invdist as iv
from invdist import bergman as bg
from invdist import distances as ds

# Known defects the edge slices probe, each bounded by what has been seen of
# it.  An edge op whose failure its own `known` test accepts counts in
# fail_frac but not as an unexpected failure; failing any other way (or by
# more than the bound) is unexpected.  A probe that passes means the defect
# is fixed.
KNOWN_DEFECTS = {
    "thin-annulus-lempert-inf":
        "lempert on A_1.005 with antipodal points returns inf: every strip lift "
        "is dropped once pi |Im zeta| / (2 log r) > 600",
    "annulus-carath-saturation":
        "on A_1.05 the Caratheodory value of a far pair (d > ~10) exceeds the Lempert "
        "value by more than 1e-8, by up to ~2 in d: values are carried through "
        "m = tanh(d), capped at 1 - 1e-16, and atanh amplifies the roundoff; the two "
        "agree within SATURATION_DM in m",
    "jordan-contains-near-boundary":
        "a Jordan-domain point at boundary depth <= 1e-5 is rejected with "
        "DomainViolation: the polyline winding test judges it outside, or the "
        "map's error puts its image outside the unit disc",
}

# tanh(c.lo) - tanh(l.hi) up to which a c > l break on A_1.05 is that roundoff:
# 1.04e-14 is the largest seen over 720 pairs; a real break at moderate d is
# far above it
SATURATION_DM = 2e-14
DEFECT_DEPTH = 1e-5         # DomainViolation is known only this close; 1e-4 passes today

EDGE_DEPTHS = (1e-4, 1e-5, 1e-6)


@dataclass
class Op:
    """One call into the library (or one CLI process)."""

    kind: str                         # metric class, e.g. "jordan", "ann_carath"
    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None] = lambda res: None
    defect: str | None = None         # KNOWN_DEFECTS key this op probes
    known: Callable[[str, object], bool] | None = None   # (reason, result): is it that defect?
    canary: bool = True               # part of the fixed-input checksum pass
    follows: bool = False             # runs right after the op before it


def shuffled(ops, rng):
    """A pass's ops in seeded random order, keeping each op marked `follows`
    behind its predecessor.  Spreading every kind of op over the pass makes
    each kind sample the whole run rather than one stretch of it."""
    groups = []
    for op in ops:
        if op.follows and groups:
            groups[-1].append(op)
        else:
            groups.append([op])
    return [op for i in rng.permutation(len(groups)) for op in groups[i]]


def cv_check(extra=None):
    """Check for a CertifiedValue result, then an optional extra check."""
    def check(res):
        bad = checks.interval_problem(res.lo, res.hi)
        if bad is None and extra is not None:
            bad = extra(res)
        return bad
    return check


def metric_check(want=None):
    def check(res):
        bad = checks.positive_finite(res)
        if bad is None and want is not None:
            bad = checks.mismatch(float(res), want)
        return bad
    return check


def result_values(res):
    """Numbers an op produced, for the checksum; width of an enclosure."""
    if isinstance(res, ds.CertifiedValue):
        return [res.lo, res.hi], res.hi - res.lo
    if isinstance(res, CliRun):
        return res.values, res.width
    return [float(res)], None


# ---------------------------------------------------------------------------
# point generators (the benchmark's own geometry, not the library's samplers)
# ---------------------------------------------------------------------------


def disc_point(rng, center, radius, frac=0.95):
    return complex(center + radius * frac * math.sqrt(rng.uniform()) *
                   np.exp(2j * math.pi * rng.uniform()))


def halfplane_point(rng, normal):
    # inward normal times a positive depth, plus a tangential offset
    return complex(normal * rng.uniform(0.05, 3.0) + 1j * normal * rng.uniform(-3.0, 3.0))


def sector_point(rng, theta):
    return complex(rng.uniform(0.05, 3.0) * np.exp(1j * rng.uniform(-0.95, 0.95) * theta))


def slit_point(rng):
    return complex(rng.uniform(0.05, 3.0) * np.exp(1j * rng.uniform(0.05, 2 * math.pi - 0.05)))


def cn_point(rng, radii, ball):
    dim = len(radii)
    if ball:
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        return v / np.linalg.norm(v) * radii[0] * 0.95 * rng.uniform() ** (1.0 / (2 * dim))
    return np.array([disc_point(rng, 0j, r) for r in radii])


def annulus_point(rng, r, spread=0.85):
    L = math.log(r)
    return complex(np.exp(rng.uniform(-spread * L, spread * L) + 2j * math.pi * rng.uniform()))


def annulus_points(rng, r, n, spread=0.85):
    """n points of A_r, the i-th in the i-th of n equal slices of log-modulus
    (free rotation).  The Laurent kernel's term count grows toward the
    boundary, so stratified moduli keep the work of a pass the same from
    seed to seed, and each slice has a cost of its own."""
    L = math.log(r)
    u = spread * L * (-1.0 + 2.0 * (np.arange(n) + rng.uniform(size=n)) / n)
    return [complex(np.exp(x + 2j * math.pi * rng.uniform())) for x in u]


class JordanSpec:
    """A Jordan domain with a point inside it from which it is star-shaped,
    and parameter windows where an inward normal offset stays inside."""

    def __init__(self, label, domain, jordan, star, avoid=()):
        self.label, self.domain, self.jordan, self.star = label, domain, jordan, star
        self.avoid = avoid

    def interior(self, rng):
        p = complex(self.jordan.point(rng.uniform()))
        s = 0.9 * math.sqrt(rng.uniform(0.01, 1.0))
        return self.star + s * (p - self.star)

    def near_boundary(self, rng, depth):
        while True:
            t = rng.uniform()
            if all(min(abs(t - c), 1.0 - abs(t - c)) > 0.03 for c in self.avoid):
                break
        p = complex(self.jordan.point(t))
        tang = complex(self.jordan.tangent(t))
        return p + depth * 1j * tang / abs(tang)


def jordan_specs():
    ellipse = iv.ellipse_domain(2.0, 1.0)
    wobbly = iv.wobbly_domain(7)
    lens = iv.lens_domain(0.75)
    hull = iv.two_disc_hull(0j, 1.0, 2.5 + 0j, 0.7)
    hull_j = hull.as_jordan()
    return [
        JordanSpec("ellipse", ellipse, ellipse, 0j),
        JordanSpec("wobbly", wobbly, wobbly, 0j),
        JordanSpec("lens", lens, lens, lens.anchor(), avoid=lens.corner_params),
        JordanSpec("hull", hull, hull_j, hull_j.anchor()),
    ]


class Workload:
    """Defaults shared by the workloads."""

    setup_reps = 7      # set-ups per run, spread over it; setup_s is their median
    trace_passes = 2    # passes in the traced phase of a --trace 1 run
    tracer = None       # set while tracing, for work done in other processes
    has_slot = False    # whether slot_ops gives once-per-run ops

    def slot_ops(self, rng):
        """Ops run once per run, apart from the passes, and kept out of the
        gated metrics."""
        return []

    def close(self):
        pass


# ---------------------------------------------------------------------------
# planar-warm
# ---------------------------------------------------------------------------


class PlanarWarm(Workload):
    name = "planar-warm"
    light, heavy = ("closed",), ("jordan",)
    closed_reps = 6

    def shrink(self):
        """Smoke-test size: one of each closed-form group per pass."""
        self.closed_reps = 1

    def setup(self):
        """Fresh domain objects (so fresh map caches), then every Riemann map."""
        self.disc = iv.Disc(0.25 - 0.5j, 1.5)
        self.half = iv.HalfPlane(0.6 + 0.8j)
        self.sector = iv.Sector(0.7)
        self.slit = iv.SlitPlane()
        self.ball = iv.Ball((0j, 0j), 1.0)
        self.poly = iv.Polydisc((0j, 0j), (1.0, 2.0))
        self.jordans = jordan_specs()
        for spec in self.jordans:
            iv.riemann_map(spec.jordan, spec.jordan.anchor())

    def pass_ops(self, rng, k):
        ops = []
        for _ in range(self.closed_reps):
            ops += self._closed_ops(rng)
        for j, spec in enumerate(self.jordans):
            ops += self._jordan_ops(rng, spec, EDGE_DEPTHS[(k + j) % len(EDGE_DEPTHS)])
        return ops

    def _pair_ops(self, kind, label, dom, z, w, want=None):
        """Caratheodory and Lempert of one pair: c <= l, and the closed form."""
        state = {}

        def carath():
            state["c"] = iv.caratheodory(dom, z, w)
            return state["c"]

        def oracle(res):
            return None if want is None else checks.mismatch(res.value, want)

        def le_check(res):
            return oracle(res) or checks.c_le_l(state.get("c"), res)

        return [Op(kind, f"carath/{label}", carath, cv_check(oracle)),
                Op(kind, f"lempert/{label}", lambda: iv.lempert(dom, z, w), cv_check(le_check),
                   follows=True)]

    def _closed_ops(self, rng):
        """One block of every closed-form op.  The block stays together when
        the pass is shuffled: microsecond calls scattered between Jordan
        calls would mostly time the caches those calls evicted."""
        ops = (self._disc_ops(rng) + self._halfplane_ops(rng)
               + self._conformal_ops(rng, "sector", self.sector,
                                     lambda: sector_point(rng, self.sector.theta))
               + self._conformal_ops(rng, "slitplane", self.slit, lambda: slit_point(rng))
               + self._cn_ops(rng, "ball", self.ball)
               + self._cn_ops(rng, "polydisc", self.poly))
        for op in ops[1:]:
            op.follows = True
        return ops

    def _disc_ops(self, rng):
        d = self.disc
        z, w = disc_point(rng, d.center, d.radius), disc_point(rng, d.center, d.radius)
        dd = checks.disc_distance(d.center, d.radius, z, w)
        kob = checks.disc_kobayashi_metric(d.center, d.radius, z)
        return self._pair_ops("closed", "disc", d, z, w, dd) + [
            Op("closed", "bergman/disc", lambda: iv.bergman_distance(d, z, w),
               cv_check(lambda r: checks.mismatch(r.value, math.sqrt(2.0) * dd))),
            Op("closed", "kobayashi_metric/disc", lambda: iv.kobayashi_metric(d, z),
               metric_check(kob)),
            Op("closed", "bergman_metric/disc", lambda: iv.bergman_metric(d, z),
               metric_check(math.sqrt(2.0) * kob)),
            Op("closed", "bergman_kernel/disc", lambda: iv.bergman_kernel(d, z),
               metric_check(checks.disc_bergman_kernel(d.center, d.radius, z))),
        ]

    def _halfplane_ops(self, rng):
        h = self.half
        z, w = halfplane_point(rng, h.normal), halfplane_point(rng, h.normal)
        return self._pair_ops("closed", "halfplane", h, z, w,
                              checks.halfplane_distance(h.normal, z, w)) + [
            Op("closed", "kobayashi_metric/halfplane", lambda: iv.kobayashi_metric(h, z),
               metric_check(checks.halfplane_kobayashi_metric(h.normal, z)))]

    def _conformal_ops(self, rng, label, dom, point):
        z, w = point(), point()
        return self._pair_ops("closed", label, dom, z, w) + [
            Op("closed", f"kobayashi_metric/{label}", lambda: iv.kobayashi_metric(dom, z),
               metric_check())]

    def _cn_ops(self, rng, label, dom):
        ball = label == "ball"
        radii = (dom.radius,) * dom.dim if ball else dom.radii
        z, w = cn_point(rng, radii, ball), cn_point(rng, radii, ball)
        X = np.array([1.0, 0.5j])
        if ball:
            want, kob = checks.ball_distance(1.0, z, w), checks.ball_kobayashi_metric(z, X)
        else:
            want = checks.polydisc_distance(radii, z, w)
            kob = checks.polydisc_kobayashi_metric(radii, z, X)
        return self._pair_ops("closed", label, dom, z, w, want) + [
            Op("closed", f"kobayashi_metric/{label}", lambda: iv.kobayashi_metric(dom, z, X),
               metric_check(kob))]

    def _jordan_ops(self, rng, spec, depth):
        dom = spec.domain
        z, w, p = spec.interior(rng), spec.interior(rng), spec.interior(rng)
        edge = spec.near_boundary(rng, depth)
        ops = self._pair_ops("jordan", spec.label, dom, z, w)
        ops += [
            Op("jordan", f"bergman/{spec.label}", lambda: iv.bergman_distance(dom, z, w),
               cv_check()),
            Op("jordan", f"kobayashi_metric/{spec.label}",
               lambda: iv.kobayashi_metric(dom, p), metric_check()),
            Op("jordan", f"bergman_metric/{spec.label}",
               lambda: iv.bergman_metric(dom, p), metric_check()),
            Op("jordan", f"bergman_kernel/{spec.label}",
               lambda: iv.bergman_kernel(dom, p), metric_check()),
            Op("jordan", f"carath-edge/{spec.label}@{depth:g}",
               lambda: iv.caratheodory(dom, z, edge), cv_check(),
               **(dict(defect="jordan-contains-near-boundary",
                       known=lambda reason, res: reason.startswith("DomainViolation"))
                  if depth <= DEFECT_DEPTH else {})),
        ]
        return ops


# ---------------------------------------------------------------------------
# annulus-warm
# ---------------------------------------------------------------------------


def _clear_module_caches():
    """Drop the library's module-level annulus caches, where it has them, so
    each set-up repetition builds from cold."""
    for mod, attr in ((ds, "_ANN_CACHE"), (bg, "_KERNELS")):
        cache = getattr(mod, attr, None)
        if isinstance(cache, dict):
            cache.clear()


class AnnulusWarm(Workload):
    name = "annulus-warm"
    light, heavy = ("ann_lempert", "ann_metric"), ("ann_carath",)
    radii = (1.05, 2.0, 5.0)
    carath_pairs = {1.05: 2, 2.0: 8, 5.0: 8}   # A_1.05 values cost ~12x the others
    edge_r = 1.05                              # the A_1.05 pairs are an edge slice
    metric_points = 4
    thin_r, thin_probes = 1.005, 2
    bergman_radii = (2.0, 5.0)
    has_slot = True

    def shrink(self):
        """Smoke-test size: one pair per modulus, the cheaper Bergman distance."""
        self.carath_pairs = {r: 1 for r in self.carath_pairs}
        self.metric_points = 1
        self.bergman_radii = (5.0,)

    def setup(self):
        """Build the theta-product engine and the Laurent kernel of each A_r."""
        _clear_module_caches()
        self.domains = {r: iv.Annulus(r) for r in self.radii}
        for r, dom in self.domains.items():
            iv.caratheodory(dom, 1.0 + 0j, 1.0j)
            iv.bergman_kernel(dom, 1.0 + 0j)
        self.thin = iv.Annulus(self.thin_r)

    def pass_ops(self, rng, k):
        ops = []
        for r, n in self.carath_pairs.items():
            ws = annulus_points(rng, r, n)
            for s, (z, i) in enumerate(zip(annulus_points(rng, r, n), rng.permutation(n))):
                ops += self._pair_ops(self.domains[r], s, z, ws[i])
        for _ in range(self.thin_probes):
            z = annulus_point(rng, self.thin_r, spread=0.5)   # any rotation
            ops.append(Op("ann_lempert", "lempert-antipodal/A1.005",
                          lambda z=z: iv.lempert(self.thin, z, -z), cv_check(),
                          defect="thin-annulus-lempert-inf",
                          known=lambda reason, res: res is not None and res.hi == math.inf))
        for r, dom in self.domains.items():
            for s, p in enumerate(annulus_points(rng, r, self.metric_points)):
                for label, fn in (("kobayashi_metric", iv.kobayashi_metric),
                                  ("bergman_metric", iv.bergman_metric),
                                  ("bergman_kernel", iv.bergman_kernel)):
                    ops.append(Op("ann_metric", f"{label}/A{r:g}/slice{s}",
                                  lambda fn=fn, dom=dom, p=p: fn(dom, p), metric_check()))
        return ops

    def _pair_ops(self, dom, s, z, w):
        """Both distances of one pair, labelled by the modulus slice s of z;
        Lempert carries the c <= l check."""
        state = {}

        def carath():
            state["c"] = iv.caratheodory(dom, z, w)
            return state["c"]

        def le_check(res):
            return checks.c_le_l(state.get("c"), res)

        def saturation(reason, res):
            return (reason.startswith("c > l")
                    and math.tanh(state["c"].lo) - math.tanh(res.hi) <= SATURATION_DM)

        label = f"A{dom.r:g}/slice{s}"
        edge = (dict(defect="annulus-carath-saturation", known=saturation)
                if dom.r == self.edge_r else {})
        return [Op("ann_carath", f"carath/{label}", carath, cv_check()),
                Op("ann_lempert", f"lempert/{label}", lambda: iv.lempert(dom, z, w),
                   cv_check(le_check), follows=True, **edge)]

    def slot_ops(self, rng):
        """The Bergman slot, run once per run apart from the passes: one A_2
        and one A_5 Bergman distance.  At 6-9 s it would fill most of a pass
        and leave the gated metrics too few passes, so its time is reported
        on its own (ann_bergman_s).  Moduli and angular gap are jittered
        only slightly, so the shortest-path work stays comparable from seed
        to seed; the rotation is free."""
        ops = []
        shapes = {2.0: (1.0, 1.4, 0.6, False), 5.0: (0.7, 2.0, 0.8, True)}
        for r in self.bergman_radii:
            a, b, gap, canary = shapes[r]
            th = 2 * math.pi * rng.uniform()
            jit = rng.uniform(0.97, 1.03, size=3)
            z = a * jit[0] * np.exp(1j * th)
            w = b * jit[1] * np.exp(1j * (th + gap * jit[2]))
            dom = self.domains[r]
            ops.append(Op("ann_bergman", f"bergman/A{r:g}",
                          lambda dom=dom, z=complex(z), w=complex(w):
                          iv.bergman_distance(dom, z, w),
                          cv_check(), canary=canary))
        return ops


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------

ELLIPSE_JSON = '{"kind":"jordan","curve":"ellipse","a":2.0,"b":1.0}'

# (suite, --samples, extra args): the smallest sizes at which every suite
# still runs its whole body; prop6 on the ellipse is the one cold map cache
# plus boundary_distance branch-and-bound run
VERIFY_RUNS = (
    ("prop1", 10, ()),
    ("prop2", 200, ()),
    ("eq-ca", 40, ()),
    ("prop6", 8, ("--domain", ELLIPSE_JSON)),
    ("annulus", 10, ()),
    ("comp", 10, ()),
)
CANARY_SUITES = ("prop1", "prop2")


@dataclass
class CliRun:
    rc: int
    stderr: str
    report_bytes: int
    values: list = field(default_factory=list)
    width: float | None = None
    doc: object = None
    problem: str | None = None


def _lit(z):
    z = complex(z)
    return f"{z.real:.17g}{z.imag:+.17g}i"


def _point_arg(z):
    if isinstance(z, np.ndarray):
        return json.dumps([_lit(c) for c in z])
    return _lit(z)


class CliCold(Workload):
    name = "cli-cold"
    light, heavy = ("dist",), ("verify",)
    trace_passes = 1
    timeout_s = 150
    dist_copies = 2

    def __init__(self, root, out_dir):
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        self.reports = tempfile.mkdtemp(prefix="cli-", dir=out_dir)
        self.n_runs = 0
        self.specs = {s.label: s for s in jordan_specs()}
        self.verify_runs = VERIFY_RUNS

    def close(self):
        shutil.rmtree(self.reports, ignore_errors=True)

    def shrink(self):
        """Smoke-test size: the two quick suites at tiny sample counts."""
        self.verify_runs = (("prop1", 2, ()), ("prop2", 20, ()))
        self.dist_copies = 1

    def setup(self):
        """Start one interpreter that imports the package, as a user's first
        command would; module caches stay cold for every measured run."""
        subprocess.run([sys.executable, "-c", "import invdist.cli"], env=self.env,
                       check=True, timeout=self.timeout_s)

    def _command(self, args):
        self.n_runs += 1
        out = os.path.join(self.reports, f"run{self.n_runs}.json")
        if self.tracer is None:
            cmd = [sys.executable, "-c",
                   "import sys; from invdist.cli import main; sys.exit(main())"]
            spans = None
        else:
            spans = os.path.join(self.reports, f"run{self.n_runs}.spans")
            cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "cli_child.py"),
                   "--spans", spans, "--"]
        return cmd + list(args) + ["--out", out], out, spans

    def _run(self, args, inspect):
        cmd, out, spans = self._command(args)
        proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                              timeout=self.timeout_s)
        res = CliRun(proc.returncode, proc.stderr[-400:], 0)
        if spans is not None and os.path.exists(spans):
            tracing.merge_file(self.tracer.spans, spans, self.tracer.op)
            os.remove(spans)
        if proc.returncode != 0:
            res.problem = f"exit code {proc.returncode}: {res.stderr.strip()[-200:]}"
            return res
        try:
            with open(out) as fh:
                text = fh.read()
            os.remove(out)
            res.report_bytes = len(text.encode())
            res.doc = checks.strict_json(text)
        except (OSError, ValueError) as exc:
            res.problem = f"report unreadable or not strict JSON: {exc}"
            return res
        res.values = checks.json_floats(res.doc)
        res.problem = inspect(res)
        return res

    def pass_ops(self, rng, k):
        ops = []
        for suite, samples, extra in self.verify_runs:
            seed = int(rng.integers(0, 2 ** 31 - 1))
            args = ["verify", "--suite", suite, "--samples", str(samples),
                    "--seed", str(seed), *extra]
            ops.append(Op("verify", f"verify/{suite}",
                          lambda args=args: self._run(args, self._verify_problem),
                          lambda res: res.problem, canary=suite in CANARY_SUITES))
        for label, domain, kind, z, w, want, canary in self._dist_inputs(rng):
            args = ["dist", "--domain", domain, "--kind", kind,
                    f"--z={_point_arg(z)}", f"--w={_point_arg(w)}"]
            # twice per pass: a quarter-second process start is the call most
            # exposed to host noise, and its label is costed at its fastest run
            for copy in range(self.dist_copies):
                ops.append(Op("dist", f"dist/{kind}/{label}",
                              lambda args=args, want=want:
                              self._run(args, lambda res: self._dist_problem(res, want)),
                              lambda res: res.problem, canary=canary and copy == 0))
        return ops

    @staticmethod
    def _verify_problem(res):
        if res.doc.get("passed") is not True:
            return "suite report does not say passed"
        return None

    @staticmethod
    def _dist_problem(res, want):
        val = res.doc.get("value", {})
        lo, hi = val.get("lo"), val.get("hi")
        if not isinstance(lo, (int, float)) or not isinstance(hi, (int, float)):
            return "dist report has no numeric lo / hi"
        res.width = hi - lo
        bad = checks.interval_problem(lo, hi)
        if bad is None and want is not None:
            bad = checks.mismatch(0.5 * (lo + hi), want)
        return bad

    def _dist_inputs(self, rng):
        """One `dist` run per domain family, each with seeded points."""
        d_c, d_r = 0.25 - 0.5j, 1.5
        normal = 0.6 + 0.8j
        specs = self.specs
        out = []
        z, w = disc_point(rng, d_c, d_r), disc_point(rng, d_c, d_r)
        disc_json = json.dumps({"kind": "disc", "center": _lit(d_c), "radius": d_r})
        dd = checks.disc_distance(d_c, d_r, z, w)
        out.append(("disc", disc_json, "carath", z, w, dd, True))
        out.append(("disc", disc_json, "bergman", z, w, math.sqrt(2.0) * dd, False))
        z, w = halfplane_point(rng, normal), halfplane_point(rng, normal)
        out.append(("halfplane", json.dumps({"kind": "halfplane", "normal": _lit(normal)}),
                    "lempert", z, w, checks.halfplane_distance(normal, z, w), False))
        out.append(("sector", '{"kind":"sector","theta":0.7}', "carath",
                    sector_point(rng, 0.7), sector_point(rng, 0.7), None, False))
        out.append(("slitplane", '{"kind":"slitplane"}', "lempert",
                    slit_point(rng), slit_point(rng), None, False))
        out.append(("annulus", '{"kind":"annulus","r":2.0}', "carath",
                    annulus_point(rng, 2.0), annulus_point(rng, 2.0), None, True))
        hull = specs["hull"]
        out.append(("hull", '{"kind":"hull","z":"0+0i","d_z":1.0,"w":"2.5+0i","d_w":0.7}',
                    "lempert", hull.interior(rng), hull.interior(rng), None, True))
        ell = specs["ellipse"]
        out.append(("ellipse", ELLIPSE_JSON, "carath",
                    ell.interior(rng), ell.interior(rng), None, True))
        wob = specs["wobbly"]
        out.append(("wobbly", '{"kind":"jordan","curve":"wobbly","seed":7}', "carath",
                    wob.interior(rng), wob.interior(rng), None, False))
        lens = specs["lens"]
        out.append(("lens", '{"kind":"jordan","curve":"lens","rho":0.75}', "bergman",
                    lens.interior(rng), lens.interior(rng), None, False))
        z, w = cn_point(rng, (1.0, 1.0), True), cn_point(rng, (1.0, 1.0), True)
        out.append(("ball", '{"kind":"ball","dim":2,"radius":1.0}', "carath",
                    z, w, checks.ball_distance(1.0, z, w), True))
        z, w = cn_point(rng, (1.0, 2.0), False), cn_point(rng, (1.0, 2.0), False)
        out.append(("polydisc", '{"kind":"polydisc","radii":[1.0,2.0]}', "lempert",
                    z, w, checks.polydisc_distance((1.0, 2.0), z, w), False))
        return out


def make(name, root, out_dir):
    if name == "planar-warm":
        return PlanarWarm()
    if name == "annulus-warm":
        return AnnulusWarm()
    if name == "cli-cold":
        return CliCold(root, out_dir)
    raise ValueError(f"unknown workload {name!r}")

