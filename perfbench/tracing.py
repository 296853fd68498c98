"""Spans around the library's layer entry points, installed from outside.

The library has no tracing of its own, so the traced run replaces the entry
points named in HOOKS with wrappers that record one span per call: name,
start, end, parent span and op id.  Spans are kept in memory and written
out when the run ends; `layer_metrics` turns them into the per-layer
numbers (call counts, self times, ratios).

A function imported by name into several modules (``riemann_map`` lives in
``conformal`` and is imported into ``distances``, ``bergman`` and
``bounds``) is replaced in every module that holds it, so no copy escapes.
A hook whose target no longer exists is skipped and listed in
``Tracer.missing``; its metrics then read zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter_ns

import numpy as np

# (span name, module, attribute path, what the wrapper records as "extra")
#   extra "points": number of points in the first argument
#   extra "fn": the wrapped function's name
#   extra "suite": the suite name passed to run_suite
HOOKS = [
    ("domains.contains", "invdist.domains", "*.contains", None),
    ("domains.boundary_distance", "invdist.domains", "*.boundary_distance", None),
    ("conformal.riemann_map", "invdist.conformal", "riemann_map", None),
    ("conformal.zipper_build", "invdist.conformal", "ZipperMap.__init__", None),
    ("conformal.zipper_eval", "invdist.conformal", "_GeodesicChain.forward", "points"),
    ("conformal.zipper_eval", "invdist.conformal",
     "_GeodesicChain.forward_with_derivative", "points"),
    ("conformal.zipper_eval", "invdist.conformal", "_GeodesicChain.inverse", "points"),
    ("conformal.strip_distance", "invdist.conformal", "AnnulusCover.strip_distance", None),
    ("distances.dispatch", "invdist.distances", "caratheodory", "fn"),
    ("distances.dispatch", "invdist.distances", "lempert", "fn"),
    ("distances.dispatch", "invdist.distances", "kobayashi_metric", "fn"),
    ("distances.dispatch", "invdist.bergman", "bergman_kernel", "fn"),
    ("distances.dispatch", "invdist.bergman", "bergman_metric", "fn"),
    ("distances.dispatch", "invdist.bergman", "bergman_distance", "fn"),
    ("distances.hull_distance", "invdist.distances", "hull_distance", None),
    ("bergman.metric_field", "invdist.distances", "MetricField.__call__", "points"),
    ("annulus.engine_build", "invdist.annulus", "AnnulusCaratheodory.__post_init__", None),
    ("annulus.theta_product", "invdist.annulus", "theta_product", None),
    ("bergman.kernel", "invdist.bergman", "AnnulusKernel.diagonal", None),
    ("bergman.kernel", "invdist.bergman", "AnnulusKernel.pair", None),
    ("bergman.kernel", "invdist.bergman", "AnnulusKernel.log_diag_hessian", None),
    ("bergman.shortest_path_length", "invdist.bergman", "shortest_path_length", None),
    ("bounds.run_suite", "invdist.bounds", "run_suite", "suite"),
    ("bounds.sample_interior", "invdist.bounds", "sample_interior", None),
    ("cli.main", "invdist.cli", "main", None),
]

# conformal factories of the closed-form charts; the maps they return get
# their evaluate / derivative / inverse wrapped as conformal.closed_eval
CLOSED_FACTORIES = ("cayley_map", "sector_map", "slit_sqrt_map", "disc_scale_map",
                    "half_plane_map", "mobius_disc_automorphism")

SUITES = ("prop1", "prop2", "eq-ca", "prop6", "annulus", "comp")


class Tracer:
    """In-memory span store; `op` tags spans with the benchmark op running."""

    def __init__(self):
        self.spans = []   # [name, start_ns, end_ns, parent, op, extra]
        self.stack = []
        self.op = -1
        self.missing = []
        self._undo = []

    def span(self, name, fn, extra=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            if extra == "points":
                info = int(np.size(args[1]))
            elif extra == "fn":
                info = fn.__name__
            elif extra == "suite":
                info = args[0] if args else kwargs.get("name")
            else:
                info = None
            rec = [name, 0, 0, parent, tracer.op, info]
            tracer.spans.append(rec)
            tracer.stack.append(sid)
            rec[1] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter_ns()
                tracer.stack.pop()

        return wrapper

    # -- installation ---------------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "invdist" or mod_name.startswith("invdist.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def _wrap_method(self, cls, attr, name, extra):
        original = cls.__dict__[attr]
        setattr(cls, attr, self.span(name, original, extra))
        self._undo.append((cls, attr, original))

    def install(self):
        for name, mod_name, path, extra in HOOKS:
            try:
                mod = importlib.import_module(mod_name)
            except ImportError:
                self.missing.append(f"{mod_name}.{path}")
                continue
            owner, _, attr = path.rpartition(".")
            if owner == "*":
                classes = [c for c in vars(mod).values()
                           if isinstance(c, type) and c.__module__ == mod.__name__
                           and attr in c.__dict__]
                if not classes:
                    self.missing.append(f"{mod_name}.{path}")
                for cls in classes:
                    self._wrap_method(cls, attr, name, extra)
            elif owner:
                cls = getattr(mod, owner, None)
                if not isinstance(cls, type) or attr not in cls.__dict__:
                    self.missing.append(f"{mod_name}.{path}")
                    continue
                self._wrap_method(cls, attr, name, extra)
            else:
                fn = getattr(mod, attr, None)
                if fn is None:
                    self.missing.append(f"{mod_name}.{path}")
                    continue
                self._replace_everywhere(fn, self.span(name, fn, extra))
        conformal = importlib.import_module("invdist.conformal")
        for fac in CLOSED_FACTORIES:
            fn = getattr(conformal, fac, None)
            if fn is None:
                self.missing.append(f"invdist.conformal.{fac}")
                continue
            self._replace_everywhere(fn, self._closed_factory(fn))

    def _closed_factory(self, factory):
        tracer = self

        @functools.wraps(factory)
        def wrapped(*args, **kwargs):
            cmap = factory(*args, **kwargs)
            for attr in ("evaluate", "derivative", "inverse"):
                setattr(cmap, attr, tracer.span("conformal.closed_eval", getattr(cmap, attr)))
            return cmap

        return wrapped

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- output ---------------------------------------------------------------

    def dump(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def merge_file(spans, path, op):
    """Append the spans another process dumped to `path`, tagged with the op
    id of the call that started that process."""
    base = len(spans)
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if rec[3] >= 0:
                rec[3] += base
            rec[4] = op
            spans.append(rec)


def _ancestor(spans, i, names):
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] in names:
            return p
        p = spans[p][3]
    return -1


def layer_metrics(spans, pass_wall_s):
    """Per-layer numbers from the spans of one traced phase: a set-up (spans
    with op -1) and the traced passes.  The map-cache and engine-build
    numbers count both, since warm workloads build in set-up; every other
    number counts the passes only.  `pass_wall_s` is the summed wall time
    of the traced passes, against which the share covered by layer spans
    is taken."""
    n = len(spans)
    dur = [rec[2] - rec[1] for rec in spans]
    child = [0] * n
    for i, rec in enumerate(spans):
        if rec[3] >= 0:
            child[rec[3]] += dur[i]
    in_pass = [rec[4] >= 0 for rec in spans]
    calls, self_ns = {}, {}
    for i, rec in enumerate(spans):
        if in_pass[i]:
            calls[rec[0]] = calls.get(rec[0], 0) + 1
            self_ns[rec[0]] = self_ns.get(rec[0], 0) + dur[i] - child[i]

    def c(name):
        return calls.get(name, 0)

    def ms(name):
        return self_ns.get(name, 0) / 1e6

    def passes(name):
        return [i for i, rec in enumerate(spans) if rec[0] == name and in_pass[i]]

    rm = [i for i, rec in enumerate(spans) if rec[0] == "conformal.riemann_map"]
    built = {rec[3] for rec in spans if rec[0] == "conformal.zipper_build" and rec[3] >= 0
             and spans[rec[3]][0] == "conformal.riemann_map"}
    zip_points = sum(spans[i][5] or 0 for i in passes("conformal.zipper_eval"))

    def per_value(name, fn):
        """Calls of `name` per public `fn` value that reached it, not
        counting calls made while building an engine."""
        owners, hits = set(), 0
        for i in passes(name):
            if _ancestor(spans, i, ("annulus.engine_build",)) >= 0:
                continue
            d = _ancestor(spans, i, ("distances.dispatch",))
            if d >= 0 and spans[d][5] == fn:
                owners.add(d)
                hits += 1
        return hits / len(owners) if owners else 0.0

    metric_points = sum(spans[i][5] or 0 for i in passes("bergman.metric_field")
                        if _ancestor(spans, i, ("bergman.shortest_path_length",)) >= 0)
    suite_ms = {s: 0.0 for s in SUITES}
    for i in passes("bounds.run_suite"):
        if spans[i][5] in suite_ms:
            suite_ms[spans[i][5]] += dur[i] / 1e6
    root_ns = sum(dur[i] for i, rec in enumerate(spans) if rec[3] < 0 and in_pass[i])

    out = {
        "domains.contains.calls": c("domains.contains"),
        "domains.contains.self_ms": ms("domains.contains"),
        "domains.boundary_distance.calls": c("domains.boundary_distance"),
        "domains.boundary_distance.self_ms": ms("domains.boundary_distance"),
        "conformal.riemann_map.calls": len(rm),
        "conformal.riemann_map.builds": len(built),
        "conformal.riemann_map.hit_ratio": (1.0 - len(built) / len(rm)) if rm else 0.0,
        "conformal.riemann_map.build_ms": sum(dur[i] for i in built) / 1e6,
        "conformal.zipper_eval.calls": c("conformal.zipper_eval"),
        "conformal.zipper_eval.points": zip_points,
        "conformal.zipper_eval.points_per_call":
            zip_points / c("conformal.zipper_eval") if c("conformal.zipper_eval") else 0.0,
        "conformal.zipper_eval.self_ms": ms("conformal.zipper_eval"),
        "conformal.closed_eval.calls": c("conformal.closed_eval"),
        "conformal.closed_eval.self_ms": ms("conformal.closed_eval"),
        "distances.dispatch.calls": c("distances.dispatch"),
        "distances.dispatch.self_ms": ms("distances.dispatch"),
        "conformal.strip_distance.calls": c("conformal.strip_distance"),
        "conformal.strip_distance.calls_per_value":
            per_value("conformal.strip_distance", "lempert"),
        "distances.hull_distance.calls": c("distances.hull_distance"),
        "distances.hull_distance.self_ms": ms("distances.hull_distance"),
        "annulus.engine_build_ms": sum(dur[i] for i, rec in enumerate(spans)
                                       if rec[0] == "annulus.engine_build") / 1e6,
        "annulus.theta_product.calls": c("annulus.theta_product"),
        "annulus.theta_product.calls_per_value":
            per_value("annulus.theta_product", "caratheodory"),
        "annulus.theta_product.self_ms": ms("annulus.theta_product"),
        "bergman.kernel.calls": c("bergman.kernel"),
        "bergman.kernel.self_ms": ms("bergman.kernel"),
        "bergman.metric_points": metric_points,
        "bergman.shortest_path_length.calls": c("bergman.shortest_path_length"),
        "bergman.shortest_path_length.self_ms": ms("bergman.shortest_path_length"),
    }
    for s in SUITES:
        out[f"bounds.run_suite.{s}_ms"] = suite_ms[s]
    out["bounds.sample_interior.self_ms"] = ms("bounds.sample_interior")
    out["cli.main.self_ms"] = ms("cli.main")
    out["trace.span_coverage"] = root_ns / 1e9 / pass_wall_s if pass_wall_s > 0 else 0.0
    return out
