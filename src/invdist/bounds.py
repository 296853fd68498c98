"""Explicit bound formulas, constant fitting, and the verification suites.

The bound functions are pure formula evaluations.  The suites sample a
domain, evaluate both sides of an inequality, and either count violations
at a fixed slack or fit the smallest constant that clears the whole grid.
Fitted constants are reported, never asserted against external values:
the statements being checked only claim a finite constant exists.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from . import _np as np

from . import bergman as bg
from . import distances as ds
from .annulus import annulus_kobayashi_distance
from .conformal import riemann_map
from .domains import (
    Annulus,
    Ball,
    Disc,
    JordanDomain,
    Polydisc,
    Sector,
    SlitPlane,
    _fmt,
    _json_canonical,
    ellipse_domain,
    lens_domain,
    two_disc_hull,
)
from .errors import (
    DegenerateInput,
    InsufficientSamples,
    NoFiniteConstant,
    UnsupportedDomain,
)

__all__ = [
    "BoundReport",
    "bound_convex_lower",
    "bound_prop1_R",
    "bound_ccvx_lower",
    "envelope_residual_pla",
    "sandwich_gen",
    "fit_min_constant",
    "experiment_sector_ratio",
    "experiment_slit_coefficient",
    "experiment_ratio_c_over_l",
    "boundary_slope_regression",
    "verify_prop5_product",
    "run_suite",
    "SUITES",
    "sample_interior",
]


# ---------------------------------------------------------------------------
# bound formulas
# ---------------------------------------------------------------------------


def bound_convex_lower(d_z: float, d_w: float) -> float:
    """Convex-domain lower bound (1/2) log(d_z / d_w); may be negative."""
    if d_z <= 0 or d_w <= 0:
        raise DegenerateInput("boundary distances must be positive")
    return 0.5 * math.log(d_z / d_w)


def bound_prop1_R(sep: float, d_z: float, d_w: float) -> float:
    """Two-disc-hull upper bound R = |z-w| log(d_z/d_w) / (d_z - d_w),
    continuous limit |z-w| / d_w at equal distances."""
    if d_z <= 0 or d_w <= 0:
        raise DegenerateInput("boundary distances must be positive")
    if sep < 0:
        raise DegenerateInput("separation must be nonnegative")
    if abs(d_z - d_w) < 1e-12 * max(d_z, d_w):
        return sep / d_w
    return sep / (d_z - d_w) * math.log(d_z / d_w)


def bound_ccvx_lower(d_z: float, d_w: float) -> float:
    """Lineally convex lower bound (1/4) log(d_z / (4 d_w))."""
    if d_z <= 0 or d_w <= 0:
        raise DegenerateInput("boundary distances must be positive")
    return 0.25 * math.log(d_z / (4.0 * d_w))


def envelope_residual_pla(s: float, d_w: float) -> float:
    """Boundary envelope residual s + (1/2) log d(w); bounded on smooth domains."""
    if d_w <= 0:
        raise DegenerateInput("boundary distance must be positive")
    return s + 0.5 * math.log(d_w)


def sandwich_gen(sep: float, d_z: float, d_w: float, c: float):
    """Two-sided boundary sandwich in the m = tanh scale:

        sep / sqrt(c d_z d_w + sep^2)  <=  tanh c_D  <=  tanh l_D
                                       <=  sep / sqrt(d_z d_w / c + sep^2).
    """
    if c < 1.0:
        raise DegenerateInput("sandwich constant must satisfy c >= 1")
    if d_z <= 0 or d_w <= 0:
        raise DegenerateInput("boundary distances must be positive")
    if sep == 0:
        return 0.0, 0.0
    prod = d_z * d_w
    lower = sep / math.sqrt(c * prod + sep * sep)
    upper = sep / math.sqrt(prod / c + sep * sep)
    return lower, min(upper, 1.0)


# ---------------------------------------------------------------------------
# report container
# ---------------------------------------------------------------------------


@dataclass
class BoundReport:
    """Per-suite verification record."""

    suite: str
    samples: int
    violations: int
    worst_margin: float
    constants: dict = field(default_factory=dict)
    seed: int = 42
    rows: list = field(default_factory=list)
    headers: tuple = ()
    runtime_seconds: float | None = None
    notes: str = ""

    @property
    def passed(self) -> bool:
        return self.violations == 0 and all(math.isfinite(v) for v in self.constants.values())

    def to_json(self, include_runtime: bool = False) -> str:
        doc = {
            "schema": 1,
            "suite": self.suite,
            "samples": self.samples,
            "violations": self.violations,
            "worst_margin": self.worst_margin,
            "constants": dict(self.constants),
            "seed": self.seed,
            "passed": self.passed,
        }
        if self.notes:
            doc["notes"] = self.notes
        if include_runtime and self.runtime_seconds is not None:
            doc["runtime_seconds"] = self.runtime_seconds
        return _json_canonical(doc)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.headers if self.headers else ("value",))
        for row in self.rows:
            writer.writerow([_fmt(v) for v in row])
        return buf.getvalue()


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def sample_interior(domain, n, rng, d_floor=1e-6):
    """n interior sample points with boundary distance above d_floor, drawn
    by rejection from the proposal of the domain's kind: its `_proposal()`
    (see domains.PlanarDomain).  A kind without one (the half-plane) or any
    other object raises UnsupportedDomain.

    Each round draws one candidate per missing point, one at a time, so the
    draws and the generator's state afterwards are those of testing each
    candidate as it is drawn.  A Jordan domain tests a round's candidates
    with one `contains` and one `boundary_distance` call."""
    proposal = getattr(domain, "_proposal", None)
    if proposal is None:
        raise UnsupportedDomain(f"no sampler for {type(domain).__name__}")
    draw, boxed = proposal()
    pts = []
    while len(pts) < n:
        cands = [draw(rng) for _ in range(n - len(pts))]
        if isinstance(domain, JordanDomain):
            cands = np.array(cands)
            cands = cands[domain.contains(cands)]
            depth = domain.boundary_distance(cands, tol=1e-6)
            pts += [complex(z) for z, d in zip(cands, depth) if d > d_floor]
        else:
            pts += [z for z in cands
                    if (not boxed or domain.contains(z)) and domain.boundary_distance(z) > d_floor]
    return pts


def _sample_pairs(domain, n, rng, d_floor=1e-6, min_sep=0.0):
    """n pairs of interior points, dropping pairs closer than min_sep."""
    pts = sample_interior(domain, 2 * n, rng, d_floor=d_floor)
    return [(z, w) for z, w in zip(pts[:n], pts[n:]) if _sep(z, w) >= min_sep]


def _inward_point(domain, t, d):
    """The point at distance d from gamma(t) along the inward unit normal."""
    p = complex(domain.point(t))
    tang = complex(domain.tangent(t))
    return p + d * (1j * tang / abs(tang))


def _sep(z, w):
    if isinstance(z, complex):
        return abs(z - w)
    return float(np.linalg.norm(np.asarray(z) - np.asarray(w)))


# ---------------------------------------------------------------------------
# constant fitting
# ---------------------------------------------------------------------------


def fit_min_constant(margin_at, c_lo: float = 0.0) -> tuple:
    """Smallest c in [c_lo, c_hi] with zero violations, by bisection.

    margin_at(c) returns an array of margins; a violation is margin < -tol.
    Raises NoFiniteConstant when c_hi still violates.
    """
    c_hi, tol = 1e6, 1e-9

    def violations(c):
        m = np.asarray(margin_at(c))
        return int(np.sum(m < -tol)), float(np.min(m)) if m.size else 0.0

    v_hi, _ = violations(c_hi)
    if v_hi > 0:
        raise NoFiniteConstant(f"violations persist at c = {c_hi:g}")
    v_lo, _ = violations(c_lo)
    if v_lo == 0:
        return c_lo, violations(c_lo)[1]
    lo, hi = c_lo, c_hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if violations(mid)[0] == 0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-9 * max(1.0, hi):
            break
    return hi, violations(hi)[1]


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def experiment_sector_ratio(theta: float, xs) -> BoundReport:
    """Rows (theta, x, l(1, x), R(1, x), ratio) on the sector."""
    dom = Sector(theta)
    rows = []
    for x in xs:
        l = ds.lempert(dom, 1.0 + 0j, complex(x, 0.0)).value
        d1 = dom.boundary_distance(1.0 + 0j)
        dx = dom.boundary_distance(complex(x, 0.0))
        R = bound_prop1_R(abs(1.0 - x), d1, dx)
        rows.append((theta, x, l, R, l / R))
    ratios = [r[-1] for r in rows]
    trend = all(b <= a + 1e-9 for a, b in zip(ratios, ratios[1:]))
    return BoundReport(
        suite="remark-a", samples=len(rows), violations=0,
        worst_margin=min(ratios) - 0.0,
        constants={"final_ratio": ratios[-1], "limit_gap": abs(ratios[-1] - math.pi / 4)},
        rows=rows, headers=("theta", "x", "lempert", "R_bound", "ratio"),
        notes="monotone" if trend else "non-monotone",
    )


def experiment_slit_coefficient(ts) -> BoundReport:
    """Rows (t, c(-1, -t), -log d(-t), quotient) on the slit plane; the
    quotient is identically 1/4 along the exact route."""
    dom = SlitPlane()
    rows = []
    worst = math.inf
    for t in ts:
        c = ds.caratheodory(dom, -1.0 + 0j, complex(-t, 0.0)).value
        d = dom.boundary_distance(complex(-t, 0.0))
        quot = c / (-math.log(d))
        exact = 0.25 * math.log(1.0 / t)
        rows.append((t, c, -math.log(d), quot, abs(c - exact)))
        worst = min(worst, 0.26 - quot, quot - 0.24)
    return BoundReport(
        suite="remark-b", samples=len(rows),
        violations=sum(1 for r in rows if not 0.24 <= r[3] <= 0.26),
        worst_margin=worst,
        constants={"final_quotient": rows[-1][3], "pipeline_error": max(r[4] for r in rows)},
        rows=rows, headers=("t", "carath", "neg_log_d", "quotient", "exact_gap"),
    )


def experiment_ratio_c_over_l(depths) -> BoundReport:
    """Squeeze rows (d_w, c_disc(z, w), l_lens(z, w), ratio) with w = 1 - d_w
    and z = 1 - 10 d_w inside the lens Delta * D(1, 0.75), on a 512-point
    map clustered at 1; the ratio climbs to 1."""
    lens = lens_domain(0.75)
    tp = lens.corner_params[1] / 2.0      # the parameter of z = 1, between the corners
    params = lens.params(512, cluster_at=tp, min_gap=2e-5)
    m = riemann_map(lens, 0.85 + 0j, params=params)
    ws = [complex(1.0 - dw, 0.0) for dw in depths]
    zs = [complex(1.0 - 10.0 * dw, 0.0) for dw in depths]
    images = m.evaluate(np.array(zs + ws))
    n = len(ws)
    rows = []
    for dw, z, w, fz, fw in zip(depths, zs, ws, images[:n], images[n:]):
        c = ds.poincare_distance(z, w)
        l = ds.poincare_distance(complex(fz), complex(fw))
        rows.append((dw, c, l, c / l))
    ratios = [r[-1] for r in rows]
    tail = ratios[-5:]
    monotone = all(b >= a - 1e-9 for a, b in zip(tail, tail[1:]))
    viol = sum(1 for r in ratios if r > 1.0 + 1e-6)
    final_ok = ratios[-1] >= 0.99
    return BoundReport(
        suite="prop7", samples=len(rows),
        violations=viol + (0 if final_ok else 1) + (0 if monotone else 1),
        worst_margin=ratios[-1] - 0.99,
        constants={"final_ratio": ratios[-1]},
        rows=rows, headers=("d_w", "carath_disc", "lempert_lens", "ratio"),
        notes="monotone-tail" if monotone else "tail not monotone",
    )


def boundary_slope_regression(domain, z0, kind: str, depths) -> tuple:
    """Least-squares slope of s(z0, w_j) against -log d(w_j).

    kind is 'carath', 'lempert' or 'bergman' (the latter scaled by 1/sqrt 2).
    Returns (slope, intercept, max residual).
    """
    depths = np.asarray(list(depths), dtype=float)
    if len(depths) < 8:
        raise InsufficientSamples("slope regression needs at least 8 samples")
    ws, dvals = _approach_points(domain, depths)
    if kind in ("carath", "lempert"):
        # c = l on the charted domains that have approach points
        ys = [v.value for v in ds.chart_distances(domain, [z0] * len(ws), ws)]
    elif kind == "bergman":
        ys = [bg.bergman_distance(domain, z0, w).value / math.sqrt(2.0) for w in ws]
    else:
        raise UnsupportedDomain(f"unknown regression kind {kind!r}")
    xs = [-math.log(d) for d in dvals]
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = float(np.max(np.abs(np.polyval([slope, intercept], xs) - np.asarray(ys))))
    return float(slope), float(intercept), resid


def _approach_points(domain, depths):
    """Interior points at prescribed boundary depths along an inward normal."""
    if isinstance(domain, Disc):
        ws = [domain.center + (domain.radius - d) * (1.0 + 0j) for d in depths]
        return ws, list(depths)
    if isinstance(domain, JordanDomain):
        ws = [_inward_point(domain, 0.13, d) for d in depths]
        tols = np.minimum(1e-8, np.asarray(depths) * 1e-3)
        return ws, domain.boundary_distance(np.array(ws), tol=tols).tolist()
    raise UnsupportedDomain("approach points support Disc and JordanDomain")


def verify_prop5_product() -> BoundReport:
    """Fit the smallest c with m(z, w) >= 1 - c d(z) d(w) on A_2, for z real
    near the outer boundary and w near the inner one.

    The grid is deterministic: depth ladders of 8 for z and |w| times a
    uniform fan of 12 angles for w, rows in that order.  m is the
    series-mode Mobius value of the theta-product engine, whose self-tests
    pass on A_2, taken for all 768 points in one mobius_values pass; it
    agrees with the scalar mobius_value to 1e-15.
    """
    r = 2.0
    dom = Annulus(r)
    eng = ds._annulus_engine(r)
    zs = r - np.geomspace(2e-3, 0.3, 8)
    ws = 1.0 / r + np.geomspace(2e-3, 0.3, 8)
    angles = 2.0 * math.pi * np.arange(12) / 12
    w = ws[:, None] * np.exp(1j * angles)
    m = eng.mobius_values(zs[:, None, None], w)
    dz = np.array([dom.boundary_distance(z) for z in zs.tolist()])
    dw = np.array([dom.boundary_distance(v) for v in w.ravel().tolist()]).reshape(w.shape)
    c_fit = (1.0 - m) / (dz[:, None, None] * dw)
    grid = np.broadcast_arrays(zs[:, None, None], ws[:, None], angles, m, c_fit)
    rows = list(zip(*(g.ravel().tolist() for g in grid)))
    worst_c = float(np.max(c_fit))
    return BoundReport(
        suite="prop5", samples=len(rows), violations=0 if math.isfinite(worst_c) else 1,
        worst_margin=0.0, constants={"c": worst_c},
        rows=rows, headers=("z", "abs_w", "angle", "m", "c_fit"),
        notes="series-mode",
    )


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def _tally(margins):
    """(violations, worst margin) of a list of margins; a margin below 0 is
    a violation, and an empty list has worst margin inf."""
    return sum(1 for m in margins if m < 0), min(margins, default=math.inf)


def _suite_prop1(samples, seed):
    rng = np.random.default_rng(seed)
    tol = 1e-3
    domains = [Ball((0j, 0j), 1.0), Polydisc((0j, 0j), (1.0, 1.0))]
    margins = []
    per = max(samples // len(domains), 1)
    for dom in domains:
        for z, w in _sample_pairs(dom, per, rng, d_floor=5e-3, min_sep=1e-6):
            dz = dom.boundary_distance(z)
            dw = dom.boundary_distance(w)
            l = ds.lempert(dom, z, w).value
            lh = ds.hull_distance(0j, dz, complex(_sep(z, w), 0.0), dw)
            R = bound_prop1_R(_sep(z, w), dz, dw)
            cap = _sep(z, w) / min(dz, dw)
            margins.append(min(lh + tol - l, R + tol - lh, cap + tol - R))
    return BoundReport("prop1", len(margins), *_tally(margins))


def _suite_prop2(samples, seed):
    rng = np.random.default_rng(seed)
    tol = 1e-8
    domains = [Disc(0j, 1.0), Sector(0.7), SlitPlane(),
               Ball((0j, 0j), 1.0), Polydisc((0j, 0j), (1.0, 2.0))]
    margins = []
    per = max(samples // len(domains), 1)
    for dom in domains:
        for z, w in _sample_pairs(dom, per, rng, min_sep=1e-9):
            c = ds.caratheodory(dom, z, w).lo
            b = max(0.0, bound_ccvx_lower(dom.boundary_distance(z), dom.boundary_distance(w)))
            margins.append(c - b + tol)
    return BoundReport("prop2", len(margins), *_tally(margins))


def _suite_eq_ca(samples, seed):
    """Convex lower bound c >= max(0, (1/2) log(d_z/d_w)).

    The bound is attained in the radial near-boundary limit, so numeric-mode
    values (the hull pullback) get a slack scaled by their certified width.
    """
    rng = np.random.default_rng(seed)
    tol = 1e-8
    # each domain with the boundary-distance floor of its samples
    domains = [(Disc(0j, 1.0), 1e-6), (Ball((0j, 0j), 1.0), 1e-6),
               (Polydisc((0j, 0j), (1.0, 2.0)), 1e-6),
               (two_disc_hull(0j, 1.0, 2.5 + 0j, 0.7), 2e-2)]
    margins = []
    per = max(samples // len(domains), 1)
    for dom, floor in domains:
        pairs = _sample_pairs(dom, per, rng, d_floor=floor, min_sep=1e-9)
        if ds.chart(dom) is None:
            cvs = [ds.caratheodory(dom, z, w) for z, w in pairs]
        else:   # the disc and the hull: one pass through the chart
            cvs = ds.chart_distances(dom, [z for z, _ in pairs], [w for _, w in pairs])
        for (z, w), cv in zip(pairs, cvs):
            b = max(0.0, bound_convex_lower(dom.boundary_distance(z), dom.boundary_distance(w)))
            slack = tol + 3.0 * cv.width
            margins.append(cv.value - b + slack)
    return BoundReport("eq-ca", len(margins), *_tally(margins))


def _suite_eq_le(samples, seed, domain=None):
    if domain is None:
        domain = ellipse_domain(2.0, 1.0)
    rng = np.random.default_rng(seed)
    pairs = _sample_pairs(domain, samples, rng, d_floor=1e-3, min_sep=1e-6)
    zs, ws = [z for z, _ in pairs], [w for _, w in pairs]
    ls = ds.chart_distances(domain, zs, ws)
    depth = domain.boundary_distance(np.array(zs + ws)).tolist()
    vals = [l.value + 0.5 * math.log(dz * dw)
            for l, dz, dw in zip(ls, depth[:len(zs)], depth[len(zs):])]
    c = max(vals)
    return BoundReport("eq-le", len(vals), 0 if math.isfinite(c) else 1,
                       min(vals), constants={"c": c})


def _suite_prop4(samples, seed, domain=None):
    rows = []
    if domain is None:
        tol_disc = 1e-9
        dom = Disc(0j, 1.0)
        rng = np.random.default_rng(seed)
        viol = 0
        worst = math.inf
        for _ in range(samples):
            w = math.sqrt(rng.uniform(0, 1)) * np.exp(2j * math.pi * rng.uniform(0, 1)) * 0.999
            s = ds.caratheodory(dom, 0j, complex(w)).value
            resid = envelope_residual_pla(s, dom.boundary_distance(complex(w)))
            exact = 0.5 * math.log1p(abs(w))
            rows.append((abs(w), resid, exact))
            gap = abs(resid - exact)
            worst = min(worst, tol_disc - gap)
            if gap > tol_disc:
                viol += 1
        return BoundReport("prop4", samples, viol, worst,
                           constants={"c": max(abs(r[1]) for r in rows)},
                           rows=rows, headers=("abs_w", "residual", "exact"))
    # jordan domain: finite fitted envelope constant, stability via seeds
    rng = np.random.default_rng(seed)
    n_anchor = 6
    depths = np.geomspace(1e-3, 0.2, max(samples // n_anchor, 6))
    z0 = 0j if domain.contains(0j) else domain.anchor()
    ws = []
    for ti in (np.arange(n_anchor) + 0.5) / n_anchor:
        t = (ti + 0.02 * rng.uniform()) % 1.0
        ws += [_inward_point(domain, t, d) for d in depths]
    tols = np.minimum(1e-8, np.tile(depths, n_anchor) * 1e-3)
    dws = domain.boundary_distance(np.array(ws), tol=tols).tolist()
    cs = ds.chart_distances(domain, [z0] * len(ws), ws)
    resids = [envelope_residual_pla(c.value, dw) for c, dw in zip(cs, dws)]
    c = max(abs(v) for v in resids)
    return BoundReport("prop4", len(resids), 0 if math.isfinite(c) else 1,
                       min(resids), constants={"c": c})


def _suite_prop6(samples, seed, domain=None):
    """Two-sided sandwich fit.  The fitted c is the grid minimum, so the
    fresh-grid check runs at 1.1 c, inside the declared 10% seed-stability
    band; the fresh grid's own fit is reported for the stability ratio."""
    if domain is None:
        domain = Disc(0j, 1.0)

    def fit_on(grid):
        def margins(c):
            out = []
            for sep, dz, dw, mc, ml in grid:
                lo, hi = sandwich_gen(sep, dz, dw, c)
                out.append(mc - lo)
                out.append(hi - ml)
            return np.asarray(out)
        return fit_min_constant(margins, 1.0)

    data = _prop6_grid(domain, samples, np.random.default_rng(seed))
    c_fit, worst = fit_on(data)
    data2 = _prop6_grid(domain, samples, np.random.default_rng(seed + 101))
    c_fresh, _ = fit_on(data2)
    c_val = 1.1 * c_fit
    viol = 0
    for sep, dz, dw, mc, ml in data2:
        lo, hi = sandwich_gen(sep, dz, dw, c_val)
        if mc < lo - 1e-9 or ml > hi + 1e-9:
            viol += 1
    lc_gap = max(abs(math.atanh(ml) - math.atanh(mc)) for _, _, _, mc, ml in data2) \
        if isinstance(domain, Disc) else 0.0
    return BoundReport("prop6", len(data), viol, worst,
                       constants={"c": c_fit, "c_fresh": c_fresh,
                                  "disc_l_minus_c": lc_gap})


def _prop6_grid(domain, samples, rng):
    """Half random interior pairs, half a near-boundary depth ladder.

    The sandwich constant's supremum sits at the boundary; the ladder keeps
    independent seeds probing the same depth scales so fits stay stable.
    """
    n_rand = samples // 2
    pairs = _sample_pairs(domain, n_rand, rng, d_floor=2e-2)
    d_floor = 1e-4 if isinstance(domain, Disc) else 1e-3
    n_anchor = 8
    n_depth = max((samples - n_rand) // n_anchor, 4)
    depths = np.geomspace(d_floor, 0.2, n_depth)
    # pin the quarter points (curvature extremes on the catalog curves) and
    # jitter only the in-between anchors, so the fitted supremum is probed
    # at the same spots by every seed
    fixed = np.array([0.0, 0.25, 0.5, 0.75])
    loose = (np.arange(n_anchor - len(fixed)) + 0.5) / (n_anchor - len(fixed))
    for j, ti in enumerate(np.concatenate([fixed, loose])):
        t = ti if j < len(fixed) else (ti + 0.02 * rng.uniform()) % 1.0
        for d in depths:
            if isinstance(domain, Disc):
                th = 2 * math.pi * t
                w = domain.center + (domain.radius - d) * np.exp(1j * th)
                z = domain.center + (domain.radius - 6 * d) * np.exp(1j * (th + 0.08))
                zf = domain.center + (domain.radius - 6 * d) * np.exp(1j * (th + math.pi))
                pairs.append((complex(z), complex(w)))
                pairs.append((complex(zf), complex(w)))
            else:
                w = _inward_point(domain, t, d)
                pairs.append((_inward_point(domain, (t + 0.015) % 1.0, 6 * d), w))
                # far pair: both ends near the boundary on opposite sides,
                # where the global supremum of the constant is approached
                pairs.append((_inward_point(domain, (t + 0.5) % 1.0, 6 * d), w))
    pairs = [(z, w) for z, w in pairs if _sep(z, w) >= 1e-7]
    ends = [p for pair in pairs for p in pair]
    depth = (domain.boundary_distance(np.array(ends)).tolist()
             if isinstance(domain, JordanDomain) else [domain.boundary_distance(p) for p in ends])
    kept = [(z, w, dz, dw) for (z, w), dz, dw in zip(pairs, depth[0::2], depth[1::2])
            if dz > 0 and dw > 0]
    # c = l on a charted domain, so one batched evaluation serves both sides
    vals = ds.chart_distances(domain, [k[0] for k in kept], [k[1] for k in kept])
    data = []
    for (z, w, dz, dw), v in zip(kept, vals):
        m = math.tanh(v.value)
        data.append((_sep(z, w), dz, dw, m, m))
    return data


def _suite_comp(samples, seed):
    rng = np.random.default_rng(seed)
    tol = 1e-6
    disc = Disc(0j, 1.0)
    margins = []
    ratios = []
    for z, w in _sample_pairs(disc, samples, rng, min_sep=1e-9):
        k = ds.lempert(disc, z, w).value
        b = bg.bergman_distance(disc, z, w).value
        margins.append(4 * b - k + tol)
        if k > 1e-12:
            ratios.append(4 * b / k)
    ann = Annulus(2.0)
    for z, w in [(1.0 + 0j, 1.5 + 0j), (0.7j, -1.1 + 0.2j)]:
        k = ds.lempert(ann, z, w).value
        margins.append(4 * bg.bergman_distance(ann, z, w).hi - k + tol)
    return BoundReport("comp", samples + 2, *_tally(margins),
                       constants={"c1_disc": max(ratios)})


def _suite_annulus(samples, seed):
    rng = np.random.default_rng(seed)
    r = 2.0
    dom = Annulus(r)
    viol = 0
    worst = math.inf
    # covering vs Clairaut integral of kappa
    fieldk = ds.kobayashi_field(dom)
    sp_gap = 0.0
    for z, w in [(1.0 + 0j, 1.5 + 0j), (0.6 + 0j, 1.9j)]:
        sp = bg.shortest_path_length(fieldk, r, z, w).value
        k = annulus_kobayashi_distance(r, z, w)
        sp_gap = max(sp_gap, abs(sp - k))
    if sp_gap > 1e-9:
        viol += 1
    # reproducing property residual
    rep = bg_reproducing_residual(r, 1.2 + 0.4j, range(-5, 6))
    if rep > 1e-6:
        viol += 1
    # c <= k on random pairs; compare on both scales, since the atanh scale
    # amplifies tanh-value roundoff for large distances
    for z, w in _sample_pairs(dom, samples, rng, d_floor=5e-3, min_sep=1e-6):
        c = ds.caratheodory(dom, z, w).lo
        k = annulus_kobayashi_distance(r, z, w)
        worst = min(worst, k - c + 1e-8)
        if c > k + 1e-8 and math.tanh(c) > math.tanh(k) + 1e-12:
            viol += 1
    p5 = verify_prop5_product()
    return BoundReport("annulus", samples, viol, worst,
                       constants={"sp_gap": sp_gap, "reproducing_residual": rep,
                                  "prop5_c": p5.constants["c"]},
                       notes=p5.notes)


def _aliasing_angles(r: float, w: complex, n_max: int) -> int:
    """The angular count of the reproducing quadrature: the smallest power of
    two N with q^(N - n_max) <= 1e-17, q = max(|w| / r, 1 / (|w| r)).

    K(zeta, w) zeta^n on a circle is a Laurent series in e^(i theta) whose
    coefficients fall off as q^|k|; the trapezoidal rule with N angles is
    exact for every frequency but the multiples of N, so its first alias of
    order n lies N - |n| terms out."""
    q = max(abs(w) / r, 1.0 / (abs(w) * r))
    n_ang = 2
    while q ** (n_ang - n_max) > 1e-17:
        n_ang *= 2
    return n_ang


def _radial_nodes(r: float, n_max: int) -> int:
    """The radial node count of the reproducing quadrature: the smallest
    N > n_max with (2N / r)^(m - 1) / (m - 1)! * rho_B^(-2N) <= 1e-17,
    m = max(2 n_max - 1, 1) and rho_B = (r + 1) / (r - 1).

    The angular sum leaves order n the radial integrand rho^(2n+1) on
    [1/r, r], which an N-node Gauss-Legendre rule integrates exactly for
    0 <= n < N.  For n < 0 it has a pole of order m = 2|n| - 1 at rho = 0,
    on the Bernstein ellipse of parameter rho_B.  A simple pole's error
    falls like rho_B^(-2N) (Trefethen, SIAM Rev. 50, 2008); each of the
    m - 1 derivatives that raise its order brings a factor of 2N /
    sqrt(x0^2 - 1) at the pole x0, and relative to the integral the error
    is the expression above up to a factor below 60 on A_2 at 16 to 48
    nodes.  N = 25 on A_2 for orders up to 5; 16 nodes leave 3e-9 at order
    -5."""
    m = max(2 * n_max - 1, 1)
    log_rho = math.log((r + 1.0) / (r - 1.0))
    n = n_max + 1
    while ((m - 1) * math.log(2.0 * n / r) - math.lgamma(m) - 2.0 * n * log_rho
           > math.log(1e-17)):
        n += 1
    return n


def _gauss_legendre(n: int, a: float, b: float):
    """Nodes and weights of the n-point Gauss-Legendre rule on [a, b]:
    Newton's method on the three-term recurrence for P_n from Tricomi's
    initial nodes, weights 2 / ((1 - x^2) P_n'(x)^2) on [-1, 1].  With 25
    nodes it integrates rho^(2n+1), n = -5 .. 5, on [1/2, 2] to 1e-15;
    numpy's leggauss weights are off by up to 1e-13 at 24 and 25 nodes,
    which leaves 1e-14 there."""
    x = np.cos(math.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(6):      # Tricomi's nodes are within O(n^-2); Newton doubles the digits
        p0, p1 = np.ones(n), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / dp
    half = 0.5 * (b - a)
    return 0.5 * (a + b) + half * x, half * (2.0 / ((1.0 - x * x) * dp * dp))


def _reproducing_quadrature(r: float, w: complex, orders, rho, rw, n_ang: int) -> list:
    """Per-order quadratures of K(., w) * zeta^n over A_r on the radial
    nodes rho with weights rw times n_ang angles.  Each circle's trapezoid
    sum is numpy's; the radial sum, whose terms span the range of
    rho^(2n+1), is math.fsum's."""
    theta = 2.0 * math.pi * np.arange(n_ang) / n_ang
    zgrid = rho[:, None] * np.exp(1j * theta)[None, :]
    kern = bg.AnnulusKernel(r).pair(zgrid, w)
    dA = (rw * rho)[:, None] * (2.0 * math.pi / n_ang)
    vals = []
    for n in orders:
        rows = np.sum((zgrid ** n) * np.conj(kern) * dA, axis=1)
        vals.append(complex(math.fsum(rows.real.tolist()), math.fsum(rows.imag.tolist())))
    return vals


def bg_reproducing_residual(r: float, w: complex, orders) -> float:
    """Worst |quadrature(K(., w) * zeta^n) - w^n| over the given orders.

    The rule is one Gauss-Legendre panel on [1/r, r] of _radial_nodes
    nodes times the angles that _aliasing_angles sizes to the orders: on
    A_2 at w = 1.2+0.4i, 25 x 128 kernel points, where the residual is the
    kernel's rounding (~2e-15)."""
    orders = list(orders)
    n_max = max(abs(n) for n in orders)
    rho, rw = _gauss_legendre(_radial_nodes(r, n_max), 1.0 / r, r)
    vals = _reproducing_quadrature(r, w, orders, rho, rw, _aliasing_angles(r, w, n_max))
    worst = 0.0
    for val, n in zip(vals, orders):
        worst = max(worst, abs(val - w ** n))
    return worst


def _suite_remark_a(samples, seed):
    xs = np.geomspace(1e-2, 1e-6, samples)
    rep = experiment_sector_ratio(0.05, xs)
    gap = rep.constants["limit_gap"]
    rep.violations += 0 if gap <= 0.02 else 1
    return rep


def _suite_remark_b(samples, seed):
    ts = np.geomspace(1e-2, 1e-8, samples)
    rep = experiment_slit_coefficient(ts)
    if rep.constants["pipeline_error"] > 1e-6:
        rep.violations += 1
    # consistency with the lineally-convex lower bound along the rows
    dom = SlitPlane()
    for t, c, _, _, _ in rep.rows:
        b = bound_ccvx_lower(dom.boundary_distance(-1.0 + 0j), t)
        if c < b - 1e-8:
            rep.violations += 1
    return rep


def _suite_prop5(samples, seed):
    return verify_prop5_product()


def _suite_prop7(samples, seed):
    return experiment_ratio_c_over_l(depths=np.geomspace(3e-2, 1e-4, samples))


def _suite_slope(samples, seed, domain=None):
    reports = {}
    depths_disc = np.geomspace(1e-6, 1e-2, 20)
    for kind in ("carath", "lempert", "bergman"):
        s, _, _ = boundary_slope_regression(Disc(0j, 1.0), 0j, kind, depths_disc)
        reports[f"disc_{kind}"] = s
    ell = ellipse_domain(2.0, 1.0) if domain is None else domain
    depths_ell = np.geomspace(1e-3, 1e-1, 20)
    for kind in ("carath", "lempert", "bergman"):
        s, _, _ = boundary_slope_regression(ell, 0j, kind, depths_ell)
        reports[f"ellipse_{kind}"] = s
    viol = 0
    for k, v in reports.items():
        lo, hi = (0.49, 0.51) if k.startswith("disc") else (0.45, 0.55)
        if not lo <= v <= hi:
            viol += 1
    worst = min(min(v - 0.45, 0.55 - v) for v in reports.values())
    return BoundReport("boundary-slope", len(reports), viol, worst,
                       constants=reports,
                       rows=list(reports.items()), headers=("case", "slope"))


class Suite(NamedTuple):
    """A suite's contract: its function, the domain classes that may replace
    its default domain (none: it takes no domain), and its size: at least
    `floor` samples, or the `fixed` sample count of a suite that takes none."""

    fn: Callable
    domains: tuple = ()
    floor: int = 1
    fixed: int | None = None


SUITES = {
    "prop1": Suite(_suite_prop1),
    "prop2": Suite(_suite_prop2),
    "eq-ca": Suite(_suite_eq_ca),
    "eq-le": Suite(_suite_eq_le, (JordanDomain,)),
    "prop4": Suite(_suite_prop4, (JordanDomain,)),
    "prop5": Suite(_suite_prop5, fixed=768),                      # 8 x 8 x 12 grid
    "prop6": Suite(_suite_prop6, (Disc, JordanDomain)),
    "prop7": Suite(_suite_prop7, floor=8),
    "remark-a": Suite(_suite_remark_a, floor=5),
    "remark-b": Suite(_suite_remark_b, floor=5),
    "comp": Suite(_suite_comp),
    "annulus": Suite(_suite_annulus),
    "boundary-slope": Suite(_suite_slope, (JordanDomain,), fixed=6),   # 6 regressions
}


def run_suite(name: str, samples: int | None = None, seed: int = 42,
              domain=None) -> BoundReport:
    """Run one verification suite and return its report.

    A `domain` replaces the suite's default domain; it must be one of the
    classes SUITES lists for the suite, else UnsupportedDomain is raised.
    `samples` defaults to 1000; a suite with a fixed size raises
    DegenerateInput if given a count, and any other below its floor.  The
    report states the seed it ran with.
    """
    if name not in SUITES:
        raise UnsupportedDomain(f"unknown suite {name!r}")
    fn, kinds, floor, fixed = SUITES[name]
    if domain is not None and not isinstance(domain, kinds):
        accepted = ", ".join(k.__name__ for k in kinds) or "none"
        raise UnsupportedDomain(f"suite {name!r} cannot run on {type(domain).__name__} "
                                f"(accepted domains: {accepted})")
    if fixed is not None:
        if samples is not None:
            raise DegenerateInput(f"suite {name!r} has a fixed size of {fixed} samples "
                                  f"and takes no samples count")
    elif samples is None:
        samples = 1000
    elif samples < floor:
        raise DegenerateInput(f"suite {name!r} needs at least {floor} samples, got {samples}")
    t0 = time.perf_counter()
    rep = fn(samples, seed) if domain is None else fn(samples, seed, domain=domain)
    rep.seed = seed
    rep.runtime_seconds = time.perf_counter() - t0
    return rep
