"""Model domain catalog: planar shapes, Jordan curves, and C^n bodies.

Every domain is an immutable value object answering membership and
boundary-distance queries; boundary distance is exact on the closed-form
variants and certified to a user tolerance on Jordan curves.  The module
also builds the two-disc convex hulls used by the distance estimates.
"""

from __future__ import annotations

import cmath
import json
import math
import re
from dataclasses import dataclass
from functools import cached_property
from . import _np as np

from .errors import (
    DegenerateInput,
    DomainViolation,
    InvalidDomain,
    NonConvergence,
    SchemaError,
    UnsupportedDomain,
)

__all__ = [
    "PlanarDomain",
    "UnitDisc",
    "Disc",
    "HalfPlane",
    "Sector",
    "SlitPlane",
    "Annulus",
    "TwoDiscHull",
    "JordanDomain",
    "CnDomain",
    "Ball",
    "Polydisc",
    "two_disc_hull",
    "ellipse_domain",
    "lens_domain",
    "wobbly_domain",
    "domain_to_json",
    "domain_from_json",
]

TWO_PI = 2.0 * math.pi


def _clamp0(d: float, signed: bool) -> float:
    return d if signed else max(d, 0.0)


# ---------------------------------------------------------------------------
# hyperbolic distances of the two targets of the charts: the unit disc (the
# C^n closed forms take it too) and the upper half-plane
# ---------------------------------------------------------------------------


def _atanh_stable(rho: float) -> float:
    if rho >= 1.0:
        raise DomainViolation("pseudodistance argument reached 1")
    return 0.5 * (math.log1p(rho) - math.log1p(-rho))


def poincare_distance(z: complex, w: complex) -> float:
    """Hyperbolic distance tanh^{-1} |(z - w) / (1 - conj(z) w)| on the unit disc."""
    z, w = complex(z), complex(w)
    if abs(z) >= 1.0 or abs(w) >= 1.0:
        raise DomainViolation("poincare distance needs |z|, |w| < 1")
    rho = abs((z - w) / (1.0 - z.conjugate() * w))
    return _atanh_stable(min(rho, math.nextafter(1.0, 0.0)))


def halfplane_hyperbolic_distance(a: complex, b: complex) -> float:
    """Hyperbolic distance on the upper half-plane, stable for points at
    hugely different scales: log((|a - conj b| + |a - b|) / 2) evaluated in
    the log domain against (1/2) log(Im a Im b)."""
    a, b = complex(a), complex(b)
    if a.imag <= 0 or b.imag <= 0:
        raise DomainViolation("half-plane distance needs Im > 0")
    s = abs(a - b.conjugate()) + abs(a - b)
    return math.log(s / 2.0) - 0.5 * (math.log(a.imag) + math.log(b.imag))


# ---------------------------------------------------------------------------
# planar variants
# ---------------------------------------------------------------------------


class PlanarDomain:
    """Base class for planar domains (points are python complex numbers).

    Each kind is one class that holds all it needs: its geometry
    (`boundary_distance`, `contains`); `_chart`, its conformal chart (see
    `distances.chart`; the annulus, which has none, sets it to None);
    `to_json()`, its JSON description, which `domain_from_json` reads
    back; and, where the samplers draw from it, `_proposal()`: a draw(rng)
    giving one candidate point per call, and whether a candidate must pass
    `contains` before its boundary distance is taken (see
    `bounds.sample_interior`).

    The invariants (`caratheodory`, `lempert`, `kobayashi_metric`,
    `kobayashi_field`, `cn_model_distance`, `bergman_kernel`,
    `bergman_metric`, `bergman_distance`) pull back through `_chart` where
    a kind has one: the disc, half-plane, sector, slit plane, two-disc
    hull and Jordan domain.  There the chart's target, the unit disc or
    the upper half-plane, answers in its own coordinates: its
    `_target_distance` of two images and its `_target_q` at one, which
    `conformal._Chart` asks (the sector's chart answers itself where its
    images leave the floats).  A kind without a chart answers through
    methods of its own, found by name (see `distances._dispatch`): the
    annulus has `_caratheodory`, `_lempert`, `_kobayashi`,
    `_bergman_kernel`, `_bergman_metric` and `_bergman_distance`.  An
    invariant a kind has no route for raises UnsupportedDomain.
    """

    dim = 1

    def boundary_distance(self, z: complex, signed: bool = False) -> float:
        raise NotImplementedError

    def contains(self, z: complex) -> bool:
        return self.boundary_distance(z, signed=True) > 0.0

    def __getstate__(self):
        """The instance state without the cached chart `_chart` and a hull's
        `_jordan`: their closures do not pickle, and both are rebuilt on use."""
        state = dict(self.__dict__)
        state.pop("_chart", None)
        state.pop("_jordan", None)
        return state


@dataclass(frozen=True)
class Disc(PlanarDomain):
    center: complex = 0j
    radius: float = 1.0

    def __post_init__(self):
        if not self.radius > 0:
            raise DegenerateInput("disc radius must be positive")

    def boundary_distance(self, z, signed=False):
        return _clamp0(self.radius - abs(z - self.center), signed)

    @cached_property
    def _chart(self):
        from .conformal import disc_scale_map

        return disc_scale_map(self.center, self.radius)

    # the unit disc's answers as a chart's target (every chart onto a disc
    # maps onto the unit disc, so they read its coordinates): the distance
    # of two images, and q = 1 - |f|^2, so that its Kobayashi density at an
    # image f is 1 / q
    _target_distance = staticmethod(poincare_distance)
    _target_q = staticmethod(lambda f: 1.0 - abs(f) ** 2)

    def to_json(self):
        if self.center == 0 and self.radius == 1.0:
            return {"kind": "disc"}
        return {"kind": "disc", "center": _fmt_complex(self.center), "radius": self.radius}

    def _proposal(self):
        return lambda rng: complex(_disc_draw(rng, self.center, self.radius)), False


def UnitDisc() -> Disc:
    return Disc(0j, 1.0)


@dataclass(frozen=True)
class HalfPlane(PlanarDomain):
    """Half-plane {Re(conj(normal) * z) > 0} through the origin."""

    normal: complex = 1.0 + 0j  # unit inward normal

    def __post_init__(self):
        n = abs(self.normal)
        if not math.isclose(n, 1.0, rel_tol=0, abs_tol=1e-12):
            raise DegenerateInput("half-plane normal must be a unit vector")

    def boundary_distance(self, z, signed=False):
        return _clamp0((self.normal.conjugate() * z).real, signed)

    @cached_property
    def _chart(self):
        from .conformal import half_plane_map

        return half_plane_map(self.normal)

    # the upper half-plane's answers as a chart's target (every chart onto a
    # half-plane maps onto HalfPlane(1j), so they read its coordinates): the
    # distance of two images, accurate at hugely different scales, and
    # q = 2 Im f, so that its Kobayashi density at an image f is 1 / q
    _target_distance = staticmethod(halfplane_hyperbolic_distance)
    _target_q = staticmethod(lambda f: 2.0 * f.imag)

    def to_json(self):
        return {"kind": "halfplane", "normal": _fmt_complex(self.normal)}


@dataclass(frozen=True)
class Sector(PlanarDomain):
    """Sector {z != 0 : |arg z| < theta} with half-angle theta in (0, pi)."""

    theta: float

    def __post_init__(self):
        if not 0.0 < self.theta < math.pi:
            raise DegenerateInput("sector half-angle must lie in (0, pi)")

    def boundary_distance(self, z, signed=False):
        if z == 0:
            return 0.0
        r = abs(z)
        gap = self.theta - abs(cmath.phase(z))
        if gap <= 0.0:
            # outside: distance to the nearer bounding ray (or to the origin)
            d = -r * math.sin(min(-gap, math.pi / 2.0))
            return d if signed else 0.0
        return r * math.sin(min(gap, math.pi / 2.0))

    @cached_property
    def _chart(self):
        from .conformal import _SectorChart

        return _SectorChart(self.theta)

    def to_json(self):
        return {"kind": "sector", "theta": self.theta}

    def _proposal(self):
        th = self.theta
        return lambda rng: complex(rng.uniform(0.05, 3.0) *
                                   np.exp(1j * rng.uniform(-th * 0.98, th * 0.98))), False


@dataclass(frozen=True)
class SlitPlane(PlanarDomain):
    """Complement of the closed nonnegative real ray."""

    def boundary_distance(self, z, signed=False):
        x, y = z.real, z.imag
        if x <= 0.0:
            return abs(z)
        return abs(y)

    def contains(self, z):
        return not (z.imag == 0.0 and z.real >= 0.0)

    @cached_property
    def _chart(self):
        from .conformal import slit_sqrt_map

        return slit_sqrt_map()

    def to_json(self):
        return {"kind": "slitplane"}

    def _proposal(self):
        return lambda rng: complex(rng.uniform(0.05, 3.0) *
                                   np.exp(1j * rng.uniform(0.02, 2 * math.pi - 0.02))), False


def _require_modulus(r: float) -> None:
    """DegenerateInput unless the annulus modulus r is a float in (1, inf):
    every series on A_r runs over the nome 1 / r^2, and at r = inf none
    ends."""
    if not 1.0 < r < math.inf:
        raise DegenerateInput("annulus modulus must satisfy 1 < r < inf")


@dataclass(frozen=True)
class Annulus(PlanarDomain):
    """Concentric annulus {1/r < |z| < r}, 1 < r < inf."""

    r: float

    def __post_init__(self):
        _require_modulus(self.r)

    def boundary_distance(self, z, signed=False):
        a = abs(z)
        return _clamp0(min(self.r - a, a - 1.0 / self.r), signed)

    def to_json(self):
        return {"kind": "annulus", "r": self.r}

    # the routes of the invariants on A_r, which has no chart: the theta
    # products, the covering strip and the Weierstrass kernel series.  Each
    # imports its module on the call, by absolute name: a relative import
    # resolves the package through importlib on every call (~4 us cold)

    _chart = None

    def _caratheodory(self, z, w):
        import invdist.distances as ds

        return ds.annulus_caratheodory(self.r, z, w)

    def _lempert(self, z, w):
        import invdist.annulus as ann
        import invdist.distances as ds

        return ds.CertifiedValue.exact(ann.annulus_kobayashi_distance(self.r, z, w), "covering")

    def _kobayashi(self, z, X):
        import invdist.annulus as ann

        return ann.annulus_kobayashi_metric(self.r, z, X)

    def _bergman_kernel(self, z):
        import invdist.annulus as ann
        import invdist.bergman as bg

        return ann._pointwise(self.r, z, lambda z, xp: bg.AnnulusKernel(self.r).diagonal(z))

    def _bergman_metric(self, z, X):
        import invdist.annulus as ann
        import invdist.bergman as bg

        kernel = bg.AnnulusKernel(self.r)
        return ann._pointwise(self.r, z, lambda z, xp: abs(X) * xp.sqrt(kernel.log_diag_hessian(z)))

    def _bergman_distance(self, z, w):
        import invdist.annulus as ann
        import invdist.bergman as bg

        ann._check_in(self.r, z)
        ann._check_in(self.r, w)
        return bg.shortest_path_length(bg.bergman_field(self), self.r, z, w)

    def _proposal(self):
        r = self.r
        return lambda rng: complex(rng.uniform(1 / r + 5e-3, r - 5e-3) *
                                   np.exp(2j * math.pi * rng.uniform(0, 1))), False


def _require_hull(z, d_z, w, d_w) -> None:
    """DegenerateInput unless both disc centres are finite and both radii
    lie in (0, inf)."""
    if not (cmath.isfinite(z) and cmath.isfinite(w)):
        raise DegenerateInput("hull disc centres must be finite")
    if not (0.0 < d_z < math.inf and 0.0 < d_w < math.inf):
        raise DegenerateInput("hull disc radii must lie in (0, inf)")


def _arcs_and_segments(pieces):
    """A closed boundary made of the pieces in turn, each run through in the
    same share of [0, 1) as of the boundary's length: arcs
    ("arc", center, radius, start, sweep), of length radius * sweep, and
    segments ("segment", a, b, length).

    Returns (curve, dcurve, shares, bounds): the curve and its derivative
    in t (taken mod 1, a point or an array; NaN at a NaN t), each piece's
    share of the length, and the parameters 0, ..., 1 where the pieces
    start and end.
    """
    lengths = [p[2] * p[4] if p[0] == "arc" else p[3] for p in pieces]
    total = sum(lengths)
    shares = [length / total for length in lengths]
    bounds = [0.0]
    for share in shares:
        bounds.append(bounds[-1] + share)
    bounds[-1] = 1.0
    spans = list(zip(pieces, bounds[:-1], bounds[1:]))
    last = len(spans) - 1

    def evaluate(t, deriv):
        t = np.asarray(t, dtype=float) % 1.0
        out = np.full(t.shape, complex(math.nan, math.nan))   # a NaN t is on no piece
        for k, (piece, a, b) in enumerate(spans):
            m = t < b if k == 0 else t >= a if k == last else (t >= a) & (t < b)
            if piece[0] == "arc":
                _, c, r, start, sweep = piece
                e = np.exp(1j * (start + (t[m] - a) / (b - a) * sweep))
                out[m] = 1j * r * e * sweep / (b - a) if deriv else c + r * e
            else:
                _, p, q, _ = piece
                out[m] = (q - p) / (b - a) if deriv else p + (t[m] - a) / (b - a) * (q - p)
        return out if out.shape else complex(out)

    return (lambda t: evaluate(t, False)), (lambda t: evaluate(t, True)), shares, bounds


@dataclass(frozen=True)
class TwoDiscHull(PlanarDomain):
    """Convex hull of two discs D(z, r_z) and D(w, r_w); neither contains
    the other.  Its boundary is four pieces: the arc around z, the lower
    tangent segment, the arc around w and the upper tangent segment."""

    z: complex
    r_z: float
    w: complex
    r_w: float

    def __post_init__(self):
        _require_hull(self.z, self.r_z, self.w, self.r_w)
        if abs(self.z - self.w) <= abs(self.r_z - self.r_w):
            raise DegenerateInput("one disc contains the other; hull degenerates to a disc")

    @property
    def _geometry(self):
        delta = self.w - self.z
        length = abs(delta)
        mu = (self.r_z - self.r_w) / length  # cos of tangency normal offset
        alpha = math.acos(mu)
        axis = cmath.phase(delta)
        return delta, length, mu, alpha, axis

    def _pieces(self):
        """The boundary's pieces, positively oriented from the z end of the
        upper segment, for `_arcs_and_segments`."""
        _, length, _, alpha, axis = self._geometry
        n_plus = cmath.exp(1j * (axis + alpha))
        n_minus = cmath.exp(1j * (axis - alpha))
        seg_len = math.sqrt(length * length - (self.r_z - self.r_w) ** 2)
        return [("arc", self.z, self.r_z, axis + alpha, TWO_PI - 2 * alpha),
                ("segment", self.z + self.r_z * n_minus, self.w + self.r_w * n_minus, seg_len),
                ("arc", self.w, self.r_w, axis - alpha, 2 * alpha),
                ("segment", self.w + self.r_w * n_plus, self.z + self.r_z * n_plus, seg_len)]

    def boundary_distance(self, z, signed=False):
        _, length, mu, _, axis = self._geometry
        (_, lo_z, lo_w, _), (_, up_w, up_z, _) = self._pieces()[1::2]
        # each from its z end: the distance's rounding depends on the direction
        cands = [_segment_distance(z, up_z, up_w), _segment_distance(z, lo_z, lo_w)]
        u = z - self.z
        if u != 0 and math.cos(cmath.phase(u) - axis) <= mu:
            cands.append(abs(self.r_z - abs(u)))
        v = z - self.w
        if v != 0 and math.cos(cmath.phase(v) - axis) >= mu:
            cands.append(abs(self.r_w - abs(v)))
        d = min(cands)
        if not self.contains(z):
            d = -d
        return _clamp0(d, signed)

    def contains(self, z):
        # hull = union of the interpolated discs D((1-t) z + t w, (1-t) r_z + t r_w)
        delta, length, mu, _, _ = self._geometry
        u = (z - self.z) * delta.conjugate() / length
        s, p = u.real, u.imag
        g = mu * abs(p) / math.sqrt(1.0 - mu * mu) if mu != 0 else 0.0
        t = min(max((s - g) / length, 0.0), 1.0)
        gap = math.hypot(s - t * length, p) - ((1.0 - t) * self.r_z + t * self.r_w)
        return gap < 0.0

    def parametrize(self):
        """The positively oriented boundary (curve, dcurve) of `_pieces`,
        each piece run through in its share of the length."""
        curve, dcurve, _, _ = _arcs_and_segments(self._pieces())
        return curve, dcurve

    def param_grid(self, n: int = 512) -> np.ndarray:
        """Boundary parameters: each piece gets its share of n, but at least
        48 per arc and 16 per segment, so the total is not n; the nodes
        cluster toward the arc/segment junctions, where the curvature
        jumps."""
        _, _, shares, bounds = _arcs_and_segments(self._pieces())
        minima = [48, 16, 48, 16]
        counts = [max(int(round(share * n)), mn) for share, mn in zip(shares, minima)]
        pieces = []
        s = 2.0  # tanh grading strength; clusters both piece ends
        for a, b, c in zip(bounds[:-1], bounds[1:], counts):
            u = (np.arange(c) + 0.5) / c
            g = 0.5 * (np.tanh(s * (2.0 * u - 1.0)) / math.tanh(s) + 1.0)
            pieces.append(a + (b - a) * g)
        return np.concatenate(pieces)

    def as_jordan(self) -> "JordanDomain":
        cached = getattr(self, "_jordan", None)
        if cached is None:
            curve, dcurve = self.parametrize()
            cached = JordanDomain(curve, dcurve, name="two-disc-hull", check_simple=False)
            cached.param_grid_override = self.param_grid
            object.__setattr__(self, "_jordan", cached)
        return cached

    @property
    def _chart(self):
        return self.as_jordan()._chart

    def to_json(self):
        return {"kind": "hull", "z": _fmt_complex(self.z), "d_z": self.r_z,
                "w": _fmt_complex(self.w), "d_w": self.r_w}

    def _proposal(self):
        return _box_draw(min(self.z.real - self.r_z, self.w.real - self.r_w),
                         max(self.z.real + self.r_z, self.w.real + self.r_w),
                         min(self.z.imag - self.r_z, self.w.imag - self.r_w),
                         max(self.z.imag + self.r_z, self.w.imag + self.r_w))


def _disc_draw(rng, center, radius):
    """A uniform point of the disc D(center, 0.998 radius)."""
    return center + radius * math.sqrt(rng.uniform(0, 1)) * \
        np.exp(2j * math.pi * rng.uniform(0, 1)) * (1 - 2e-3)


def _box_draw(lo, hi, lo_i, hi_i):
    """The proposal of a uniform point of the box [lo, hi] x [lo_i, hi_i],
    which must pass `contains`."""
    return lambda rng: complex(rng.uniform(lo, hi), rng.uniform(lo_i, hi_i)), True


def _segment_distance(q: complex, a: complex, b: complex) -> float:
    u = b - a
    t = ((q - a) * u.conjugate()).real / abs(u) ** 2
    t = min(max(t, 0.0), 1.0)
    return abs(q - (a + t * u))


# complex entries in one (points x samples) array of the batched Jordan
# geometry, so a batch's working set does not grow with its size
_BATCH_ELEMS = 1 << 13

# initial parameter intervals of the boundary-distance branch and bound
_BB_NODES = 256


def _winding(pts, zs):
    """The winding number of the closed polyline pts about each point of zs,
    and each point's distance to the nearest vertex.  The (points x n)
    angles are summed along the contiguous axis, so each row adds up as a
    lone point's would."""
    wind = np.empty(zs.size)
    near = np.empty(zs.size)
    rows = max(1, _BATCH_ELEMS // len(pts))
    for lo in range(0, zs.size, rows):
        rel = pts[None, :] - zs[lo:lo + rows, None]
        near[lo:lo + rows] = np.abs(rel).min(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):   # a point on a vertex
            ang = np.angle(np.roll(rel, -1, axis=1) / rel)
        wind[lo:lo + rows] = ang.sum(axis=1) / TWO_PI
    return wind, near


def _nearest_param(curve, t0, w, h):
    """Parameter in [t0 - h, t0 + h] (mod 1) of the curve point nearest w,
    by ternary search."""
    lo, hi = t0 - h, t0 + h
    for _ in range(60):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if abs(complex(curve(m1 % 1.0)) - w) < abs(complex(curve(m2 % 1.0)) - w):
            hi = m2
        else:
            lo = m1
    return ((lo + hi) / 2) % 1.0


def two_disc_hull(z: complex, d_z: float, w: complex, d_w: float) -> PlanarDomain:
    """Convex hull of D(z, d_z) and D(w, d_w) in the plane of z and w.

    Degenerates to the larger disc when one disc contains the other.
    """
    _require_hull(z, d_z, w, d_w)
    if abs(z - w) <= abs(d_z - d_w):
        return Disc(z, d_z) if d_z >= d_w else Disc(w, d_w)
    return TwoDiscHull(z, d_z, w, d_w)


# ---------------------------------------------------------------------------
# Jordan domains
# ---------------------------------------------------------------------------


class JordanDomain(PlanarDomain):
    """Domain bounded by a closed simple curve gamma: [0, 1] -> C, given
    with its derivative dcurve.

    The parametrization is normalized at construction to be positively
    oriented.  Bounds on |gamma'| and |gamma''| from 1024 samples of dcurve,
    with a 1.5 safety factor, certify the adaptive boundary-distance search
    and the tangent test of `contains`.  `json_doc` is the JSON description
    of a catalog curve, which `domain_to_json` writes back; other curves
    have none and do not serialize.
    """

    def __init__(self, curve, dcurve, *, name="jordan", check_simple=True,
                 corner_params=(), json_doc=None):
        self._raw_curve = curve
        self._raw_dcurve = dcurve
        self.name = name
        self.json_doc = json_doc
        self.corner_params = tuple(float(c) % 1.0 for c in corner_params)
        self._map_cache: dict = {}

        ts = np.linspace(0.0, 1.0, 1024, endpoint=False)
        pts = np.asarray(curve(ts), dtype=complex)
        if abs(complex(curve(0.0)) - complex(curve(1.0))) > 1e-9 * (np.abs(pts).max() + 1):
            raise InvalidDomain("boundary curve is not closed")
        area2 = float(np.sum((pts.real * np.roll(pts.imag, -1) - np.roll(pts.real, -1) * pts.imag)))
        self._flip = area2 < 0.0
        if check_simple and _polyline_self_intersects(pts if not self._flip else pts[::-1]):
            raise InvalidDomain("sampled boundary self-intersects")
        dv = np.asarray(dcurve(ts), dtype=complex)
        self.deriv_bound = 1.5 * float(np.abs(dv).max())
        # sampled curvature bound certifies the tangent-segment distance bound;
        # samples straddling declared corners are excluded (handled separately)
        dd = np.abs(np.roll(dv, -1) - np.roll(dv, 1)) * (len(ts) / 2.0)
        keep = np.ones(len(ts), dtype=bool)
        for c in self.corner_params:
            keep &= np.minimum(np.abs(ts - c), 1.0 - np.abs(ts - c)) > 2.5 / len(ts)
        self.second_deriv_bound = 1.5 * float(dd[keep].max()) + 1e-9
        self._samples = pts if not self._flip else np.roll(pts[::-1], 1)

    def point(self, t):
        t = np.asarray(t, dtype=float)
        s = (1.0 - t) % 1.0 if self._flip else t % 1.0
        out = np.asarray(self._raw_curve(s), dtype=complex)
        return out if out.shape else complex(out)

    def tangent(self, t):
        t = np.asarray(t, dtype=float)
        s = (1.0 - t) % 1.0 if self._flip else t % 1.0
        out = np.asarray(self._raw_dcurve(s), dtype=complex)
        if self._flip:
            out = -out
        return out if out.shape else complex(out)

    def params(self, n):
        """The Riemann map's boundary grid: n uniform parameters, or a hull's
        own `param_grid(n)` (its `param_grid_override`)."""
        override = getattr(self, "param_grid_override", None)
        if override is not None:
            return override(n)
        return np.linspace(0.0, 1.0, n, endpoint=False)

    def contains(self, z):
        """Winding number of the sampled polyline (512, 1024, ... points,
        until two resolutions agree); within the polyline's sag of the curve
        the side of the tangent at the nearest curve point decides.

        z is a point (answer: a bool) or an array of points (a bool array
        of its shape); a point is a batch of one.  Each resolution runs for
        every point whose winding number has not settled yet.
        """
        zs = np.asarray(z, dtype=complex)
        flat = zs.reshape(-1)
        inside = np.zeros(flat.shape, dtype=bool)
        todo = np.arange(flat.size)     # points still unresolved
        last = np.full(flat.size, np.nan)  # their winding at the previous resolution
        n = 512
        for _ in range(6):
            if not todo.size:
                break
            ts = np.linspace(0.0, 1.0, n, endpoint=False)
            pts = self.point(ts)
            wind, near = _winding(pts, flat[todo])
            k = np.rint(wind)
            off = near < 1e-14          # on the polyline: outside
            settled = ~off & (np.abs(wind - k) < 0.25) & (last == k)
            if settled.any():
                sel = todo[settled]
                inside[sel] = self._tangent_side(flat[sel], ts, pts, near[settled],
                                                 k[settled] == 1)
            keep = ~(off | settled)
            todo, last = todo[keep], k[keep]
            n *= 2
        if todo.size:
            raise NonConvergence("winding number did not stabilize")
        return bool(inside[0]) if zs.ndim == 0 else inside.reshape(zs.shape)

    def _tangent_side(self, zs, ts, pts, near, winding_inside):
        """Membership of the points zs given the polyline's winding answers.

        On a parameter step dt the curve stays within the sag
        M2 dt^2 / 8 of its chord, so farther from the polyline the winding
        answer is the curve's.  Closer, z lies inside when it is on the
        left of the tangent at the nearest curve point, except within one
        step of a declared corner, where the winding answer stands.
        """
        dt = ts[1]
        sag = self.second_deriv_bound * dt * dt / 8.0
        out = winding_inside.copy()
        # a chord is at most deriv_bound * dt long, so its points lie at
        # least near - deriv_bound * dt / 2 from z
        close = np.flatnonzero(~(near - 0.5 * self.deriv_bound * dt > sag))
        rows = max(1, _BATCH_ELEMS // len(pts))
        for lo in range(0, close.size, rows):
            idx = close[lo:lo + rows]
            rel = pts[None, :] - zs[idx, None]
            chord = np.roll(rel, -1, axis=1) - rel
            s = np.clip(-(rel * chord.conj()).real / (np.abs(chord) ** 2 + 1e-300), 0.0, 1.0)
            dist = np.abs(rel + s * chord)
            for row, (j, i) in enumerate(zip(idx, np.argmin(dist, axis=1))):
                if dist[row, i] > sag:
                    continue
                tm = ts[i] + 0.5 * dt
                if any(abs((tm - c + 0.5) % 1.0 - 0.5) <= dt for c in self.corner_params):
                    continue
                z = complex(zs[j])
                t = _nearest_param(self.point, tm, z, dt)
                p = complex(self.point(t))
                out[j] = ((z - p) * complex(self.tangent(t)).conjugate()).imag > 0.0
        return out

    def boundary_distance(self, z, signed=False, tol=1e-8):
        """Distance from z to the boundary curve, certified within tol.

        Branch and bound over parameter intervals.  On an interval of half
        width h around t the curve stays within M2 * h^2 / 2 of its tangent
        segment, so the point-to-segment distance minus that correction is a
        certified lower bound for the distance on the interval.  More than
        2e6 curve evaluations for one point raise NonConvergence.

        z is a point (answer: a float) or an array of points (a float array
        of its shape), tol a number or an array that broadcasts against z;
        a point is a batch of one.
        """
        zs = np.asarray(z, dtype=complex)
        flat = zs.reshape(-1)
        tols = np.broadcast_to(np.asarray(tol, dtype=float), zs.shape).reshape(-1)
        d = np.empty(flat.shape)
        rows = _BATCH_ELEMS // _BB_NODES
        for lo in range(0, flat.size, rows):
            d[lo:lo + rows] = self._curve_distance(flat[lo:lo + rows], tols[lo:lo + rows])
        d = np.where(self.contains(flat), d, -d if signed else 0.0)
        return float(d[0]) if zs.ndim == 0 else d.reshape(zs.shape)

    def _curve_distance(self, zs, tols):
        """The certified curve distance of each point of zs (see
        boundary_distance).  All points advance one interval halving per
        level; a point leaves once none of its intervals can beat its best
        distance by more than its tol."""
        m2 = self.second_deriv_bound
        corners = np.asarray(self.corner_params)
        half = 0.5 / _BB_NODES
        tc = np.tile(np.linspace(0.0, 1.0, _BB_NODES, endpoint=False) + half, zs.size)
        owner = np.repeat(np.arange(zs.size), _BB_NODES)
        best = np.full(zs.size, np.inf)
        evals = np.full(zs.size, _BB_NODES)
        for _ in range(64):
            zo = zs[owner]
            a = self.point(tc)
            u = self.tangent(tc)
            s = np.clip(((zo - a) * np.conj(u)).real / (np.abs(u) ** 2 + 1e-300), -half, half)
            d_mid = np.abs(a - zo)
            lower = np.abs(zo - a - s * u) - 0.5 * m2 * half * half
            if corners.size:
                # intervals straddling a corner only support the Lipschitz bound
                straddle = np.any(np.abs((tc[:, None] - corners + 0.5) % 1.0 - 0.5) <= half,
                                  axis=1)
                lower = np.where(straddle, d_mid - self.deriv_bound * half, lower)
            np.minimum.at(best, owner, d_mid)
            active = lower < (best - tols)[owner]
            if not active.any() or half < 1e-14:
                break
            half /= 2.0
            ta, owner = tc[active], owner[active]
            tc = np.concatenate([ta - half, ta + half]) % 1.0
            evals += 2 * np.bincount(owner, minlength=zs.size)
            owner = np.concatenate([owner, owner])
            if evals.max() > 2_000_000:
                raise NonConvergence("boundary-distance refinement exceeded node cap")
        else:
            raise NonConvergence("boundary-distance refinement did not certify")
        return best

    def anchor(self) -> complex:
        """A fixed interior point (cached); used to key shared conformal charts."""
        cached = getattr(self, "_anchor", None)
        if cached is None:
            pts = self._samples
            cached = complex(pts.mean())
            if not self.contains(cached):
                interior = None
                for s in (0.5, 0.25, 0.75):
                    cand = complex(pts[0] * (1 - s) + pts.mean() * s)
                    if self.contains(cand):
                        interior = cand
                        break
                if interior is None:
                    raise InvalidDomain("could not locate an interior anchor")
                cached = interior
            self._anchor = cached
        return cached

    @property
    def _chart(self):
        """The shared Riemann map normalized at the anchor; `_map_cache`
        keeps it."""
        from .conformal import riemann_map

        return riemann_map(self, self.anchor())

    def to_json(self):
        if self.json_doc is None:
            raise UnsupportedDomain("only the catalog Jordan curves serialize")
        return dict(self.json_doc)

    def __reduce_ex__(self, protocol):
        """A catalog curve pickles and copies as its JSON description, since
        its curve closures do not pickle; its maps are left behind."""
        if self.json_doc is None:
            return super().__reduce_ex__(protocol)
        return domain_from_json, (self.to_json(),)

    def _proposal(self):
        samples = np.asarray(self.point(np.arange(256) / 256.0), dtype=complex)
        return _box_draw(samples.real.min(), samples.real.max(),
                         samples.imag.min(), samples.imag.max())


def _polyline_self_intersects(pts: np.ndarray) -> bool:
    """Whether two segments of the closed polyline pts that are not
    neighbours cross.  Every pair whose bounding boxes meet is tested, a
    block of segments against the later ones at a time: the crossing test
    is symmetric, so each pair is tested once."""
    n = len(pts)
    a, b = pts, np.roll(pts, -1)
    x0, x1 = np.minimum(a.real, b.real), np.maximum(a.real, b.real)
    y0, y1 = np.minimum(a.imag, b.imag), np.maximum(a.imag, b.imag)
    js = np.arange(n)
    rows = max(1, _BATCH_ELEMS // n)
    for lo in range(0, n, rows):
        i, j = js[lo:lo + rows, None], js[lo:]
        meet = ((x0[i] <= x1[lo:]) & (x0[lo:] <= x1[i]) & (y0[i] <= y1[lo:])
                & (y0[lo:] <= y1[i]) & (j > i + 1) & ((i > 0) | (j < n - 1)))
        ii, jj = np.nonzero(meet)
        ii, jj = ii + lo, jj + lo
        if ii.size and _segments_cross(a[ii], b[ii], a[jj], b[jj]).any():
            return True
    return False


def _segments_cross(p, q, r, s):
    """Whether segment pq crosses segment rs, elementwise: the ends of each
    lie strictly on both sides of the other's line, an orientation within
    1e-9 of its scale counting as none."""
    u, v = q - p, s - r
    t1 = 1e-9 * np.abs(u) * np.maximum(np.abs(s - p), np.abs(r - p))
    t2 = 1e-9 * np.abs(v) * np.maximum(np.abs(p - r), np.abs(q - r))

    def side(x, d, t):   # -1, 0 or 1: the side of offset x from a line of direction d
        c = np.imag(x * np.conj(d))
        return np.where(np.abs(c) < t, 0.0, np.sign(c))

    return ((side(s - p, u, t1) * side(r - p, u, t1) < 0)
            & (side(p - r, v, t2) * side(q - r, v, t2) < 0))


def ellipse_domain(a: float, b: float) -> JordanDomain:
    """Origin-centred axis-aligned ellipse with semi-axes a, b in (0, inf)."""
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise DegenerateInput("ellipse semi-axes must lie in (0, inf)")

    def curve(t):
        t = np.asarray(t, dtype=float)
        return a * np.cos(TWO_PI * t) + 1j * b * np.sin(TWO_PI * t)

    def dcurve(t):
        t = np.asarray(t, dtype=float)
        return TWO_PI * (-a * np.sin(TWO_PI * t) + 1j * b * np.cos(TWO_PI * t))

    return JordanDomain(curve, dcurve, name=f"ellipse({a},{b})", check_simple=False,
                        json_doc={"kind": "jordan", "curve": "ellipse",
                                  "a": float(a), "b": float(b)})


def wobbly_domain(seed: int) -> JordanDomain:
    """Random star-shaped smooth Jordan domain r(t) = 1 + Fourier wobble:
    modes 1..4, coefficients normal(seed) * 0.12 / k; seed a whole number."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise DegenerateInput("wobbly seed must be a non-negative integer")
    rng = np.random.default_rng(seed)
    ks = np.arange(1, 5)
    ak = rng.normal(size=4) * 0.12 / ks
    bk = rng.normal(size=4) * 0.12 / ks

    def rad(t):
        t = np.asarray(t, dtype=float)[..., None]
        return 1.0 + np.sum(ak * np.cos(TWO_PI * ks * t) + bk * np.sin(TWO_PI * ks * t), axis=-1)

    def drad(t):
        t = np.asarray(t, dtype=float)[..., None]
        return TWO_PI * np.sum(ks * (-ak * np.sin(TWO_PI * ks * t) + bk * np.cos(TWO_PI * ks * t)), axis=-1)

    def curve(t):
        t = np.asarray(t, dtype=float)
        return rad(t) * np.exp(1j * TWO_PI * t)

    def dcurve(t):
        t = np.asarray(t, dtype=float)
        return (drad(t) + 1j * TWO_PI * rad(t)) * np.exp(1j * TWO_PI * t)

    return JordanDomain(curve, dcurve, name=f"wobbly({seed})", check_simple=False,
                        json_doc={"kind": "jordan", "curve": "wobbly", "seed": int(seed)})


def lens_domain(rho: float) -> JordanDomain:
    """Intersection of the unit disc with D(1, rho), rho in (0, 2).

    Its boundary is two pieces: the arc of the unit circle inside D(1, rho)
    and the arc of the rho circle inside the unit disc.  They meet at
    corners (parameters 0 and the first arc's share of the length); the
    curve is smooth away from them, in particular near the boundary point
    z = 1.
    """
    if not 0.0 < rho < 2.0:
        raise DegenerateInput("lens radius must lie in (0, 2)")
    x0 = 1.0 - rho * rho / 2.0
    y0 = math.sqrt(max(1.0 - x0 * x0, 0.0))
    beta = math.atan2(y0, x0)              # corner angle on the unit circle
    phi_c = math.atan2(y0, x0 - 1.0)       # corner angle on the rho circle
    curve, dcurve, _, bounds = _arcs_and_segments(
        [("arc", 0j, 1.0, -beta, 2 * beta), ("arc", 1.0, rho, phi_c, TWO_PI - 2 * phi_c)])
    return JordanDomain(curve, dcurve, name=f"lens({rho})", check_simple=False,
                        corner_params=bounds[:-1],
                        json_doc={"kind": "jordan", "curve": "lens", "rho": float(rho)})


# ---------------------------------------------------------------------------
# C^n variants
# ---------------------------------------------------------------------------


class CnDomain:
    """Base class for domains in C^n (points are complex numpy vectors).
    Its kinds have no chart (`_chart` is None), and answer `to_json()` and
    `_proposal()` as the planar ones do (see PlanarDomain).

    The invariants reach a kind through methods of its own (see
    PlanarDomain): here `_caratheodory` = `_lempert`, the exact closed form
    for two points that pass `contains`, and `_point`, the shape check of
    points and directions; on Ball and Polydisc, that closed form
    `_model_distance` and the Kobayashi metric `_kobayashi`.  Neither has a
    Bergman route.
    """

    _chart = None

    @property
    def dim(self):
        raise NotImplementedError

    def boundary_distance(self, z, signed=False):
        raise NotImplementedError

    def contains(self, z):
        return self.boundary_distance(z, signed=True) > 0.0

    def _point(self, z, what: str = "point"):
        """z as a complex vector; DegenerateInput unless it has one
        coordinate per dimension, since numpy would broadcast any other.
        A direction (what="direction") is checked the same way."""
        z = np.asarray(z, dtype=complex)
        if z.shape != (self.dim,):
            raise DegenerateInput(f"a {what} on this domain is a vector of {self.dim} "
                                  f"coordinates, got shape {z.shape}")
        return z

    def _caratheodory(self, z, w):
        import invdist.distances as ds  # absolute, as the annulus routes import

        ds._require_inside(self, z, w)
        return ds.CertifiedValue.exact(ds.cn_model_distance(self, z, w))

    _lempert = _caratheodory


def _frozen_array(values, dtype) -> np.ndarray:
    """A read-only array of a C^n domain's tuple field, built once so the
    per-call formulas skip the conversion."""
    arr = np.asarray(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Ball(CnDomain):
    center: tuple
    radius: float

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise DegenerateInput("ball radius must be positive and finite")
        object.__setattr__(self, "center", tuple(complex(c) for c in self.center))
        if not self.center:
            raise DegenerateInput("ball dimension must be at least 1")
        object.__setattr__(self, "_center", _frozen_array(self.center, complex))

    @property
    def dim(self):
        return len(self.center)

    def boundary_distance(self, z, signed=False):
        # np.linalg.norm of the offset, without its dispatch
        x = self._point(z) - self._center
        re, im = x.real, x.imag
        norm = math.sqrt(re.dot(re) + im.dot(im))
        return _clamp0(self.radius - norm, signed)

    def _model_distance(self, z, w):
        u = (self._point(z) - self._center) / self.radius
        v = (self._point(w) - self._center) / self.radius
        nu = float(np.vdot(u, u).real)
        nv = float(np.vdot(v, v).real)
        if nu >= 1.0 or nv >= 1.0:
            raise DomainViolation("points must lie in the open ball")
        ip = complex(np.vdot(v, u))  # <u, v>
        rho2 = 1.0 - (1.0 - nu) * (1.0 - nv) / abs(1.0 - ip) ** 2
        rho = math.sqrt(max(rho2, 0.0))
        return _atanh_stable(min(rho, math.nextafter(1.0, 0.0)))

    def _kobayashi(self, z, X):
        u = (self._point(z) - self._center) / self.radius
        V = self._point(X, "direction") / self.radius
        nu2 = float(np.vdot(u, u).real)
        if nu2 >= 1.0:
            raise DomainViolation("point outside the ball")
        ip = complex(np.vdot(u, V))  # <V, u>
        nv2 = float(np.vdot(V, V).real)
        val = (nv2 * (1.0 - nu2) + abs(ip) ** 2) / (1.0 - nu2) ** 2
        return math.sqrt(val)

    def to_json(self):
        if any(c != 0 for c in self.center):
            raise UnsupportedDomain("only origin-centered balls serialize")
        return {"kind": "ball", "dim": self.dim, "radius": self.radius}

    def _proposal(self):
        dim = self.dim

        def draw(rng):
            x = rng.normal(size=2 * dim)
            v = (x[:dim] + 1j * x[dim:])
            v = v / np.linalg.norm(v) * self.radius * rng.uniform(0, 1) ** (1.0 / (2 * dim))
            return np.asarray(self.center) + v * (1 - 2e-3)
        return draw, False


@dataclass(frozen=True)
class Polydisc(CnDomain):
    center: tuple
    radii: tuple

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(complex(c) for c in self.center))
        object.__setattr__(self, "radii", tuple(float(r) for r in self.radii))
        if len(self.center) != len(self.radii):
            raise DegenerateInput("center and radii dimensions differ")
        if not self.radii:
            raise DegenerateInput("polydisc dimension must be at least 1")
        if not all(math.isfinite(r) and r > 0 for r in self.radii):
            raise DegenerateInput("polydisc radii must be positive and finite")
        object.__setattr__(self, "_center", _frozen_array(self.center, complex))
        object.__setattr__(self, "_radii", _frozen_array(self.radii, float))

    @property
    def dim(self):
        return len(self.radii)

    def boundary_distance(self, z, signed=False):
        margins = self._radii - np.abs(self._point(z) - self._center)
        return _clamp0(float(np.minimum.reduce(margins)), signed)

    def _model_distance(self, z, w):
        best = 0.0
        for zi, wi, ci, ri in zip(self._point(z), self._point(w), self.center, self.radii):
            best = max(best, poincare_distance((zi - ci) / ri, (wi - ci) / ri))
        return best

    def _kobayashi(self, z, X):
        best = 0.0
        z, X = self._point(z), self._point(X, "direction")
        for zi, Xi, ci, ri in zip(z, X, self.center, self.radii):
            ui = (zi - ci) / ri
            if abs(ui) >= 1.0:
                raise DomainViolation("point outside the polydisc")
            best = max(best, abs(Xi) / ri / (1.0 - abs(ui) ** 2))
        return best

    def to_json(self):
        if any(c != 0 for c in self.center):
            raise UnsupportedDomain("only origin-centered polydiscs serialize")
        return {"kind": "polydisc", "radii": list(self.radii)}

    def _proposal(self):
        return lambda rng: np.asarray([_disc_draw(rng, c, r)
                                       for c, r in zip(self.center, self.radii)]), False


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

_NUM = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX_RE = re.compile(rf"^([+-]?{_NUM})([+-]{_NUM})i$")


def _parse_complex(text):
    """A finite complex number from an 'a+bi' literal or a JSON number (not
    a boolean)."""
    m = _COMPLEX_RE.match(text.strip()) if isinstance(text, str) else None
    if isinstance(text, (int, float)) and not isinstance(text, bool):
        z = complex(text)
    elif m:
        z = complex(float(m.group(1)), float(m.group(2)))
    else:
        raise SchemaError(f"cannot parse complex literal {text!r}; expected 'a+bi'")
    if not cmath.isfinite(z):
        raise SchemaError(f"complex literal {text!r} is not finite")
    return z


def _finite(value, name: str) -> float:
    """A field's value as a finite float, else SchemaError; JSON's true and
    false are not numbers."""
    if isinstance(value, bool):
        raise SchemaError(f"field {name!r} must be a number, got {json.dumps(value)}")
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise SchemaError(f"field {name!r} must be a number, got {value!r}") from None
    if not math.isfinite(x):
        raise SchemaError(f"field {name!r} must be finite, got {value!r}")
    return x


# the largest dimension a ball or polydisc document may declare
_MAX_DIM = 4096


def _whole(value, name: str, cap: float = math.inf) -> int:
    """A field's value as a whole number (0, 1, 2, ...) at most cap, else
    SchemaError."""
    x = _finite(value, name)
    if x < 0 or x != math.floor(x):
        raise SchemaError(f"field {name!r} must be a whole number, got {value!r}")
    if x > cap:
        raise SchemaError(f"field {name!r} must be at most {cap}, got {value!r}")
    return int(value) if isinstance(value, int) else int(x)  # a JSON integer stays exact


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}i"


_SCHEMAS = {
    "disc": {"center", "radius"},
    "halfplane": {"normal"},
    "sector": {"theta"},
    "slitplane": set(),
    "annulus": {"r"},
    "hull": {"z", "d_z", "w", "d_w"},
    "jordan": {"curve", "a", "b", "rho", "seed"},
    "ball": {"dim", "radius"},
    "polydisc": {"radii"},
}


def domain_from_json(doc):
    """Build a catalog domain from its JSON description; unknown fields rejected."""
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "kind" not in doc:
        raise SchemaError("domain description must be an object with a 'kind' field")
    kind = doc["kind"]
    if kind not in _SCHEMAS:
        raise SchemaError(f"unknown domain kind {kind!r}")
    extra = set(doc) - _SCHEMAS[kind] - {"kind"}
    if extra:
        raise SchemaError(f"unknown fields for kind {kind!r}: {sorted(extra)}")
    try:
        if kind == "disc":
            center = _parse_complex(doc.get("center", "0+0i"))
            return Disc(center, _finite(doc.get("radius", 1.0), "radius"))
        if kind == "halfplane":
            return HalfPlane(_parse_complex(doc.get("normal", "1+0i")))
        if kind == "sector":
            return Sector(_finite(doc["theta"], "theta"))
        if kind == "slitplane":
            return SlitPlane()
        if kind == "annulus":
            return Annulus(_finite(doc["r"], "r"))
        if kind == "hull":
            return two_disc_hull(_parse_complex(doc["z"]), _finite(doc["d_z"], "d_z"),
                                 _parse_complex(doc["w"]), _finite(doc["d_w"], "d_w"))
        if kind == "jordan":
            curve = doc.get("curve", "ellipse")
            if curve == "ellipse":
                return ellipse_domain(_finite(doc["a"], "a"), _finite(doc["b"], "b"))
            if curve == "lens":
                return lens_domain(_finite(doc["rho"], "rho"))
            if curve == "wobbly":
                return wobbly_domain(_whole(doc.get("seed", 0), "seed"))
            raise SchemaError(f"unknown jordan curve {curve!r}")
        if kind == "ball":
            dim = _whole(doc["dim"], "dim", _MAX_DIM)
            return Ball((0j,) * dim, _finite(doc["radius"], "radius"))
        if kind == "polydisc":
            if not isinstance(doc["radii"], list):
                raise SchemaError("field 'radii' must be a list of numbers")
            if len(doc["radii"]) > _MAX_DIM:
                raise SchemaError(f"field 'radii' lists more than {_MAX_DIM} radii")
            radii = tuple(_finite(r, "radii") for r in doc["radii"])
            return Polydisc((0j,) * len(radii), radii)
    except KeyError as exc:
        raise SchemaError(f"missing required field {exc} for kind {kind!r}") from exc
    raise SchemaError(f"unknown domain kind {kind!r}")


def domain_to_json(domain) -> dict:
    """The JSON description of a domain, written by its kind's `to_json`;
    UnsupportedDomain for a domain that has none (a Jordan curve outside
    the catalog, a ball or polydisc off the origin) and for any other
    object."""
    to_json = getattr(domain, "to_json", None)
    if to_json is None or not isinstance(domain, (PlanarDomain, CnDomain)):
        raise UnsupportedDomain(f"cannot serialize {type(domain).__name__}")
    return to_json()


# the writer of the CLI's documents, `dist` values and suite reports alike
def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _json_canonical(obj) -> str:
    """Deterministic JSON with floats at 17 significant digits; a float
    that is not finite has no JSON form and is written as null."""
    if isinstance(obj, float):
        return _fmt(obj) if math.isfinite(obj) else "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int,)):
        return str(obj)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{_json_canonical(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_json_canonical(v) for v in obj) + "]"
    return json.dumps(obj)
