"""Invariant distances and metrics on the catalog domains.

Values are reported on the tanh^{-1} scale as CertifiedValue enclosures;
exact modes (closed forms, conformal pullbacks through closed maps) carry a
zero-width interval, numeric modes carry an error estimate.
`CertifiedValue.mobius()` converts to m = tanh(value) where boundary product
estimates are more natural.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Callable

from . import _np as np

from . import annulus as _ann
from .conformal import ConformalMap
from .domains import (
    Annulus,
    Ball,
    CnDomain,
    Disc,
    HalfPlane,
    JordanDomain,
    Polydisc,
    Sector,
    two_disc_hull,
)
from .errors import DegenerateInput, DomainViolation, UnsupportedDomain

__all__ = [
    "CertifiedValue",
    "chart",
    "chart_distances",
    "halfplane_hyperbolic_distance",
    "MetricField",
    "poincare_distance",
    "caratheodory",
    "lempert",
    "kobayashi_metric",
    "cn_model_distance",
    "annulus_caratheodory",
    "kobayashi_field",
]


# ---------------------------------------------------------------------------
# value containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertifiedValue:
    """Distance enclosure [lo, hi] on the tanh^{-1} scale."""

    lo: float
    hi: float
    method: str
    error_estimate: float = 0.0

    def __post_init__(self):
        if not self.hi >= self.lo:
            raise ValueError("certified interval needs hi >= lo")

    @classmethod
    def exact(cls, value: float, method: str = "closed_form"):
        return cls(value, value, method, 0.0)

    @classmethod
    def estimate(cls, value: float, err: float, method: str):
        return cls(max(value - err, 0.0), value + err, method, err)

    @property
    def value(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def mobius(self) -> float:
        return math.tanh(self.value)

    def to_json(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "method": self.method,
                "err": self.error_estimate, "scale": "atanh"}


@dataclass(frozen=True)
class MetricField:
    """Infinitesimal metric (point, direction) -> length, absolutely homogeneous."""

    kind: str            # "kobayashi" | "bergman"
    eval: Callable
    domain: object

    def __call__(self, z, X=1.0):
        return self.eval(z, X)


# the smallest normal float: a smaller image has lost bits to underflow
_TINY = sys.float_info.min

# the Bergman kernel squares a chart's jet (f', 2 Im f); on a sector with
# power p, |f'| = p |f| / |z|, so the squares stay normal floats while
# 2^-500 <= |f| <= 2^500 / p
_JET_LO, _JET_HI = 2.0 ** -500, 2.0 ** 500

# numpy's floating-point warnings silenced on a sector chart's array pass
_SECTOR_QUIET = {"over": "ignore", "invalid": "ignore"}


# ---------------------------------------------------------------------------
# Poincare distance on the disc
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


def _halfplane_log_distance(la: complex, lb: complex) -> float:
    """The hyperbolic distance of i exp(la) and i exp(lb) on the upper
    half-plane, |Im la|, |Im lb| < pi / 2, without forming either point.

    With A = (la - conj lb) / 2, B = (la - lb) / 2 and s = |Re A| = |Re B|,
    halfplane_hyperbolic_distance reduces to
        log(|cosh A| + |sinh B|) - (log cos Im la + log cos Im lb) / 2,
    and |cosh A| + |sinh B| = (e^s / 2) (|1 + e^(-2 sA)| + |1 - e^(-2 sB)|)
    with the sign of Re A folded in, so no term overflows."""
    a = 0.5 * (la - lb.conjugate())
    b = 0.5 * (la - lb)
    sign = 1.0 if a.real >= 0.0 else -1.0
    s = sign * a.real
    both = abs(1.0 + cmath.exp(-2.0 * sign * a)) + abs(1.0 - cmath.exp(-2.0 * sign * b))
    return (s + math.log(0.5 * both)
            - 0.5 * (math.log(math.cos(la.imag)) + math.log(math.cos(lb.imag))))


# ---------------------------------------------------------------------------
# simply connected planar domains: one conformal chart each
# ---------------------------------------------------------------------------


def chart(domain) -> ConformalMap | None:
    """The conformal chart of a simply connected planar domain: its kind's
    `_chart`, or None on the annulus, a C^n domain or any other object.

    Discs, Jordan domains and two-disc hulls map onto the unit disc (Jordan
    domains by their shared Riemann map, normalized at the anchor).  The
    half-plane, sector and slit plane map onto the upper half-plane, whose
    distance stays accurate for points at hugely different scales.

    A closed-form chart is built on first use and kept on the domain object
    (as `_chart`, outside its fields, so equality, hash, repr and JSON do
    not see it); later calls return that same map.
    """
    return getattr(domain, "_chart", None)


def _chart_distance(m: ConformalMap, z, w) -> CertifiedValue:
    """c = l through chart m: the hyperbolic distance of the two images, with
    the map's error bound when the chart is numeric."""
    _require_inside(m.source, z, w)
    return _image_distance(m, z, w, complex(m.evaluate(z)), complex(m.evaluate(w)))


def chart_distances(domain, zs, ws) -> list:
    """c = l of each pair (zs[i], ws[i]) on a domain that `chart` covers,
    from one array evaluation of the chart at all 2N points.

    Every point is checked with `contains` first, in the order z0, w0, z1,
    w1, ... (DomainViolation names the first one outside; a Jordan domain
    checks them all in one call); a domain without a chart raises
    UnsupportedDomain.  The array path of a Jordan chart agrees with the
    scalar one to ~1e-11, not bitwise.
    """
    m = chart(domain)
    if m is None:
        raise UnsupportedDomain(f"no conformal chart for {type(domain).__name__}")
    zs, ws = [complex(z) for z in zs], [complex(w) for w in ws]
    if len(zs) != len(ws):
        raise DegenerateInput("chart_distances needs as many z as w points")
    if not zs:
        return []
    _require_inside(m.source, *(p for pair in zip(zs, ws) for p in pair))
    # a narrow sector's power can leave the floats (an inf, then inf * 0 in
    # the rotation); _image_distance takes the log form there, so the
    # overflow is expected and numpy's warnings about it are noise
    with np.errstate(**(_SECTOR_QUIET if isinstance(m.source, Sector) else {})):
        images = np.asarray(m.evaluate(np.array(zs + ws)), dtype=complex)
    n = len(zs)
    return [_image_distance(m, z, w, complex(fz), complex(fw))
            for z, w, fz, fw in zip(zs, ws, images[:n], images[n:])]


def _image_distance(m: ConformalMap, z, w, fz: complex, fw: complex) -> CertifiedValue:
    """The hyperbolic distance of the images fz, fw of z, w, widened by the
    map's error when the chart is numeric.  When a narrow sector's power
    map puts an image out of the normal floats (NaN fails the test too), the
    distance comes from the logs of the images, p log z, instead."""
    if isinstance(m.target, HalfPlane):
        if isinstance(m.source, Sector) and not (_TINY <= abs(fz) < math.inf
                                                 and _TINY <= abs(fw) < math.inf):
            p = math.pi / (2.0 * m.source.theta)
            d = _halfplane_log_distance(p * cmath.log(z), p * cmath.log(w))
        else:
            d = halfplane_hyperbolic_distance(fz, fw)
    else:
        d = poincare_distance(fz, fw)
    if m.accuracy == 0.0:
        return CertifiedValue.exact(d, "closed_form" if isinstance(m.source, Disc)
                                    else "conformal_pullback")
    return CertifiedValue.estimate(d, _map_error_to_distance(m, fz, fw), "conformal_pullback")


def _chart_jet(m: ConformalMap, z) -> tuple:
    """(f'(z), q) of chart m, with q = 1 - |f|^2 on the disc and 2 Im f on
    the half-plane, so that kappa = |f'| |X| / q.  A Riemann map gives f and
    f' from one zipper pass.

    On a sector, f = i z^p; where |f| leaves [_JET_LO, _JET_HI / p] (every
    image that `_image_distance` sends to the log form, and the bands where
    the kernel's squares would overflow) the jet is (p / |z|, 2 cos(p arg z)),
    f' and q divided by |f|: kappa = p |X| / (2 |z| cos(p arg z)).

    Raises DomainViolation when q <= 0: the map's error put f(z) outside the
    target, where the pulled-back metrics would come out negative or infinite.
    """
    _require_inside(m.source, z)
    if isinstance(m.source, Sector):
        p = math.pi / (2.0 * m.source.theta)
        fz = complex(m.evaluate(z))
        if _JET_LO <= abs(fz) <= _JET_HI / p:
            df, q = complex(m.derivative(z)), 2.0 * fz.imag
        else:
            df, q = p / abs(z), 2.0 * math.cos(p * cmath.phase(z))
    else:
        engine = getattr(m, "engine", None)
        if engine is not None:
            fz, df = engine.evaluate_with_derivative(complex(z))
        else:
            fz, df = complex(m.evaluate(z)), complex(m.derivative(z))
        q = 2.0 * fz.imag if isinstance(m.target, HalfPlane) else 1.0 - abs(fz) ** 2
    if not q > 0:
        raise DomainViolation(f"image of {z} left the chart's target; the map is too coarse here")
    return df, q


def _map_error_to_distance(m: ConformalMap, image_a: complex, image_b: complex) -> float:
    """Propagate the map's sup-norm accuracy into a distance error bound;
    the hyperbolic metric inflates map error near the disc boundary."""
    acc = m.accuracy if math.isfinite(m.accuracy) else 1e-6
    slack = 0.0
    for p in (image_a, image_b):
        gap = 1.0 - abs(p)
        slack += 2.0 * acc / max(gap * (2.0 - gap), 1e-12)
    return slack


# ---------------------------------------------------------------------------
# caratheodory / lempert dispatchers
# ---------------------------------------------------------------------------


def _require_inside(domain, *pts):
    """DomainViolation naming the first of pts outside the domain; a Jordan
    domain tests them all in one `contains` call."""
    inside = (domain.contains(np.array(pts, dtype=complex))
              if isinstance(domain, JordanDomain) else map(domain.contains, pts))
    for p, ok in zip(pts, inside):
        if not ok:
            raise DomainViolation(f"point {p} is not inside the domain")


_ANN_CACHE: dict = {}


def _annulus_engine(r: float) -> _ann.AnnulusCaratheodory:
    eng = _ANN_CACHE.get(r)
    if eng is None:
        eng = _ann.AnnulusCaratheodory(r)
        _ANN_CACHE[r] = eng
    return eng


def annulus_caratheodory(r: float, z: complex, w: complex) -> CertifiedValue:
    """Caratheodory distance on A_r; series mode when the boundary
    unimodularity self-tests pass, else a certified interval."""
    eng = _annulus_engine(r)
    if eng.series_mode:
        return CertifiedValue.exact(eng.distance(z, w), "series")
    # A_r sits inside D(0, r), whose distance is a lower bound
    lo = max(poincare_distance(z / r, w / r), 0.0)
    hi = _ann.annulus_kobayashi_distance(r, z, w)
    return CertifiedValue(lo, hi, "interval", hi - lo)


def _annulus_lempert(r: float, z: complex, w: complex) -> CertifiedValue:
    return CertifiedValue.exact(_ann.annulus_kobayashi_distance(r, z, w), "covering")


def _distance(name, annulus_route, domain, z, w) -> CertifiedValue:
    """c = l on a C^n model or through a chart; on the annulus, where c < l,
    annulus_route(r, z, w) gives the named distance."""
    if isinstance(domain, CnDomain):
        _require_inside(domain, z, w)
        return CertifiedValue.exact(cn_model_distance(domain, z, w))
    m = chart(domain)
    if m is not None:
        return _chart_distance(m, z, w)
    _require_inside(domain, z, w)
    if isinstance(domain, Annulus):
        return annulus_route(domain.r, z, w)
    raise UnsupportedDomain(f"{name} unsupported on {type(domain).__name__}")


def caratheodory(domain, z, w) -> CertifiedValue:
    """Caratheodory distance c_D(z, w) on the tanh^{-1} scale."""
    return _distance("caratheodory", annulus_caratheodory, domain, z, w)


def lempert(domain, z, w) -> CertifiedValue:
    """Lempert function l_D(z, w); equals the Kobayashi distance on all
    planar catalog variants and on Ball / Polydisc."""
    return _distance("lempert", _annulus_lempert, domain, z, w)


def hull_distance(z, d_z, w, d_w) -> float:
    """Distance between the two centers inside their two-disc hull, computed
    in the hull's own complex line coordinates on the boundary nodes of
    `param_grid(384)`; its per-piece minimum counts make that 383 to over
    460 nodes, depending on the hull.

    Uses the mapping chain directly (no normalization bookkeeping): the
    hyperbolic distance is invariant under the final disc rotation, and the
    second center rides through the chain's build pass.
    """
    from .conformal import _GeodesicChain

    length = abs(w - z)
    hull = two_disc_hull(0j, d_z, complex(length, 0.0), d_w)
    if isinstance(hull, Disc):
        m = chart(hull)
        return poincare_distance(complex(m.evaluate(0j)),
                                 complex(m.evaluate(complex(length, 0.0))))
    curve, _ = hull.parametrize()
    pts = np.asarray(curve(hull.param_grid(384)), dtype=complex)
    chain = _GeodesicChain(pts, 0j, [complex(length, 0.0)])
    zeta = chain.z0_img
    wim = complex(chain.carried[0])
    rho = abs((wim - zeta) / (wim - zeta.conjugate()))
    return _atanh_stable(min(rho, math.nextafter(1.0, 0.0)))


# ---------------------------------------------------------------------------
# Kobayashi metric
# ---------------------------------------------------------------------------


def kobayashi_metric(domain, z, X=1.0) -> float:
    """Infinitesimal Kobayashi metric kappa_D(z; X)."""
    if isinstance(domain, CnDomain):
        return _cn_kobayashi_metric(domain, z, X)
    m = chart(domain)
    if m is not None:
        df, q = _chart_jet(m, z)
        return abs(df) * abs(X) / q
    if isinstance(domain, Annulus):
        _require_inside(domain, z)
        return _ann.annulus_kobayashi_metric(domain.r, complex(z), X)
    raise UnsupportedDomain(f"kobayashi metric unsupported on {type(domain).__name__}")


def _cn_kobayashi_metric(domain, z, X):
    z = domain._point(z)
    X = np.asarray(X, dtype=complex)
    if X.shape != (domain.dim,):
        raise DegenerateInput(f"a direction on this domain is a vector of {domain.dim} "
                              f"coordinates, got shape {X.shape}")
    if isinstance(domain, Ball):
        u = (z - domain._center) / domain.radius
        V = X / domain.radius
        nu2 = float(np.vdot(u, u).real)
        if nu2 >= 1.0:
            raise DomainViolation("point outside the ball")
        ip = complex(np.vdot(u, V))  # <V, u>
        nv2 = float(np.vdot(V, V).real)
        val = (nv2 * (1.0 - nu2) + abs(ip) ** 2) / (1.0 - nu2) ** 2
        return math.sqrt(val)
    if isinstance(domain, Polydisc):
        best = 0.0
        for zi, Xi, ci, ri in zip(z, X, domain.center, domain.radii):
            ui = (zi - ci) / ri
            if abs(ui) >= 1.0:
                raise DomainViolation("point outside the polydisc")
            best = max(best, abs(Xi) / ri / (1.0 - abs(ui) ** 2))
        return best
    raise UnsupportedDomain("kobayashi metric on C^n supports Ball and Polydisc")


def kobayashi_field(domain) -> MetricField:
    if isinstance(domain, Annulus):
        return MetricField("kobayashi",
                           lambda z, X=1.0: _ann.annulus_kobayashi_metric(domain.r, z, X),
                           domain)
    return MetricField("kobayashi", lambda z, X=1.0: kobayashi_metric(domain, z, X), domain)


# ---------------------------------------------------------------------------
# C^n model distances
# ---------------------------------------------------------------------------


def cn_model_distance(domain, z, w) -> float:
    """Kobayashi (= Caratheodory) distance on Ball and Polydisc, closed form."""
    if not isinstance(domain, (Ball, Polydisc)):
        raise UnsupportedDomain("cn_model_distance supports Ball and Polydisc")
    z = domain._point(z)
    w = domain._point(w)
    if isinstance(domain, Ball):
        u = (z - domain._center) / domain.radius
        v = (w - domain._center) / domain.radius
        nu = float(np.vdot(u, u).real)
        nv = float(np.vdot(v, v).real)
        if nu >= 1.0 or nv >= 1.0:
            raise DomainViolation("points must lie in the open ball")
        ip = complex(np.vdot(v, u))  # <u, v>
        rho2 = 1.0 - (1.0 - nu) * (1.0 - nv) / abs(1.0 - ip) ** 2
        rho = math.sqrt(max(rho2, 0.0))
        return _atanh_stable(min(rho, math.nextafter(1.0, 0.0)))
    best = 0.0
    for zi, wi, ci, ri in zip(z, w, domain.center, domain.radii):
        best = max(best, poincare_distance((zi - ci) / ri, (wi - ci) / ri))
    return best
