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
from .conformal import ConformalMap, ZipperMap
from .domains import (Disc, HalfPlane, JordanDomain, Sector, _atanh_stable, poincare_distance,
                      two_disc_hull)
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
# hyperbolic distance on the half-plane (the disc's, poincare_distance, is in
# domains, beside the C^n closed forms that take it)
# ---------------------------------------------------------------------------


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


def chart(domain) -> ConformalMap | ZipperMap | None:
    """The conformal chart of a simply connected planar domain: its kind's
    `_chart`, or None on the annulus, a C^n domain or any other object.
    Every invariant pulls back through it where there is one, and otherwise
    takes the domain's own method (see `_dispatch`).

    Discs, Jordan domains and two-disc hulls map onto the unit disc (Jordan
    domains by their shared Riemann map, normalized at the anchor, which is
    a ZipperMap with the same methods and attributes as a ConformalMap).  The
    half-plane, sector and slit plane map onto the upper half-plane, whose
    distance stays accurate for points at hugely different scales.

    A closed-form chart is built on first use and kept on the domain object
    (as `_chart`, outside its fields, so equality, hash, repr and JSON do
    not see it); later calls return that same map.
    """
    return getattr(domain, "_chart", None)


def _route(domain, name: str, what: str):
    """The domain's own method for an invariant, found by name as `chart`
    finds `_chart`; UnsupportedDomain naming `what` when it has none.  Each
    route checks its points' membership once, itself."""
    method = getattr(domain, name, None)
    if method is None:
        raise UnsupportedDomain(f"{what} unsupported on {type(domain).__name__}")
    return method


def _dispatch(domain, pullback, name: str, what: str, *args):
    """The one rule by which every invariant reaches a domain:
    pullback(chart, *args) where the domain has a chart, else its own
    method `name` (`_caratheodory`, `_lempert`, `_kobayashi`,
    `_bergman_kernel`, `_bergman_metric`, `_bergman_distance`)."""
    m = chart(domain)
    return pullback(m, *args) if m is not None else _route(domain, name, what)(*args)


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
    the half-plane, so that kappa = |f'| |X| / q.  f and f' come from one
    `evaluate_with_derivative` call, one zipper pass on a Riemann map.

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
        fz, df = map(complex, m.evaluate_with_derivative(z))
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
        eng = _ANN_CACHE[r] = _ann.AnnulusCaratheodory(r)
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


def caratheodory(domain, z, w) -> CertifiedValue:
    """Caratheodory distance c_D(z, w) on the tanh^{-1} scale."""
    return _dispatch(domain, _chart_distance, "_caratheodory", "caratheodory", z, w)


def lempert(domain, z, w) -> CertifiedValue:
    """Lempert function l_D(z, w); equals the Kobayashi distance on all
    planar catalog variants and on Ball / Polydisc."""
    return _dispatch(domain, _chart_distance, "_lempert", "lempert", z, w)


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
    return _dispatch(domain, _chart_kobayashi, "_kobayashi", "kobayashi metric", z, X)


def _chart_kobayashi(m: ConformalMap, z, X) -> float:
    df, q = _chart_jet(m, z)
    return abs(df) * abs(X) / q


def kobayashi_field(domain) -> MetricField:
    return MetricField("kobayashi", lambda z, X=1.0: kobayashi_metric(domain, z, X), domain)


# ---------------------------------------------------------------------------
# C^n model distances
# ---------------------------------------------------------------------------


def cn_model_distance(domain, z, w) -> float:
    """Kobayashi (= Caratheodory) distance on Ball and Polydisc, closed form."""
    return _route(domain, "_model_distance", "cn_model_distance")(z, w)
