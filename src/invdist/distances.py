"""Invariant distances and metrics on the catalog domains.

Values are reported on the tanh^{-1} scale as CertifiedValue enclosures;
exact modes (closed forms, conformal pullbacks through closed maps) carry a
zero-width interval, numeric modes carry an error estimate.
`CertifiedValue.mobius()` converts to m = tanh(value) where boundary product
estimates are more natural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from . import _np as np

from . import annulus as _ann
from .conformal import ConformalMap, ZipperMap, _GeodesicChain
from .domains import (Disc, JordanDomain, _atanh_stable, halfplane_hyperbolic_distance,
                      poincare_distance, two_disc_hull)
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
    distance stays accurate for points at hugely different scales.  The
    chart's target answers each pullback (`image_distance` and `jet`, see
    `conformal._Chart`), except where the sector's chart answers itself,
    with the log form of its images beyond the floats.

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
    return _image_value(m, z, w, complex(m.evaluate(z)), complex(m.evaluate(w)))


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
    images = np.asarray(m.evaluate(np.array(zs + ws)), dtype=complex)
    return [_image_value(m, z, w, complex(fz), complex(fw))
            for z, w, fz, fw in zip(zs, ws, images[:len(zs)], images[len(zs):])]


def _image_value(m: ConformalMap, z, w, fz: complex, fw: complex) -> CertifiedValue:
    """The chart's distance of the images fz, fw of z, w, tagged with its
    `method` when the chart is exact and widened by the map's error when it
    is numeric."""
    d = m.image_distance(z, w, fz, fw)
    if m.accuracy == 0.0:
        return CertifiedValue.exact(d, m.method)
    return CertifiedValue.estimate(d, _map_error_to_distance(m, fz, fw), "conformal_pullback")


def _chart_jet(m: ConformalMap, z) -> tuple:
    """(f'(z), q) of chart m, so that kappa = |f'| |X| / q (see `jet`).

    Raises DomainViolation when q <= 0: the map's error put f(z) outside the
    target, where the pulled-back metrics would come out negative or infinite.
    """
    _require_inside(m.source, z)
    df, q = m.jet(z)
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
    length = abs(w - z)
    hull = two_disc_hull(0j, d_z, complex(length, 0.0), d_w)
    if isinstance(hull, Disc):
        return _chart_distance(chart(hull), 0j, complex(length, 0.0)).value
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
