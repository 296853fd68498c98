"""Conformal maps: closed-form building blocks and a numerical Riemann-map
engine for Jordan domains.

The engine is the geodesic variant of the boundary-zipping family: boundary
points are absorbed one at a time into the real line of the upper half-plane
by elementary maps that open hyperbolic-geodesic slits.  Every elementary map
has a closed-form derivative and inverse, so the composed map evaluates in
both directions and differentiates exactly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable

from . import _np as np

from .domains import (Disc, HalfPlane, JordanDomain, Sector, SlitPlane, UnitDisc,
                      _require_modulus)
from .errors import BranchViolation, DegenerateInput, NonConvergence

__all__ = [
    "ConformalMap",
    "mobius_disc_automorphism",
    "cayley_map",
    "sector_map",
    "slit_sqrt_map",
    "disc_scale_map",
    "riemann_map",
    "AnnulusCover",
]

# the frozen targets every chart shares
_UNIT_DISC = UnitDisc()
_UPPER_HALF_PLANE = HalfPlane(1j)

# point types whose branch-cut test is two float comparisons, not a numpy pass
_PY_SCALARS = (complex, float, int)


def _is_scalar(z) -> bool:
    """Whether z is one point; Python numbers first, so that a closed-form
    query on them never loads numpy."""
    return isinstance(z, _PY_SCALARS) or isinstance(z, np.generic)


def _sqrt_cut_pos(s, out=None):
    """Square root with branch cut along the nonnegative real axis; maps
    C minus [0, inf) onto the upper half-plane.

    i sqrt(-s) with the principal root keeps full relative accuracy in both
    parts near the cut; adding +0 turns x - 0i into x + 0i, so the cut
    itself keeps the convention x +- 0i -> +sqrt(x) for x > 0.  Given out
    (a complex array, which may be s itself), the same operations write the
    root there and return it."""
    if out is None:
        s = np.asarray(s, dtype=complex)
        out = 1j * np.sqrt(-(s + 0.0))
        return out if out.shape else complex(out)
    np.add(s, 0.0, out=out)
    np.negative(out, out=out)
    np.sqrt(out, out=out)
    return np.multiply(1j, out, out=out)


def _sqrt_cut_pos_scalar(s) -> complex:
    """_sqrt_cut_pos of one point, bitwise.  The root is numpy's complex
    square root; the sum, the negation and the product by 1j round in
    Python's complex arithmetic exactly as in numpy's (part by part, +0j
    adding +0 to both parts), so no 0-d array or numpy scalar is built
    around it, and a zipper step on a point makes this one numpy call.
    cmath.sqrt would spare it (and the slit plane numpy's import), but its
    root is not this one: on the imaginary axis (z = i) it misses a part by
    an ulp, and so does it where a part of the root is subnormal."""
    return 1j * complex(np.sqrt(-(complex(s) + 0j)))


def _over_zero(v: float) -> float:
    """v / +0.0 in IEEE arithmetic, where Python's division raises."""
    return math.copysign(math.inf, v) if v != 0.0 and v == v else math.nan


def _np_quotient(a: complex, b: complex) -> complex:
    """a / b with the bits of complex(np.complex128(a) / np.complex128(b)),
    in Python floats: numpy's complex division, Smith's method scaled by
    the reciprocal of the denominator (Python's own complex division rounds
    apart from it).  Where numpy divides by zero (b = +-0 +- 0i, or a NaN
    real part over a zero imaginary one), this gives its inf or nan and
    raises nothing."""
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    if abs(br) >= abs(bi):
        if br == 0.0:
            return complex(_over_zero(ar), _over_zero(ai))
        rat = bi / br
        scl = 1.0 / (br + bi * rat)
        return complex((ar + ai * rat) * scl, (ai - ar * rat) * scl)
    if bi == 0.0:      # br is NaN
        return complex(math.nan, math.nan)
    rat = br / bi
    scl = 1.0 / (bi + br * rat)
    return complex((ar * rat + ai) * scl, (ai * rat - ar) * scl)


class _Chart:
    """The two questions every pullback asks of a chart f: source -> target,
    answered by the target, the unit disc or the upper half-plane (its
    `_target_distance` and `_target_q`): c = l is the hyperbolic distance
    of f(z) and f(w), and the metrics pull back by |f'|.  ConformalMap and
    ZipperMap share it; the sector's chart answers itself where its images
    leave the floats (`_SectorChart`)."""

    def image_distance(self, z, w, fz: complex, fw: complex) -> float:
        """The target's hyperbolic distance of the images fz = f(z) and
        fw = f(w) of z and w."""
        return self.target._target_distance(fz, fw)

    def jet(self, z) -> tuple:
        """(f'(z), q), with 1 / q the target's Kobayashi density at f(z), so
        that kappa = |f'| |X| / q; f and f' come from one
        `evaluate_with_derivative` call, one zipper pass on a Riemann map."""
        fz, df = self.evaluate_with_derivative(z)
        return complex(df), self.target._target_q(complex(fz))


@dataclass
class ConformalMap(_Chart):
    """Evaluatable conformal map with derivative and inverse.

    accuracy is an estimated sup-norm error on an interior test grid
    (0 for the closed-form maps), and method the tag of an exact value
    pulled back through the map.
    """

    evaluate: Callable
    derivative: Callable
    inverse: Callable
    source: object
    target: object
    accuracy: float = 0.0
    normalization: dict = field(default_factory=dict)
    method: str = "conformal_pullback"

    def evaluate_with_derivative(self, z):
        """(f(z), f'(z)), the chart jet that every pullback takes."""
        return self.evaluate(z), self.derivative(z)


# ---------------------------------------------------------------------------
# closed-form maps
# ---------------------------------------------------------------------------


def mobius_disc_automorphism(a: complex) -> ConformalMap:
    """Disc automorphism z -> (z - a) / (1 - conj(a) z) sending a to 0."""
    a = complex(a)
    if abs(a) >= 1.0:
        raise DegenerateInput("automorphism parameter must satisfy |a| < 1")
    ac = a.conjugate()

    def ev(z):
        z = np.asarray(z, dtype=complex) if not np.isscalar(z) else z
        return (z - a) / (1.0 - ac * z)

    def dv(z):
        return (1.0 - abs(a) ** 2) / (1.0 - ac * z) ** 2

    def inv(w):
        return (w + a) / (1.0 + ac * w)

    return ConformalMap(ev, dv, inv, _UNIT_DISC, _UNIT_DISC,
                        normalization={"zero_of_map": a})


def cayley_map() -> ConformalMap:
    """Upper half-plane onto the unit disc, i -> 0."""

    def ev(z):
        return (z - 1j) / (z + 1j)

    def dv(z):
        return 2j / (z + 1j) ** 2

    def inv(w):
        return 1j * (1.0 + w) / (1.0 - w)

    return ConformalMap(ev, dv, inv, _UPPER_HALF_PLANE, _UNIT_DISC)


def sector_map(theta: float) -> ConformalMap:
    """Sector {|arg z| < theta} onto the right half-plane via z^(pi / 2 theta).

    Principal branch; the negative real ray is the cut and raises
    BranchViolation.  On a narrow sector the power is huge and an image can
    leave the floats: one beyond them comes out infinite or NaN, one below
    them zero or subnormal.
    """
    if not 0.0 < theta < math.pi:
        raise DegenerateInput("sector half-angle must lie in (0, pi)")
    p = math.pi / (2.0 * theta)

    def _check(z):
        if _is_scalar(z):
            on_cut = z.imag == 0 and z.real <= 0
        else:
            arr = np.asarray(z, dtype=complex)
            on_cut = np.any((arr.imag == 0) & (arr.real <= 0))
        if on_cut:
            raise BranchViolation("input on the branch cut of the sector power map")

    def ev(z):
        _check(z)
        if not _is_scalar(z):
            with np.errstate(over="ignore"):    # past the floats: infinite
                return np.asarray(z, dtype=complex) ** p
        try:
            return z ** p
        except OverflowError:      # python's complex power raises past the floats
            return complex(math.inf, 0.0)

    def dv(z):
        _check(z)
        if not _is_scalar(z):
            with np.errstate(over="ignore", invalid="ignore"):    # as in ev
                return p * z ** (p - 1.0)
        try:
            return p * z ** (p - 1.0)
        except OverflowError:      # as in ev
            return complex(math.inf, 0.0)

    def inv(w):
        return w ** (1.0 / p)

    return ConformalMap(ev, dv, inv, Sector(theta), HalfPlane(1.0 + 0j))


# _TINY is the smallest normal float: a smaller image has lost bits to
# underflow.  The Bergman kernel squares a chart's jet (f', 2 Im f); on a
# sector with power p, |f'| = p |f| / |z|, so the squares stay normal floats
# while _JET_LO = 2^-500 <= |f| <= _JET_HI / p = 2^500 / p.
_TINY, _JET_LO, _JET_HI = 2.0 ** -1022, 2.0 ** -500, 2.0 ** 500


class _SectorChart(ConformalMap):
    """The chart of Sector(theta): `sector_map`'s power z^p, p = pi / (2
    theta), onto the right half-plane, then the quarter turn i f onto the
    upper half-plane.

    On a narrow sector an image can leave the floats, and the chart answers
    itself there.  Where an image is not a normal float (NaN fails the test
    too), the distance comes from the logs of the images, p log z
    (`_halfplane_log_distance`).  Where |f| leaves [_JET_LO, _JET_HI / p]
    (every image sent to the log form, and the bands where the Bergman
    kernel's squares would leave the floats), the jet is
    (p / |z|, 2 cos(p arg z)), f' and q divided by |f|: kappa =
    p |X| / (2 |z| cos(p arg z)).  An array evaluate or derivative
    silences numpy's warnings about the overflow, which those answers make
    noise; past the floats a point's f or f' is i times infinity, as
    `sector_map` gives it."""

    def __init__(self, theta: float):
        power = sector_map(theta)
        self.p = math.pi / (2.0 * theta)

        def turned(f):
            def g(z):
                if _is_scalar(z):
                    return 1j * f(z)
                with np.errstate(over="ignore", invalid="ignore"):
                    return 1j * f(z)
            return g

        super().__init__(turned(power.evaluate), turned(power.derivative),
                         lambda w: power.inverse(w / 1j), power.source, _UPPER_HALF_PLANE)

    def image_distance(self, z, w, fz: complex, fw: complex) -> float:
        if _TINY <= abs(fz) < math.inf and _TINY <= abs(fw) < math.inf:
            return self.target._target_distance(fz, fw)
        return _halfplane_log_distance(self.p * cmath.log(z), self.p * cmath.log(w))

    def jet(self, z) -> tuple:
        fz = complex(self.evaluate(z))
        if _JET_LO <= abs(fz) <= _JET_HI / self.p:
            return complex(self.derivative(z)), self.target._target_q(fz)
        return self.p / abs(z), 2.0 * math.cos(self.p * cmath.phase(z))


def _halfplane_log_distance(la: complex, lb: complex) -> float:
    """The hyperbolic distance of i exp(la) and i exp(lb) on the upper
    half-plane, |Im la|, |Im lb| < pi / 2, without forming either point.

    With A = (la - conj lb) / 2, B = (la - lb) / 2 and s = |Re A| = |Re B|,
    halfplane_hyperbolic_distance reduces to
        log(|cosh A| + |sinh B|) - (log cos Im la + log cos Im lb) / 2,
    and |cosh A| + |sinh B| = (e^s / 2) (|1 + e^(-2 sA)| + |1 - e^(-2 sB)|)
    with the sign of Re A folded in, so no term overflows."""
    a, b = 0.5 * (la - lb.conjugate()), 0.5 * (la - lb)
    sign = 1.0 if a.real >= 0.0 else -1.0
    s = sign * a.real
    both = abs(1.0 + cmath.exp(-2.0 * sign * a)) + abs(1.0 - cmath.exp(-2.0 * sign * b))
    return (s + math.log(0.5 * both)
            - 0.5 * (math.log(math.cos(la.imag)) + math.log(math.cos(lb.imag))))


def slit_sqrt_map() -> ConformalMap:
    """Slit plane C minus [0, inf) onto the upper half-plane by the square
    root with cut on the nonnegative real ray."""

    def _check(z):
        if _is_scalar(z):
            on_cut = z.imag == 0 and z.real >= 0
        else:
            arr = np.asarray(z, dtype=complex)
            on_cut = np.any((arr.imag == 0) & (arr.real >= 0))
        if on_cut:
            raise BranchViolation("input on the branch cut [0, inf)")

    def ev(z):
        _check(z)
        return _sqrt_cut_pos_scalar(z) if _is_scalar(z) else _sqrt_cut_pos(z)

    def dv(z):
        return 0.5 / ev(z)

    def inv(w):
        return np.asarray(w, dtype=complex) ** 2 if not np.isscalar(w) else w * w

    return ConformalMap(ev, dv, inv, SlitPlane(), _UPPER_HALF_PLANE)


def disc_scale_map(center: complex, radius: float) -> ConformalMap:
    """Disc D(center, radius) onto the unit disc by the affine normalization;
    a centre or radius that `Disc` refuses raises DegenerateInput."""
    c, r = complex(center), float(radius)

    def ev(z):
        return (z - c) / r

    def dv(z):
        return (1.0 / r) * np.ones_like(np.asarray(z, dtype=complex)) if not np.isscalar(z) else 1.0 / r

    def inv(w):
        return c + r * w

    return ConformalMap(ev, dv, inv, Disc(c, r), _UNIT_DISC, method="closed_form")


def half_plane_map(normal: complex) -> ConformalMap:
    """General half-plane {Re(conj(n) z) > 0} onto the upper half-plane by rotation."""
    n = complex(normal)
    rot = 1j / n  # sends the inward normal to +i

    def ev(z):
        return rot * z

    def dv(z):
        return rot * np.ones_like(np.asarray(z, dtype=complex)) if not np.isscalar(z) else rot

    def inv(w):
        return w / rot

    return ConformalMap(ev, dv, inv, HalfPlane(n), _UPPER_HALF_PLANE)


# ---------------------------------------------------------------------------
# geodesic zipper engine
# ---------------------------------------------------------------------------


class _GeodesicChain:
    """Composed elementary maps taking the Jordan region onto the upper
    half-plane.  Step parameters (x, h) define g(w) = sqrt_cut(m(w)^2 + h^2)
    with m(w) = x w / (x - w) (m = identity for a vertical slit, x = None).

    The build is one pass through the steps: the interior points `carry`
    ride along with z0 behind the boundary tail, and `carried` holds their
    images, bitwise those of `forward(carry)`.

    Each pass has two kernels.  The point loop is one Python loop over the
    steps for a single point (a scalar or a 0-d array).  The step
    parameters are Python floats, and the value loop (`forward`, and the
    build's tracking of the base point) runs in Python floats throughout:
    its quotient x w / (x - w) is numpy's complex division written out
    (`_np_quotient`), as Python's own rounds apart from numpy's; the fold
    and the square are Python complex arithmetic, and the only numpy call
    of a step is the scalar square root (`_sqrt_cut_pos_scalar`).  The jet
    loop of `forward_with_derivative` keeps numpy scalar arithmetic, x
    taken as a numpy float at each step, so its bits stay those of numpy's
    own complex operations.  The array step
    runs each step as numpy operations written in place, in the same order
    as on a point, on the build's tail and on a batch.  The two kernels
    round apart in the last bits, since numpy's array loops may fuse the
    multiply-adds of a complex product and its scalar arithmetic does not;
    an array row does not depend on its batch.

    `forward` runs the point loop on a point and the array step on an array.
    `forward_with_derivative` runs the point loop, row by row on an array
    (no caller differentiates a batch on a hot path), and `inverse` runs the
    array step, on a point as a batch of one."""

    def __init__(self, pts: np.ndarray, z0: complex, carry=()):
        self.p0 = complex(pts[0])
        self.p1 = complex(pts[1])
        self.steps: list = []

        n = len(pts)
        q = self._base(np.concatenate((np.asarray(pts[2:], dtype=complex), [complex(z0)],
                                       np.asarray(carry, dtype=complex))))
        p0_img = None  # at infinity until a finite Moebius moves it
        t = np.empty_like(q)

        for k in range(n - 2):
            a = complex(q[k])
            if not (a.imag > 0):
                raise NonConvergence("boundary image left the half-plane; "
                                     "increase the boundary resolution")
            a2 = (a.real * a.real + a.imag * a.imag)
            x = a2 / a.real if abs(a.real) > 1e-300 * a2 else None
            h = a2 / a.imag
            self.steps.append((x, h))
            self._g(q[k + 1:], x, h, t[k + 1:])
            p0_img = self._g_point_or_inf(p0_img, x, h)
        if p0_img is None:
            raise NonConvergence("base point image remained at infinity")
        self.xi = float(p0_img.real)
        if self.xi == 0.0:
            raise NonConvergence("degenerate closing configuration")
        # closing: the half-disc over [0, xi] is the zipped curve's last gap;
        # the region lies on one side, detected with the tracked z0 image
        z = complex(q[n - 2])
        nu = self.xi * z / (self.xi - z)
        self.sgn = 1.0 if (nu * nu).imag > 0 else -1.0
        self.z0_img = self.sgn * nu * nu
        if not self.z0_img.imag > 0:
            raise NonConvergence("interior point image left the half-plane")
        self.carried = self._close(q[n - 1:])

    @staticmethod
    def _g(w, x, h, t):
        """One step on the complex array w, written into w and returned; t
        is scratch of w's shape.  No product writes over one of its factors:
        numpy's complex multiply rounds differently on a one-element array
        that is also its output, and a row must not depend on its batch.
        The fold onto the closed upper half-plane (invariant up to roundoff)
        takes |Im m| in place; for finite m it gives the bits of
        m.real + 1j * |m.imag|, since m * m + h * h maps either sign of a
        zero real part to the same value."""
        if x is not None:
            np.subtract(x, w, out=t)
            np.multiply(x, w, out=w)
            np.divide(w, t, out=w)
        np.absolute(w.imag, out=w.imag)
        np.multiply(w, w, out=t)
        np.add(t, h * h, out=w)
        return _sqrt_cut_pos(w, out=w)

    @staticmethod
    def _g_point_or_inf(w, x, h):
        """Track a boundary point that may sit at infinity (real axis values)."""
        if w is None:
            if x is None:
                return None  # vertical slit keeps infinity fixed
            val = -math.copysign(1.0, x) * math.sqrt(x * x + h * h)
            return complex(val, 0.0)
        if x is None:
            m = w
        else:
            if abs(x - w) < 1e-300:
                return None
            m = _np_quotient(x * w, x - w)
        s = m * m + h * h
        if abs(s.imag) < 1e-14 * abs(s.real) and s.real > 0:
            # boundary value: side resolved by the sign of m
            root = math.sqrt(s.real)
            return complex(math.copysign(root, m.real), 0.0)
        return _sqrt_cut_pos_scalar(s)

    def _base(self, z):
        u = (z - self.p1) / (z - self.p0)
        return 1j * np.sqrt(u)

    def forward(self, z):
        z = np.asarray(z, dtype=complex)
        w = self._base(z)
        if z.ndim:
            np.absolute(w.imag, out=w.imag)
            t = np.empty_like(w)
            for x, h in self.steps:
                self._g(w, x, h, t)
            return self._close(w)
        w = complex(w.real + 1j * abs(w.imag))
        for x, h in self.steps:
            m = w if x is None else _np_quotient(x * w, x - w)
            m = m.real + 1j * abs(m.imag)
            w = _sqrt_cut_pos_scalar(m * m + h * h)
        return self._close(w)

    def _close(self, w):
        """The closing map of the zipped half-plane onto the upper half-plane."""
        nu = self.xi * w / (self.xi - w)
        return self.sgn * nu * nu

    def forward_with_derivative(self, z):
        z = np.asarray(z, dtype=complex)
        if z.ndim:
            return _row_by_row(self.forward_with_derivative, z)
        w = self._base(z)
        u = (z - self.p1) / (z - self.p0)
        du = (self.p1 - self.p0) / (z - self.p0) ** 2
        dw = 1j * du / (2.0 * np.sqrt(u))
        for x, h in self.steps:
            if x is None:
                m, dm = w, dw
            else:
                x = np.float64(x)
                m = complex(x * w / (x - w))
                # dm, and so dw, stay numpy scalars: their divisions are numpy's
                dm = dw * x * x / (x - w) ** 2
            m = m.real + 1j * abs(m.imag)
            w = _sqrt_cut_pos_scalar(m * m + h * h)
            dw = m * dm / w
        nu = self.xi * w / (self.xi - w)
        dnu = dw * self.xi * self.xi / (self.xi - w) ** 2
        return self.sgn * nu * nu, self.sgn * 2.0 * nu * dnu

    def inverse(self, w):
        """The inverse pass on the complex array w (not a 0-d one)."""
        u = -np.sqrt(-w) if self.sgn < 0 else np.sqrt(w)
        v = self.xi * u / (self.xi + u)
        t = np.empty_like(v)
        for x, h in reversed(self.steps):
            np.multiply(v, v, out=t)
            np.subtract(t, h * h, out=t)
            _sqrt_cut_pos(t, out=t)
            np.absolute(t.imag, out=t.imag)
            if x is not None:
                np.add(x, t, out=v)
                np.multiply(x, t, out=t)
                np.divide(t, v, out=t)
            v, t = t, v
        u1 = -v * v
        return (self.p1 - u1 * self.p0) / (1.0 - u1)


def _row_by_row(point_call, z):
    """The pair that point_call gives on each point of the complex array z,
    as two arrays of z's shape; each row is bitwise the point call."""
    pairs = np.array([point_call(p) for p in z.ravel()], dtype=complex).reshape(-1, 2)
    return pairs[:, 0].reshape(z.shape), pairs[:, 1].reshape(z.shape)


# boundary points of a Riemann map built without a parameter grid
_ZIPPER_N = 512


class ZipperMap(_Chart):
    """Riemann map of a Jordan domain onto the unit disc, phi(z0) = 0,
    phi'(z0) > 0, built by the geodesic algorithm on the boundary points of
    the parameter grid params (default domain.params(_ZIPPER_N)).

    It is the domain's chart as it stands: like a ConformalMap it has
    evaluate, derivative, evaluate_with_derivative and inverse, answers
    `image_distance` and `jet` through its target (`_Chart`), and carries
    source (the domain), target (the unit disc), accuracy (the sup-norm
    error estimate on an interior test grid) and normalization (z0 and
    phi'(z0)).  It stays an object of its own, hashed and compared by
    identity.

    The build carries the Cauchy circle of phi'(z0) and the accuracy test
    grid through the chain's own pass; the half-resolution map that the
    accuracy compares against does the same, and the round trip is one
    inverse pass over the grid."""

    target = _UNIT_DISC

    def __init__(self, domain: JordanDomain, z0: complex, params=None):
        self.source = domain
        self.z0 = complex(z0)
        if params is None:
            params = domain.params(_ZIPPER_N)
        params = np.sort(np.asarray(params, dtype=float) % 1.0)
        self.params = params
        rho = min(0.1, 0.5 * domain.boundary_distance(self.z0, tol=1e-6))
        grid = self._test_grid()
        self.chain, self.rot, self.deriv_z0, vals = self._build(params, rho, grid)
        self._zeta = self.chain.z0_img
        _, _, _, coarse = self._build(params[::2], rho, grid)
        diff = float(np.max(np.abs(vals - coarse)))
        rt = float(np.max(np.abs(self.inverse(vals) - grid)))
        self.accuracy = max(diff, rt, 1e-15)
        self.normalization = {"z0": self.z0, "deriv_z0": self.deriv_z0}

    def _build(self, params, rho, grid):
        """(chain, rot, |phi'(z0)|, phi(grid)) from one chain pass over the
        boundary points of params; phi'(z0) is a Cauchy integral mean over
        the circle of radius rho about z0."""
        pts = np.asarray(self.source.point(params), dtype=complex)
        ts = np.arange(64) / 64.0   # the Cauchy circle: 64 equispaced nodes
        circle = self.z0 + rho * np.exp(2j * math.pi * ts)
        chain = _GeodesicChain(pts, self.z0, np.concatenate((circle, grid)))
        vals = self._cayley(chain.carried, chain.z0_img)
        d0 = np.sum(vals[:64] * np.exp(-2j * math.pi * ts)) / (64.0 * rho)
        if d0 == 0:
            raise NonConvergence("vanishing derivative estimate at the base point")
        rot = complex(d0.conjugate() / abs(d0))
        return chain, rot, abs(d0), rot * vals[64:]

    @staticmethod
    def _cayley(w, zeta):
        """The upper half-plane onto the unit disc, zeta -> 0."""
        return (w - zeta) / (w - zeta.conjugate())

    def evaluate(self, z):
        scalar = np.isscalar(z)
        out = self.rot * self._cayley(self.chain.forward(np.asarray(z, dtype=complex)),
                                      self._zeta)
        return complex(out) if scalar else out

    def evaluate_with_derivative(self, z):
        """(phi(z), phi'(z)) from one pass through the zipper steps.  The
        derivative is bitwise that of `derivative`; the value is bitwise
        that of `evaluate` for a point only, as an array's values come from
        the point loop row by row and `evaluate` takes the array step."""
        if np.ndim(z):
            return _row_by_row(self.evaluate_with_derivative, np.asarray(z, dtype=complex))
        scalar = np.isscalar(z)
        w, dw = self.chain.forward_with_derivative(np.asarray(z, dtype=complex))
        zeta = self._zeta
        val = self.rot * self._cayley(w, zeta)
        dcay = 2j * zeta.imag / (w - zeta.conjugate()) ** 2
        der = self.rot * dcay * dw
        return (complex(val), complex(der)) if scalar else (val, der)

    def derivative(self, z):
        return self.evaluate_with_derivative(z)[1]

    def inverse(self, d):
        """phi^-1(d); a point runs as a batch of one."""
        d = np.asarray(d, dtype=complex)
        d2 = d.ravel() / self.rot
        zeta = self._zeta
        w = (zeta - d2 * zeta.conjugate()) / (1.0 - d2)
        out = self.chain.inverse(w).reshape(d.shape)
        return out if d.ndim else complex(out)

    def _test_grid(self):
        pts = np.asarray(self.source.point(np.arange(64) / 64.0), dtype=complex)
        grid = [self.z0 + s * (pts - self.z0) for s in (0.35, 0.7)]
        return np.concatenate(grid)


def riemann_map(domain: JordanDomain, z0: complex, params=None) -> ZipperMap:
    """Riemann map of a Jordan domain onto the unit disc, normalized by
    phi(z0) = 0 and phi'(z0) > 0, on the boundary parameter grid params
    (default: 512 uniform parameters, or the domain's own grid).

    Results are cached per (z0, params) on the domain; z0 is checked to lie
    inside when its map is built, not on a cache hit.  Raises NonConvergence
    if the boundary data folds over at that resolution.
    """
    pkey = None if params is None else hash(np.asarray(params, dtype=float).tobytes())
    key = (complex(z0), pkey)
    cached = domain._map_cache.get(key)
    if cached is not None:
        return cached
    if not domain.contains(z0):
        raise DegenerateInput("normalization point must lie inside the domain")
    m = domain._map_cache[key] = ZipperMap(domain, z0, params=params)
    return m


# ---------------------------------------------------------------------------
# annulus universal cover
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnnulusCover:
    """Universal cover of {1/r < |z| < r} by the vertical strip
    {|Re zeta| < log r} via zeta -> exp(zeta), deck shift 2 pi i.

    The strip hyperbolic density is
    lambda(zeta) = (pi / (4 log r)) / cos(pi Re(zeta) / (2 log r)).
    """

    r: float

    def __post_init__(self):
        _require_modulus(self.r)

    @property
    def half_width(self):
        return math.log(self.r)

    def lift(self, z: complex) -> complex:
        return cmath.log(z)

    def strip_to_upper(self, zeta):
        """Conformal map of the strip onto the upper half-plane."""
        L = self.half_width
        return np.exp(1j * math.pi * (np.asarray(zeta, dtype=complex) + L) / (2.0 * L))

    def strip_distance(self, a: complex, b: complex) -> float:
        """Hyperbolic distance of the strip, stable across deck translates
        whose half-plane images differ by hundreds of orders of magnitude."""
        from .distances import halfplane_hyperbolic_distance

        L = self.half_width
        # chart moduli are exp(-pi Im zeta / 2L); drop translates outside
        # the representable range, they are never the minimizing lift
        if max(abs(a.imag), abs(b.imag)) * math.pi / (2.0 * L) > 600.0:
            return math.inf
        pa = complex(self.strip_to_upper(a))
        pb = complex(self.strip_to_upper(b))
        if not (pa.imag > 0.0 and pb.imag > 0.0):
            return math.inf
        return halfplane_hyperbolic_distance(pa, pb)
