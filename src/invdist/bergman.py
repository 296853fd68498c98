"""Bergman kernel, metric, and distance on the supported domains.

A simply connected planar domain transports the model kernel through its
conformal chart f onto the unit disc or the upper half-plane:
K = |f'|^2 / (pi q^2) and beta = sqrt(2) |f' X| / q, with q = 1 - |f|^2 on
the disc and 2 Im f on the half-plane.  The annulus kernel is the
Weierstrass series of AnnulusKernel: a csc^2 term that carries the blow-up
at the nearer circle in closed form, plus a cosine series whose terms fall
like exp(-pi^2 n / log r), so it needs no table, no term cap and works up
to either circle.  The metric is the square root of the Laplacian-type
Hessian of log K, from the same series differentiated termwise.  It is
rotation-invariant, so the annulus Bergman distance is the length of a
Clairaut geodesic: a 1-D shoot in the Clairaut constant with Gauss-Legendre
quadratures; their N vs 2N gap and the shoot's miss are the reported error.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass

from . import _np as np

from .distances import CertifiedValue, MetricField, _chart_distance, _chart_jet, _dispatch
from .domains import _require_modulus
from .errors import DegenerateInput, NonConvergence

__all__ = [
    "bergman_kernel",
    "bergman_metric",
    "bergman_distance",
    "bergman_field",
    "shortest_path_length",
    "AnnulusKernel",
]


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


_TOL = 1e-17     # bound on each dropped term of the kernel series; S >= 1 on the diagonal
_FLOAT_MIN, _FLOAT_MAX = sys.float_info.min, sys.float_info.max
_EPS = sys.float_info.epsilon
_HESS_TOL = 1e-8     # largest relative rounding estimate log_diag_hessian accepts
# below this r, K and H stay floats: |z| > 1 / r, and on the diagonal t > 4e-16
# unless it is 0, so the csc^2 term bounds (k / 2)^2 S and (log S)'' by
# ~5 / t^2 < 3e31, and K, H by 3e31 r^2
_R_FLOATS = 1e137
# below this t = 2 log(|z| r) or 2 log(r / |z|), the rounding of the product
# or the quotient is over 2^-32 of t, so t is formed from their exact values
_T_EXACT = 2.0 ** -20


@dataclass
class AnnulusKernel:
    """Bergman kernel of A_r in closed form: the Weierstrass series of the
    annulus kernel (S. Bergman, The Kernel Function and Conformal Mapping,
    1950).

    On {rho < |zeta| < 1}, with rho = r^-2, zeta = z / r, omega = log(1 / rho),
    k = pi / omega and q^2 = exp(-2 pi k),
        K(z, w) = (k / 2)^2 S(t) / (pi z conj(w)),  t = log(zeta conj(w)),
        S(t) = csc^2(kt / 2) - 8 sum_{n >= 1} n q^2n / (1 - q^2n) cos(nkt),
    with t on the principal branch.  S is even with the real period 2 omega,
    so t is moved by a period to the circle nearer to z conj(w), where the
    csc^2 term carries the kernel's blow-up in closed form.  The series is
    cut at the first n whose bound n q^2n / (1 - q^2n) e^{nk |Im t|}
    (1 + (nk)^2) is below _TOL: on the diagonal none on A_1.05, 3 terms on
    A_2, 7 on A_5 and 21 on A_100, and about twice as many for pairs with
    arg(z conj(w)) near pi.  A kernel holds r and k only.
    """

    r: float

    def __post_init__(self):
        _require_modulus(self.r)
        self._k = math.pi / (2.0 * math.log(self.r))

    def _series(self, t, y: float, order: int = 0):
        """S(t), or for order 2 (S, S', S'') with the series differentiated
        termwise and the sums of their terms' magnitudes, which bound their
        rounding; at t with 0 <= Im t <= y: Im t >= 0 keeps |exp(ikt)| <= 1,
        so the csc^2 term cannot overflow."""
        k, n = self._k, 1
        while (n * (1.0 + (n * k) ** 2) * math.exp(-n * k * (2.0 * math.pi - y))
               >= -_TOL * math.expm1(-2.0 * math.pi * n * k)):
            n += 1
        ns = np.arange(1.0, n)
        nk = k * ns
        b = -8.0 * ns / np.expm1(2.0 * math.pi * nk)        # -8 n q^2n / (1 - q^2n)
        ikt = 1j * k * t
        v, e = np.exp(ikt), np.expm1(ikt)                   # exp(2ix) and v - 1, x = kt / 2
        c = -4.0 * v / (e * e)                              # csc^2 x
        kt = np.multiply.outer(t, nk)
        cos = np.cos(kt)
        s = c + cos @ b
        if order == 0:
            return s
        cot = 1j * (v + 1.0) / e
        c1, c2 = -k * c * cot, k * k * c * (1.5 * c - 1.0)
        b1, b2 = b * nk, b * nk * nk        # all b < 0
        return ((s, c1 - np.sin(kt) @ b1, c2 - cos @ b2),
                (abs(c) - b.sum(), abs(c1) - b @ nk, abs(c2) - b1 @ nk))

    def _diagonal_t(self, z):
        """|z| and t = 2 log|zeta| moved by a period to the nearer circle,
        with the sign that makes t >= 0 (S is even): 2 log(r / |z|) for
        |z| >= 1 and 2 log(|z| r) inside the core circle.  Each is one
        rounding from |z|, and the clips keep the other side finite.  Below
        _T_EXACT that rounding is much of t (an ulp inside the inner circle
        of A_3, |z| r rounds to 1 and t to 0), so there t comes from
        `_t_near_circle`."""
        a, r = np.abs(z), self.r
        t = 2.0 * np.log(np.minimum(r / np.maximum(a, 1.0), np.minimum(a, 1.0) * r))
        near = t < _T_EXACT
        if near.any() if near.shape else near:      # a point skips numpy's reduction
            t = np.where(near, np.vectorize(self._t_near_circle, otypes=[float])(a, a, a >= 1.0), t)
        return a, t

    def _t_near_circle(self, a: float, b: float, outer: bool) -> float:
        """log(r / a) + log(r / b) near the outer circle, log(a r) + log(b r)
        near the inner one, at |z| = a and |w| = b: each log is log1p(x) of
        x = r / a - 1 or a r - 1 rounded once from its exact value, which
        keeps its digits an ulp from a circle, where a r or r / a rounds to
        1.  At b = a it is the diagonal's t."""
        from fractions import Fraction

        a, b, r = Fraction(float(a)), Fraction(float(b)), Fraction(self.r)
        x, y = (r / a, r / b) if outer else (a * r, b * r)
        return math.log1p(float(x - 1)) + math.log1p(float(y - 1))

    def diagonal(self, z):
        """K(z) for a scalar or array z; DegenerateInput where K is beyond the
        largest float (near the inner circle of A_r for r past ~1e137)."""
        a, t = self._diagonal_t(z)
        out = self._quotient((0.5 * self._k) ** 2 * self._series(t, 0.0).real, math.pi * a, a,
                             f"the Bergman kernel at {z}")
        return out if np.ndim(out) else float(out)

    def _quotient(self, x, b, a, what: str):
        """x / b / a on the diagonal, and DegenerateInput where it passes the
        largest float, which only an r past _R_FLOATS allows (the check and
        numpy's silenced overflow are skipped below it)."""
        if self.r <= _R_FLOATS:
            return x / b / a
        with np.errstate(over="ignore"):
            out = x / b / a
        if not np.isfinite(out).all():
            raise DegenerateInput(f"{what} is beyond the largest float")
        return out

    def pair(self, z, w: complex):
        """K(z, w) for a scalar or array z and a scalar w; the series is cut
        for the batch's largest |arg(z conj(w))|.  DegenerateInput where the
        denominator pi z conj(w) or K leaves the normal floats (K is then
        beyond the largest float, or would come out of a rounded product)."""
        z = np.asarray(z, dtype=complex)
        w = complex(w)
        t, den = self._pair_t(z, w)
        t = t * np.copysign(1.0, t.imag)  # Im t >= 0, as S is even
        s = self._series(t, float(np.max(t.imag, initial=0.0)))
        with np.errstate(all="ignore"):     # what leaves the floats is refused below
            out = (0.5 * self._k) ** 2 * s / den
        size = np.abs(den)
        if not np.all(np.isfinite(out) & (size >= _FLOAT_MIN) & (size <= _FLOAT_MAX)):
            raise DegenerateInput("the annulus kernel K(z, w) or its denominator "
                                  "pi z conj(w) leaves the floats")
        return out if out.shape else complex(out)

    def _pair_t(self, z, w: complex):
        """t = log(zeta conj(w)) and the denominator pi z conj(w).

        t is moved by a period to the nearer circle as on the diagonal:
        log((z / p)(conj(w) / p)) with p = r^(+-1).  For r past about 1e154
        that product can leave the normal floats; there t is
        log|z| + log|w| - 2 log p plus i times the angle of the product of
        the unit vectors z / |z| and conj(w) / |w|, and elsewhere it keeps
        the one-rounding product.  Where |Re t| < _T_EXACT that rounding is
        much of Re t, so there Re t comes from `_t_near_circle`, Im t is
        arg z - arg w and the denominator is pi |z| |w| exp(i Im t): z = w
        gives a real t and a real denominator, and so a real K."""
        a = np.abs(z)
        with np.errstate(over="ignore", invalid="ignore"):
            p = self.r ** np.copysign(1.0, a * abs(w) - 1.0)
            zw = (z / p) * (w.conjugate() / p)
            size = np.abs(zw)
            den = math.pi * z * w.conjugate()
        normal = (size >= _FLOAT_MIN) & (size <= _FLOAT_MAX)
        t = np.log(np.where(normal, zw, 1.0))
        if not np.all(normal):
            unit = (z / a) * (w.conjugate() / abs(w))
            far = (np.log(a) + (math.log(abs(w)) - 2.0 * np.log(p))) + 1j * np.angle(unit)
            t = np.where(normal, t, far)
        near = np.abs(t.real) < _T_EXACT
        if near.any() if near.shape else near:      # a point skips numpy's reduction
            # numpy's modulus and argument on both points, so that z = w
            # gives the diagonal's |z| and u = 1; Re t = log(|z| |w| / p^2)
            u = np.exp(1j * (np.angle(z) - np.angle(w)))
            h = np.vectorize(self._t_near_circle, otypes=[float])(a, np.abs(w), p > 1.0)
            t = np.where(near, np.where(p > 1.0, -h, h) + 1j * np.angle(u), t)
            with np.errstate(over="ignore", invalid="ignore"):
                den = np.where(near, math.pi * (a * np.abs(w)) * u, den)
        return t, den

    def log_diag_hessian(self, z):
        """d^2/dz dzbar of log K at z: log|z|^2 is harmonic and t = 2 log|zeta|,
        so it is H = (log S)''(t) / |z|^2 = (S'' / S - (S' / S)^2) / |z|^2.

        On thick annuli the terms of each sum and the two terms of H cancel
        away from the circles.  NonConvergence where the rounding of the
        series sums, carried through that difference, is above _HESS_TOL of
        it (at the core circle from r ~ 2e5; on A_100 it stays below 2e-14),
        and DegenerateInput where H is beyond the largest float (near the
        inner circle of A_r for r past ~1e137)."""
        a, t = self._diagonal_t(z)
        (s, s1, s2), (m0, m1, m2) = self._series(t, 0.0, 2)
        g, h = s1 / s, s2 / s
        d = (h - g * g).real
        out = self._quotient(d, a, a, f"the Bergman metric's log K Hessian at {z}")
        # each sum's rounding, eps times its terms' magnitudes, carried through d
        ag = abs(g)
        err = _EPS * (m2 + 2.0 * ag * m1 + (abs(h) + 2.0 * ag * ag) * m0) / abs(s)
        if not (d * _HESS_TOL > err).all():
            raise NonConvergence("the Bergman metric's (log S)'' = S''/S - (S'/S)^2 cancels "
                                 "past the digits of its terms (a thick annulus)")
        return out if np.ndim(out) else float(out)


# |f'| and q whose squares are normal floats
_SQ_LO, _SQ_HI = math.sqrt(sys.float_info.min), math.sqrt(sys.float_info.max)


def bergman_kernel(domain, z) -> float:
    """Bergman kernel on the diagonal K_D(z).

    On a chart, K = |f'|^2 / (pi q^2); where a square would leave the normal
    floats it is formed as (|f'| / q)^2 / pi, and DegenerateInput is raised
    where K itself is beyond the largest float."""
    return _dispatch(domain, _chart_kernel, "_bergman_kernel", "bergman kernel", z)


def _chart_kernel(m, z) -> float:
    df, q = _chart_jet(m, z)
    a = abs(df)
    if _SQ_LO < a < _SQ_HI and _SQ_LO < q < _SQ_HI:
        k = a ** 2 / (math.pi * q ** 2)
    else:
        t = a / q
        k = t * (t / math.pi)
    if k == math.inf:
        raise DegenerateInput(f"the Bergman kernel at {z} is beyond the largest float")
    return k


# ---------------------------------------------------------------------------
# metric
# ---------------------------------------------------------------------------


def bergman_metric(domain, z, X=1.0) -> float:
    """beta_D(z; X) = |X| sqrt(d^2 log K / dz dzbar)."""
    return _dispatch(domain, _chart_metric, "_bergman_metric", "bergman metric", z, X)


def _chart_metric(m, z, X) -> float:
    df, q = _chart_jet(m, z)
    return math.sqrt(2.0) * abs(df * X) / q


def bergman_field(domain) -> MetricField:
    return MetricField("bergman", lambda z, X=1.0: bergman_metric(domain, z, X), domain)


# ---------------------------------------------------------------------------
# shortest path on the annulus
# ---------------------------------------------------------------------------

_GEO_TOL = 1e-6     # largest N vs 2N length gap shortest_path_length accepts


@functools.cache
def _geo_rules():
    """The Gauss-Legendre rules of the geodesic quadratures, N = 32 nodes and
    2N for the gap, built on first use: importing numpy.polynomial costs
    every process that never measures an annulus Bergman distance."""
    leggauss = np.polynomial.legendre.leggauss
    return leggauss(32), leggauss(64)


def _geodesics(field: MetricField, r: float, a: float, b: float):
    """The geodesics of a rotation-invariant field on A_r between the
    log-moduli a < b, b > 0, as the shoot bracket (lo, hi) and
    geodesic(s, rule) -> (c, angle, integral of sqrt(g^2 - c^2) du).  The
    flag geodesic.negative_radicand turns True once a node's g^2 - c^2
    rounds below 0, where the angle and the integral turn NaN.

    In log coordinates u + i theta the metric is g(u) |d(u + i theta)|, with
    g(u) = field(e^u, e^u) even in u and least on the core circle u = 0.
    Clairaut's relation g sin(psi) = c (psi the angle to the radial
    direction) gives a geodesic's angle, summed over its monotone runs in u,
    as the integral of c du / sqrt(g^2 - c^2), and its length as c angle +
    the integral of sqrt(g^2 - c^2) du.  The angle increases with s:
      s <= 0       c^2 = g(0)^2 - k s^2, no turning, u = -s sinh t;
      0 < s <= a   c = g(s), no turning, u = s cosh t;
      a < s < 2a   c = g(u_t), turning at u_t = 2a - s, u = u_t cosh t;
    with k = (g(h)^2 - g(0)^2) / h^2, h = log(r) / 4.  Each map makes the
    integrand smooth at its turning point or at the core circle.
    """
    def g(u):
        e = np.exp(u)
        return np.asarray(field(e, e), dtype=float)

    h = 0.25 * math.log(r)
    g0, gh = g(np.array([0.0, h]))
    k = (gh * gh - g0 * g0) / (h * h)
    if not k > 0.0:
        raise NonConvergence("the metric density is not least on the core circle")

    def geodesic(s, rule):
        x, wt = rule
        if s <= 0.0:
            m = max(-s, 1e-300)
            spans, f, df = [(math.asinh(a / m), math.asinh(b / m))], np.sinh, np.cosh
        else:
            m = s if s <= a else 2.0 * a - s
            ends = (a, b) if s > a else (b,)
            t0 = 0.0 if s > a else math.acosh(a / m)
            spans, f, df = [(t0, math.acosh(e / m)) for e in ends], np.cosh, np.sinh
        t = np.concatenate([0.5 * (t0 + t1) + 0.5 * (t1 - t0) * x for t0, t1 in spans])
        wq = np.concatenate([0.5 * (t1 - t0) * wt for t0, t1 in spans])
        u = m * f(t)
        gu = g(u if s <= 0.0 else np.append(u, m))
        dc2 = -k * m * m if s <= 0.0 else gu[-1] ** 2 - g0 * g0    # c^2 - g(0)^2
        c = math.sqrt(max(g0 * g0 + dc2, 0.0))
        du = wq * m * df(t)
        rad = (gu[:u.size] ** 2 - g0 * g0) - dc2                   # g^2 - c^2
        with np.errstate(divide="ignore", invalid="ignore"):
            sq = np.sqrt(rad)
            rest = float(np.sum(du * sq))
            if math.isnan(rest):        # a negative radicand leaves sq, so rest, NaN
                geodesic.negative_radicand |= bool(np.any(rad < 0.0))
            return c, c * float(np.sum(du / sq)), rest

    geodesic.negative_radicand = False
    return (-g0 / math.sqrt(k), max(2.0 * a, 0.0)), geodesic


def shortest_path_length(field: MetricField, r: float, z: complex, w: complex) -> CertifiedValue:
    """Length of the geodesic from z to w in A_r of a rotation-invariant field
    (see _geodesics).

    dL/dangle = c >= 0, so the lift with the least angle |arg(w / z)| <= pi
    is the shortest.  Bisection in the shoot parameter s finds its N-node
    root.  The error is the N vs 2N length gap plus the root's miss: the
    length L = c gap + rest has dL = (gap - angle) dc along the shoot and
    the 2N angle rises with s, so L misses by at most |angle - gap| times
    the variation of c over a bracket of the 2N root.  c rises with s to
    g(a) at s = a, falls after it, and tends to g(0) at the bracket's top.
    NonConvergence when the error is above 1e-6 or not finite: far pairs on
    thin annuli need 1 - c / g(0) below ~1e-14, where g^2 - c^2 cancels.
    """
    z, w = complex(z), complex(w)
    if z == w:
        return CertifiedValue.exact(0.0, "shortest_path")
    gap = abs(cmath.phase(w / z))
    a, b = sorted((math.log(abs(z)), math.log(abs(w))))
    if b <= 0.0:            # g is even: reflect the ends to b > 0
        a, b = -b, -a
    if b == 0.0:            # both on the core circle, itself a geodesic
        return CertifiedValue.estimate(float(field(1.0, 1.0)) * gap, 0.0, "shortest_path")
    (lo0, hi0), geodesic = _geodesics(field, r, a, b)
    rule_n, rule_2n = _geo_rules()
    lo, hi = lo0, hi0
    s = lo                  # c = 0: the radial path
    while gap > 0.0:
        s = 0.5 * (lo + hi)
        angle = geodesic(s, rule_n)[1]
        if abs(angle - gap) <= 1e-12 * max(gap, 1.0) or not lo < s < hi:
            break
        if angle < gap:
            lo = s
        else:
            hi = s
    geodesic.negative_radicand = False      # only the evaluations that make err count
    c, _, rest = geodesic(s, rule_n)
    c, angle, rest2 = geodesic(s, rule_2n)
    err = abs(rest2 - rest)
    if gap > 0.0 and angle != gap:
        def shot(x):        # (c, 2N angle) at x; the angle is unbounded at hi0
            return geodesic(x, rule_2n)[:2] if x < hi0 else (float(field(1.0, 1.0)), math.inf)

        # widen the bisection's bracket until its 2N angles straddle gap
        (c_lo, t_lo), (c_hi, t_hi), step = shot(lo), shot(hi), hi - lo
        while t_lo > gap and lo > lo0:
            lo, step = max(lo - step, lo0), 2.0 * step
            c_lo, t_lo = shot(lo)
        while t_hi < gap:
            hi, step = min(hi + step, hi0), 2.0 * step
            c_hi, t_hi = shot(hi)
        peaked = max(lo, 0.0) < a < hi
        err += abs(angle - gap) * (2.0 * shot(a)[0] - c_lo - c_hi if peaked
                                   else abs(c_hi - c_lo))
    if math.isnan(err) and geodesic.negative_radicand:     # c is g(0) to rounding
        raise NonConvergence("the Clairaut radicand g^2 - c^2 went negative at a geodesic "
                             "quadrature node: 1 - c / g(0) is below the rounding of g")
    if not err <= _GEO_TOL:
        raise NonConvergence(f"geodesic quadrature gap {err:.3g} above {_GEO_TOL:g}")
    return CertifiedValue.estimate(c * gap + rest2, err, "shortest_path")


def bergman_distance(domain, z, w) -> CertifiedValue:
    """Bergman distance b_D(z, w).

    Simply connected planar domains: sqrt(2) times the hyperbolic distance
    of the domain's chart.  Annulus: the Clairaut geodesic's length from
    shortest_path_length, an estimate whose error is its quadrature gap
    (none at z = w).
    """
    return _dispatch(domain, _chart_bergman_distance, "_bergman_distance", "bergman distance",
                     z, w)


def _chart_bergman_distance(m, z, w) -> CertifiedValue:
    c = _chart_distance(m, z, w)
    root2 = math.sqrt(2.0)
    return CertifiedValue(root2 * c.lo, root2 * c.hi, c.method, root2 * c.error_estimate)
