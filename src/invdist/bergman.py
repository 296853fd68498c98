"""Bergman kernel, metric, and distance on the supported domains.

A simply connected planar domain transports the model kernel through its
conformal chart f onto the unit disc or the upper half-plane:
K = |f'|^2 / (pi q^2) and beta = sqrt(2) |f' X| / q, with q = 1 - |f|^2 on
the disc and 2 Im f on the half-plane.  The annulus kernel is the Laurent
orthonormal series with an explicit geometric tail bound.  On the diagonal
each point sums the term range of its fixed bin of log|z|, so its value
does not depend on the batch it comes in; the terms' log-norms and moments
are read from one table per kernel, grown on demand.  The metric is the
square root of the Laplacian-type Hessian of log K.  A term range that
would need more than _NMAX terms raises NonConvergence.  The metric is
rotation-invariant, so the annulus Bergman distance is the length of a
Clairaut geodesic: a 1-D shoot in the Clairaut constant with Gauss-Legendre
quadratures; their N vs 2N gap and the shoot's miss are the reported error.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass, field

from . import _np as np

from .distances import CertifiedValue, MetricField, _chart_distance, _chart_jet, chart
from .domains import Annulus
from .errors import DegenerateInput, DomainViolation, NonConvergence, UnsupportedDomain

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


# largest Laurent index a kernel sum uses, whatever the point's modulus
_NMAX = 4000

# The diagonal sums bin log|z| on the scale v = atanh(log|z| / log r): a
# bin is [k, k + 1) * _BIN_WIDTH in v.  A tail's term count grows like the
# inverse distance to its circle, and the bins shrink geometrically toward
# both circles, so a bin's term count exceeds its points' own by ~13% at most.
# A bin whose tails need more than _NMAX terms raises NonConvergence.
_BIN_WIDTH = 1.0 / 16.0
_T_MAX = math.nextafter(1.0, 0.0)
_TOL = 1e-14     # each Laurent tail is cut where its bound falls to this


def _log_norm_sq(r: float, ns: np.ndarray) -> np.ndarray:
    """log of the monomial norms, stable for large |n| (norms overflow fast)."""
    ns = np.asarray(ns)
    logr = math.log(r)
    m = np.maximum(np.abs(ns + 1.0), 1.0)  # norm is symmetric under n -> -2 - n
    out = math.log(math.pi) + 2.0 * m * logr + np.log1p(-np.exp(-4.0 * m * logr)) - np.log(m)
    out[ns == -1] = math.log(4.0 * math.pi * logr)
    return out


@dataclass
class AnnulusKernel:
    """Truncated Laurent-series Bergman kernel of A_r with tail control.

    K(z) = sum_n |z|^{2n} / ||z^n||^2.  diagonal and log_diag_hessian give
    each point, scalar or in an array, the term range of its bin of log|z|
    (see _BIN_WIDTH), never that of its batch, so a value does not depend on
    the points evaluated with it.  The kernel's table holds the columns
    [1, n(n-1), n, -log ||z^n||^2] for n in [-N - 1, N], grown on demand up
    to N = _NMAX (8002 rows, 256 KB); each bin reads a slice of it, and the
    term range of each bin is computed once.
    """

    r: float
    _ranges: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _n: int = field(default=-1, init=False, repr=False, compare=False)
    _table: np.ndarray = field(default=None, init=False, repr=False, compare=False)

    def _terms(self, a: float, a_lo: float | None = None):
        """Term range covering both tails below _TOL for moduli in [a_lo, a]
        (a_lo = a by default): the high tail terms ~ (n+1) (a / r)^{2n} peak
        at a and the low ones ~ (n+1) (1 / (a_lo r))^{2n} at a_lo, so the
        count adapts to the moduli, up to _NMAX."""
        r = self.r
        if a_lo is None:
            a_lo = a
        ratio_hi = (a / r) ** 2
        ratio_lo = (1.0 / (a_lo * r)) ** 2
        n_hi = _tail_cut(ratio_hi)
        n_lo = _tail_cut(ratio_lo)
        n = max(n_hi, n_lo, 8)
        return np.arange(-n - 1, n + 1)

    def _bin_range(self, k: int):
        """Term range [-n_lo - 1, n_hi] of bin k as (n_lo, n_hi), each tail
        cut by _tail_cut at the bin edge nearest its circle."""
        rng = self._ranges.get(k)
        if rng is None:
            L = math.log(self.r)
            # (|z| / r)^2 at the upper edge and (1 / (|z| r))^2 at the lower
            ratio_hi = math.exp(-2.0 * L * (1.0 - math.tanh((k + 1) * _BIN_WIDTH)))
            ratio_lo = math.exp(-2.0 * L * (1.0 + math.tanh(k * _BIN_WIDTH)))
            rng = (_tail_cut(ratio_lo), _tail_cut(ratio_hi))
            self._ranges[k] = rng
            if max(rng) > self._n:
                self._grow(max(rng))
        return rng

    def _grow(self, n: int):
        """Rebuild the table for n in [-N - 1, N], N >= n, at least doubling
        N so that a kernel rebuilds it a few times at most."""
        N = min(max(n, 2 * self._n), _NMAX)
        ns = np.arange(-N - 1.0, N + 1.0)
        tab = np.empty((ns.size, 4))
        tab[:, 0] = 1.0
        tab[:, 1] = ns * (ns - 1.0)
        tab[:, 2] = ns
        tab[:, 3] = -_log_norm_sq(self.r, ns)
        self._table, self._n = tab, N

    def _sums(self, z, cols: int):
        """|z|^2 and, per point, the first cols of the sums of t_n times
        [1, n(n-1), n] over its bin's term range, t_n = |z|^{2n} / ||z^n||^2.

        Each bin's (points x terms) block of exponents 2 n log|z| -
        log ||z^n||^2 is one matrix product with the table, exponentiated
        in place and contracted with the table in a second; blocks hold
        about 256k cells (2 MB), so a large batch never holds its whole
        table.
        """
        a = np.abs(np.asarray(z, dtype=complex)).ravel()
        u = np.log(a)
        t = np.minimum(np.maximum(u / math.log(self.r), -_T_MAX), _T_MAX)
        k = np.floor(np.arctanh(t) / _BIN_WIDTH).astype(int)
        x = np.empty((a.size, 2))       # rows [2 log|z|, 1] against [n, -log ||z^n||^2]
        x[:, 0] = 2.0 * u
        x[:, 1] = 1.0
        if k.min() == k.max():
            groups = [np.arange(a.size)]
        else:
            order = np.argsort(k, kind="stable")
            groups = np.split(order, np.flatnonzero(np.diff(k[order])) + 1)
        out = np.empty((a.size, cols))
        for idx in groups:
            n_lo, n_hi = self._bin_range(int(k[idx[0]]))
            tab = self._table[self._n - n_lo:self._n + n_hi + 2]
            step = max(1, 262144 // len(tab))
            for i in range(0, idx.size, step):
                ic = idx[i:i + step]
                terms = x[ic] @ tab[:, 2:].T
                np.exp(terms, out=terms)
                out[ic] = terms @ tab[:, :cols]
        return a * a, out

    def diagonal(self, z):
        """K(z) for a scalar or array z."""
        _, sums = self._sums(z, 1)
        out = sums[:, 0].reshape(np.shape(z))
        return out if out.shape else float(out)

    def pair(self, z, w: complex):
        """K(z, w) for a scalar or array z and a scalar w.

        Each Laurent term (z conj w)^n / ||n||^2 is formed from its neighbour
        toward n = 0, so no power of z overflows.  The tails fall like
        (|z||w| / r^2)^n and (1 / (|z||w| r^2))^n, so the term range comes
        from the extremes of sqrt(|z||w|) over the batch.  Rows sum in
        chunks of about 256k cells, as in log_diag_hessian.
        """
        z = np.asarray(z, dtype=complex)
        w = complex(w)
        u = (z * w.conjugate()).ravel()
        g = np.sqrt(np.abs(z).ravel() * abs(w))
        ns = self._terms(float(g.max()), float(g.min()))
        r, L = self.r, math.log(self.r)
        j = np.arange(1.0, ns[-1] + 1.0)
        # ||j-1||^2 / ||j||^2 in closed form, so nothing overflows; the norms
        # are symmetric under n -> -2 - n, which gives the factors below 0
        up = (j + 1.0) / j / (r * r) * np.expm1(-4.0 * j * L) / np.expm1(-4.0 * (j + 1.0) * L)
        a = math.sinh(2.0 * L) / (2.0 * L)     # ||0||^2 / ||-1||^2
        down = np.concatenate([[a, 1.0 / a], up[:-1]])
        t0 = 1.0 / (2.0 * math.pi * math.sinh(2.0 * L))   # 1 / ||0||^2
        rows = max(1, 262144 // ns.size)
        out = np.empty(u.shape, dtype=complex)
        for i in range(0, u.size, rows):
            uc = u[i:i + rows, None]
            hi = np.sum(np.cumprod(uc * up, axis=-1), axis=-1)
            lo = np.sum(np.cumprod(down / uc, axis=-1), axis=-1)
            out[i:i + rows] = t0 * (1.0 + hi + lo)
        out = out.reshape(z.shape)
        return out if out.shape else complex(out)

    def log_diag_hessian(self, z):
        """d^2/dz dzbar of log K at z, from the series in s = |z|^2:
        with k_j = d^j K / ds^j, it is k_1 / k_0 + s (k_2 / k_0 - (k_1 / k_0)^2).
        Each point's term range comes from its bin, as in diagonal."""
        s, sums = self._sums(z, 3)
        k0 = sums[:, 0]
        g = sums[:, 2] / s / k0
        out = g + s * (sums[:, 1] / (s * s) / k0 - g * g)
        out = out.reshape(np.shape(z))
        return out if out.shape else float(out)


def _tail_cut(ratio: float) -> int:
    """First n in 8, 12, ..., _NMAX whose tail bound is at most _TOL;
    NonConvergence if not even _NMAX is."""
    if ratio >= 1.0 or (_NMAX + 3) * ratio ** (_NMAX + 1) / (1.0 - ratio) ** 2 > _TOL:
        raise NonConvergence(f"a Laurent tail of ratio {ratio:.9g} needs over {_NMAX} terms")
    # sum_{k>n} (k+1) ratio^k <= (n+3) ratio^{n+1} / (1-ratio)^2 approx.  The
    # bound only rises where it is far above _TOL (past n = 8 it rises only
    # for ratio > exp(-1/11), where it exceeds 600), so the steps above _TOL
    # are a prefix: bisect for the first one below it
    lo, hi = 8, _NMAX
    while lo < hi:
        mid = lo + 4 * ((hi - lo) // 8)
        if (mid + 3) * ratio ** (mid + 1) / (1.0 - ratio) ** 2 > _TOL:
            lo = mid + 4
        else:
            hi = mid
    return lo


_KERNELS: dict = {}


def _annulus_kernel(r: float) -> AnnulusKernel:
    k = _KERNELS.get(r)
    if k is None:
        k = AnnulusKernel(r)
        _KERNELS[r] = k
    return k


# |f'| and q whose squares are normal floats
_SQ_LO, _SQ_HI = math.sqrt(sys.float_info.min), math.sqrt(sys.float_info.max)


def bergman_kernel(domain, z) -> float:
    """Bergman kernel on the diagonal K_D(z).

    On a chart, K = |f'|^2 / (pi q^2); where a square would leave the normal
    floats it is formed as (|f'| / q)^2 / pi, and DegenerateInput is raised
    where K itself is beyond the largest float."""
    m = chart(domain)
    if m is not None:
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
    if isinstance(domain, Annulus):
        if not domain.contains(z):
            raise DomainViolation("point outside the annulus")
        return _annulus_kernel(domain.r).diagonal(complex(z))
    raise UnsupportedDomain(f"bergman kernel unsupported on {type(domain).__name__}")


# ---------------------------------------------------------------------------
# metric
# ---------------------------------------------------------------------------


def bergman_metric(domain, z, X=1.0) -> float:
    """beta_D(z; X) = |X| sqrt(d^2 log K / dz dzbar)."""
    m = chart(domain)
    if m is not None:
        df, q = _chart_jet(m, z)
        return math.sqrt(2.0) * abs(df * X) / q
    if isinstance(domain, Annulus):
        if np.isscalar(z) or isinstance(z, complex):
            if not domain.contains(z):
                raise DomainViolation("point outside the annulus")
            h = _annulus_kernel(domain.r).log_diag_hessian(complex(z))
            return abs(X) * math.sqrt(max(h, 0.0))
        z = np.asarray(z, dtype=complex)
        a = np.abs(z)
        inside = (a > 1.0 / domain.r) & (a < domain.r)
        z_safe = np.where(inside, z, 1.0)
        h = _annulus_kernel(domain.r).log_diag_hessian(z_safe)
        return np.where(inside, np.abs(X) * np.sqrt(np.maximum(h, 0.0)), np.inf)
    raise UnsupportedDomain(f"bergman metric unsupported on {type(domain).__name__}")


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
    m = chart(domain)
    if m is not None:
        c = _chart_distance(m, z, w)
        root2 = math.sqrt(2.0)
        return CertifiedValue(root2 * c.lo, root2 * c.hi, c.method,
                              root2 * c.error_estimate)
    if isinstance(domain, Annulus):
        if not (domain.contains(z) and domain.contains(w)):
            raise DomainViolation("points must lie inside the annulus")
        return shortest_path_length(bergman_field(domain), domain.r, z, w)
    raise UnsupportedDomain(f"bergman distance unsupported on {type(domain).__name__}")
