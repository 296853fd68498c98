"""Distances on the concentric annulus A_r = {1/r < |z| < r}.

Two independent routes live here.  The Kobayashi (= Lempert) distance comes
from the universal cover by a strip: minimize the strip hyperbolic distance
over deck translates.  The Caratheodory distance comes from the extremal
boundary unimodular function, a degree-2 inner function of the annulus
built out of q-theta products: one zero at the source point, the second
on the circle |zeta| = q / |zeta_z| opposite the target point.  The
build-time self-tests (boundary unimodularity) monitor it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _np as np

from .conformal import AnnulusCover
from .errors import DomainViolation, NonConvergence

__all__ = [
    "theta_product",
    "AnnulusCaratheodory",
    "annulus_kobayashi_distance",
    "annulus_kobayashi_metric",
    "deck_distances",
]


_THETA_TOL = 1e-16   # the theta product stops at the first nome power below this


def theta_product(x, p: float):
    """q-theta function theta(x; p) = prod_{k>=0} (1 - p^k x)(1 - p^{k+1} / x).

    Satisfies theta(p x) = theta(1/x) = -theta(x) / x.  Zeros at x in p^Z.
    The product runs over the nome powers p^1 .. p^n, n the first power
    below _THETA_TOL, in one numpy product per point.
    """
    x = np.asarray(x, dtype=complex)
    if p < _THETA_TOL:
        n = 1
    elif p < 1.0:
        # p^n < _THETA_TOL with room to spare, at most 100000 factors
        n = min(int(math.log(_THETA_TOL) / math.log(p)) + 2, 100000)
    else:
        n = 0
    pk = np.cumprod(np.full(n, p))
    below = np.flatnonzero(pk < _THETA_TOL)
    if below.size == 0:
        raise NonConvergence("theta product did not truncate")
    pk = pk[:below[0] + 1]
    xk = x[..., None]
    out = (1.0 - x) * np.prod((1.0 - pk * xk) * (1.0 - pk / xk), axis=-1)
    return out if out.shape else complex(out)


# ---------------------------------------------------------------------------
# covering route: Kobayashi = Lempert distance and metric
# ---------------------------------------------------------------------------


def _check_in(r, z):
    a = abs(z)
    if not (1.0 / r < a < r):
        raise DomainViolation(f"point {z} outside the annulus 1/{r} < |z| < {r}")


def deck_distances(r: float, z: complex, w: complex, n_deck: int = 16):
    """Strip hyperbolic distances over deck translates, nearest first unsorted."""
    cover = AnnulusCover(r)
    a, b = cover.lift(z), cover.lift(w)
    return [cover.strip_distance(a, b + 2j * math.pi * k)
            for k in range(-n_deck, n_deck + 1)]


def annulus_kobayashi_distance(r: float, z: complex, w: complex) -> float:
    """k_{A_r}(z, w): the least strip hyperbolic distance over 33 lifts."""
    _check_in(r, z)
    _check_in(r, w)
    return min(deck_distances(r, z, w))


def annulus_kobayashi_metric(r: float, z, X=1.0):
    """kappa_{A_r}(z; X) by covering pullback: strip density at the lift.

    Vectorized over arrays of points and directions.
    """
    L = math.log(r)
    if np.isscalar(z) or isinstance(z, complex):
        _check_in(r, z)
        a = abs(z)
        lam = (math.pi / (4.0 * L)) / math.cos(math.pi * math.log(a) / (2.0 * L))
        return lam * abs(X) / a
    a = np.abs(np.asarray(z, dtype=complex))
    inside = (a > 1.0 / r) & (a < r)
    a_safe = np.where(inside, a, 1.0)
    lam = (math.pi / (4.0 * L)) / np.cos(math.pi * np.log(a_safe) / (2.0 * L))
    return np.where(inside, lam * np.abs(X) / a_safe, np.inf)


# ---------------------------------------------------------------------------
# Caratheodory route: theta-product inner functions
# ---------------------------------------------------------------------------


@dataclass
class AnnulusCaratheodory:
    """Caratheodory distance engine for A_r.

    Internally works on the rescaled annulus {q < |zeta| < 1}, q = 1/r^2,
    with nome p = q^2.  The building block

        B(zeta, alpha) = |alpha| * theta(zeta/alpha; p) / theta(zeta*conj(alpha); p)

    has one zero at alpha, modulus 1 on |zeta| = 1 and modulus |alpha| on
    |zeta| = q.  Degree-2 inner functions are

        F(zeta) = zeta^{-1} B(zeta, a1) B(zeta, a2),   |a1 a2| = q,

    and the distance value is tanh^{-1} |F(zeta_w)| for the extremal one:
    first zero a1 = zeta_z, second zero on |zeta| = rho2 = q / |zeta_z|
    opposite zeta_w, a2 = -rho2 zeta_w / |zeta_w|, which maximizes |F(zeta_w)|
    over the angle of a2 (the explicit annulus formula, Jarnicki-Pflug,
    Invariant Distances and Metrics in Complex Analysis, 2nd ed. 2013,
    annulus section).  Then |B(zeta_w, a2)| = rho2 |theta(-|zeta_w|/rho2; p)
    / theta(-|zeta_w| rho2; p)|, and a value costs four theta products.

    series_mode reports whether the build-time unimodularity self-tests
    passed (|F| within 1e-8 of 1 at 64 points of each boundary circle; a
    NaN deviation fails); when they fail the engine refuses point values
    and callers fall back to certified intervals.  self_test_report holds
    the worst outer and inner deviations, NaN if any is, or under "error"
    the exception that stopped the self-tests (for instance a theta product
    that does not truncate).  A value whose theta products round to 0 in a
    denominator or to a non-finite value raises NonConvergence.

    Values are carried through m = tanh(distance), so distances beyond
    roughly 15 saturate double precision (m within a few ulp of 1); on the
    tanh scale the values stay uniformly accurate.
    """

    r: float

    def __post_init__(self):
        self.q = 1.0 / (self.r * self.r)
        self.p = self.q * self.q
        self.series_mode = True
        self.self_test_report = {}
        try:
            self._run_self_tests()
        except Exception as exc:
            self.series_mode = False
            self.self_test_report = {"error": f"{type(exc).__name__}: {exc}"}

    # -- building blocks ---------------------------------------------------

    def _blaschke(self, zeta, alpha):
        return abs(alpha) * theta_product(zeta / alpha, self.p) / \
            theta_product(zeta * np.conj(alpha), self.p)

    def _inner2(self, zeta, a1, a2):
        return self._blaschke(zeta, a1) * self._blaschke(zeta, a2) / zeta

    def _second_zero(self, z1, zw):
        """The extremal second zero, opposite zw, and |B(zw, a2)| there."""
        rho2 = self.q / abs(z1)
        s = abs(zw)
        factor = rho2 * abs(theta_product(-s / rho2, self.p) /
                            theta_product(-s * rho2, self.p))
        return -rho2 * zw / s, factor

    # -- public values -------------------------------------------------------

    def mobius_value(self, z: complex, w: complex) -> float:
        """m_{A_r}(z, w) = tanh of the Caratheodory distance."""
        if not self.series_mode:
            raise NonConvergence("annulus series mode unavailable (self-test failed)")
        _check_in(self.r, z)
        _check_in(self.r, w)
        if z == w:
            return 0.0
        zz, zw = z / self.r, w / self.r
        try:
            _, factor2 = self._second_zero(zz, zw)
            b1 = abs(self._blaschke(zw, zz))
        except ZeroDivisionError:   # a scalar theta product underflowed to 0
            raise NonConvergence("a theta product in a denominator rounds to 0") from None
        m = b1 * factor2 / abs(zw)
        if not math.isfinite(m):    # thousands of factors can overflow
            raise NonConvergence("the theta-product series value is not finite")
        return min(m, 1.0 - 1e-16)

    def mobius_values(self, z, w):
        """mobius_value over arrays z and w, broadcast together, in four
        array theta products.  Equal to the scalar values up to rounding:
        numpy's array complex arithmetic may round apart from its scalar
        arithmetic.  The two agree to 1e-15 on A_2 and A_5, but only to
        5e-15 on A_1.05, whose theta products run ~190 factors."""
        if not self.series_mode:
            raise NonConvergence("annulus series mode unavailable (self-test failed)")
        z, w = np.broadcast_arrays(np.asarray(z, dtype=complex), np.asarray(w, dtype=complex))
        a = np.abs(np.stack([z, w]))
        if not np.all((1.0 / self.r < a) & (a < self.r)):
            raise DomainViolation(f"points outside the annulus 1/{self.r} < |z| < {self.r}")
        zz, zw = z / self.r, w / self.r
        _, factor2 = self._second_zero(zz, zw)
        b1 = np.abs(self._blaschke(zw, zz))
        m = b1 * factor2 / np.abs(zw)
        if not np.isfinite(m).all():
            raise NonConvergence("the theta-product series value is not finite")
        return np.where(z == w, 0.0, np.minimum(m, 1.0 - 1e-16))

    def distance(self, z: complex, w: complex) -> float:
        return math.atanh(self.mobius_value(z, w))

    # -- self-tests ----------------------------------------------------------

    def _run_self_tests(self):
        angles = np.exp(2j * math.pi * np.arange(64) / 64)
        probes = [(0.7 * self.r, -0.8 / self.r), (1.0 + 0j, 0.5j * self.r),
                  (0.9 * self.r * 1j, 1.2 / self.r)]
        outer, inner = [], []
        with np.errstate(all="ignore"):     # an overflow shows as a NaN deviation
            for z, w in probes:
                zz, zw = z / self.r, w / self.r
                a2, _ = self._second_zero(zz, zw)
                for devs, circle in ((outer, angles), (inner, self.q * angles)):
                    devs.append(float(np.max(np.abs(np.abs(self._inner2(circle, zz, a2)) - 1.0))))
        # np.max keeps a NaN, and a NaN fails "dev <= 1e-8"
        self.self_test_report = {"outer": float(np.max(outer)), "inner": float(np.max(inner))}
        if not all(dev <= 1e-8 for dev in outer + inner):
            self.series_mode = False
