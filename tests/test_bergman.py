import cmath
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import invdist
from conftest import integrate_metric
from invdist import bergman as bg
from invdist.bergman import (
    AnnulusKernel,
    bergman_distance,
    bergman_field,
    bergman_kernel,
    bergman_metric,
    shortest_path_length,
)
from invdist.bounds import bg_reproducing_residual
from invdist.conformal import mobius_disc_automorphism
from invdist.distances import (
    caratheodory,
    kobayashi_field,
    kobayashi_metric,
    poincare_distance,
)
from invdist.annulus import annulus_kobayashi_distance
from invdist.domains import Annulus, Disc, UnitDisc
from invdist.errors import DegenerateInput, NonConvergence, UnsupportedDomain

ROOT2 = math.sqrt(2.0)


def monomial_series_kernel(z, terms=4000):
    """Independent disc-kernel oracle: sum (n+1) |z|^{2n} / pi over the
    orthonormal monomial basis with ||z^n||^2 = pi / (n + 1)."""
    s, a = 0.0, abs(z) ** 2
    for n in range(terms):
        s += (n + 1) * a ** n / math.pi
    return s


def annulus_monomial_norm_sq(r: float, n: int) -> float:
    """Oracle: L^2(A_r) norm squared of zeta^n, pi (r^{2n+2} - r^{-(2n+2)}) /
    (n+1), and 4 pi log r for n = -1."""
    if n == -1:
        return 4.0 * math.pi * math.log(r)
    m = n + 1
    return math.pi * (r ** (2 * m) - r ** (-2 * m)) / m


class TestDiscKernel:
    def test_center_value_against_monomial_sum(self):
        assert bergman_kernel(UnitDisc(), 0j) == pytest.approx(1.0 / math.pi, abs=1e-15)
        for z in (0.3 + 0.2j, 0.6j, -0.5 + 0.1j):
            assert bergman_kernel(UnitDisc(), z) == \
                pytest.approx(monomial_series_kernel(z), rel=1e-12)

    def test_scaled_disc_transport(self):
        big = Disc(0j, 2.0)
        # K scales by the squared derivative of the normalization
        assert bergman_kernel(big, 0j) == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-12)

    def test_metric_closed_form(self):
        assert bergman_metric(UnitDisc(), 0j) == pytest.approx(ROOT2, abs=1e-14)
        assert bergman_metric(UnitDisc(), 0.5 + 0j) == pytest.approx(ROOT2 / 0.75, rel=1e-12)

    def test_metric_to_kobayashi_ratio(self, rng):
        for _ in range(20):
            z = complex(0.95 * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform()))
            ratio = bergman_metric(UnitDisc(), z) / kobayashi_metric(UnitDisc(), z)
            assert ratio == pytest.approx(ROOT2, abs=1e-9)


class TestAnnulusKernel:
    def test_monomial_norms_closed_form(self):
        assert annulus_monomial_norm_sq(2.0, 0) == pytest.approx(math.pi * 3.75, rel=1e-14)
        assert annulus_monomial_norm_sq(2.0, -1) == \
            pytest.approx(4.0 * math.pi * math.log(2.0), rel=1e-14)

    def test_monomial_norms_quadrature_oracle(self):
        nodes, wts = np.polynomial.legendre.leggauss(64)
        rho = 0.5 * (2.0 + 0.5) / 2 + 0.5 * (2.0 - 0.5) / 2 * nodes + 0  # map to [0.5, 2]
        rho = 1.25 + 0.75 * nodes
        ww = 0.75 * wts
        for n in (-3, -1, 0, 2, 5):
            val = 2.0 * math.pi * np.sum(ww * rho ** (2 * n + 1))
            assert annulus_monomial_norm_sq(2.0, n) == pytest.approx(float(val), rel=1e-12)

    @pytest.mark.parametrize("r", [1.05, 2.0, 5.0, 100.0])
    def test_kernel_matches_the_laurent_oracle(self, r, rng):
        # K(z), the log-Hessian and K(z, w) against the Laurent sums over the
        # monomial norms, summed by math.fsum: the oracle takes |z| as the
        # kernel does, so the comparison sees the series, not that rounding.
        # Half the pairs have arg(z conj(w)) within 0.05 of +-pi
        norms = {}

        def terms(n_max):
            for n in range(-n_max - 1, n_max + 1):
                if n not in norms:
                    norms[n] = annulus_monomial_norm_sq(r, n)
                yield n, norms[n]

        def oracle(z, w):
            a, b = abs(z), abs(w)
            q = max(a, 1.0 / a, b, 1.0 / b) ** 2 / r ** 2     # the slowest tail's ratio
            n_max = int(50.0 / -math.log(q)) + 40
            u = z * w.conjugate()
            kz = [(n, a ** (2 * n) / nn) for n, nn in terms(n_max)]
            k0 = math.fsum(t for _, t in kz)
            mean = math.fsum(n * t for n, t in kz) / k0
            hess = math.fsum((n - mean) ** 2 * t for n, t in kz) / k0 / (a * a)
            kzw = [u ** n / nn for n, nn in terms(n_max)]
            kzw = complex(math.fsum(t.real for t in kzw), math.fsum(t.imag for t in kzw))
            return k0, hess, kzw

        kern = AnnulusKernel(r)
        for i in range(40):
            z = cmath.rect(r ** rng.uniform(-0.8, 0.8), 2.0 * math.pi * rng.uniform())
            gap = math.pi - rng.uniform(0.0, 0.05) if i % 2 else 2.0 * math.pi * rng.uniform()
            w = z / abs(z) * cmath.rect(r ** rng.uniform(-0.8, 0.8), gap * (-1) ** (i // 2))
            k0, hess, kzw = oracle(z, w)
            assert abs(kern.diagonal(z) / k0 - 1.0) <= 1e-13
            assert abs(kern.log_diag_hessian(z) / hess - 1.0) <= 1e-13
            scale = math.sqrt(k0 * oracle(w, w)[0])
            assert abs(kern.pair(z, w) - kzw) <= 1e-13 * scale

    def test_kernel_positive_and_symmetric(self):
        kern = AnnulusKernel(2.0)
        for z, w in [(1.2 + 0.3j, 0.7 - 0.5j), (0.6 + 0.1j, 1.8 - 0.2j)]:
            k = kern.pair(z, w)
            assert kern.pair(w, z) == pytest.approx(k.conjugate(), abs=1e-14)
        assert bergman_kernel(Annulus(2.0), 1.0 + 0j) > 0

    def test_batched_log_diag_hessian_matches_point_calls(self, rng):
        # moduli up to r^0.85 give thousands of terms on A_1.05, so the batch
        # runs in several row chunks
        r = 1.05
        kern = AnnulusKernel(r)
        mod = np.exp(rng.uniform(-0.85, 0.85, (6, 8)) * math.log(r))
        mod[0, 0] = r ** 0.85
        z = mod * np.exp(2j * np.pi * rng.uniform(size=(6, 8)))
        batch = kern.log_diag_hessian(z)
        assert batch.shape == z.shape
        points = np.array([[kern.log_diag_hessian(complex(v)) for v in row] for row in z])
        np.testing.assert_allclose(batch, points, rtol=1e-13, atol=0)

    def test_point_value_does_not_depend_on_its_batch(self, rng):
        # 500 points over the moduli of three annuli, in one batch and one by
        # one: a term range taken from a batch's largest modulus would cut
        # the low tail of its small-modulus points.  The spreads reach close
        # to both circles
        for r, spread in ((1.05, 0.86), (2.0, 0.99), (5.0, 0.996)):
            kern = AnnulusKernel(r)
            L = math.log(r)
            z = np.exp(rng.uniform(-spread, spread, 500) * L +
                       2j * math.pi * rng.uniform(size=500))
            for f in (kern.diagonal, kern.log_diag_hessian):
                points = np.array([f(complex(v)) for v in z])
                np.testing.assert_allclose(f(z), points, rtol=1e-13, atol=0)
        k = AnnulusKernel(2.0)
        assert k.diagonal(np.array([0.52, 0.9]))[0] == pytest.approx(191.82110254173833,
                                                                      rel=1e-13)

    @pytest.mark.parametrize("r, a", [(2.0, 0.5001), (2.0, 0.50001), (1.05, 1.049),
                                      (1.05, 1.05 ** 0.9), (1.001, 1.0), (2.0, 2.0 ** -0.999)])
    def test_near_circle_points_match_a_long_sum(self, r, a):
        # points that the capped Laurent sums refused (K(0.5001) on A_2 needs
        # ~130k terms) against 2^20 terms a side, summed in log space from
        # log(a / r) and log(a r); the log-Hessian is the terms' variance in
        # n over |z|^2
        L = math.log(r)
        m = np.arange(1.0, 2.0 ** 20 + 1.0)
        lo, hi = math.log(a * r), math.log(a / r)
        # n = m - 1 >= 0, n = -1 and n = -m - 1 <= -2, each term times pi
        ns = np.concatenate([m - 1.0, [-1.0], -m - 1.0])
        cut = -np.expm1(-4.0 * m * L)       # 1 - r^(-4m), shared by n and -2 - n
        t = np.concatenate([m * np.exp(2.0 * (m - 1.0) * hi) / (r * r) / cut,
                            [1.0 / (4.0 * L * a * a)],
                            m * np.exp(-2.0 * m * lo) / (a * a) / cut])
        k0 = math.fsum(t.tolist())
        mean = math.fsum((ns * t).tolist()) / k0
        hess = math.fsum(((ns - mean) ** 2 * t).tolist()) / k0 / (a * a)
        assert abs(bergman_kernel(Annulus(r), a) / (k0 / math.pi) - 1.0) <= 1e-12
        assert abs(bergman_metric(Annulus(r), a) / math.sqrt(hess) - 1.0) <= 1e-12
        assert np.all(np.isfinite(bergman_metric(Annulus(r), np.array([a, 1j * a]))))

    def test_reproducing_property(self):
        residual = bg_reproducing_residual(2.0, 1.2 + 0.4j, range(-5, 6))
        assert residual < 1e-6

    @pytest.mark.parametrize("w, n_ang", [(1.2 + 0.4j, 128), (1.5 + 0.5j, 256)])
    def test_reproducing_quadrature_against_1024_angles(self, w, n_ang):
        # oracle: the same radial rule on 1024 angles, far past the first
        # alias.  Each order agrees within a few ulps of the largest |w^n|:
        # the two angle counts may round an order apart by one ulp of it
        from invdist.bounds import (_aliasing_angles, _gauss_legendre, _radial_nodes,
                                    _reproducing_quadrature)

        r, orders = 2.0, range(-5, 6)
        assert _aliasing_angles(r, w, 5) == n_ang
        rho, rw = _gauss_legendre(_radial_nodes(r, 5), 1.0 / r, r)
        vals = _reproducing_quadrature(r, w, orders, rho, rw, n_ang)
        oracle = _reproducing_quadrature(r, w, orders, rho, rw, 1024)
        ulp = math.ulp(max(abs(w ** n) for n in orders))
        assert max(abs(v - o) for v, o in zip(vals, oracle)) <= 4 * ulp

    @pytest.mark.parametrize("w", [1.2 + 0.4j, 1.5 + 0.5j])
    def test_radial_rule_agrees_with_six_panels(self, w):
        # the previous fixed rule, 6 panels of 48 numpy Gauss-Legendre nodes
        # summed by np.sum, gives the same values order by order
        from invdist.bounds import (_aliasing_angles, _gauss_legendre, _radial_nodes,
                                    _reproducing_quadrature)

        r, orders = 2.0, range(-5, 6)
        n_ang = _aliasing_angles(r, w, 5)
        nodes, wts = np.polynomial.legendre.leggauss(48)
        edges = np.linspace(1.0 / r, r, 7)
        rho = np.concatenate([0.5 * (a + b) + 0.5 * (b - a) * nodes
                              for a, b in zip(edges[:-1], edges[1:])])
        rw = np.concatenate([0.5 * (b - a) * wts for a, b in zip(edges[:-1], edges[1:])])
        zgrid = rho[:, None] * np.exp(2j * math.pi * np.arange(n_ang) / n_ang)[None, :]
        kern = AnnulusKernel(r).pair(zgrid, w)
        dA = rw[:, None] * rho[:, None] * (2.0 * math.pi / n_ang)
        old = [complex(np.sum(zgrid ** n * np.conj(kern) * dA)) for n in orders]
        new = _reproducing_quadrature(r, w, orders,
                                      *_gauss_legendre(_radial_nodes(r, 5), 1.0 / r, r), n_ang)
        assert max(abs(a - b) for a, b in zip(old, new)) <= 1e-14

    def test_radial_node_count_follows_the_pole_bound(self):
        from invdist.bounds import _gauss_legendre, _radial_nodes

        assert [_radial_nodes(r, 5) for r in (1.05, 1.2, 2.0, 5.0)] == [7, 11, 25, 68]
        assert _radial_nodes(2.0, 1) == 18         # a simple pole: 3^-36 < 1e-17
        assert _radial_nodes(1.05, 20) == 21       # exactness for rho^41 decides
        # on A_2 the bounded count integrates rho^(2n+1), n = -5..5, to
        # rounding; 16 nodes do not reach the order -5 pole
        r = 2.0
        exact = [2.0 * math.log(r) if n == -1 else (r ** (2 * n + 2) - r ** (-2 * n - 2)) / (2 * n + 2)
                 for n in range(-5, 6)]

        def worst(count):
            rho, rw = _gauss_legendre(count, 1.0 / r, r)
            return max(abs(float(np.sum(rw * rho ** (2 * n + 1))) / e - 1.0)
                       for n, e in zip(range(-5, 6), exact))

        assert worst(_radial_nodes(r, 5)) < 2e-15
        assert worst(16) > 1e-9

    @pytest.mark.parametrize("n", [1, 2, 5, 16, 25, 68])
    def test_gauss_legendre_rule_is_exact_to_degree_2n_minus_1(self, n):
        from invdist.bounds import _gauss_legendre

        x, w = _gauss_legendre(n, -1.0, 1.0)
        assert np.all(np.abs(x) < 1.0) and np.unique(x).size == n
        for k in range(2 * n):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(float(np.sum(w * x ** k)) - exact) <= 4e-16 * n

    def test_metric_matches_log_kernel_hessian_fd(self):
        dom = Annulus(2.0)
        z0, h = 1.0, 1e-4
        logk = lambda z: math.log(bergman_kernel(dom, z))
        lap = (logk(z0 + h) + logk(z0 - h) + logk(complex(z0, h)) + logk(complex(z0, -h))
               - 4.0 * logk(z0 + 0j)) / (h * h)
        assert bergman_metric(dom, 1.0 + 0j) == pytest.approx(math.sqrt(lap / 4.0), abs=1e-4)


class TestDiscBergmanDistance:
    def test_radial_value(self):
        v = bergman_distance(UnitDisc(), 0j, 0.5 + 0j)
        assert v.value == pytest.approx(ROOT2 * math.atanh(0.5), abs=1e-12)

    def test_equals_root2_caratheodory(self, rng):
        dom = UnitDisc()
        for _ in range(20):
            z = complex(0.9 * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform()))
            w = complex(0.9 * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform()))
            assert bergman_distance(dom, z, w).value == \
                pytest.approx(ROOT2 * caratheodory(dom, z, w).value, abs=1e-9)

    def test_kernel_pipeline_geodesic_integral(self, rng):
        # integrate the kernel-model metric along the hyperbolic geodesic
        dom = UnitDisc()
        field = bergman_field(dom)
        for _ in range(5):
            z = complex(0.8 * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform()))
            w = complex(0.8 * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform()))
            if abs(z - w) < 1e-3:
                continue
            m = mobius_disc_automorphism(z)
            u = complex(m.evaluate(w))

            def path(t):
                return m.inverse(t * u)

            def dpath(t):
                return u * (1.0 - abs(z) ** 2) / (1.0 + z.conjugate() * t * u) ** 2

            val = integrate_metric(field, path, dpath, n_panels=24)
            assert val == pytest.approx(ROOT2 * poincare_distance(z, w), abs=1e-9)

    def test_ellipse_transport(self, ellipse):
        v = bergman_distance(ellipse, 0j, 1.0 + 0j)
        c = caratheodory(ellipse, 0j, 1.0 + 0j)
        assert v.value == pytest.approx(ROOT2 * c.value, abs=1e-9)

    def test_unsupported_ball(self):
        from invdist.domains import Ball
        with pytest.raises(UnsupportedDomain):
            bergman_distance(Ball((0j, 0j), 1.0), np.array([0j, 0j]), np.array([0.5, 0j]))


def log_path_length(r, z, w, alpha, beta, gamma=0.0):
    """Bergman length of the explicit path exp(log z + s(t) log(w / z) +
    alpha t(1-t) + gamma t(1-t)(t - 1/2)), s = t + beta t(1-t): an upper
    bound on the distance that no geodesic solver enters."""
    lz, d = cmath.log(z), cmath.log(w / z)

    def path(t):
        return cmath.exp(lz + (t + beta * t * (1 - t)) * d + alpha * t * (1 - t)
                         + gamma * t * (1 - t) * (t - 0.5))

    def dpath(t):
        return path(t) * ((1 + beta * (1 - 2 * t)) * d + alpha * (1 - 2 * t)
                          + gamma * (-3 * t * t + 3 * t - 0.5))

    return integrate_metric(bergman_field(Annulus(r)), path, dpath, n_panels=16)


# one pair per Clairaut regime on A_2 and A_5 (crossing the core circle, no
# turning point, a turning point, radial), and near pairs on A_1.05
CLAIRAUT_PAIRS = [
    (2.0, 0.7j, -1.1 + 0.2j), (2.0, 0.8, 1.3 * cmath.exp(3.1j)),
    (2.0, 1.1, 1.9 * cmath.exp(0.2j)), (2.0, 1.5, 1.6 * cmath.exp(2.5j)),
    (2.0, 0.6, 0.55 * cmath.exp(-3.0j)), (2.0, 1.2, 1.9),
    (5.0, 0.7, 2.0 * cmath.exp(0.8j)), (5.0, 1.5, 4.0 * cmath.exp(0.3j)),
    (5.0, 2.0, 2.5 * cmath.exp(2.0j)), (5.0, 0.3, 0.25 * cmath.exp(-2.9j)), (5.0, 0.25, 3.0),
    (1.05, 1.01, 1.02 * cmath.exp(0.01j)), (1.05, 0.98, 1.03 * cmath.exp(0.02j)),
    (1.05, 1.03, 1.03 * cmath.exp(0.05j)), (1.05, 0.97, 0.99 * cmath.exp(-0.004j)),
    (1.05, 0.97, 1.04),
]


class TestAnnulusBergmanDistance:
    def test_shortest_path_recovers_covering_kobayashi(self):
        dom = Annulus(2.0)
        field = kobayashi_field(dom)
        for z, w in [(1.0 + 0j, 1.5 + 0j), (0.6 + 0j, 1.9j)]:
            sp = shortest_path_length(field, 2.0, z, w)
            k = annulus_kobayashi_distance(2.0, z, w)
            assert abs(sp.value - k) < 1e-9

    @pytest.mark.parametrize("r, z, w", CLAIRAUT_PAIRS)
    def test_clairaut_kobayashi_equals_covering_formula(self, r, z, w):
        z, w = complex(z), complex(w)
        sp = shortest_path_length(kobayashi_field(Annulus(r)), r, z, w)
        assert abs(sp.value - annulus_kobayashi_distance(r, z, w)) < 1e-10
        assert sp.method == "shortest_path" and sp.error_estimate < 1e-9

    def test_interval_and_rotation_invariance(self):
        dom = Annulus(2.0)
        v = bergman_distance(dom, 1.0 + 0j, 1.5 + 0j)
        # a shortest-path estimate, not an enclosure
        assert v.method == "shortest_path"
        assert v.error_estimate == pytest.approx(0.5 * v.width, rel=1e-12)
        assert v.hi >= v.lo
        rot = cmath.exp(0.9j)
        v2 = bergman_distance(dom, rot, 1.5 * rot)
        assert abs(v.value - v2.value) < 1e-9

    def test_comparison_k_le_4b(self):
        dom = Annulus(2.0)
        z, w = 1.0 + 0j, 1.5 + 0j
        k = annulus_kobayashi_distance(2.0, z, w)
        b = bergman_distance(dom, z, w)
        assert k <= 4.0 * b.hi + 1e-6

    @pytest.mark.parametrize("r, z, w, path, value", [
        # the benchmark's A_5 Bergman pair shape, an A_2 pair without a
        # turning point and the comp suite's A_2 pair across the core circle
        (5.0, 0.7 + 0j, 2.0 * cmath.exp(0.8j), (-0.17, 0.65), 0.9560126),
        (2.0, 1.2 + 0.1j, 1.3 - 0.4j, (-0.1, 0.16), 0.7530274),
        (2.0, 0.7j, -1.1 + 0.2j, (0.37, -0.31, -0.58), 2.5249219),
    ])
    def test_distance_below_explicit_paths(self, r, z, w, path, value):
        v = bergman_distance(Annulus(r), z, w)
        upper = log_path_length(r, z, w, *path)
        assert v.hi < upper < v.value + 5e-4
        assert v.error_estimate < 1e-9
        assert v.value == pytest.approx(value, abs=1e-6)

    def test_thin_annulus_pairs_off_the_far_side(self):
        # the shoot's miss is charged by the variation of c over the bracket
        # of its root, not by c itself, so these A_1.05 pairs converge
        r = 1.05
        z, w = 1.02 + 0j, cmath.exp(1j) / 1.03
        sp = shortest_path_length(kobayashi_field(Annulus(r)), r, z, w)
        assert sp.value == pytest.approx(16.478887074283513, abs=1e-12)
        assert abs(sp.value - annulus_kobayashi_distance(r, z, w)) < 1e-12
        assert sp.error_estimate < 1e-6
        v = bergman_distance(Annulus(r), 1.01, 1.03 * cmath.exp(0.5j))
        assert v.value == pytest.approx(11.804310418298948, abs=1e-9)
        assert v.error_estimate < 1e-12

    def test_thin_annulus_far_pair_raises(self):
        # across the core circle of A_1.05 at angle pi: 1 - c / g(0) falls
        # below rounding, where g^2 - c^2 cancels
        with pytest.raises(NonConvergence):
            bergman_distance(Annulus(1.05), 1.02, -1.0 / 1.03)
        with pytest.raises(NonConvergence):
            shortest_path_length(kobayashi_field(Annulus(1.05)), 1.05, 1.02, -1.0 / 1.03)

    def test_negative_clairaut_radicand_is_named(self):
        # g^2 - c^2 rounds below 0 at a node of this A_1.05 pair; the error
        # says so instead of reporting a quadrature gap of nan
        with pytest.raises(NonConvergence, match=r"radicand g\^2 - c\^2 went negative"):
            bergman_distance(Annulus(1.05), 1.02, cmath.exp(1.5j) / 1.03)

    @pytest.mark.parametrize("r", [1.05, 2.0, 5.0])
    def test_shoot_is_monotone_and_core_density_least(self, r):
        L = math.log(r)
        field = bergman_field(Annulus(r))
        u = np.linspace(-0.85 * L, 0.85 * L, 2001)
        g = field(np.exp(u), np.exp(u))
        assert np.argmin(g) == 1000
        for a, b in ((-0.5 * L, 0.6 * L), (0.2 * L, 0.7 * L)):
            (lo, hi), geodesic = bg._geodesics(field, r, a, b)
            s = np.linspace(lo, hi, 2003)[1:-1]
            angles = np.array([geodesic(x, bg._geo_rules()[0])[1] for x in s])
            assert np.all(np.diff(angles) > 0)

    def test_core_circle_pair(self):
        dom = Annulus(2.0)
        v = bergman_distance(dom, 1.0, 1j)
        assert v.value == pytest.approx(bergman_metric(dom, 1.0) * math.pi / 2, rel=1e-15)

    def test_coincident_points_distance_zero(self):
        dom = Annulus(2.0)
        v = bergman_distance(dom, 1, 1)
        assert (v.lo, v.hi, v.error_estimate) == (0.0, 0.0, 0.0)
        assert v.method == "shortest_path"
        assert shortest_path_length(bergman_field(dom), 2.0, 1.2 - 0.3j, 1.2 - 0.3j) == v

    def test_bergman_metric_vectorized_guard(self):
        dom = Annulus(2.0)
        vals = bergman_metric(dom, np.array([1.0 + 0j, 3.0 + 0j]), 1.0)
        assert math.isfinite(vals[0])
        assert math.isinf(vals[1])


class TestHalfPlaneChartBergman:
    """The half-plane, sector and slit plane pull the Bergman quantities
    back through their chart onto the upper half-plane."""

    POINTS = {"halfplane": [0.3 + 0.9j, 2.0 - 0.4j, 0.05 + 0.1j],
              "sector": [1.0 + 0j, 0.4 + 0.2j, 2.5 - 1.5j],
              "slitplane": [-1.0 + 0j, 0.5 + 0.5j, 2.0 - 1e-3j]}

    @staticmethod
    def domains():
        from invdist.domains import HalfPlane, Sector, SlitPlane
        return {"halfplane": HalfPlane(0.6 + 0.8j), "sector": Sector(0.7),
                "slitplane": SlitPlane()}

    def test_halfplane_closed_forms(self):
        from invdist.domains import HalfPlane
        n = 0.6 + 0.8j
        dom = HalfPlane(n)
        for z in self.POINTS["halfplane"]:
            y = (n.conjugate() * z).real
            assert bergman_kernel(dom, z) == pytest.approx(1.0 / (4.0 * math.pi * y * y),
                                                           rel=1e-14)
            assert bergman_metric(dom, z) == pytest.approx(1.0 / (ROOT2 * y), rel=1e-14)
            assert bergman_metric(dom, z, 0.3 - 0.7j) == \
                pytest.approx(abs(0.3 - 0.7j) / (ROOT2 * y), rel=1e-14)

    def test_sector_and_slit_closed_forms(self):
        from invdist.domains import Sector, SlitPlane
        p = math.pi / (2.0 * 0.7)
        for z in self.POINTS["sector"]:
            # f = i z^p: |f'| = p |z|^(p-1) and Im f = Re z^p
            kappa = p * abs(z) ** (p - 1.0) / (2.0 * (z ** p).real)
            assert bergman_metric(Sector(0.7), z) == pytest.approx(ROOT2 * kappa, rel=1e-13)
            assert bergman_kernel(Sector(0.7), z) == pytest.approx(kappa ** 2 / math.pi,
                                                                   rel=1e-13)
        for z in (-1.0 + 0j, 0.5 + 0.5j, 2.0 - 0.5j):
            # f = sqrt(z) with the cut on [0, inf): |f'| = 1 / (2 |z|^(1/2))
            s = cmath.sqrt(-z)
            f = complex(-s.imag, s.real) if s.real >= 0 else complex(s.imag, -s.real)
            kappa = 1.0 / (2.0 * math.sqrt(abs(z)) * 2.0 * f.imag)
            assert bergman_metric(SlitPlane(), z) == pytest.approx(ROOT2 * kappa, rel=1e-13)
            assert bergman_kernel(SlitPlane(), z) == pytest.approx(kappa ** 2 / math.pi,
                                                                   rel=1e-13)

    def test_identities_with_kobayashi_and_caratheodory(self):
        X = 0.3 - 0.7j
        for label, dom in self.domains().items():
            pts = self.POINTS[label]
            for z in pts:
                kappa = kobayashi_metric(dom, z)
                assert bergman_kernel(dom, z) == pytest.approx(kappa ** 2 / math.pi, rel=1e-14)
                assert bergman_metric(dom, z, X) == \
                    pytest.approx(ROOT2 * kobayashi_metric(dom, z, X), rel=1e-14)
            for z, w in zip(pts, pts[1:] + pts[:1]):
                b, c = bergman_distance(dom, z, w), caratheodory(dom, z, w)
                assert (b.lo, b.hi, b.method) == (ROOT2 * c.lo, ROOT2 * c.hi, c.method)

    def test_kernel_where_the_squares_leave_the_floats(self):
        from decimal import Decimal, localcontext

        from invdist.domains import HalfPlane

        def closed(R, z):   # K = R^2 / (pi (R^2 - |z|^2)^2) on the disc |z| < R, in decimals
            with localcontext() as ctx:
                ctx.prec = 40
                R, a = Decimal(R), Decimal(abs(z))
                return float(R * R / (Decimal(math.pi) * (R * R - a * a) ** 2))

        def closed_hp(y):   # K = 1 / (4 pi y^2) on the upper half-plane
            with localcontext() as ctx:
                ctx.prec = 40
                return float(1 / (4 * Decimal(math.pi) * Decimal(y) ** 2))

        hp = HalfPlane(1j)
        assert bergman_kernel(hp, 1e160j) == pytest.approx(closed_hp(1e160), rel=0, abs=5e-324)
        for y in (1e155, 5e-155):      # q^2 subnormal, q^2 beyond the floats
            assert bergman_kernel(hp, 1 + y * 1j) == pytest.approx(closed_hp(y), rel=1e-12)
        for R, z in ((5e-155, 0j), (1e155, 0.5e155 + 0j), (1e155, 0.3e155j)):
            assert bergman_kernel(Disc(0j, R), z) == pytest.approx(closed(R, z), rel=1e-12)
        # K itself beyond the largest float
        for dom, z in ((hp, 1 + 1e-160j), (hp, 1e-155j), (Disc(0j, 1e-155), 0j),
                       (Disc(0j, 5e-155), 2.5e-155 + 0j)):
            with pytest.raises(DegenerateInput):
                bergman_kernel(dom, z)

    def test_outside_raises(self):
        from invdist.errors import DomainViolation
        for dom, z in zip(self.domains().values(), (-0.6 - 0.8j, -1.0 + 0.1j, 2.0 + 0j)):
            with pytest.raises(DomainViolation):
                bergman_kernel(dom, z)
            with pytest.raises(DomainViolation):
                bergman_metric(dom, z)


class TestAnnulusPairKernel:
    """K(z, w) of A_2 against 40-digit references (mpmath), and batches."""

    @pytest.mark.parametrize("z, w, want", [(0.52, 0.55, 61.97356058518271147),
                                            (1.9, 1.95, 14.674713295568670912)])
    def test_references(self, z, w, want):
        got = AnnulusKernel(2.0).pair(z, w)
        assert abs(got - want) <= 1e-13 * want

    def test_array_matches_scalar_calls(self, rng):
        kern = AnnulusKernel(2.0)
        z = np.exp(rng.uniform(-0.99, 0.99, (5, 7)) * math.log(2.0)) * \
            np.exp(2j * np.pi * rng.uniform(size=(5, 7)))
        w = 1.2 + 0.4j
        batch = kern.pair(z, w)
        assert batch.shape == z.shape
        points = np.array([[kern.pair(complex(v), w) for v in row] for row in z])
        # the batch may sum a few more terms; |K(z, w)| <= sqrt(K(z) K(w))
        scale = np.sqrt(kern.diagonal(z) * kern.diagonal(w))
        assert np.all(np.abs(batch - points) <= 1e-13 * scale)

    def test_pair_on_the_diagonal_and_hermitian(self, rng):
        kern = AnnulusKernel(2.0)
        for _ in range(10):
            z = complex(np.exp(rng.uniform(-0.99, 0.99) * math.log(2.0) +
                               2j * math.pi * rng.uniform()))
            w = complex(np.exp(rng.uniform(-0.99, 0.99) * math.log(2.0)))
            assert kern.pair(z, z) == pytest.approx(kern.diagonal(z), rel=1e-13)
            assert kern.pair(w, z) == pytest.approx(kern.pair(z, w).conjugate(), rel=1e-14)


def laurent_pair(r, z, w, terms=6):
    """Independent K(z, w) oracle on A_r: the Laurent series
    sum_n (z conj(w))^n / ||z^n||^2 with ||z^n||^2 = pi (r^(2n+2) - r^-(2n+2)) / (n + 1)
    and 4 pi log r for n = -1, each term formed in log space so that r may
    be near the largest float."""
    lr = math.log(r)
    L = cmath.log(z) + cmath.log(complex(w).conjugate())
    total = cmath.exp(-L) / (4.0 * lr)
    for n in range(-terms, terms):
        if n != -1:
            e = abs(2 * n + 2) * lr
            total += abs(n + 1) * cmath.exp(n * L - e) / -math.expm1(-2.0 * e)
    return total / math.pi


class TestAnnulusPairRange:
    """K(z, w) keeps its bits where (z / p)(conj(w) / p) is a normal float,
    and stays in the floats where it is not, for r up to 1e300."""

    PINS = os.path.join(os.path.dirname(__file__), "data", "annulus_pair_bits.json")

    @staticmethod
    def _cases(r):
        """Eight (z, w) pairs in A_r: moduli spread over (1/r, r), four near
        the circles."""
        rng = np.random.default_rng(int(r))
        lr = math.log(r)
        mods = np.exp(lr * np.concatenate((rng.uniform(-0.95, 0.95, 4),
                                           [0.999, -0.999, 0.9999, -0.9999])))
        zs = mods * np.exp(2j * math.pi * rng.uniform(size=8))
        ws = np.exp(lr * rng.uniform(-0.95, 0.95, 8)) * np.exp(2j * math.pi * rng.uniform(size=8))
        return list(zip(zs.tolist(), ws.tolist()))

    def test_pinned_bits(self):
        import json

        def hx(v):
            v = complex(v)
            return [v.real.hex(), v.imag.hex()]

        with open(self.PINS) as fh:
            pins = json.load(fh)
        for r in (2.0, 5.0, 100.0):
            kern, cases = AnnulusKernel(r), self._cases(r)
            assert [hx(kern.pair(z, w)) for z, w in cases] == pins[repr(r)]["points"], r
            batch = kern.pair(np.array([z for z, _ in cases]), cases[0][1])
            assert [hx(v) for v in batch] == pins[repr(r)]["batch"], r

    @pytest.mark.parametrize("r, z, w", [
        (1e200, 1.0, 1.0), (1e200, 1j, 1.0), (1e200, 1e100, 1e-50), (1e200, 1e-150, 3 + 4j),
        (1e300, 1e150, 1.0), (1e300, 1e-250, 1e249), (1e300, 1e250, 1e-260)])
    def test_huge_r_matches_the_laurent_series(self, r, z, w):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = AnnulusKernel(r).pair(z, w)
        want = laurent_pair(r, z, w)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_huge_r_diagonal_and_batch(self):
        kern = AnnulusKernel(1e200)
        assert kern.pair(1.0, 1.0) == pytest.approx(kern.diagonal(1.0), rel=1e-13)
        zs = np.array([1.0, 1j, 0.5 + 0.5j, 1e100, 1e-150])
        batch = kern.pair(zs, 1.0)
        points = np.array([kern.pair(complex(z), 1.0) for z in zs])
        assert np.all(np.isfinite(batch))
        assert np.all(np.abs(batch - points) <= 1e-12 * np.abs(points))


def test_no_scipy_module_is_imported():
    # the annulus Bergman distance and the comp suite in a fresh interpreter
    code = ("import sys\n"
            "from invdist import Annulus, bergman_distance\n"
            "from invdist.bounds import run_suite\n"
            "bergman_distance(Annulus(2), 0.7j, -1.1 + 0.2j)\n"
            "run_suite('comp', samples=10, seed=1)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = os.path.dirname(os.path.dirname(invdist.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "[]"
