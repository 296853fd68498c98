import cmath
import math

import numpy as np
import pytest

from invdist.bergman import (
    AnnulusKernel,
    annulus_monomial_norm_sq,
    bergman_distance,
    bergman_field,
    bergman_kernel,
    bergman_kernel_pair,
    bergman_metric,
    integrate_metric,
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
from invdist.errors import UnsupportedDomain

ROOT2 = math.sqrt(2.0)


def monomial_series_kernel(z, terms=4000):
    """Independent disc-kernel oracle: sum (n+1) |z|^{2n} / pi over the
    orthonormal monomial basis with ||z^n||^2 = pi / (n + 1)."""
    s, a = 0.0, abs(z) ** 2
    for n in range(terms):
        s += (n + 1) * a ** n / math.pi
    return s


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

    def test_kernel_positive_and_symmetric(self):
        dom = Annulus(2.0)
        for z, w in [(1.2 + 0.3j, 0.7 - 0.5j), (0.6 + 0.1j, 1.8 - 0.2j)]:
            k = bergman_kernel_pair(dom, z, w)
            assert bergman_kernel_pair(dom, w, z) == pytest.approx(k.conjugate(), abs=1e-14)
        assert bergman_kernel(dom, 1.0 + 0j) > 0

    def test_batched_log_diag_hessian_matches_point_calls(self, rng):
        # moduli up to 0.999 r give thousands of terms, so the batch runs in
        # several row chunks
        r = 1.05
        kern = AnnulusKernel(r)
        mod = np.exp(rng.uniform(-0.999, 0.999, (6, 8)) * math.log(r))
        mod[0, 0] = 0.999 * r
        z = mod * np.exp(2j * np.pi * rng.uniform(size=(6, 8)))
        assert 262144 // kern._terms(0.999 * r).size < z.size
        batch = kern.log_diag_hessian(z)
        assert batch.shape == z.shape
        points = np.array([[kern.log_diag_hessian(complex(v)) for v in row] for row in z])
        np.testing.assert_allclose(batch, points, rtol=1e-13, atol=0)

    def test_point_value_does_not_depend_on_its_batch(self, rng):
        # 500 points over the moduli of three annuli, in one batch and one by
        # one: a term range taken from a batch's largest modulus would cut
        # the low tail of its small-modulus points
        for r in (1.05, 2.0, 5.0):
            kern = AnnulusKernel(r)
            L = math.log(r)
            z = np.exp(rng.uniform(-0.999, 0.999, 500) * L + 2j * math.pi * rng.uniform(size=500))
            for f in (kern.diagonal, kern.log_diag_hessian):
                points = np.array([f(complex(v)) for v in z])
                np.testing.assert_allclose(f(z), points, rtol=1e-13, atol=0)
        k = AnnulusKernel(2.0)
        assert k.diagonal(np.array([0.52, 0.9]))[0] == pytest.approx(191.82110254173833,
                                                                      rel=1e-13)

    def test_reproducing_property(self):
        residual = bg_reproducing_residual(2.0, 1.2 + 0.4j, range(-5, 6))
        assert residual < 1e-6

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


class TestAnnulusBergmanDistance:
    def test_shortest_path_recovers_covering_kobayashi(self):
        dom = Annulus(2.0)
        field = kobayashi_field(dom)
        for z, w in [(1.0 + 0j, 1.5 + 0j), (0.6 + 0j, 1.9j)]:
            sp = shortest_path_length(field, 2.0, z, w, 48, 192)
            k = annulus_kobayashi_distance(2.0, z, w)
            assert abs(sp - k) < 5e-3

    def test_interval_and_rotation_invariance(self):
        dom = Annulus(2.0)
        v = bergman_distance(dom, 1.0 + 0j, 1.5 + 0j)
        # a shortest-path estimate, not an enclosure: shorter paths exist
        assert v.method == "shortest_path"
        assert v.error_estimate == pytest.approx(0.5 * v.width, rel=1e-12)
        assert v.hi >= v.lo
        rot = cmath.exp(0.9j)
        v2 = bergman_distance(dom, rot, 1.5 * rot)
        assert abs(v.value - v2.value) < 5e-3

    def test_comparison_k_le_4b(self):
        dom = Annulus(2.0)
        z, w = 1.0 + 0j, 1.5 + 0j
        k = annulus_kobayashi_distance(2.0, z, w)
        b = bergman_distance(dom, z, w)
        assert k <= 4.0 * b.hi + 1e-6

    @pytest.mark.parametrize("r, z, w, lo, hi", [
        # the comp suite's A_2 pairs and the benchmark's A_5 Bergman pair
        # shape (unrotated, unjittered); lo and hi from the per-batch term
        # ranges the binned sums replaced, which moved them ~1e-13
        (2.0, 1.0 + 0j, 1.5 + 0j, 0.7669452968201027, 0.7669472968201028),
        (2.0, 0.7j, -1.1 + 0.2j, 2.5268501854554315, 2.556077802976804),
        (5.0, 0.7 + 0j, 2.0 * cmath.exp(0.8j), 0.9563835292452963, 0.9575192410791159),
    ])
    def test_distance_values_pinned(self, r, z, w, lo, hi):
        v = bergman_distance(Annulus(r), z, w)
        assert v.lo == pytest.approx(lo, rel=1e-12)
        assert v.hi == pytest.approx(hi, rel=1e-12)

    def test_coincident_points_distance_zero(self):
        dom = Annulus(2.0)
        v = bergman_distance(dom, 1, 1)
        assert (v.lo, v.hi, v.error_estimate) == (0.0, 0.0, 0.0)
        assert v.method == "shortest_path"
        assert shortest_path_length(bergman_field(dom), 2.0, 1.2 - 0.3j, 1.2 - 0.3j) == 0.0

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
        got = bergman_kernel_pair(Annulus(2.0), z, w)
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
