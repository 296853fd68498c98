import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invdist.annulus import annulus_kobayashi_metric
from invdist.conformal import (
    AnnulusCover,
    cayley_map,
    disc_scale_map,
    mobius_disc_automorphism,
    riemann_map,
    sector_map,
    slit_sqrt_map,
    _sqrt_cut_pos,
)
from invdist.distances import poincare_distance
from invdist.domains import JordanDomain, wobbly_domain
from invdist.errors import BranchViolation, DegenerateInput

TWO_PI = 2.0 * math.pi


def circle_domain(center=0j, radius=1.0):
    return JordanDomain(
        lambda t: center + radius * np.exp(1j * TWO_PI * np.asarray(t)),
        lambda t: 1j * TWO_PI * radius * np.exp(1j * TWO_PI * np.asarray(t)),
        name="circle", check_simple=False)


class TestMobius:
    def test_identity_at_zero(self):
        m = mobius_disc_automorphism(0j)
        assert m.evaluate(0.3 + 0.2j) == pytest.approx(0.3 + 0.2j)

    def test_normalization(self):
        m = mobius_disc_automorphism(0.5 + 0j)
        assert m.evaluate(0.5 + 0j) == pytest.approx(0j, abs=1e-15)
        assert m.evaluate(0j) == pytest.approx(-0.5 + 0j)
        assert m.inverse(-0.5 + 0j) == pytest.approx(0j, abs=1e-15)

    def test_rejects_boundary_parameter(self):
        with pytest.raises(DegenerateInput):
            mobius_disc_automorphism(1.0 + 0j)

    def test_poincare_invariance_50_random_automorphisms(self, rng):
        for _ in range(50):
            a = complex(0.9 * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform()))
            m = mobius_disc_automorphism(a)
            z = complex(0.95 * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform()))
            w = complex(0.95 * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform()))
            d0 = poincare_distance(z, w)
            d1 = poincare_distance(complex(m.evaluate(z)), complex(m.evaluate(w)))
            assert d1 == pytest.approx(d0, abs=1e-12)

    @given(st.floats(-0.9, 0.9), st.floats(-0.9, 0.9))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, x, y):
        z = complex(x, y)
        if abs(z) >= 0.98:
            return
        m = mobius_disc_automorphism(0.4 - 0.2j)
        assert m.inverse(m.evaluate(z)) == pytest.approx(z, abs=1e-13)


class TestClosedMaps:
    def test_sector_half_pi_is_identity(self):
        m = sector_map(math.pi / 2)
        z = 0.7 + 0.2j
        assert m.evaluate(z) == pytest.approx(z)
        assert m.derivative(z) == pytest.approx(1.0 + 0j)

    def test_slit_sqrt_principal(self):
        m = slit_sqrt_map()
        assert m.evaluate(-1.0 + 0j) == pytest.approx(1j, abs=1e-15)

    @pytest.mark.parametrize("t", [1e-3, 1e-6, 1e-8])
    def test_slit_sqrt_full_precision_below_the_cut(self, t):
        # just below the cut the root is close to -sqrt(2) with a tiny
        # imaginary part, which must keep its own relative accuracy
        z = 2.0 - t * 1j
        f, want = slit_sqrt_map().evaluate(z), 1j * cmath.sqrt(-z)
        assert abs(f.real - want.real) <= 1e-15 * abs(want.real)
        assert abs(f.imag - want.imag) <= 1e-15 * abs(want.imag)

    @pytest.mark.parametrize("t", [0.3, 1.0, 3.0])
    def test_slit_root_maps_the_imaginary_axis_onto_the_diagonals(self, t):
        # z = +-it goes to sqrt(t / 2) (+-1 + i), both parts the one correctly
        # rounded root; cmath.sqrt misses one of them by an ulp at each of
        # these t, so the scalar path keeps numpy's root
        r = math.sqrt(t / 2)
        m = slit_sqrt_map()
        for z, want in ((complex(0.0, t), complex(r, r)), (complex(0.0, -t), complex(-r, r))):
            for p in (z, np.complex128(z), np.array([z])):
                got = complex(np.ravel(m.evaluate(p))[0])
                assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())

    def test_root_on_the_cut_is_positive(self):
        # the chain's slit maps meet x +- 0i with x > 0; both signs of the
        # zero give +sqrt(x)
        for s in (complex(4.0, 0.0), complex(4.0, -0.0)):
            assert _sqrt_cut_pos(s) == 2.0
        np.testing.assert_array_equal(_sqrt_cut_pos(np.array([complex(9.0, -0.0), 4.0])),
                                      [3.0, 2.0])

    def test_sector_quarter_derivative(self):
        m = sector_map(math.pi / 4)
        # exponent 2: z^2 with derivative 2 at z = 1
        assert m.evaluate(1.0 + 0j) == pytest.approx(1.0 + 0j)
        assert m.derivative(1.0 + 0j) == pytest.approx(2.0 + 0j)

    def test_branch_cut_raises(self):
        with pytest.raises(BranchViolation):
            slit_sqrt_map().evaluate(2.0 + 0j)
        with pytest.raises(BranchViolation):
            sector_map(0.9).evaluate(-1.0 + 0j)

    @pytest.mark.parametrize("kind", [complex, float, int, np.complex128, np.float64])
    def test_branch_cut_raises_for_every_scalar_type(self, kind):
        # the scalar test is two float comparisons; it must refuse the same
        # points as the array test, whatever the point's type
        for m, on_cut, off_cut in ((sector_map(0.9), (-1.0, 0.0), (2.0,)),
                                   (slit_sqrt_map(), (2.0, 0.0), (-2.0,))):
            for x in on_cut:
                for fn in (m.evaluate, m.derivative):
                    with pytest.raises(BranchViolation):
                        fn(kind(x))
            for x in off_cut:
                assert np.isfinite(complex(m.evaluate(kind(x))))
        with pytest.raises(BranchViolation):
            sector_map(0.9).evaluate(complex(-1.0, -0.0))
        with pytest.raises(BranchViolation):
            slit_sqrt_map().evaluate(complex(2.0, -0.0))

    def test_branch_cut_raises_for_arrays(self):
        for m, bad, good in ((sector_map(0.9), -1.0 + 0j, 1.0 + 0.1j),
                             (slit_sqrt_map(), 2.0 + 0j, -1.0 + 0j)):
            for pts in (np.array([good, bad]), np.array(bad), [good, bad]):
                for fn in (m.evaluate, m.derivative):
                    with pytest.raises(BranchViolation):
                        fn(pts)
            assert np.all(np.isfinite(m.evaluate(np.array([good, good]))))

    def test_cayley(self):
        m = cayley_map()
        assert m.evaluate(1j) == pytest.approx(0j)
        assert abs(m.evaluate(0.3 + 0.001j)) < 1.0

    def test_dispatcher(self):
        assert sector_map(math.pi / 4).derivative(1.0 + 0j) == pytest.approx(2.0)
        assert slit_sqrt_map().evaluate(-4.0 + 0j) == pytest.approx(2j)
        assert disc_scale_map(0j, 2.0).evaluate(1.0 + 0j) == pytest.approx(0.5)

    def test_round_trip_and_derivative_residuals(self):
        pts = 0.4 * np.exp(2j * np.pi * np.arange(16) / 16) + 1.2 + 0.6j
        h = 1e-6
        for m in (sector_map(0.8), cayley_map()):
            assert np.max(np.abs(m.inverse(m.evaluate(pts)) - pts)) < 1e-12
            fd = (m.evaluate(pts + h) - m.evaluate(pts - h)) / (2 * h)
            assert np.max(np.abs(fd - m.derivative(pts))) < 1e-6


class TestRiemannEngine:
    def test_disc_identity(self):
        dom = circle_domain()
        m = riemann_map(dom, 0j, params=dom.params(256))
        zs = np.array([0.3 + 0.2j, -0.5j, 0.7 - 0.1j])
        assert np.max(np.abs(m.evaluate(zs) - zs)) < 5e-6
        assert m.normalization["deriv_z0"] == pytest.approx(1.0, abs=1e-5)

    def test_scaled_disc(self):
        dom = circle_domain(radius=2.0)
        m = riemann_map(dom, 0j, params=dom.params(256))
        assert complex(m.evaluate(1.0 + 0j)) == pytest.approx(0.5 + 0j, abs=1e-6)
        assert m.normalization["deriv_z0"] == pytest.approx(0.5, abs=1e-5)

    def test_normalization_positive_derivative(self, ellipse):
        m = riemann_map(ellipse, 0j)
        assert abs(complex(m.evaluate(0j))) < 1e-9
        d = complex(m.derivative(0j))
        assert d.imag == pytest.approx(0.0, abs=1e-6 * abs(d))
        assert d.real > 0

    def test_roundtrip_and_derivative(self, ellipse):
        m = riemann_map(ellipse, 0j)
        zs = np.array([0.5 + 0.3j, -1.5 + 0.2j, 1.8 + 0.05j])
        assert np.max(np.abs(m.inverse(m.evaluate(zs)) - zs)) < 1e-8
        h = 1e-6
        for z in zs:
            fd = (complex(m.evaluate(z + h)) - complex(m.evaluate(z - h))) / (2 * h)
            assert complex(m.derivative(z)) == pytest.approx(fd, rel=1e-4)

    def test_koebe_sandwich_ellipse(self, ellipse):
        m = riemann_map(ellipse, 0j)
        conformal_radius = 1.0 / m.normalization["deriv_z0"]
        d = 1.0  # boundary distance of the center
        assert d <= conformal_radius <= 4.0 * d

    def test_conformal_radius_two_resolutions(self, ellipse):
        m1 = riemann_map(ellipse, 0j)
        m2 = riemann_map(ellipse, 0j, params=ellipse.params(1024))
        r1 = 1.0 / m1.normalization["deriv_z0"]
        r2 = 1.0 / m2.normalization["deriv_z0"]
        assert abs(r1 - r2) < 1e-5

    def test_accuracy_ladder_affine_disc(self, rng):
        # doubling the resolution shrinks the residual by at least 2x
        a = 0.6 * cmath.exp(2j * math.pi * rng.uniform())
        b = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
        dom = JordanDomain(
            lambda t: b + a * np.exp(1j * TWO_PI * np.asarray(t)),
            lambda t: 1j * TWO_PI * a * np.exp(1j * TWO_PI * np.asarray(t)),
            name="affine", check_simple=False)
        test = b + 0.55 * abs(a) * np.exp(2j * np.pi * np.arange(24) / 24)
        exact = np.abs((test - b) / abs(a))
        residuals = []
        for n in (128, 256, 512):
            m = riemann_map(dom, b, params=dom.params(n))
            residuals.append(float(np.max(np.abs(np.abs(m.evaluate(test)) - exact))))
        assert residuals[1] <= residuals[0] / 2
        assert residuals[2] <= residuals[1] / 2

    def test_boundary_extension_unimodular(self, ellipse):
        m = riemann_map(ellipse, 0j)
        ts = np.arange(64) / 64.0 + 1.0 / 128.0
        vals = m.evaluate(np.asarray(ellipse.point(ts), dtype=complex))
        assert np.max(np.abs(np.abs(vals) - 1.0)) < max(10 * m.accuracy, 1e-6)

    def test_accuracy_estimate_is_honest(self, ellipse):
        m = riemann_map(ellipse, 0j)
        m_fine = riemann_map(ellipse, 0j, params=ellipse.params(2048))
        grid = 0j + 0.6 * np.asarray(ellipse.point(np.arange(32) / 32.0), dtype=complex)
        true_err = float(np.max(np.abs(m.evaluate(grid) - m_fine.evaluate(grid))))
        assert true_err <= 10 * m.accuracy + 1e-9

    def test_interior_point_required(self, ellipse):
        with pytest.raises(DegenerateInput):
            riemann_map(ellipse, 5.0 + 0j)

    def test_default_grid_is_512_uniform_parameters(self, ellipse):
        zs = np.array([0.5 + 0.3j, -1.5 + 0.2j])
        m = riemann_map(ellipse, 0j)
        m512 = riemann_map(ellipse, 0j, params=np.arange(512) / 512.0)
        assert m512 is not m
        assert np.array_equal(m.evaluate(zs), m512.evaluate(zs))

    def test_wobbly_koebe(self):
        for seed in range(5):
            dom = wobbly_domain(seed)
            z0 = 0j
            m = riemann_map(dom, z0)
            d = dom.boundary_distance(z0, tol=1e-8)
            cr = 1.0 / m.normalization["deriv_z0"]
            assert d - 1e-6 <= cr <= 4.0 * d + 1e-6



def _catalog_maps():
    """The four catalog Jordan curves the suites and the CLI map."""
    from invdist.domains import ellipse_domain, lens_domain, two_disc_hull

    return {"ellipse": ellipse_domain(2.0, 1.0), "wobbly": wobbly_domain(7),
            "lens": lens_domain(0.75),
            "hull": two_disc_hull(0j, 1.0, 2.5 + 0j, 0.7).as_jordan()}


def _hex(z):
    z = complex(z)
    return z.real.hex(), z.imag.hex()


# (accuracy, deriv_z0, rot, xi, z0_img) of riemann_map(dom, dom.anchor()),
# bit for bit those of a build that traverses the chain once per point set
BUILD_PINS = {
    "ellipse": ('0x1.80a6e3ff90099p-19', '0x1.a67109c983d4fp-1',
                ('0x1.ffffffffeb95cp-1', '-0x1.212c58c1a2adfp-18'), '0x1.c7e1e1a1c9089p+9',
                ('-0x1.6db4fa877127cp+1', '0x1.25a95ea2ff1b0p-9')),
    "wobbly": ('0x1.a3d1651386504p-21', '0x1.02a133c84b6d9p+0',
               ('0x1.fff5d372bcd96p-1', '-0x1.9845431909368p-7'), '0x1.cc7eff2174bbcp+10',
               ('-0x1.3ccab3a234140p+0', '0x1.0ee2528318198p-7')),
    "lens": ('0x1.50a7f6ee8e5f0p-20', '0x1.24401912d5302p+1',
             ('0x1.5960618eb870ep-6', '-0x1.ffe2dfdd3945dp-1'), '0x1.740787aaa2286p+3',
             ('-0x1.ac02e19a54574p+2', '0x1.1913f2d4b205ap-10')),
    "hull": ('0x1.f36369c348629p-17', '0x1.cce80fc7605cfp-1',
             ('-0x1.d4fbdafb3d0f8p-1', '0x1.9ad80c79239b1p-2'), '0x1.b5cd5a8c40e67p+11',
             ('-0x1.4f1a4817dc8fcp+2', '0x1.0a51dd3708ff4p-8')),
}

# hull_distance(0, d_z, sep, d_w) on (d_z, sep, d_w)
HULL_PINS = {(1.0, 2.5, 0.7): '0x1.3342c87ba884dp+1', (0.5, 1.2, 0.9): '0x1.6f7e0356aed35p+0',
             (0.2, 0.6, 0.3): '0x1.f964f314efae4p+0', (1.5, 3.0, 0.4): '0x1.6c0a1e8efb8e0p+1',
             (0.8, 0.5, 0.6): '0x1.3d8ba26f4ed80p-1'}


class TestOnePassBuild:
    """A map build is one chain pass per resolution, carrying the Cauchy
    circle, the accuracy grid and z0, plus one inverse pass."""

    @pytest.mark.parametrize("name", sorted(BUILD_PINS))
    def test_carried_images_are_forward_images(self, name):
        from invdist.conformal import _GeodesicChain

        dom = _catalog_maps()[name]
        z0 = dom.anchor()
        zm = riemann_map(dom, z0)
        pts = np.asarray(dom.point(zm.params), dtype=complex)
        carry = np.concatenate((zm._test_grid(), z0 + 0.05 * np.exp(0.3j * np.arange(7))))
        chain = _GeodesicChain(pts, z0, carry)
        assert chain.carried.tobytes() == chain.forward(carry).tobytes()
        # the carried points leave the build itself unchanged
        assert chain.steps == zm.chain.steps
        assert (_hex(chain.xi), chain.sgn, _hex(chain.z0_img)) == \
            (_hex(zm.chain.xi), zm.chain.sgn, _hex(zm.chain.z0_img))

    @pytest.mark.parametrize("name", sorted(BUILD_PINS))
    def test_build_is_pinned(self, name):
        dom = _catalog_maps()[name]
        zm = riemann_map(dom, dom.anchor())
        got = (zm.accuracy.hex(), zm.deriv_z0.hex(), _hex(zm.rot), zm.chain.xi.hex(),
               _hex(zm.chain.z0_img))
        assert got == BUILD_PINS[name]

    def test_hull_distance_is_pinned(self):
        from invdist.distances import hull_distance

        for (dz, sep, dw), want in HULL_PINS.items():
            assert hull_distance(0j, dz, complex(sep, 0.0), dw).hex() == want

    @staticmethod
    def _count(monkeypatch):
        from invdist.conformal import _GeodesicChain

        counts = dict.fromkeys(("__init__", "forward", "forward_with_derivative", "inverse"), 0)
        for name in counts:
            original = getattr(_GeodesicChain, name)

            def counted(self, *args, _name=name, _original=original):
                counts[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(_GeodesicChain, name, counted)
        return counts

    def test_traversals_per_build(self, monkeypatch):
        from invdist.distances import hull_distance

        counts = self._count(monkeypatch)
        for name, dom in _catalog_maps().items():
            counts.update(dict.fromkeys(counts, 0))
            first = riemann_map(dom, dom.anchor())
            # the full and the half-resolution chain, and the round trip
            assert counts == {"__init__": 2, "forward": 0, "forward_with_derivative": 0,
                              "inverse": 1}, name
            counts.update(dict.fromkeys(counts, 0))
            assert riemann_map(dom, dom.anchor()) is first
            assert not any(counts.values()), name
        counts.update(dict.fromkeys(counts, 0))
        hull_distance(0j, 1.0, 2.5 + 0j, 0.7)
        assert counts == {"__init__": 1, "forward": 0, "forward_with_derivative": 0,
                          "inverse": 0}


class TestAnnulusCover:
    def test_lift_and_deck(self):
        cov = AnnulusCover(2.0)
        assert cov.lift(1.0 + 0j) == pytest.approx(0j)

    def test_density_at_center(self):
        assert annulus_kobayashi_metric(math.e, 1.0 + 0j) == pytest.approx(math.pi / 4.0)
        assert annulus_kobayashi_metric(2.0, 1.0 + 0j) == \
            pytest.approx(math.pi / (4.0 * math.log(2.0)))

    def test_requires_modulus(self):
        with pytest.raises(DegenerateInput):
            AnnulusCover(1.0)


def test_warm_riemann_map_skips_membership(monkeypatch):
    dom = wobbly_domain(5)
    z0 = dom.anchor()
    first = riemann_map(dom, z0)
    calls = []
    original = type(dom).contains

    def counting(self, z):
        calls.append(z)
        return original(self, z)

    monkeypatch.setattr(type(dom), "contains", counting)
    assert riemann_map(dom, z0) is first
    assert calls == []
