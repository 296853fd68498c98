import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invdist.annulus import annulus_kobayashi_distance
from invdist.conformal import mobius_disc_automorphism, riemann_map
from invdist.distances import (
    CertifiedValue,
    caratheodory,
    cn_model_distance,
    halfplane_hyperbolic_distance,
    hull_distance,
    kobayashi_metric,
    lempert,
    poincare_distance,
)
from invdist.domains import (
    Annulus,
    Ball,
    Disc,
    Polydisc,
    Sector,
    SlitPlane,
    UnitDisc,
)
from invdist.errors import DegenerateInput, DomainViolation, UnsupportedDomain

ATANH_HALF = math.atanh(0.5)


def disc_points(rng, n, rmax=0.96):
    out = []
    while len(out) < n:
        z = complex(rmax * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform()))
        out.append(z)
    return out


class TestPoincare:
    def test_radial_value(self):
        assert poincare_distance(0j, 0.5 + 0j) == pytest.approx(ATANH_HALF, abs=1e-15)
        assert poincare_distance(0j, 0.9 + 0j) == pytest.approx(math.atanh(0.9), abs=1e-14)

    def test_identity_of_indiscernibles(self):
        assert poincare_distance(0.3 + 0.3j, 0.3 + 0.3j) == 0.0

    def test_rejects_exterior(self):
        with pytest.raises(DomainViolation):
            poincare_distance(1.0 + 0j, 0j)

    def test_automorphism_invariance(self, rng):
        m = mobius_disc_automorphism(0.4 - 0.25j)
        for _ in range(20):
            z, w = disc_points(rng, 2)
            assert poincare_distance(complex(m.evaluate(z)), complex(m.evaluate(w))) == \
                pytest.approx(poincare_distance(z, w), abs=1e-12)

    @given(st.floats(-0.9, 0.9), st.floats(-0.9, 0.9),
           st.floats(-0.9, 0.9), st.floats(-0.9, 0.9))
    @settings(max_examples=80, deadline=None)
    def test_symmetry_property(self, x1, y1, x2, y2):
        z, w = complex(x1, y1), complex(x2, y2)
        if abs(z) >= 0.99 or abs(w) >= 0.99:
            return
        assert poincare_distance(z, w) == pytest.approx(poincare_distance(w, z), abs=1e-12)

    def test_triangle_inequality_random(self, rng):
        for _ in range(1000):
            a, b, c = disc_points(rng, 3)
            assert poincare_distance(a, c) <= \
                poincare_distance(a, b) + poincare_distance(b, c) + 1e-8

    def test_halfplane_formula_agrees_with_cayley(self, rng):
        for _ in range(50):
            a = complex(rng.uniform(-2, 2), rng.uniform(0.05, 3))
            b = complex(rng.uniform(-2, 2), rng.uniform(0.05, 3))
            pa = (a - 1j) / (a + 1j)
            pb = (b - 1j) / (b + 1j)
            assert halfplane_hyperbolic_distance(a, b) == \
                pytest.approx(poincare_distance(pa, pb), abs=1e-10)


class TestCaratheodory:
    def test_unit_disc(self):
        v = caratheodory(UnitDisc(), 0j, 0.9 + 0j)
        assert v.value == pytest.approx(math.atanh(0.9), abs=1e-12)
        assert v.method == "closed_form"
        assert v.width <= 1e-12

    def test_slit_plane_quarter_log(self):
        for t in (0.01, 1e-4, 1e-8):
            v = caratheodory(SlitPlane(), -1.0 + 0j, complex(-t, 0.0))
            assert v.value == pytest.approx(0.25 * math.log(1.0 / t), rel=1e-12)

    def test_ball_radial(self):
        b = Ball((0j, 0j), 1.0)
        v = caratheodory(b, np.array([0, 0j]), np.array([0.5, 0j]))
        assert v.value == pytest.approx(ATANH_HALF, abs=1e-12)

    def test_requires_interior(self):
        with pytest.raises(DomainViolation):
            caratheodory(UnitDisc(), 0j, 1.5 + 0j)

    def test_jordan_interval_brackets_disc_value(self):
        # unit circle as a Jordan domain: numeric mode must bracket the closed form
        import numpy as np

        from invdist.domains import JordanDomain
        dom = JordanDomain(lambda t: np.exp(2j * np.pi * np.asarray(t)),
                           lambda t: 2j * np.pi * np.exp(2j * np.pi * np.asarray(t)),
                           name="circle", check_simple=False)
        v = caratheodory(dom, 0.1 + 0.1j, 0.5 - 0.2j)
        exact = poincare_distance(0.1 + 0.1j, 0.5 - 0.2j)
        assert v.lo - 1e-9 <= exact <= v.hi + 1e-9
        assert v.method == "conformal_pullback"


class TestLempert:
    def test_sector_half_plane_value(self):
        v = lempert(Sector(math.pi / 2), 1.0 + 0j, 0.1 + 0j)
        assert v.value == pytest.approx(0.5 * math.log(10.0), abs=1e-12)

    def test_annulus_coincident(self):
        v = lempert(Annulus(2.0), 1.3 + 0j, 1.3 + 0j)
        assert v.value == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("z,w", [(1.0 + 0j, 1.0 + 0j), (1.2 + 0.3j, 0.8 - 0.5j),
                                     (1.5 + 0j, -0.6 + 0j)])
    def test_annulus_is_the_exact_covering_value(self, z, w):
        v = lempert(Annulus(2.0), z, w)
        assert v.lo == v.hi == annulus_kobayashi_distance(2.0, z, w)
        assert v.error_estimate == 0.0 and v.method == "covering"
        if z == w:
            assert v.lo == 0.0

    def test_annulus_rotation_invariance(self, rng):
        dom = Annulus(2.0)
        for _ in range(10):
            z = complex(rng.uniform(0.6, 1.9) * cmath.exp(2j * math.pi * rng.uniform()))
            w = complex(rng.uniform(0.6, 1.9) * cmath.exp(2j * math.pi * rng.uniform()))
            rot = cmath.exp(2j * math.pi * rng.uniform())
            assert lempert(dom, rot * z, rot * w).value == \
                pytest.approx(lempert(dom, z, w).value, abs=1e-9)

    def test_annulus_inversion_invariance(self):
        dom = Annulus(2.0)
        v1 = lempert(dom, 1.2 + 0.3j, 0.8 - 0.5j).value
        v2 = lempert(dom, 1.0 / (1.2 + 0.3j), 1.0 / (0.8 - 0.5j)).value
        assert v1 == pytest.approx(v2, abs=1e-9)

    def test_ordering_c_le_l(self, rng):
        dom = Annulus(2.0)
        for _ in range(100):
            z = complex(rng.uniform(0.55, 1.95) * cmath.exp(2j * math.pi * rng.uniform()))
            w = complex(rng.uniform(0.55, 1.95) * cmath.exp(2j * math.pi * rng.uniform()))
            c = caratheodory(dom, z, w)
            l = lempert(dom, z, w)
            assert c.value <= l.value + 1e-8


class TestInclusionMonotonicity:
    def test_nested_discs(self, rng):
        small, big = Disc(0j, 1.0), Disc(0j, 2.0)
        for _ in range(50):
            z, w = disc_points(rng, 2, rmax=0.9)
            assert caratheodory(big, z, w).value <= caratheodory(small, z, w).value + 1e-8
            assert lempert(big, z, w).value <= lempert(small, z, w).value + 1e-8

    def test_disc_contains_annulus(self, rng):
        ann = Annulus(2.0)
        big = Disc(0j, 2.0)
        for _ in range(25):
            z = complex(rng.uniform(0.6, 1.9) * cmath.exp(2j * math.pi * rng.uniform()))
            w = complex(rng.uniform(0.6, 1.9) * cmath.exp(2j * math.pi * rng.uniform()))
            assert caratheodory(big, z, w).value <= caratheodory(ann, z, w).value + 1e-8
            assert lempert(big, z, w).value <= lempert(ann, z, w).value + 1e-8

    def test_lens_inside_disc(self, lens, rng):
        disc = UnitDisc()
        for _ in range(10):
            z = complex(rng.uniform(0.5, 0.95), rng.uniform(-0.1, 0.1))
            w = complex(rng.uniform(0.5, 0.95), rng.uniform(-0.1, 0.1))
            if not (lens.contains(z) and lens.contains(w)):
                continue
            lv = caratheodory(lens, z, w)
            assert caratheodory(disc, z, w).value <= lv.value + 10 * lv.error_estimate + 1e-8


class TestKobayashiMetric:
    def test_disc_values(self):
        assert kobayashi_metric(UnitDisc(), 0j, 1.0) == pytest.approx(1.0)
        assert kobayashi_metric(UnitDisc(), 0.5 + 0j, 1.0) == pytest.approx(1.0 / 0.75, abs=1e-12)

    def test_homogeneity(self, rng):
        for dom in (UnitDisc(), Annulus(2.0), Sector(0.9)):
            z = 1.1 + 0.1j if not isinstance(dom, Disc) else 0.4 + 0.1j
            base = kobayashi_metric(dom, z, 1.0)
            assert kobayashi_metric(dom, z, -2.5 + 1j) == \
                pytest.approx(abs(-2.5 + 1j) * base, rel=1e-10)

    def test_bounded_by_distance_quotient(self, rng):
        for dom in (UnitDisc(), Annulus(2.0), Sector(0.9), SlitPlane()):
            for _ in range(40):
                z = complex(rng.uniform(-1.8, 1.8), rng.uniform(-1.8, 1.8))
                if not dom.contains(z) or dom.boundary_distance(z) < 1e-3:
                    continue
                assert kobayashi_metric(dom, z, 1.0) <= \
                    1.0 / dom.boundary_distance(z) + 1e-9

    def test_annulus_metric_matches_distance_derivative(self):
        dom = Annulus(2.0)
        z, h = 1.2, 1e-5
        fd = lempert(dom, complex(z), complex(z + h)).value / h
        assert kobayashi_metric(dom, complex(z), 1.0) == pytest.approx(fd, rel=1e-6)

    def test_ball_metric(self):
        b = Ball((0j, 0j), 1.0)
        assert kobayashi_metric(b, np.array([0j, 0j]), np.array([1.0, 0.0])) == \
            pytest.approx(1.0)

    @pytest.mark.parametrize("dom, pinned", [
        (Ball((0j, 0j), 1.0), "0x1.3aad5d1cda058p+0"),
        (Polydisc((0j, 0j), (1.0, 2.0)), "0x1.0d79435e50d79p+0"),
    ])
    def test_cn_metric_takes_a_direction_vector(self, dom, pinned):
        z = np.array([0.1 + 0.2j, -0.3j])
        with pytest.raises(DegenerateInput):
            kobayashi_metric(dom, z)           # the default X = 1.0
        for X in (1j, [1.0], [1.0, 0.5j, 0.0], np.ones((2, 1))):
            with pytest.raises(DegenerateInput):
                kobayashi_metric(dom, z, X)
        # an explicit direction keeps its value in data/closed_form_bits.json
        for X in (np.array([1.0, 0.5j]), [1.0, 0.5j], (1.0, 0.5j)):
            assert kobayashi_metric(dom, z, X).hex() == pinned


class TestMobiusScale:
    def test_disc_chain_value(self):
        assert caratheodory(UnitDisc(), 0j, 0.5 + 0j).mobius() == pytest.approx(0.5, abs=1e-12)

    def test_rises_to_one_at_boundary(self):
        # tanh c(0, t) = t on the unit disc, up to the boundary
        ts = [0.5, 0.7, 0.9, 0.99, 0.999, 1.0 - 1e-9]
        vals = [caratheodory(UnitDisc(), 0j, complex(t, 0.0)).mobius() for t in ts]
        assert vals == pytest.approx(ts, abs=1e-12)

    def test_mobius_invariance(self, rng):
        m = mobius_disc_automorphism(0.3 + 0.4j)
        for _ in range(10):
            z, w = disc_points(rng, 2, rmax=0.9)
            if abs(z - w) < 1e-3:
                continue
            t1 = caratheodory(UnitDisc(), z, w).mobius()
            t2 = caratheodory(UnitDisc(), complex(m.evaluate(z)), complex(m.evaluate(w))).mobius()
            assert t1 == pytest.approx(t2, abs=1e-12)

    def test_chain_brackets_on_annulus_endpoints(self):
        # tanh c <= exp(-2 pi g) <= tanh l collapses to equality on simply
        # connected domains; here just the sanity of the scale helper
        v = caratheodory(UnitDisc(), 0j, 0.5 + 0j)
        assert v.mobius() == pytest.approx(0.5, abs=1e-12)


class TestCnModels:
    def test_ball_radial(self):
        b = Ball((0j, 0j), 1.0)
        assert cn_model_distance(b, np.array([0j, 0j]), np.array([0.5, 0j])) == \
            pytest.approx(ATANH_HALF, abs=1e-12)

    def test_polydisc_max_rule(self):
        p = Polydisc((0j, 0j), (1.0, 1.0))
        v = cn_model_distance(p, np.array([0j, 0j]), np.array([0.5, 0.9]))
        assert v == pytest.approx(math.atanh(0.9), abs=1e-12)

    def test_coincident(self):
        b = Ball((0j, 0j), 1.0)
        z = np.array([0.3, 0.2j])
        assert cn_model_distance(b, z, z) == 0.0

    def test_unitary_invariance(self, rng):
        b = Ball((0j, 0j), 1.0)
        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, _ = np.linalg.qr(x)

        def pt():
            v = rng.normal(size=4)
            v = v[:2] + 1j * v[2:]
            return v / np.linalg.norm(v) * 0.9 * rng.uniform() ** 0.25

        for _ in range(20):
            z, w = pt(), pt()
            assert cn_model_distance(b, q @ z, q @ w) == \
                pytest.approx(cn_model_distance(b, z, w), abs=1e-10)

    def test_line_restriction_equals_disc(self, rng):
        b = Ball((0j, 0j), 1.0)
        for _ in range(20):
            u = rng.normal(size=4)
            u = (u[:2] + 1j * u[2:])
            u = u / np.linalg.norm(u)
            s, t = rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9)
            v = cn_model_distance(b, s * u, t * u)
            assert v == pytest.approx(poincare_distance(complex(s), complex(t)), abs=1e-10)

    @pytest.mark.parametrize("dom", [Ball((0j, 0j), 1.0), Polydisc((0j, 0j), (1.0, 1.0))],
                             ids=["ball", "polydisc"])
    @pytest.mark.parametrize("bad", [[0.1], [0.1, 0.2j, 0.1]], ids=["1-vector", "3-vector"])
    def test_wrong_length_point_is_refused(self, dom, bad):
        # numpy would broadcast a 1-vector against the centre and answer
        good = [0.2, 0.1j]
        for fn in (lambda: dom.contains(bad), lambda: dom.boundary_distance(bad),
                   lambda: cn_model_distance(dom, bad, good),
                   lambda: cn_model_distance(dom, good, bad),
                   lambda: caratheodory(dom, bad, good), lambda: lempert(dom, good, bad),
                   lambda: kobayashi_metric(dom, bad, [1.0, 0j])):
            with pytest.raises(DegenerateInput):
                fn()

    def test_polydisc_product_monotone(self, rng):
        # distance never drops when one factor's separation grows
        p = Polydisc((0j, 0j), (1.0, 1.0))
        base = cn_model_distance(p, np.array([0j, 0j]), np.array([0.4, 0.5]))
        more = cn_model_distance(p, np.array([0j, 0j]), np.array([0.4, 0.8]))
        assert more >= base - 1e-12


class TestPseudodistanceAxioms:
    def test_axioms_on_disc(self, rng):
        dom = UnitDisc()
        for _ in range(300):
            a, b, c = disc_points(rng, 3)
            dab = caratheodory(dom, a, b).value
            assert dab == pytest.approx(caratheodory(dom, b, a).value, abs=1e-9)
            assert caratheodory(dom, a, c).value <= \
                dab + caratheodory(dom, b, c).value + 1e-8
        z = disc_points(rng, 1)[0]
        assert caratheodory(dom, z, z).value == pytest.approx(0.0, abs=1e-12)

    def test_axioms_on_ball(self, rng):
        dom = Ball((0j, 0j), 1.0)

        def pt():
            x = rng.normal(size=4)
            v = (x[:2] + 1j * x[2:])
            return v / np.linalg.norm(v) * 0.9 * rng.uniform() ** 0.25

        for _ in range(300):
            a, b, c = pt(), pt(), pt()
            dab = cn_model_distance(dom, a, b)
            assert dab == pytest.approx(cn_model_distance(dom, b, a), abs=1e-9)
            assert cn_model_distance(dom, a, c) <= dab + cn_model_distance(dom, b, c) + 1e-8


class TestKoebeBoundInvariant:
    def test_quarter_log_lower_bound(self, rng):
        # c(z, w) >= (1/4) log(|psi'(0)| / (4 d(w))) with psi the inverse map
        from invdist.domains import wobbly_domain
        count = 0
        for seed in range(4):
            dom = wobbly_domain(seed)
            z0 = 0j
            m = riemann_map(dom, z0)
            psi_prime = 1.0 / m.normalization["deriv_z0"]
            for _ in range(40):
                w = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
                if not dom.contains(w):
                    continue
                dw = dom.boundary_distance(w, tol=1e-7)
                if dw < 1e-3:
                    continue
                count += 1
                c = caratheodory(dom, z0, w).value
                bound = 0.25 * math.log(psi_prime / (4.0 * dw))
                assert c >= bound - 1e-6
        assert count >= 100


class TestCertifiedValue:
    def test_interval_invariants(self):
        v = CertifiedValue(1.0, 2.0, "interval", 0.5)
        assert v.value == 1.5
        with pytest.raises(ValueError):
            CertifiedValue(2.0, 1.0, "interval")

    def test_exact_width(self):
        v = CertifiedValue.exact(1.234)
        assert v.width == 0.0
        assert v.method == "closed_form"

    def test_json_fields(self):
        doc = CertifiedValue.exact(1.0).to_json()
        assert set(doc) == {"lo", "hi", "method", "err", "scale"}
        assert doc["scale"] == "atanh"

    def test_hull_distance_matches_disc_in_containment(self):
        v = hull_distance(0j, 2.0, 0.5 + 0j, 1.0)
        m = poincare_distance(0j, 0.25 + 0j)
        assert v == pytest.approx(m, abs=1e-12)


def _jordan_cases():
    """(domain, its Jordan domain, star point) for the four Jordan test
    domains; the hull is passed as a TwoDiscHull."""
    from invdist.domains import ellipse_domain, lens_domain, two_disc_hull, wobbly_domain

    lens = lens_domain(0.75)
    hull = two_disc_hull(0j, 1.0, 2.5 + 0j, 0.7)
    cases = [(ellipse_domain(2.0, 1.0), 0j), (wobbly_domain(7), 0j),
             (lens, lens.anchor()), (hull, hull.as_jordan().anchor())]
    return [(dom, dom.as_jordan() if hasattr(dom, "as_jordan") else dom, star)
            for dom, star in cases]


def _jordan_points(rng, jordan, star, n):
    """n interior points star-shaped from `star`, then inward normal offsets
    at depths 1e-2 ... 1e-6 away from declared corners."""
    pts = []
    for _ in range(n):
        p = complex(jordan.point(rng.uniform()))
        pts.append(star + rng.uniform(0.05, 0.9) * (p - star))
    for depth in (1e-2, 1e-4, 1e-6):
        t = rng.uniform()
        while any(min(abs(t - c), 1.0 - abs(t - c)) < 0.03 for c in jordan.corner_params):
            t = rng.uniform()
        tang = complex(jordan.tangent(t))
        pts.append(complex(jordan.point(t)) + depth * 1j * tang / abs(tang))
    return pts


def _outcome(fn):
    """float.hex of a value (or of each end of a CertifiedValue), or the
    exception type it raised."""
    try:
        res = fn()
    except DomainViolation:
        return "DomainViolation"
    if isinstance(res, CertifiedValue):
        return (res.lo.hex(), res.hi.hex(), res.method)
    return float(res).hex()


class TestJordanOnePass:
    """A Jordan value maps each point once; the values stay bitwise those of
    separate evaluate / derivative calls."""

    def test_values_bitwise_equal_to_separate_calls(self):
        from invdist.bergman import bergman_distance, bergman_kernel, bergman_metric
        from invdist.distances import _map_error_to_distance

        rng = np.random.default_rng(2024)
        root2 = math.sqrt(2.0)
        X = 0.6 - 0.8j
        checked = 0
        for dom, jordan, star in _jordan_cases():
            m = riemann_map(jordan, jordan.anchor())
            pts = _jordan_points(rng, jordan, star, 6)
            for z in pts:
                fz = complex(m.evaluate(z))
                df = complex(m.derivative(z))
                gap = 1.0 - abs(fz) ** 2
                # an image pushed out of the disc by the map's error is refused
                outside = abs(fz) >= 1.0
                for fn, want in ((lambda: kobayashi_metric(dom, z, X), abs(df) * abs(X) / gap),
                                 (lambda: bergman_metric(dom, z, X), root2 * abs(df * X) / gap),
                                 (lambda: bergman_kernel(dom, z),
                                  abs(df) ** 2 / (math.pi * gap ** 2))):
                    assert _outcome(fn) == ("DomainViolation" if outside else want.hex())
            for z, w in zip(pts[:-1], pts[1:]):
                fz, fw = complex(m.evaluate(z)), complex(m.evaluate(w))

                def ref():
                    val = poincare_distance(fz, fw)
                    return CertifiedValue.estimate(val, _map_error_to_distance(m, fz, fw),
                                                   "conformal_pullback")

                want = _outcome(ref)
                assert _outcome(lambda: caratheodory(dom, z, w)) == want
                assert _outcome(lambda: lempert(dom, z, w)) == want
                if want != "DomainViolation":
                    c = ref()
                    want_b = ((root2 * c.lo).hex(), (root2 * c.hi).hex(), c.method)
                    assert _outcome(lambda: bergman_distance(dom, z, w)) == want_b
                    checked += 1
        assert checked >= 30

    def test_evaluate_with_derivative_matches_both_calls_on_arrays(self, ellipse):
        zm = riemann_map(ellipse, ellipse.anchor()).engine
        zs = np.array([0.3 + 0.2j, -1.5 + 0.1j, 1.9999 + 0j])
        val, der = zm.evaluate_with_derivative(zs)
        assert np.array_equal(val, zm.evaluate(zs))
        assert np.array_equal(der, zm.derivative(zs))

    def test_traversals_per_warm_value(self, monkeypatch):
        from invdist.bergman import bergman_kernel, bergman_metric
        from invdist.conformal import _GeodesicChain

        counts = {"n": 0}
        for name in ("forward", "forward_with_derivative"):
            original = getattr(_GeodesicChain, name)

            def counted(self, z, _original=original):
                counts["n"] += 1
                return _original(self, z)

            monkeypatch.setattr(_GeodesicChain, name, counted)

        for dom, jordan, star in _jordan_cases():
            riemann_map(jordan, jordan.anchor())  # warm: built once, then cached
            z, w = star, star + 0.3 * (complex(jordan.point(0.3)) - star)
            for fn, args, want in ((caratheodory, (z, w), 2), (lempert, (z, w), 2),
                                   (kobayashi_metric, (w,), 1),
                                   (bergman_metric, (w,), 1), (bergman_kernel, (w,), 1)):
                counts["n"] = 0
                fn(dom, *args)
                assert counts["n"] == want, (fn.__name__, jordan.name)


def _two_points(domain):
    """Two points inside a closed-form chart domain."""
    if isinstance(domain, Disc):
        return domain.center, domain.center + 0.3 * domain.radius
    if isinstance(domain, SlitPlane):
        return -1.0 + 0j, 0.5 + 0.5j
    if isinstance(domain, Sector):
        return 1.0 + 0j, 0.5 + 0.1 * domain.theta * 1j
    return domain.normal, 2.0 * domain.normal + 1j * domain.normal


class TestOneChart:
    """c = l and b = sqrt(2) c on every simply connected planar domain come
    from one pullback through the domain's chart."""

    def test_values_bitwise_equal(self):
        from invdist.bergman import bergman_distance
        from invdist.domains import (Disc, HalfPlane, Sector, SlitPlane, ellipse_domain,
                                     lens_domain, two_disc_hull)

        root2 = math.sqrt(2.0)
        cases = [(Disc(0.25 - 0.5j, 1.5), [0.3 - 0.2j, -0.9 - 1.1j, 1.2 - 0.5j]),
                 (HalfPlane(0.6 + 0.8j), [0.3 + 0.9j, 2.0 - 0.4j, 1e-6 + 0.5j]),
                 (Sector(0.7), [1.0 + 0j, 0.4 + 0.2j, 2.5 - 1.5j]),
                 (SlitPlane(), [-1.0 + 0j, 0.5 + 0.5j, 2.0 - 1e-3j]),
                 (ellipse_domain(2.0, 1.0), [0j, 1.2 + 0.3j, -0.5 - 0.6j])]
        lens = lens_domain(0.75)
        hull = two_disc_hull(0j, 1.0, 2.5 + 0j, 0.7)
        for dom in (lens, hull):
            a = dom.as_jordan().anchor() if hasattr(dom, "as_jordan") else dom.anchor()
            cases.append((dom, [a, a + 0.1 + 0.05j, a - 0.2j]))
        for dom, pts in cases:
            for z, w in zip(pts, pts[1:] + pts[:1]):
                c = _outcome(lambda: caratheodory(dom, z, w))
                assert _outcome(lambda: lempert(dom, z, w)) == c
                cv = caratheodory(dom, z, w)
                want = ((root2 * cv.lo).hex(), (root2 * cv.hi).hex(), cv.method)
                assert _outcome(lambda: bergman_distance(dom, z, w)) == want

    def test_half_plane_charts_are_exact_pullbacks(self):
        from invdist.domains import HalfPlane, Sector, SlitPlane

        for dom, z, w in ((HalfPlane(1j), 1j, 2j), (Sector(0.7), 1.0 + 0j, 2.0 + 0j),
                          (SlitPlane(), -1.0 + 0j, -2.0 + 0j)):
            v = caratheodory(dom, z, w)
            assert (v.method, v.width) == ("conformal_pullback", 0.0)

    def test_closed_chart_built_once_per_domain(self):
        from invdist.distances import chart
        from invdist.domains import HalfPlane, domain_to_json

        doms = [Disc(0.25 - 0.5j, 1.5), HalfPlane(0.6 + 0.8j), Sector(0.7), Sector(0.5),
                SlitPlane()]
        before = [(d, hash(d), repr(d), domain_to_json(d)) for d in doms]
        charts = [chart(d) for d in doms]
        for d, m in zip(doms, charts):
            assert chart(d) is m
            caratheodory(d, *_two_points(d))
            assert chart(d) is m
        assert charts[2] is not charts[3]
        assert charts[2].evaluate(1.0 + 0.5j) != charts[3].evaluate(1.0 + 0.5j)
        # a second equal domain object builds its own chart, with the same values
        twin = Sector(0.7)
        assert chart(twin) is not charts[2]
        assert chart(twin).evaluate(1.0 + 0.5j) == charts[2].evaluate(1.0 + 0.5j)
        for d, (same, h, r, doc) in zip(doms, before):
            assert d == same and hash(d) == h and repr(d) == r and domain_to_json(d) == doc
        assert twin == doms[2] and hash(twin) == hash(doms[2])

    def test_queried_domain_pickles(self):
        import copy
        import pickle

        from invdist.distances import chart
        from invdist.domains import HalfPlane

        for d in (Disc(0.25 - 0.5j, 1.5), HalfPlane(0.6 + 0.8j), Sector(0.7), SlitPlane()):
            z, w = _two_points(d)
            want = caratheodory(d, z, w)
            for twin in (pickle.loads(pickle.dumps(d)), copy.deepcopy(d)):
                assert twin == d and caratheodory(twin, z, w) == want
                assert chart(twin) is not chart(d)
            assert "_chart" in vars(d)
        # a hull leaves its Jordan form behind, a catalog curve pickles and
        # copies as its JSON description; both rebuild their maps
        from invdist.domains import (domain_to_json, ellipse_domain, lens_domain,
                                     two_disc_hull, wobbly_domain)

        for d, z, w in ((two_disc_hull(0j, 1.0, 2.5, 0.7), 0.5 + 0j, 2.0 + 0.2j),
                        (ellipse_domain(2.0, 1.0), 0j, 0.3 + 0.2j),
                        (lens_domain(0.75), 0.6 + 0j, 0.7 + 0.1j),
                        (wobbly_domain(7), 0j, 0.3 + 0.2j)):
            want = caratheodory(d, z, w)
            for twin in (pickle.loads(pickle.dumps(d)), copy.deepcopy(d)):
                assert domain_to_json(twin) == domain_to_json(d)
                assert chart(twin) is not chart(d) and caratheodory(twin, z, w) == want

    def test_chart_is_none_off_the_simply_connected_planar_domains(self):
        from invdist.distances import chart
        from invdist.domains import Annulus, Ball

        assert chart(Annulus(2.0)) is None
        assert chart(Ball((0j, 0j), 1.0)) is None


class TestChartDistances:
    """The batched chart distance agrees with the scalar one on every chart
    domain: within roundoff on the closed forms, within the value's error on
    the Jordan charts (array and scalar zipper arithmetic differ in the last
    bits)."""

    @staticmethod
    def _chart_cases(rng):
        from invdist.domains import HalfPlane

        cases = [(Disc(0.25 - 0.5j, 1.5), [0.3 - 0.2j, -0.9 - 1.1j, 1.2 - 0.5j, 1.7499 - 0.5j]),
                 (HalfPlane(0.6 + 0.8j), [0.3 + 0.9j, 2.0 - 0.4j, 1e-6 + 0.5j]),
                 (Sector(0.7), [1.0 + 0j, 0.4 + 0.2j, 2.5 - 1.5j, 1e-5 + 1e-6j]),
                 (SlitPlane(), [-1.0 + 0j, 0.5 + 0.5j, 2.0 - 1e-3j, 3.0 + 1e-9j])]
        for dom, jordan, star in _jordan_cases():
            cases.append((dom, _jordan_points(rng, jordan, star, 5)))
        return cases

    def test_agrees_with_scalar_caratheodory(self):
        from invdist.distances import chart_distances

        rng = np.random.default_rng(11)
        for dom, pts in self._chart_cases(rng):
            # pairs whose scalar value is refused (an image pushed out of the
            # disc by the map's error) would make the batch raise as well
            pairs = [(z, w) for z in pts for w in pts
                     if z != w and _outcome(lambda: caratheodory(dom, z, w)) != "DomainViolation"]
            got = chart_distances(dom, [z for z, _ in pairs], [w for _, w in pairs])
            assert len(got) == len(pairs) >= 6
            for (z, w), v in zip(pairs, got):
                ref = caratheodory(dom, z, w)
                assert v.method == ref.method
                assert abs(v.value - ref.value) <= ref.error_estimate + 1e-14 * max(1.0, ref.value)
                assert v.error_estimate == pytest.approx(ref.error_estimate, rel=1e-6)

    def test_one_traversal_per_batch(self, monkeypatch):
        from invdist.conformal import _GeodesicChain
        from invdist.distances import chart_distances
        from invdist.domains import ellipse_domain

        dom = ellipse_domain(2.0, 1.0)
        riemann_map(dom, dom.anchor())  # warm
        calls = []
        original = _GeodesicChain.forward
        monkeypatch.setattr(_GeodesicChain, "forward",
                            lambda self, z: calls.append(np.size(z)) or original(self, z))
        zs = [0.1 * k + 0.05j for k in range(10)]
        ws = [-0.1 * k - 0.3j for k in range(10)]
        assert len(chart_distances(dom, zs, ws)) == 10
        assert calls == [20]

    def test_point_outside_raises(self):
        from invdist.distances import chart_distances
        from invdist.domains import ellipse_domain

        with pytest.raises(DomainViolation, match=r"\(2\+0j\)"):
            chart_distances(Disc(0j, 1.0), [0.1 + 0j, 3.0 + 0j], [2.0 + 0j, 0.2 + 0j])
        with pytest.raises(DomainViolation):
            chart_distances(ellipse_domain(2.0, 1.0), [0j], [2.5 + 0j])

    def test_first_point_outside_in_input_order(self):
        from invdist.distances import chart_distances
        from invdist.domains import ellipse_domain, two_disc_hull

        # the points are checked in the order z0, w0, z1, w1: here w0
        for dom in (ellipse_domain(2.0, 1.0), two_disc_hull(0j, 1.0, 2.5 + 0j, 0.7)):
            with pytest.raises(DomainViolation,
                               match=r"^point \(-3\+0j\) is not inside the domain$"):
                chart_distances(dom, [0.1j, 3.5 + 0j], [-3.0 + 0j, 0.2j])
            with pytest.raises(DomainViolation,
                               match=r"^point \(3\.5\+0j\) is not inside the domain$"):
                caratheodory(dom, 3.5 + 0j, -3.0 + 0j)

    def test_domains_without_chart_and_malformed_input(self):
        from invdist.distances import chart_distances

        for dom in (Annulus(2.0), Ball((0j, 0j), 1.0)):
            with pytest.raises(UnsupportedDomain):
                chart_distances(dom, [1.0 + 0j], [1.5 + 0j])
        assert chart_distances(Disc(0j, 1.0), [], []) == []
        with pytest.raises(DegenerateInput):
            chart_distances(Disc(0j, 1.0), [0.1 + 0j, 0.2 + 0j], [0.3 + 0j])


class TestNarrowSector:
    """On a narrow sector the chart's power z^p under- or overflows; the
    distance then comes from p log z."""

    @pytest.mark.parametrize("theta", [1e-3, 1e-4])
    def test_closed_form_on_the_axis(self, theta):
        from invdist.bergman import bergman_distance

        dom = Sector(theta)
        # z^p underflows for the first pair and overflows for the second
        for z, w in ((0.5 + 0j, 0.6 + 0j), (2.0 + 0j, 3.0 + 0j)):
            want = math.pi / (4.0 * theta) * math.log(w.real / z.real)
            for fn, scale in ((caratheodory, 1.0), (lempert, 1.0),
                              (bergman_distance, math.sqrt(2.0))):
                v = fn(dom, z, w)
                assert (v.method, v.width) == ("conformal_pullback", 0.0)
                assert v.value == pytest.approx(scale * want, rel=1e-12)

    def test_log_form_matches_the_power_map(self):
        from invdist.distances import _halfplane_log_distance

        rng = np.random.default_rng(8)
        for _ in range(300):
            la, lb = (complex(rng.uniform(-40.0, 40.0), rng.uniform(-1.5, 1.5))
                      for _ in range(2))
            want = halfplane_hyperbolic_distance(1j * cmath.exp(la), 1j * cmath.exp(lb))
            assert _halfplane_log_distance(la, lb) == pytest.approx(want, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("theta", [1e-3, 1e-4])
    def test_pulled_back_metrics(self, theta):
        from invdist.bergman import bergman_kernel, bergman_metric

        dom = Sector(theta)
        p = math.pi / (2.0 * theta)
        # |z^p| underflows at 0.5, overflows at 2 and 3, and in between
        # lies in the bands where the kernel's squares would leave the floats
        pts = [0.5 + 0j, 0.75 + 0j, 0.999 + 0j, 1.0 + 0j, 1.3 + 0j, 2.0 + 0j,
               3.0 * cmath.exp(0.5j * theta), 0.6 * cmath.exp(-0.9j * theta),
               1.0005 * cmath.exp(0.3j * theta)]
        for z in pts:
            kappa = p / (2.0 * abs(z) * math.cos(p * cmath.phase(z)))
            for X in (1.0, 0.3 - 2.0j):
                assert kobayashi_metric(dom, z, X) == pytest.approx(kappa * abs(X), rel=1e-12)
                assert bergman_metric(dom, z, X) == pytest.approx(
                    math.sqrt(2.0) * kappa * abs(X), rel=1e-12)
            assert bergman_kernel(dom, z) == pytest.approx(kappa ** 2 / math.pi, rel=1e-12)
        assert kobayashi_metric(Sector(1e-3), 0.5) == pytest.approx(1570.796326794897,
                                                                   rel=1e-12)

    def test_chart_distances_silent(self):
        import warnings

        from invdist.distances import chart_distances

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v, = chart_distances(Sector(0.001), [2.0 + 0j], [3.0 + 0j])
            batch = chart_distances(Sector(1e-4), [0.5 + 0j, 2.0 + 0j, 1.0 + 0j],
                                    [0.6 + 0j, 1e-3 + 0j, 5.0 + 0j])
        assert v.value == pytest.approx(318.4515512299, rel=1e-12)
        assert v.value == caratheodory(Sector(0.001), 2.0 + 0j, 3.0 + 0j).value
        for cv, (z, w) in zip(batch, ((0.5, 0.6), (2.0, 1e-3), (1.0, 5.0))):
            assert cv.value == pytest.approx(math.pi / 4e-4 * abs(math.log(w / z)), rel=1e-12)

    def test_wide_sector_values_pinned(self):
        from invdist.bergman import bergman_distance

        dom = Sector(0.7)
        cases = [(1.0 + 0.2j, 0.3 - 0.1j, "0x1.878bdd56e3398p+0", "0x1.14dd75a726250p+1"),
                 (2.0 + 0j, 0.01 + 0.001j, "0x1.7ce9194f92762p+2", "0x1.0d582c68410c0p+3"),
                 (0.5 + 0j, 0.6 + 0j, "0x1.a2f29cb2c4028p-3", "0x1.283da296315dbp-2"),
                 (1e-5 + 1e-6j, 3.0 - 0.5j, "0x1.c6a52c7849e3ap+3", "0x1.417b92f0d5fecp+4")]
        for z, w, c_hex, b_hex in cases:
            for fn, want in ((caratheodory, c_hex), (lempert, c_hex), (bergman_distance, b_hex)):
                v = fn(dom, z, w)
                assert (v.lo.hex(), v.hi.hex()) == (want, want)
