import cmath
import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invdist.annulus import (
    AnnulusCaratheodory,
    annulus_kobayashi_distance,
    annulus_kobayashi_metric,
    deck_distances,
    theta_product,
)
from invdist.distances import (_annulus_engine, annulus_caratheodory, caratheodory,
                                poincare_distance)
from invdist.domains import Annulus
from invdist.errors import DomainViolation, NonConvergence


@pytest.fixture(scope="module")
def engine():
    return AnnulusCaratheodory(2.0)


class TestThetaProduct:
    @given(st.floats(0.01, 0.6), st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
    @settings(max_examples=60, deadline=None)
    def test_functional_equations(self, p, x_re, x_im):
        x = complex(x_re, x_im)
        if abs(x) < 0.05 or abs(x) > 3.0:
            return
        t = theta_product(x, p)
        assert theta_product(p * x, p) == pytest.approx(-t / x, rel=1e-10, abs=1e-12)
        assert theta_product(1.0 / x, p) == pytest.approx(-t / x, rel=1e-10, abs=1e-12)

    def test_zero_location(self):
        assert abs(theta_product(1.0 + 0j, 0.3)) < 1e-14

    @pytest.mark.parametrize("p", [0.8227, 0.3, 1.0 / 16, 1e-5])
    def test_array_matches_scalar_calls(self, p, rng):
        x = rng.uniform(0.2, 2.0, (6, 7)) * np.exp(2j * np.pi * rng.uniform(size=(6, 7)))
        batch = theta_product(x, p)
        assert batch.shape == x.shape
        one_by_one = np.array([[theta_product(v, p) for v in row] for row in x])
        np.testing.assert_allclose(batch, one_by_one, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("p", [1.0, 1.5, 1.0 - 1e-9])
    def test_raises_when_product_cannot_truncate(self, p):
        with pytest.raises(NonConvergence):
            theta_product(0.5 + 0.1j, p)


class TestCoveringDistance:
    def test_coincident(self):
        assert annulus_kobayashi_distance(2.0, 1.3 + 0j, 1.3 + 0j) == 0.0

    def test_rotation_invariance(self):
        k0 = annulus_kobayashi_distance(2.0, 1.0 + 0j, 1.5 + 0j)
        rot = cmath.exp(0.7j)
        assert annulus_kobayashi_distance(2.0, rot, 1.5 * rot) == pytest.approx(k0, abs=1e-12)

    def test_inversion_invariance(self):
        k0 = annulus_kobayashi_distance(2.0, 1.2 + 0.3j, 0.8 - 0.5j)
        k1 = annulus_kobayashi_distance(2.0, 1.0 / (1.2 + 0.3j), 1.0 / (0.8 - 0.5j))
        assert k1 == pytest.approx(k0, abs=1e-12)

    def test_deck_monotonicity(self):
        # widening the deck-translate range never increases the minimum
        z, w = 0.6 + 0j, -1.7 + 0.2j
        prev = math.inf
        for n in (1, 2, 4, 8, 16):
            cur = min(deck_distances(2.0, z, w, n))
            assert cur <= prev + 1e-15
            prev = cur
        assert min(deck_distances(2.0, z, w, 16)) == \
            pytest.approx(min(deck_distances(2.0, z, w, 24)), abs=1e-15)

    def test_outside_raises(self):
        with pytest.raises(DomainViolation):
            annulus_kobayashi_distance(2.0, 3.0 + 0j, 1.0 + 0j)

    def test_metric_matches_finite_difference(self):
        r, z, h = 2.0, 1.2, 1e-5
        fd = annulus_kobayashi_distance(r, complex(z), complex(z + h)) / h
        assert annulus_kobayashi_metric(r, complex(z), 1.0) == pytest.approx(fd, rel=1e-6)

    def test_metric_below_distance_quotient(self):
        r = 2.0
        for a in (0.55, 0.8, 1.0, 1.4, 1.9):
            d = min(r - a, a - 1 / r)
            assert annulus_kobayashi_metric(r, complex(a), 1.0) <= 1.0 / d + 1e-9


class TestCaratheodorySeries:
    def test_series_mode_enabled(self, engine):
        assert engine.series_mode
        assert engine.self_test_report["outer"] < 1e-8
        assert engine.self_test_report["inner"] < 1e-8
        assert "error" not in engine.self_test_report

    def test_fallback_records_its_reason(self):
        # A_1.00005 needs more theta factors than theta_product allows
        thin = AnnulusCaratheodory(1.00005)
        assert not thin.series_mode
        assert thin.self_test_report["error"].startswith("NonConvergence: ")

    @pytest.mark.parametrize("r", [1.001, 1.0001])
    def test_nan_deviation_fails_the_gate(self, r):
        # the ~9k and ~92k factor products overflow, so the deviations are
        # NaN: the gate rejects them and the report keeps them.  The engines
        # are the shared ones (A_1.0001's self-tests take seconds)
        thin = _annulus_engine(r)
        assert not thin.series_mode
        assert math.isnan(thin.self_test_report["outer"])
        assert math.isnan(thin.self_test_report["inner"])
        with pytest.raises(NonConvergence):
            thin.mobius_value(1.0, cmath.exp(1e-4j))
        v = caratheodory(Annulus(1.001), 1.0, cmath.exp(1e-4j))
        assert v.method == "interval" and 0.0 < v.lo <= v.hi < 0.08

    def test_values_past_the_gate_refuse_instead_of_dividing_by_zero(self):
        # were the gate passed, the A_1.001 pair (1, e^{1e-4 i}) rounds a
        # denominator product to 0 and (1, i) on A_1.0001 overflows
        thin = AnnulusCaratheodory(1.001)
        thin.series_mode = True
        with pytest.raises(NonConvergence, match="denominator"):
            thin.mobius_value(1.0, cmath.exp(1e-4j))
        with np.errstate(all="ignore"), pytest.raises(NonConvergence, match="not finite"):
            thin.mobius_values(np.array([1.0 + 0j]), np.array([cmath.exp(1e-4j)]))
        thinner = copy.copy(_annulus_engine(1.0001))
        thinner.series_mode = True
        with np.errstate(all="ignore"), pytest.raises(NonConvergence, match="not finite"):
            thinner.mobius_value(1.0, 1j)

    def test_inner_function_unimodular_on_both_circles(self, engine):
        r = engine.r
        angles = np.exp(2j * np.pi * np.arange(64) / 64)
        zz, zw = (1.3 + 0.4j) / r, (0.6 - 0.2j) / r
        a2, _ = engine._second_zero(zz, zw)
        outer = np.abs(engine._inner2(angles, zz, a2))
        inner = np.abs(engine._inner2(engine.q * angles, zz, a2))
        assert np.max(np.abs(outer - 1.0)) < 1e-8
        assert np.max(np.abs(inner - 1.0)) < 1e-8

    @pytest.mark.parametrize("r", [1.05, 1.2, 2.0, 5.0, 20.0])
    def test_closed_form_not_beaten_by_angle_scan(self, r, rng):
        # oracle: |F(zeta_w)| over 4096 angles of the second zero on its circle
        eng = AnnulusCaratheodory(r)
        phis = 2.0 * np.pi * np.arange(4096) / 4096
        for _ in range(12):
            z, w = r ** rng.uniform(-0.95, 0.95, 2) * np.exp(2j * np.pi * rng.uniform(size=2))
            m = eng.mobius_value(z, w)
            zz, zw = z / r, w / r
            rho2 = eng.q / abs(zz)
            scan = float(np.max(np.abs(eng._inner2(zw, zz, rho2 * np.exp(1j * phis)))))
            assert scan <= m * (1.0 + 1e-13)
            assert scan >= m * (1.0 - 1e-6)  # the scan comes within its grid of m

    def test_coincident_and_symmetry(self, engine):
        assert engine.distance(1.3 + 0j, 1.3 + 0j) == 0.0
        pairs = [(1.5 + 0.2j, 0.7 - 0.1j), (0.6 + 0j, 1.9j), (-1.2 + 0.4j, 1.0 + 0j)]
        for z, w in pairs:
            assert engine.distance(z, w) == pytest.approx(engine.distance(w, z), abs=1e-8)

    def test_c_below_k_random(self, engine, rng):
        r = engine.r
        for _ in range(200):
            z = complex(rng.uniform(0.55, 1.95) * cmath.exp(2j * math.pi * rng.uniform()))
            w = complex(rng.uniform(0.55, 1.95) * cmath.exp(2j * math.pi * rng.uniform()))
            if abs(z - w) < 1e-3:
                continue
            assert engine.distance(z, w) <= annulus_kobayashi_distance(r, z, w) + 1e-9

    def test_real_axis_additivity(self, engine):
        # the positive real segment is a geodesic: c(z, w) = c(z, t) + c(t, w)
        z, w = 1.8, 0.6
        total = engine.distance(complex(z), complex(w))
        for t in (0.7, 0.9, 1.0, 1.2, 1.5):
            split = engine.distance(complex(z), complex(t)) + \
                engine.distance(complex(t), complex(w))
            assert split == pytest.approx(total, abs=1e-6)

    def test_rotation_invariance(self, engine):
        z, w = 1.4 + 0.2j, 0.7 - 0.3j
        rot = cmath.exp(1.1j)
        assert engine.distance(rot * z, rot * w) == \
            pytest.approx(engine.distance(z, w), abs=1e-9)

    def test_above_disc_inclusion_lower_bound(self, engine, rng):
        r = engine.r
        for _ in range(50):
            z = complex(rng.uniform(0.55, 1.95) * cmath.exp(2j * math.pi * rng.uniform()))
            w = complex(rng.uniform(0.55, 1.95) * cmath.exp(2j * math.pi * rng.uniform()))
            lower = poincare_distance(z / r, w / r)
            assert engine.distance(z, w) >= lower - 1e-9


class TestDispatchers:
    def test_series_mode_certified_value(self):
        v = annulus_caratheodory(2.0, 1.0 + 0j, 1.5 + 0j)
        assert v.method == "series"
        assert v.width <= 1e-12

    def test_interval_fallback_brackets_series(self, engine, monkeypatch):
        val = annulus_caratheodory(2.0, 1.0 + 0j, 1.5 + 0j).value
        import invdist.distances as dsmod
        broken = AnnulusCaratheodory(2.0)
        broken.series_mode = False
        monkeypatch.setitem(dsmod._ANN_CACHE, 2.0, broken)
        v = annulus_caratheodory(2.0, 1.0 + 0j, 1.5 + 0j)
        assert v.method == "interval"
        assert v.lo - 1e-9 <= val <= v.hi + 1e-9

    def test_engine_refuses_when_gated(self):
        broken = AnnulusCaratheodory(2.0)
        broken.series_mode = False
        with pytest.raises(NonConvergence):
            broken.distance(1.0 + 0j, 1.5 + 0j)

    def test_caratheodory_dispatch(self):
        dom = Annulus(2.0)
        v = caratheodory(dom, 1.0 + 0j, 1.5 + 0j)
        w = annulus_caratheodory(2.0, 1.0 + 0j, 1.5 + 0j)
        assert v.value == pytest.approx(w.value, abs=1e-12)

    def test_other_modulus(self):
        eng = AnnulusCaratheodory(1.5)
        assert eng.series_mode
        k = annulus_kobayashi_distance(1.5, 1.0 + 0j, 1.2 + 0j)
        assert eng.distance(1.0 + 0j, 1.2 + 0j) <= k + 1e-9

    def test_narrow_annulus_c_below_k(self, rng):
        # covering distances on thin annuli need the scale-stable strip
        # chart; compare on the tanh scale where precision is uniform
        r = 1.2
        eng = AnnulusCaratheodory(r)
        assert eng.series_mode
        lo, hi = 1 / r + 0.1 * (r - 1 / r), r - 0.03 * (r - 1 / r)
        for _ in range(60):
            z = complex(rng.uniform(lo, hi) * cmath.exp(2j * math.pi * rng.uniform()))
            w = complex(rng.uniform(lo, hi) * cmath.exp(2j * math.pi * rng.uniform()))
            if abs(z - w) < 1e-3:
                continue
            c = eng.distance(z, w)
            k = annulus_kobayashi_distance(r, z, w)
            assert math.tanh(c) <= math.tanh(k) + 1e-12
            if k < 12.0:
                assert c <= k + 1e-8


class TestScalarPins:
    """float.hex pins of the scalar Caratheodory path, which the warm
    benchmark runs point by point: caratheodory on Annulus(r) and the
    engine's mobius_value on A_1.05, A_2 and A_5.  The first A_1.05 pair
    saturates at the 1 - 1e-16 clamp."""

    @pytest.mark.parametrize("r, z, w, bits", [
        (1.05, 1.02 + 0j, cmath.exp(1.0j) / 1.03, "0x1.058ccc6f184aep+4"),
        (1.05, 0.98 + 0.01j, 1.01 + 0.03j, "0x1.3bcf49bdf044bp-1"),
        (2.0, 1.5 + 0.2j, 0.7 - 0.1j, "0x1.0f08a4f8ec6edp+0"),
        (5.0, 4.0 + 1.0j, 0.3 - 0.1j, "0x1.c7be3250d1ce8p+0"),
    ])
    def test_caratheodory_bits(self, r, z, w, bits):
        v = caratheodory(Annulus(r), z, w)
        assert (v.lo.hex(), v.hi.hex(), v.method) == (bits, bits, "series")

    @pytest.mark.parametrize("r, z, w, bits", [
        (1.05, 1.0 + 0j, 1.01 * cmath.exp(0.02j), "0x1.66a97bf4800f9p-2"),
        (2.0, 1.9 + 0j, 0.55 * cmath.exp(2.0j), "0x1.ffb06d212d54dp-1"),
        (2.0, -1.2 + 0.4j, 1.0 + 0j, "0x1.fcc20e6d0f554p-1"),
        (5.0, 0.25 + 0j, 2.0 * cmath.exp(0.8j), "0x1.c4e5f719f2692p-1"),
    ])
    def test_mobius_value_bits(self, r, z, w, bits):
        assert AnnulusCaratheodory(r).mobius_value(z, w).hex() == bits


class TestBatchedMobiusValues:
    """mobius_values against the scalar mobius_value: numpy's array complex
    arithmetic may round apart from its scalar arithmetic, so the bound is
    a few ulps of m, not bitwise."""

    def test_prop5_grid_matches_scalar_loop(self):
        from invdist.bounds import verify_prop5_product
        from invdist.distances import _annulus_engine

        eng = _annulus_engine(2.0)
        rows = verify_prop5_product().rows
        worst = max(abs(m - eng.mobius_value(complex(z, 0.0), complex(s * np.exp(1j * ang))))
                    for z, s, ang, m, _ in rows)
        assert worst <= 1e-15

    # A_1.05's theta products run ~190 factors, and inputs near their zeros
    # amplify the ulps in which the two paths differ: 3.7e-15 on these pairs
    @pytest.mark.parametrize("r, tol", [(1.05, 5e-15), (2.0, 1e-15), (5.0, 1e-15)])
    def test_random_pairs_match_scalar_calls(self, r, tol, rng):
        eng = AnnulusCaratheodory(r)
        z, w = r ** rng.uniform(-0.95, 0.95, (2, 200)) * np.exp(2j * np.pi * rng.uniform(size=(2, 200)))
        batch = eng.mobius_values(z, w)
        assert batch.shape == (200,)
        scalar = [eng.mobius_value(a, b) for a, b in zip(z.tolist(), w.tolist())]
        assert np.max(np.abs(batch - scalar)) <= tol

    def test_coincident_outside_and_gated(self, engine):
        z = np.array([1.3 + 0.2j, 0.8j])
        assert engine.mobius_values(z, z).tolist() == [0.0, 0.0]
        assert engine.mobius_values(z, 1.0 + 0j).shape == (2,)
        with pytest.raises(DomainViolation):
            engine.mobius_values(z, np.array([1.0 + 0j, 2.5 + 0j]))
        broken = AnnulusCaratheodory(2.0)
        broken.series_mode = False
        with pytest.raises(NonConvergence):
            broken.mobius_values(z, 1.0 + 0j)
