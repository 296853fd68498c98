import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invdist import bounds as bd
from invdist.distances import caratheodory, lempert, poincare_distance
from invdist.domains import (
    Annulus,
    Ball,
    Disc,
    JordanDomain,
    Polydisc,
    Sector,
    SlitPlane,
    ellipse_domain,
    two_disc_hull,
)
from invdist.errors import (
    DegenerateInput,
    InsufficientSamples,
    NoFiniteConstant,
    UnsupportedDomain,
)


class TestFormulas:
    def test_convex_lower(self):
        assert bd.bound_convex_lower(1.0, 1.0) == 0.0
        assert bd.bound_convex_lower(4.0, 1.0) == pytest.approx(math.log(2.0))
        with pytest.raises(DegenerateInput):
            bd.bound_convex_lower(0.0, 1.0)

    def test_convex_lower_on_disc_slice(self):
        # c(0, w) >= (1/2) log(1 / (1 - |w|)) for d(0) = 1
        for t in np.linspace(0.05, 0.995, 30):
            c = poincare_distance(0j, complex(t, 0.0))
            assert c >= bd.bound_convex_lower(1.0, 1.0 - t) - 1e-12

    def test_prop1_R(self):
        assert bd.bound_prop1_R(1.0, 2.0, 1.0) == pytest.approx(math.log(2.0))
        assert bd.bound_prop1_R(1.0, 1.0, 1.0) == pytest.approx(1.0)
        # the second inequality of the chain
        assert bd.bound_prop1_R(1.0, 2.0, 1.0) <= 1.0 / min(2.0, 1.0) + 1e-12

    def test_prop1_R_continuity_at_equal_distances(self):
        near = bd.bound_prop1_R(1.0, 1.0 + 1e-9, 1.0)
        assert near == pytest.approx(1.0, abs=1e-6)

    @given(st.floats(0.01, 10.0), st.floats(0.01, 10.0), st.floats(0.0, 5.0))
    @settings(max_examples=100, deadline=None)
    def test_prop1_R_dominated_by_min_quotient(self, dz, dw, sep):
        assert bd.bound_prop1_R(sep, dz, dw) <= sep / min(dz, dw) + 1e-12

    def test_ccvx_lower(self):
        assert bd.bound_ccvx_lower(4.0, 1.0) == 0.0
        assert bd.bound_ccvx_lower(1.0, 0.1) == pytest.approx(0.25 * math.log(2.5))
        c = poincare_distance(0j, 0.9 + 0j)
        assert c >= bd.bound_ccvx_lower(1.0, 0.1)

    def test_envelope_residual(self):
        # disc, z = 0: residual is exactly (1/2) log(1 + |w|)
        for t in (0.1, 0.5, 0.9):
            s = poincare_distance(0j, complex(t, 0.0))
            r = bd.envelope_residual_pla(s, 1.0 - t)
            assert r == pytest.approx(0.5 * math.log1p(t), abs=1e-12)
            assert 0.0 <= r <= 0.5 * math.log(2.0) + 1e-12

    def test_sandwich_degenerate(self):
        assert bd.sandwich_gen(0.0, 1.0, 1.0, 2.0) == (0.0, 0.0)
        with pytest.raises(DegenerateInput):
            bd.sandwich_gen(1.0, 1.0, 1.0, 0.5)

    def test_sandwich_disc_slice(self):
        # z = 0, c = 2: the lower bound never exceeds tanh c = |w|
        for t in np.linspace(0.05, 0.999, 40):
            lo, hi = bd.sandwich_gen(t, 1.0, 1.0 - t, 2.0)
            assert lo <= t + 1e-12
            assert hi >= t - 1e-12

    @given(st.floats(0.01, 3.0), st.floats(0.01, 2.0), st.floats(0.01, 2.0),
           st.floats(1.0, 50.0))
    @settings(max_examples=100, deadline=None)
    def test_sandwich_monotone_in_c(self, sep, dz, dw, c):
        lo1, hi1 = bd.sandwich_gen(sep, dz, dw, c)
        lo2, hi2 = bd.sandwich_gen(sep, dz, dw, c * 1.5)
        assert lo2 <= lo1 + 1e-12
        assert hi2 >= hi1 - 1e-12

    def test_sandwich_log_form_equivalence_symbolic(self):
        # (1 + m)/(1 - m) with m = x / sqrt(A + x^2) equals (sqrt(A+x^2)+x)^2/A
        import sympy as sp
        x, A = sp.symbols("x A", positive=True)
        m = x / sp.sqrt(A + x ** 2)
        lhs = (1 + m) / (1 - m)
        rhs = (sp.sqrt(A + x ** 2) + x) ** 2 / A
        assert sp.simplify(lhs - rhs) == 0

    @given(st.floats(0.05, 2.0), st.floats(0.05, 1.0), st.floats(0.05, 1.0),
           st.floats(1.0, 20.0))
    @settings(max_examples=60, deadline=None)
    def test_sandwich_implies_log_forms(self, sep, dz, dw, c):
        # the two families of bounds are equivalent up to adjusting the
        # constant: the tanh form at c implies the additive form
        # log(1 + sep / (c sqrt(dd)) + sep^2 / (c dd)) at c below and its
        # reciprocal-c partner at 4c above
        def log_forms(c):
            dd = dz * dw
            return (math.log(1.0 + sep / (c * math.sqrt(dd)) + sep * sep / (c * dd)),
                    math.log(1.0 + c * sep / math.sqrt(dd) + c * sep * sep / dd))

        lo, hi = bd.sandwich_gen(sep, dz, dw, c)
        log_lo, _ = log_forms(c)
        _, log_hi4 = log_forms(4.0 * c)
        assert 2.0 * math.atanh(min(lo, 1 - 1e-12)) >= log_lo - 1e-9
        if hi < 1.0:
            assert 2.0 * math.atanh(hi) <= log_hi4 + 1e-9


# sample_interior(domain, 4, default_rng(0)) of each domain kind, as the
# float.hex of the coordinates' real and imaginary parts
SAMPLER_DRAWS = {
    "disc": (Disc(0j, 1.0), [
        '-0x1.948efa61fa03dp-4', '0x1.94a96966c6fe4p-1',
        '0x1.9b7f1e827c959p-3', '0x1.5717cffe86c8ep-6',
        '0x1.8949a4bad66a2p-1', '-0x1.e0473b6c2b4fep-2',
        '-0x1.9908a2cff54bap-4', '-0x1.8aaf5d6b194a5p-1']),
    "sector": (Sector(0.7), [
        '0x1.d5678a12e3b53p+0', '-0x1.32cbc9f967d94p-1',
        '0x1.13bd56c6f463fp-3', '-0x1.aef35fe201606p-4',
        '0x1.088d60a7a1699p+1', '0x1.5062666ec522cp+0',
        '0x1.bfc7649dbf3a9p+0', '0x1.23b00079a2cbcp-1']),
    "slitplane": (SlitPlane(), [
        '-0x1.06fcc29591c58p-2', '0x1.e96ff13da1a0dp+0',
        '0x1.5b4b3a7eba36ap-3', '0x1.57fe3f4a2dac8p-6',
        '0x1.08d2efaf6cfd9p+1', '-0x1.4f87304c11a0bp+0',
        '-0x1.0324759c41523p-2', '-0x1.d2742c6fb9288p+0']),
    "annulus": (Annulus(2.0), [
        '-0x1.71467e0eb5f92p-3', '0x1.715e9ee5d3508p+0',
        '0x1.2041af6d3ddc8p-1', '0x1.e0adc0f8e1efap-5',
        '0x1.77192cc3ef9f9p+0', '-0x1.ca10cec75bc02p-1',
        '-0x1.72b0a1f8406f0p-3', '-0x1.65afb3d71caf7p+0']),
    "ball": (Ball((0j, 0j), 1.0), [
        '0x1.6a0624075f8c9p-3', '0x1.cd00eef4f4900p-1',
        '-0x1.7c6102cb912dfp-3', '0x1.2e0bdfd70013bp-3',
        '0x1.94cc726ef5015p-3', '0x1.090f46b9bff10p-1',
        '0x1.6cf35ea79c71bp-1', '-0x1.89e8b09c1687dp-2',
        '-0x1.e70c10a7b346ep-3', '-0x1.c636bea310cf8p-1',
        '0x1.02590a8936576p-6', '-0x1.55f125944e629p-4',
        '-0x1.1f68ab4812ea5p-1', '-0x1.f094ac2fd6715p-3',
        '-0x1.ab3bf95d54701p-2', '0x1.431f86504012ap-2']),
    "polydisc": (Polydisc((0j, 0j), (1.0, 2.0)), [
        '-0x1.948efa61fa03dp-4', '0x1.94a96966c6fe4p-1',
        '0x1.9b7f1e827c959p-2', '0x1.5717cffe86c8ep-5',
        '0x1.8949a4bad66a2p-1', '-0x1.e0473b6c2b4fep-2',
        '-0x1.9908a2cff54bap-3', '-0x1.8aaf5d6b194a5p+0',
        '0x1.59d465b047773p-1', '-0x1.2aef22aa311c5p-2',
        '0x1.cd780140db85fp+0', '0x1.fc3a2121642f9p-6',
        '0x1.cea5ee32c98f7p-1', '0x1.8c6c11059c0f0p-3',
        '0x1.891a86a0f355ep-1', '0x1.85b7100337c0dp+0']),
    "hull": (two_disc_hull(0j, 1.0, 2.5 + 0j, 0.7), [
        '0x1.acdc780292976p+0', '-0x1.d77a103be9318p-2',
        '0x1.8c4139a983e66p+0', '0x1.d6024affc414cp-2',
        '0x1.084344c3819adp+1', '-0x1.4c20eed89d1b8p-1',
        '0x1.500b846063335p+1', '0x1.53a67b20b50f0p-4']),
    "jordan": (ellipse_domain(2.0, 1.0), [
        '0x1.187f5e7ece140p-1', '-0x1.d77a103be9318p-2',
        '0x1.b4c7b7180edb0p-2', '0x1.d6024affc414cp-2',
        '0x1.65603cf43b8f0p-3', '0x1.bd83a01e3d5aep-1',
        '0x1.d655983e1e7e8p-1', '-0x1.4c20eed89d1b8p-1']),
}


class TestSampler:
    @pytest.mark.parametrize("kind", sorted(SAMPLER_DRAWS))
    def test_draws_are_pinned(self, kind):
        dom, want = SAMPLER_DRAWS[kind]
        pts = bd.sample_interior(dom, 4, np.random.default_rng(0))
        assert len(pts) == 4
        coords = np.asarray(pts, dtype=complex).ravel()
        got = [x.hex() for z in coords for x in (float(z.real), float(z.imag))]
        assert got == want

    def test_unsupported_kind(self):
        with pytest.raises(UnsupportedDomain):
            bd.sample_interior(object(), 1, np.random.default_rng(0))

    @pytest.mark.parametrize("kind", ["hull", "jordan", "sector"])
    def test_rounds_match_testing_each_draw(self, kind):
        # reference: test each candidate as it is drawn; the points and the
        # generator's state afterwards must be the same
        dom = SAMPLER_DRAWS[kind][0]
        draw, boxed = dom._proposal()
        tol = {"tol": 1e-6} if isinstance(dom, JordanDomain) else {}
        ref = np.random.default_rng(3)
        want = []
        while len(want) < 25:
            z = draw(ref)
            if (not boxed or dom.contains(z)) and dom.boundary_distance(z, **tol) > 0.05:
                want.append(z)
        rng = np.random.default_rng(3)
        got = bd.sample_interior(dom, 25, rng, d_floor=0.05)
        assert [(z.real.hex(), z.imag.hex()) for z in got] == \
            [(z.real.hex(), z.imag.hex()) for z in want]
        assert rng.bit_generator.state == ref.bit_generator.state


class TestFitMinConstant:
    def test_disc_slice_prop6_constant(self):
        ts = np.linspace(0.1, 0.999, 200)

        def margins(c):
            out = []
            for t in ts:
                lo, _ = bd.sandwich_gen(t, 1.0, 1.0 - t, c)
                out.append(t - lo)  # tanh c_D(0, t) = t
            return np.asarray(out)

        c, _ = bd.fit_min_constant(margins, c_lo=1.0)
        assert c <= 2.0 + 1e-3
        assert c >= 1.9

    def test_envelope_constant_disc(self):
        ws = np.linspace(0.0, 0.999999, 400)
        resid = 0.5 * np.log1p(ws)

        def margins(c):
            return c - resid

        c, _ = bd.fit_min_constant(margins)
        assert c == pytest.approx(0.5 * math.log(2.0), abs=1e-6)

    def test_comp_constant_is_4_root2(self, rng):
        pairs = []
        for _ in range(50):
            z = complex(0.9 * math.sqrt(rng.uniform()) * np.exp(2j * math.pi * rng.uniform()))
            w = complex(0.9 * math.sqrt(rng.uniform()) * np.exp(2j * math.pi * rng.uniform()))
            if abs(z - w) < 1e-3:
                continue
            k = poincare_distance(z, w)
            b = math.sqrt(2.0) * k
            pairs.append((k, b))

        def margins(c):
            return np.asarray([c * k - 4.0 * b for k, b in pairs])

        c, _ = bd.fit_min_constant(margins)
        assert c == pytest.approx(4.0 * math.sqrt(2.0), abs=1e-6)

    def test_no_finite_constant(self):
        with pytest.raises(NoFiniteConstant):
            bd.fit_min_constant(lambda c: np.asarray([-1.0]))


class TestExperiments:
    def test_sector_ratio_closed_form_row(self):
        rep = bd.experiment_sector_ratio(math.pi / 2, [0.1])
        assert rep.rows[0][2] == pytest.approx(0.5 * math.log(10.0), abs=1e-12)

    def test_sector_ratio_limit(self):
        rep = bd.experiment_sector_ratio(0.05, np.geomspace(1e-2, 1e-6, 5))
        assert rep.constants["limit_gap"] < 0.02
        # ratio equals (pi / 4 theta) sin(theta) for the sector, x-free
        expect = (math.pi / (4 * 0.05)) * math.sin(0.05) * (2 * 0.05 / math.pi) * \
            (math.pi / 4) / (math.pi / 4)
        assert rep.constants["final_ratio"] == pytest.approx(
            (math.pi / 4) * math.sin(0.05) / 0.05, abs=1e-9)

    def test_slit_coefficient_exact_quarter(self):
        rep = bd.experiment_slit_coefficient(np.geomspace(1e-2, 1e-8, 6))
        for row in rep.rows:
            assert row[3] == pytest.approx(0.25, abs=1e-9)
            assert row[4] < 1e-6
        assert rep.violations == 0

    def test_slit_rows_consistent_with_ccvx(self):
        dom = SlitPlane()
        rep = bd.experiment_slit_coefficient(np.geomspace(1e-2, 1e-6, 5))
        for t, c, _, _, _ in rep.rows:
            assert c >= bd.bound_ccvx_lower(1.0, t) - 1e-8

    def test_ratio_c_over_l_squeeze(self):
        rep = bd.experiment_ratio_c_over_l(depths=np.geomspace(3e-2, 1e-4, 8))
        ratios = [r[-1] for r in rep.rows]
        assert all(r <= 1.0 + 1e-6 for r in ratios)
        assert ratios[-1] >= 0.99
        tail = ratios[-5:]
        assert all(b >= a - 1e-9 for a, b in zip(tail, tail[1:]))
        assert rep.passed

    def test_prop5_product_fit(self):
        rep = bd.verify_prop5_product()
        assert rep.passed
        assert rep.samples == len(rep.rows) == 768
        assert rep.notes == "series-mode"
        assert rep.constants["c"] == max(row[-1] for row in rep.rows)
        assert math.isfinite(rep.constants["c"])
        # z is real, so conjugating w leaves m in place: the fan's angles
        # k and 12 - k give the same value
        fan = np.asarray([row[3] for row in rep.rows]).reshape(8, 8, 12)
        assert np.allclose(fan[..., 1:], fan[..., :0:-1], rtol=0.0, atol=1e-12)

    def test_prop5_additivity_on_real_geodesic(self):
        # the proof splits c(z, |w|) at an intermediate radius
        from invdist.distances import _annulus_engine
        eng = _annulus_engine(2.0)
        z, w = 1.9, 0.55
        total = eng.distance(complex(z), complex(w))
        for t in (0.7, 1.0, 1.6):
            parts = eng.distance(complex(z), complex(t)) + \
                eng.distance(complex(t), complex(w))
            assert parts == pytest.approx(total, abs=1e-6)


class TestSlopeRegression:
    def test_disc_slope_half(self):
        s, _, _ = bd.boundary_slope_regression(
            Disc(0j, 1.0), 0j, "carath", np.geomspace(1e-6, 1e-2, 20))
        assert 0.49 <= s <= 0.51

    def test_bergman_slope_equals_carath_slope(self):
        depths = np.geomspace(1e-6, 1e-2, 12)
        s1, _, _ = bd.boundary_slope_regression(Disc(0j, 1.0), 0j, "carath", depths)
        s2, _, _ = bd.boundary_slope_regression(Disc(0j, 1.0), 0j, "bergman", depths)
        assert s1 == pytest.approx(s2, abs=1e-6)

    def test_needs_enough_samples(self):
        with pytest.raises(InsufficientSamples):
            bd.boundary_slope_regression(Disc(0j, 1.0), 0j, "carath", [1e-3, 1e-4])

    def test_ellipse_slope(self, ellipse):
        s, _, _ = bd.boundary_slope_regression(
            ellipse, 0j, "carath", np.geomspace(1e-3, 1e-1, 20))
        assert 0.45 <= s <= 0.55


class TestSuites:
    def test_prop1_chain_small(self):
        rep = bd.run_suite("prop1", samples=60, seed=5)
        assert rep.passed
        assert rep.worst_margin > 0

    def test_prop1_includes_planar_hulls(self, rng):
        # the same chain on a planar convex hull domain
        dom = two_disc_hull(0j, 1.0, 2.5 + 0j, 0.7)
        pts = bd.sample_interior(dom, 40, rng, d_floor=2e-2)
        for z, w in zip(pts[:20], pts[20:]):
            if abs(z - w) < 1e-3:
                continue
            dz, dw = dom.boundary_distance(z), dom.boundary_distance(w)
            l = lempert(dom, z, w).value
            lh = bd.ds.hull_distance(0j, dz, complex(abs(w - z), 0.0), dw)
            R = bd.bound_prop1_R(abs(w - z), dz, dw)
            assert l <= lh + 1e-3
            assert lh <= R + 1e-3

    def test_prop2_suite(self):
        rep = bd.run_suite("prop2", samples=150, seed=5)
        assert rep.passed

    def test_eq_ca_suite(self):
        rep = bd.run_suite("eq-ca", samples=100, seed=5)
        assert rep.passed

    def test_eq_le_suite(self, ellipse):
        rep = bd.run_suite("eq-le", samples=30, seed=5, domain=ellipse)
        assert rep.passed
        assert math.isfinite(rep.constants["c"])

    def test_prop4_disc_exact(self):
        rep = bd.run_suite("prop4", samples=60, seed=5)
        assert rep.passed
        assert rep.constants["c"] <= 0.5 * math.log(2.0) + 1e-9

    def test_prop4_ellipse_stable(self, ellipse):
        r1 = bd.run_suite("prop4", samples=36, seed=5, domain=ellipse)
        r2 = bd.run_suite("prop4", samples=36, seed=99, domain=ellipse)
        assert r1.passed and r2.passed
        assert abs(r1.constants["c"] - r2.constants["c"]) <= 0.1 * r1.constants["c"]

    def test_prop6_disc(self):
        rep = bd.run_suite("prop6", samples=80, seed=5)
        assert rep.passed
        assert rep.constants["disc_l_minus_c"] <= 1e-12
        assert rep.constants["c"] <= 4.1

    def test_comp_suite(self):
        rep = bd.run_suite("comp", samples=40, seed=5)
        assert rep.passed
        assert rep.constants["c1_disc"] == pytest.approx(4.0 * math.sqrt(2.0), abs=1e-6)

    def test_unknown_suite(self):
        with pytest.raises(Exception):
            bd.run_suite("nonsense")

    @pytest.mark.parametrize("suite", ["prop4", "annulus", "remark-a"])
    def test_zero_samples_rejected(self, suite):
        with pytest.raises(DegenerateInput):
            bd.run_suite(suite, samples=0)

    def test_suite_sizes(self):
        rep = bd.run_suite("prop5", seed=5)
        assert rep.samples == bd.SUITES["prop5"].fixed
        with pytest.raises(DegenerateInput):
            bd.run_suite("prop5", samples=768)
        assert bd.run_suite("remark-b", samples=5).samples == 5
        with pytest.raises(DegenerateInput):
            bd.run_suite("prop7", samples=7)

    def test_domain_outside_the_suite_contract(self):
        with pytest.raises(UnsupportedDomain):
            bd.run_suite("eq-le", samples=4, domain=Disc(0j, 1.0))
        with pytest.raises(UnsupportedDomain):
            bd.run_suite("prop2", samples=4, domain=Disc(0j, 1.0))


# default reports of the planar Jordan suites, recorded with one
# `contains` / `boundary_distance` call per point: the array calls the suites
# make must reproduce every byte
PINNED_REPORTS = [
    ("prop6", 8, True,
     '{"schema":1,"suite":"prop6","samples":68,"violations":0,'
     '"worst_margin":-9.9999997171806854e-10,"constants":{"c":8.1364700433926913,'
     '"c_fresh":8.1364700433926913,"disc_l_minus_c":0},"seed":42,"passed":true}'),
    ("eq-le", 6, True,
     '{"schema":1,"suite":"eq-le","samples":6,"violations":0,'
     '"worst_margin":-0.42542151059866273,"constants":{"c":1.7428584915078802},'
     '"seed":42,"passed":true}'),
    ("prop4", 12, True,
     '{"schema":1,"suite":"prop4","samples":36,"violations":0,'
     '"worst_margin":0.152151224687466,"constants":{"c":1.1935125764831853},'
     '"seed":42,"passed":true}'),
    ("boundary-slope", None, True,
     '{"schema":1,"suite":"boundary-slope","samples":6,"violations":0,'
     '"worst_margin":0.048147329385931248,"constants":{"disc_carath":0.50015971537096637,'
     '"disc_lempert":0.50015971537096637,"disc_bergman":0.50015971537096637,'
     '"ellipse_carath":0.50185267061406424,"ellipse_lempert":0.50185267061406424,'
     '"ellipse_bergman":0.5018526706140688},"seed":42,"passed":true}'),
    ("prop6", 40, False,
     '{"schema":1,"suite":"prop6","samples":84,"violations":0,'
     '"worst_margin":-9.999894245993346e-10,"constants":{"c":3.9983869716980855,'
     '"c_fresh":3.9983869716980855,"disc_l_minus_c":0},"seed":42,"passed":true}'),
]


@pytest.mark.parametrize("suite, samples, on_ellipse, want", PINNED_REPORTS)
def test_jordan_suite_reports_are_pinned(suite, samples, on_ellipse, want):
    dom = ellipse_domain(2.0, 1.0) if on_ellipse else None
    assert bd.run_suite(suite, samples=samples, domain=dom).to_json() == want


class TestProp2ProjectionChain:
    def test_ball_projection_lower_bound(self, rng):
        # c_ball(z, w) >= c on the disc slice through the center and w:
        # z -> <z, u> with u = w / |w| maps the ball onto the unit disc
        ball = Ball((0j, 0j), 1.0)
        for _ in range(25):
            x = rng.normal(size=4)
            w = (x[:2] + 1j * x[2:])
            w = w / np.linalg.norm(w) * rng.uniform(0.3, 0.95)
            x = rng.normal(size=4)
            z = (x[:2] + 1j * x[2:])
            z = z / np.linalg.norm(z) * rng.uniform(0.0, 0.9)
            u = w / np.linalg.norm(w)
            c_line = poincare_distance(complex(np.vdot(u, z)), complex(np.vdot(u, w)))
            c_ball = caratheodory(ball, z, w).value
            assert c_ball >= c_line - 1e-9


class TestReports:
    def test_json_deterministic(self):
        r1 = bd.run_suite("prop4", samples=25, seed=11)
        r2 = bd.run_suite("prop4", samples=25, seed=11)
        assert r1.to_json() == r2.to_json()
        assert '"schema":1' in r1.to_json()

    def test_json_excludes_runtime_by_default(self):
        rep = bd.run_suite("prop4", samples=10, seed=11)
        assert "runtime" not in rep.to_json()
        assert "runtime_seconds" in rep.to_json(include_runtime=True)

    def test_csv_rows(self):
        rep = bd.experiment_slit_coefficient(np.geomspace(1e-2, 1e-6, 5))
        text = rep.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "t,carath,neg_log_d,quotient,exact_gap"
        assert len(lines) == 6

    def test_float_formatting_17g(self):
        s = bd._json_canonical({"x": 1.0 / 3.0})
        assert s == '{"x":0.33333333333333331}'

    def test_non_finite_floats_written_as_null(self):
        s = bd._json_canonical({"a": math.inf, "b": [-math.inf, math.nan], "c": 0.5})
        assert s == '{"a":null,"b":[null,null],"c":0.5}'
        assert json.loads(s)["a"] is None
