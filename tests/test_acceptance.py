"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with -s to see them) and
enforces both the stated tolerance and the runtime budget.
"""

import cmath
import contextlib
import math
import time

import numpy as np
import pytest

from invdist import bounds as bd
from conftest import integrate_metric
from invdist.bergman import bergman_distance, bergman_field
from invdist.conformal import mobius_disc_automorphism, riemann_map
from invdist.distances import caratheodory, poincare_distance
from invdist.domains import (
    JordanDomain,
    UnitDisc,
    ellipse_domain,
    wobbly_domain,
)

ROOT2 = math.sqrt(2.0)
TWO_PI = 2.0 * math.pi


@contextlib.contextmanager
def criterion(number, description, budget_seconds):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - t0
    status = "PASS" if elapsed < budget_seconds else "FAIL (over budget)"
    print(f"criterion {number:2d}: {status} ({elapsed:.1f}s / {budget_seconds}s) - {description}")
    assert elapsed < budget_seconds, f"runtime {elapsed:.1f}s over {budget_seconds}s budget"


def disc_pairs(rng, n, rmax=0.95):
    for _ in range(n):
        z = complex(rmax * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform()))
        w = complex(rmax * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform()))
        yield z, w


def test_criterion_1_disc_identities():
    with criterion(1, "disc identities c = atanh|w|, b = sqrt(2) c", 5.0):
        rng = np.random.default_rng(1)
        dom = UnitDisc()
        field = bergman_field(dom)
        for i, (z, w) in enumerate(disc_pairs(rng, 100)):
            c0 = caratheodory(dom, 0j, w).value
            assert abs(c0 - math.atanh(abs(w))) < 1e-12
            c = caratheodory(dom, z, w).value
            b = bergman_distance(dom, z, w).value
            assert abs(b - ROOT2 * c) < 1e-9
            if i < 10 and abs(z - w) > 1e-3:
                # kernel pipeline: integrate the kernel-metric field along
                # the hyperbolic geodesic, graded toward the far endpoint
                m = mobius_disc_automorphism(z)
                u = complex(m.evaluate(w))
                span = math.atanh(abs(u))
                phase = u / abs(u)

                def radius(s):
                    return math.tanh(s * span)

                def path(s, m=m, phase=phase):
                    return m.inverse(radius(s) * phase)

                def dpath(s, z=z, phase=phase):
                    du = span / math.cosh(s * span) ** 2 * phase
                    return du * (1 - abs(z) ** 2) / (1 + z.conjugate() * radius(s) * phase) ** 2

                val = integrate_metric(field, path, dpath, n_panels=16)
                assert abs(val - ROOT2 * c) < 1e-9


def test_criterion_2_riemann_engine():
    with criterion(2, "riemann engine: invariance, Koebe sandwich, ladder", 60.0):
        rng = np.random.default_rng(2)
        # Moebius-style affine round trip: engine distance vs closed form
        for _ in range(8):
            a = 0.6 * cmath.exp(2j * math.pi * rng.uniform())
            b = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
            dom = JordanDomain(
                lambda t, a=a, b=b: b + a * np.exp(1j * TWO_PI * np.asarray(t)),
                lambda t, a=a, b=b: 1j * TWO_PI * a * np.exp(1j * TWO_PI * np.asarray(t)),
                name="affine", check_simple=False)
            m = riemann_map(dom, b)
            for _ in range(6):
                z = b + abs(a) * 0.9 * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
                w = b + abs(a) * 0.9 * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
                engine = poincare_distance(complex(m.evaluate(z)), complex(m.evaluate(w)))
                exact = poincare_distance((z - b) / abs(a), (w - b) / abs(a))
                assert abs(engine - exact) < 1e-6
        # Koebe sandwich on 20 random Jordan domains
        for seed in range(20):
            dom = wobbly_domain(seed)
            m = riemann_map(dom, 0j)
            d = dom.boundary_distance(0j, tol=1e-8)
            cr = 1.0 / m.normalization["deriv_z0"]
            assert d - 1e-6 <= cr <= 4.0 * d + 1e-6
        # resolution-doubling halves the disc self-test residual
        a, b = 0.55 * cmath.exp(0.9j), 0.2 - 0.1j
        dom = JordanDomain(
            lambda t: b + a * np.exp(1j * TWO_PI * np.asarray(t)),
            lambda t: 1j * TWO_PI * a * np.exp(1j * TWO_PI * np.asarray(t)),
            name="affine", check_simple=False)
        test_pts = b + 0.55 * abs(a) * np.exp(2j * np.pi * np.arange(24) / 24)
        exact = np.abs((test_pts - b) / abs(a))
        res = []
        for n in (128, 256, 512):
            mm = riemann_map(dom, b, params=dom.params(n))
            res.append(float(np.max(np.abs(np.abs(mm.evaluate(test_pts)) - exact))))
        assert res[1] <= res[0] / 2
        assert res[2] <= res[1] / 2


def test_criterion_3_sector_ratio_limit():
    with criterion(3, "sector sharpness: l/R within 0.02 of pi/4", 5.0):
        rep = bd.experiment_sector_ratio(0.05, [1e-2, 1e-4, 1e-6])
        final = rep.rows[-1]
        assert final[1] == 1e-6
        assert abs(final[4] - math.pi / 4.0) < 0.02


def test_criterion_4_slit_quotient():
    with criterion(4, "slit-plane quotient in [0.24, 0.26], pipeline exact", 5.0):
        rep = bd.experiment_slit_coefficient(np.geomspace(1e-2, 1e-8, 7))
        t, c, _, quot, gap = rep.rows[-1]
        assert t == 1e-8
        assert 0.24 <= quot <= 0.26
        assert gap < 1e-6  # numeric pipeline against (1/4) log(1/t)


def test_criterion_5_prop1_chain():
    with criterion(5, "two-disc-hull chain on Ball(C^2) and Polydisc", 120.0):
        rep = bd.run_suite("prop1", samples=1000, seed=42)
        assert rep.samples >= 990
        assert rep.violations == 0
        assert rep.worst_margin > 0.0


def test_criterion_6_prop2_and_eq_ca():
    with criterion(6, "prop2 and convex lower-bound suites at 1e-8 slack", 30.0):
        rep = bd.run_suite("prop2", samples=5000, seed=42)
        assert rep.samples >= 4990
        assert rep.violations == 0
        rep2 = bd.run_suite("eq-ca", samples=1000, seed=42)
        assert rep2.violations == 0


def test_criterion_7_prop4_envelope():
    with criterion(7, "boundary envelope: disc exact, ellipse stable fit", 60.0):
        rep = bd.run_suite("prop4", samples=100, seed=42)
        assert rep.violations == 0  # residual equals (1/2) log(1 + |w|) to 1e-9
        ell = ellipse_domain(2.0, 1.0)
        r1 = bd.run_suite("prop4", samples=36, seed=42, domain=ell)
        r2 = bd.run_suite("prop4", samples=36, seed=4242, domain=ell)
        assert r1.passed and r2.passed
        assert abs(r1.constants["c"] - r2.constants["c"]) <= 0.1 * max(r1.constants["c"],
                                                                       r2.constants["c"])


def test_criterion_8_prop6_sandwich():
    with criterion(8, "two-sided sandwich fits with fresh-grid revalidation", 60.0):
        rep = bd.run_suite("prop6", samples=80, seed=42)
        assert rep.passed
        assert math.isfinite(rep.constants["c"])
        ell = ellipse_domain(2.0, 1.0)
        rep2 = bd.run_suite("prop6", samples=80, seed=42, domain=ell)
        assert rep2.passed
        assert math.isfinite(rep2.constants["c"])


def test_criterion_9_annulus_suite():
    with criterion(9, "annulus: covering vs integral, kernel, c <= k, product fit", 120.0):
        rep = bd.run_suite("annulus", samples=1000, seed=42)
        assert rep.violations == 0
        assert rep.constants["sp_gap"] < 1e-9
        assert rep.constants["reproducing_residual"] < 1e-6
        assert math.isfinite(rep.constants["prop5_c"])
        assert rep.notes in ("series-mode", "interval-mode")


def test_criterion_10_prop7_squeeze():
    with criterion(10, "caratheodory/lempert squeeze ratio -> 1 in the lens", 60.0):
        rep = bd.experiment_ratio_c_over_l(depths=np.geomspace(3e-2, 1e-4, 10))
        ratios = [r[-1] for r in rep.rows]
        depths = [r[0] for r in rep.rows]
        assert depths[-1] == pytest.approx(1e-4)
        assert ratios[-1] >= 0.99
        tail = ratios[-5:]
        assert all(b >= a - 1e-9 for a, b in zip(tail, tail[1:]))
        assert all(r <= 1.0 + 1e-6 for r in ratios)


def test_criterion_11_boundary_slopes():
    with criterion(11, "boundary slope regressions near 1/2", 60.0):
        rep = bd.run_suite("boundary-slope", seed=42)
        assert rep.samples == bd.SUITES["boundary-slope"].fixed
        for key, slope in rep.constants.items():
            if key.startswith("disc"):
                assert 0.49 <= slope <= 0.51, key
            else:
                assert 0.45 <= slope <= 0.55, key
