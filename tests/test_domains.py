import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invdist.domains import (
    Annulus,
    Ball,
    Disc,
    HalfPlane,
    JordanDomain,
    Polydisc,
    Sector,
    SlitPlane,
    TwoDiscHull,
    UnitDisc,
    domain_from_json,
    domain_to_json,
    ellipse_domain,
    lens_domain,
    two_disc_hull,
    wobbly_domain,
)
from invdist.distances import hull_distance
from invdist.errors import (
    DegenerateInput,
    InvalidDomain,
    NonConvergence,
    SchemaError,
    UnsupportedDomain,
)

TWO_PI = 2.0 * math.pi


class TestBoundaryDistance:
    def test_unit_disc_radial(self):
        assert UnitDisc().boundary_distance(0.5) == pytest.approx(0.5, abs=1e-15)

    def test_annulus_min_of_sides(self):
        assert Annulus(2.0).boundary_distance(1.0 + 0j) == pytest.approx(0.5, abs=1e-15)
        assert Annulus(2.0).boundary_distance(1.8 + 0j) == pytest.approx(0.2, abs=1e-15)

    def test_ball_c2(self):
        b = Ball((0j, 0j), 1.0)
        assert b.boundary_distance(np.array([0.6, 0.0])) == pytest.approx(0.4, abs=1e-15)

    def test_outside_clamps_to_zero(self):
        assert UnitDisc().boundary_distance(2.0 + 0j) == 0.0
        assert UnitDisc().boundary_distance(2.0 + 0j, signed=True) == pytest.approx(-1.0)

    def test_sector_ray_distance(self):
        d = Sector(0.3)
        z = 1.0 + 0j
        assert d.boundary_distance(z) == pytest.approx(math.sin(0.3), abs=1e-15)

    def test_slit_plane(self):
        s = SlitPlane()
        assert s.boundary_distance(-1.0 + 0j) == pytest.approx(1.0)
        assert s.boundary_distance(2.0 + 0.25j) == pytest.approx(0.25)
        assert not s.contains(3.0 + 0j)

    def test_halfplane(self):
        h = HalfPlane(1j)
        assert h.boundary_distance(2.0 + 0.7j) == pytest.approx(0.7)

    def test_membership_consistent_with_distance(self, rng):
        for dom in (UnitDisc(), Annulus(2.0), Sector(0.8), SlitPlane()):
            for _ in range(50):
                z = complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
                if z == 0:
                    continue
                inside = dom.contains(z)
                assert inside == (dom.boundary_distance(z, signed=True) > 0.0)


class TestTwoDiscHull:
    def test_equal_radii_tube(self):
        h = two_disc_hull(0j, 1.0, 3.0 + 0j, 1.0)
        assert isinstance(h, TwoDiscHull)
        assert h.boundary_distance(1.5 + 0j) == pytest.approx(1.0, abs=1e-12)

    def test_containment_degenerates(self):
        h = two_disc_hull(0j, 2.0, 0.5 + 0j, 1.0)
        assert isinstance(h, Disc)
        assert h.radius == 2.0

    def test_segment_distance_equals_tangent_line(self):
        h = two_disc_hull(0j, 2.0, 4.0 + 0j, 1.0)
        for t in np.linspace(0.05, 0.95, 9):
            d = h.boundary_distance(complex(4.0 * t, 0.0))
            assert d == pytest.approx(2.0 - t, abs=1e-12)

    def test_distance_against_brute_force(self, rng):
        h = two_disc_hull(0j, 2.0, 4.0 + 0j, 1.0)
        curve, _ = h.parametrize()
        pts = curve(np.linspace(0, 1, 40000, endpoint=False))
        for _ in range(25):
            q = complex(rng.uniform(-2, 5), rng.uniform(-2, 2))
            if not h.contains(q):
                continue
            brute = float(np.min(np.abs(pts - q)))
            assert h.boundary_distance(q) == pytest.approx(brute, abs=1e-6)

    def test_segment_lower_bound_sampled(self, rng):
        # d(gamma(t)) >= (1 - t) d_z + t d_w along the joining segment
        grid = np.linspace(0.0, 1.0, 64)
        for _ in range(100):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            w = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            dz, dw = rng.uniform(0.05, 1.5), rng.uniform(0.05, 1.5)
            if abs(z - w) < 1e-3:
                continue
            h = two_disc_hull(z, dz, w, dw)
            for t in grid:
                g = z + t * (w - z)
                assert h.boundary_distance(g) >= (1 - t) * dz + t * dw - 1e-12

    def test_degenerate_inputs_raise(self):
        with pytest.raises(DegenerateInput):
            two_disc_hull(0j, -1.0, 1.0 + 0j, 1.0)
        with pytest.raises(DegenerateInput):
            two_disc_hull(0j, 1.0, 1.0 + 0j, 0.0)


class TestJordanDomains:
    def test_ellipse_membership(self, ellipse):
        assert ellipse.contains(0j)
        assert ellipse.contains(1.9 + 0j)
        assert not ellipse.contains(0.5 + 1.5j)

    def test_ellipse_distance_certified(self, ellipse):
        ts = np.linspace(0, 1, 200001)
        pts = ellipse.point(ts)
        for z in (0j, 1.5 + 0j, -0.5 + 0.7j):
            brute = float(np.min(np.abs(pts - z)))
            assert ellipse.boundary_distance(z, tol=1e-8) == pytest.approx(brute, abs=1e-6)

    def test_boundary_points_have_small_distance(self, ellipse):
        for t in (0.1, 0.37, 0.77):
            p = complex(ellipse.point(t))
            assert ellipse.boundary_distance(p, tol=1e-8) <= 1e-7

    def test_lens_contains(self, lens):
        assert lens.contains(0.9 + 0j)
        assert not lens.contains(0j)

    def test_wobbly_is_valid(self):
        dom = wobbly_domain(7)
        assert dom.contains(0j)
        assert dom.boundary_distance(0j) > 0.2

    def test_interior_positive_distance(self, rng, ellipse):
        for _ in range(20):
            z = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
            if ellipse.contains(z):
                assert ellipse.boundary_distance(z, tol=1e-6) > 0

    @pytest.mark.parametrize("name", ["ellipse", "wobbly", "lens", "hull"])
    def test_contains_near_boundary(self, name, ellipse, lens):
        # p +- delta n at depths down to 1e-8: a polyline winding test alone
        # misjudges points between the polyline and the curve
        hull = two_disc_hull(0j, 1.0, 2.5 + 0j, 0.7)
        dom = {"ellipse": ellipse, "wobbly": wobbly_domain(7), "lens": lens,
               "hull": hull.as_jordan()}[name]
        rng = np.random.default_rng(11)
        ts = []
        while len(ts) < 64:
            t = rng.uniform()
            if all(min(abs(t - c), 1.0 - abs(t - c)) > 0.03 for c in dom.corner_params):
                ts.append(t)
        wrong = []
        for t in ts:
            p = complex(dom.point(t))
            tang = complex(dom.tangent(t))
            inward = 1j * tang / abs(tang)
            for delta in (1e-4, 1e-5, 1e-6, 1e-8):
                if not dom.contains(p + delta * inward):
                    wrong.append(("inside", t, delta))
                if dom.contains(p - delta * inward):
                    wrong.append(("outside", t, delta))
                if name == "hull":
                    assert hull.contains(p + delta * inward)
                    assert not hull.contains(p - delta * inward)
        assert wrong == []

    def test_contains_away_from_boundary_unchanged(self, ellipse):
        # the tangent-side rule only runs within the polyline's sag; at
        # depth 1e-2 the winding answer stands
        for t in np.linspace(0.0, 1.0, 16, endpoint=False):
            p = complex(ellipse.point(t))
            tang = complex(ellipse.tangent(t))
            inward = 1j * tang / abs(tang)
            assert ellipse.contains(p + 1e-2 * inward)
            assert not ellipse.contains(p - 1e-2 * inward)


def _batch_probe_points(dom, rng):
    """Interior points, points at depths 1e-4 ... 1e-6 on both sides of the
    curve, and points within one 1024-sample step of each declared corner."""
    anchor = dom.anchor()
    pts = [anchor + rng.uniform(0.05, 0.95) * (complex(dom.point(rng.uniform())) - anchor)
           for _ in range(12)]
    for depth in (1e-4, 1e-5, 1e-6):
        for side in (1.0, -1.0):
            for t in rng.uniform(size=3):
                tang = complex(dom.tangent(t))
                pts.append(complex(dom.point(t)) + side * depth * 1j * tang / abs(tang))
    for c in dom.corner_params:
        for _ in range(8):
            t = c + rng.uniform(-1.0, 1.0) / 1024
            tang = complex(dom.tangent(t))
            pts.append(complex(dom.point(t))
                       + rng.choice([1.0, -1.0]) * 10 ** rng.uniform(-6, -3) * 1j * tang / abs(tang))
    return pts


class TestSelfIntersection:
    """A user curve is checked for crossings on its 1024-sample polyline,
    every segment against every other."""

    @staticmethod
    def limacon(t):
        # r = 0.5 + cos s crosses itself at the origin, between segments
        # 341 and 682 of 1024
        s = TWO_PI * np.asarray(t, dtype=float)
        return (0.5 + np.cos(s)) * np.exp(1j * s)

    @staticmethod
    def dlimacon(t):
        s = TWO_PI * np.asarray(t, dtype=float)
        return TWO_PI * (1j * (0.5 + np.cos(s)) - np.sin(s)) * np.exp(1j * s)

    @staticmethod
    def figure_eight(t):
        # crosses itself at the origin, between segments 207 and 719
        s = TWO_PI * np.asarray(t, dtype=float) + 0.3
        return np.cos(s) + 0.5j * np.sin(2.0 * s)

    @staticmethod
    def dfigure_eight(t):
        s = TWO_PI * np.asarray(t, dtype=float) + 0.3
        return TWO_PI * (-np.sin(s) + 1j * np.cos(2.0 * s))

    def test_crossing_curves_are_rejected(self):
        for curve, dcurve in ((self.limacon, self.dlimacon),
                              (self.figure_eight, self.dfigure_eight)):
            with pytest.raises(InvalidDomain, match="self-intersects"):
                JordanDomain(curve, dcurve)

    @staticmethod
    def crosses_segment_by_segment(pts):
        # reference: each segment against every segment but itself and its
        # two neighbours, one at a time
        n = len(pts)
        for i in range(n):
            p, q = pts[i], pts[(i + 1) % n]
            for j in range(n):
                if j in (i, (i - 1) % n, (i + 1) % n):
                    continue
                r, s = pts[j], pts[(j + 1) % n]
                sides = []
                for x, d, a, scale in ((s - p, q - p, r - p, abs(q - p)),
                                       (r - p, q - p, s - p, abs(q - p)),
                                       (p - r, s - r, q - r, abs(s - r)),
                                       (q - r, s - r, p - r, abs(s - r))):
                    c = (x * d.conjugate()).imag
                    sides.append(0 if abs(c) < 1e-9 * scale * max(abs(x), abs(a))
                                 else (c > 0) - (c < 0))
                if sides[0] * sides[1] < 0 and sides[2] * sides[3] < 0:
                    return True
        return False

    def test_agrees_with_a_loop_over_segments(self, rng):
        from invdist.domains import _polyline_self_intersects

        # a bow tie (segments 0 and 2 cross), a pentagram, a square
        fixed = [np.array([0, 1 + 1j, 1, 1j]), np.exp(0.8j * np.pi * np.arange(5)),
                 np.array([0, 1, 1 + 1j, 1j])]
        assert [_polyline_self_intersects(pts) for pts in fixed] == [True, True, False]
        crossing = 0
        for k in range(60):
            m = int(rng.integers(4, 40))
            if k % 3 == 0:      # random polygons: mostly crossing
                pts = rng.normal(size=m) + 1j * rng.normal(size=m)
            elif k % 3 == 1:    # star-shaped: simple
                ang = np.sort(rng.uniform(0.0, TWO_PI, m))
                pts = (1.0 + 0.3 * rng.uniform(size=m)) * np.exp(1j * ang)
            else:               # on a 4 x 4 grid: touching and collinear segments
                pts = rng.integers(0, 4, m) + 1j * rng.integers(0, 4, m) + 0.0
            want = self.crosses_segment_by_segment([complex(p) for p in pts])
            assert _polyline_self_intersects(pts) == want
            crossing += want
        assert 10 < crossing < 50

    def test_simple_curve_is_accepted(self):
        def curve(t):
            s = TWO_PI * np.asarray(t, dtype=float)
            return 2.0 * np.cos(s) + 1j * np.sin(s)

        def dcurve(t):
            s = TWO_PI * np.asarray(t, dtype=float)
            return TWO_PI * (-2.0 * np.sin(s) + 1j * np.cos(s))

        assert JordanDomain(curve, dcurve).contains(1.9 + 0j)


class TestJordanBatch:
    """`contains` and `boundary_distance` on an array of points give, bit for
    bit, what one call per point gives."""

    @pytest.mark.parametrize("name", ["ellipse", "wobbly", "lens", "hull"])
    def test_array_equals_one_by_one(self, name, ellipse, lens):
        dom = {"ellipse": ellipse, "wobbly": wobbly_domain(7), "lens": lens,
               "hull": two_disc_hull(0j, 1.0, 2.5 + 0j, 0.7).as_jordan()}[name]
        rng = np.random.default_rng(7)
        pts = _batch_probe_points(dom, rng)
        tols = np.where(np.arange(len(pts)) % 3 == 0, 1e-6, 1e-8)
        inside = dom.contains(np.array(pts))
        assert inside.dtype == bool
        assert list(inside) == [dom.contains(z) for z in pts]
        assert 0 < inside.sum() < len(pts)
        got = dom.boundary_distance(np.array(pts))
        assert [x.hex() for x in got] == [dom.boundary_distance(z).hex() for z in pts]
        got = dom.boundary_distance(np.array(pts), signed=True, tol=tols)
        want = [dom.boundary_distance(z, signed=True, tol=t) for z, t in zip(pts, tols)]
        assert [x.hex() for x in got] == [x.hex() for x in want]

    def test_shapes_and_scalars(self, ellipse):
        grid = np.array([[0j, 0.5 + 0.5j], [3.0 + 0j, -1.9 + 0j]])
        assert ellipse.contains(grid).shape == (2, 2)
        assert ellipse.boundary_distance(grid).shape == (2, 2)
        assert ellipse.contains(np.array([], dtype=complex)).shape == (0,)
        assert type(ellipse.contains(0.5 + 0.5j)) is bool
        assert type(ellipse.boundary_distance(0.5 + 0.5j)) is float
        assert ellipse.boundary_distance(np.array([3.0 + 0j]))[0] == 0.0

    def test_non_convergence_of_one_point_propagates(self):
        # at the centre of a circle every interval stays a candidate at
        # tol = 0, so the refinement hits its node cap
        circle = ellipse_domain(1.0, 1.0)
        with pytest.raises(NonConvergence, match="node cap"):
            circle.boundary_distance(0j, tol=0.0)
        with pytest.raises(NonConvergence, match="node cap"):
            circle.boundary_distance(np.array([0.5 + 0j, 0j]), tol=np.array([1e-8, 0.0]))
        assert circle.boundary_distance(np.array([0.5 + 0j]), tol=0.0)[0] == pytest.approx(0.5)


class TestJson:
    @pytest.mark.parametrize("doc,cls", [
        ('{"kind": "annulus", "r": 2.0}', Annulus),
        ('{"kind": "ball", "dim": 2, "radius": 1.0}', Ball),
        ('{"kind": "disc"}', Disc),
        ('{"kind": "sector", "theta": 0.4}', Sector),
        ('{"kind": "slitplane"}', SlitPlane),
        ('{"kind": "polydisc", "radii": [1.0, 2.0]}', Polydisc),
    ])
    def test_parse_kinds(self, doc, cls):
        assert isinstance(domain_from_json(doc), cls)

    def test_jordan_ellipse(self):
        dom = domain_from_json('{"kind": "jordan", "curve": "ellipse", "a": 2.0, "b": 1.0}')
        assert dom.contains(1.9 + 0j)

    def test_whole_number_fields(self):
        # the largest dimension is accepted, and a whole float is its integer
        assert domain_from_json('{"kind": "ball", "dim": 4096, "radius": 1.0}').dim == 4096
        radii = ", ".join(["1.0"] * 4096)
        assert domain_from_json('{"kind": "polydisc", "radii": [%s]}' % radii).dim == 4096
        assert domain_from_json('{"kind": "ball", "dim": 2.0, "radius": 1.0}').dim == 2
        seven = domain_from_json('{"kind": "jordan", "curve": "wobbly", "seed": 7}')
        whole = domain_from_json('{"kind": "jordan", "curve": "wobbly", "seed": 7.0}')
        assert complex(whole.point(0.3)) == complex(seven.point(0.3))

    @pytest.mark.parametrize("doc", [
        '{"kind": "disc", "center": true}',                                # complex
        '{"kind": "halfplane", "normal": false}',
        '{"kind": "hull", "z": true, "d_z": 1.0, "w": "2.5+0i", "d_w": 0.7}',
        '{"kind": "disc", "radius": true}',                                # float
        '{"kind": "sector", "theta": true}',
        '{"kind": "hull", "z": "0+0i", "d_z": true, "w": "2.5+0i", "d_w": 0.7}',
        '{"kind": "ball", "dim": true, "radius": 1}',                      # whole number
        '{"kind": "jordan", "curve": "wobbly", "seed": false}',
        '{"kind": "polydisc", "radii": [true, true]}',                     # list of floats
    ])
    def test_booleans_are_not_numbers(self, doc):
        with pytest.raises(SchemaError):
            domain_from_json(doc)

    def test_unknown_fields_rejected(self):
        with pytest.raises(SchemaError):
            domain_from_json('{"kind": "annulus", "r": 2.0, "extra": 1}')

    def test_unknown_kind_rejected(self):
        with pytest.raises(SchemaError):
            domain_from_json('{"kind": "torus"}')

    def test_missing_field_rejected(self):
        with pytest.raises(SchemaError):
            domain_from_json('{"kind": "annulus"}')

    def test_roundtrip(self):
        for dom in (Annulus(2.0), Disc(0.5 + 0.5j, 2.0), Sector(0.9),
                    Ball((0j, 0j), 1.0), Polydisc((0j, 0j), (1.0, 2.0))):
            back = domain_from_json(domain_to_json(dom))
            assert type(back) is type(dom)

    @pytest.mark.parametrize("dom, doc", [
        (wobbly_domain(7), {"kind": "jordan", "curve": "wobbly", "seed": 7}),
        (ellipse_domain(2.0, 1.0), {"kind": "jordan", "curve": "ellipse", "a": 2.0, "b": 1.0}),
        (lens_domain(0.75), {"kind": "jordan", "curve": "lens", "rho": 0.75}),
    ], ids=["wobbly", "ellipse", "lens"])
    def test_jordan_roundtrip(self, dom, doc):
        assert domain_to_json(dom) == doc
        back = domain_from_json(json.dumps(doc))
        assert back.name == dom.name
        ts = np.linspace(0.0, 1.0, 64, endpoint=False)
        np.testing.assert_array_equal(back.point(ts), dom.point(ts))

    @pytest.mark.parametrize("name", ["ellipse(3,1)", "lens-ish", "wobbly", "jordan"])
    def test_user_jordan_curve_does_not_serialize(self, name):
        # a user curve is not a catalog curve, whatever its name says
        dom = JordanDomain(lambda t: np.exp(2j * np.pi * np.asarray(t, dtype=float)),
                           lambda t: 2j * np.pi * np.exp(2j * np.pi * np.asarray(t, dtype=float)),
                           name=name)
        with pytest.raises(UnsupportedDomain):
            domain_to_json(dom)

    def test_hull_chart_domain_does_not_serialize(self):
        with pytest.raises(UnsupportedDomain):
            domain_to_json(two_disc_hull(0j, 1.0, 2.5 + 0j, 0.7).as_jordan())

    def test_other_objects_do_not_serialize(self):
        from invdist.distances import CertifiedValue

        for obj in (object(), CertifiedValue.exact(0.5), Ball((1j, 0j), 1.0),
                    Polydisc((0j, 1.0), (1.0, 2.0))):
            with pytest.raises(UnsupportedDomain):
                domain_to_json(obj)

    @pytest.mark.parametrize("doc", [
        {"kind": "disc"},
        {"kind": "disc", "center": "0.5+0.5i", "radius": 2.0},
        {"kind": "halfplane", "normal": "0+1i"},
        {"kind": "sector", "theta": 0.9},
        {"kind": "slitplane"},
        {"kind": "annulus", "r": 2.0},
        {"kind": "hull", "z": "0+0i", "d_z": 1.0, "w": "2.5+0i", "d_w": 0.7},
        {"kind": "jordan", "curve": "ellipse", "a": 3.0, "b": 1.0},
        {"kind": "jordan", "curve": "lens", "rho": 1.25},
        {"kind": "jordan", "curve": "wobbly", "seed": 3},
        {"kind": "ball", "dim": 2, "radius": 1.0},
        {"kind": "polydisc", "radii": [1.0, 2.0]},
    ], ids=lambda d: d.get("curve", d["kind"]))
    def test_catalog_document_roundtrip(self, doc):
        assert domain_to_json(domain_from_json(json.dumps(doc))) == doc


class TestInvariants:
    @given(st.floats(min_value=-0.94, max_value=0.94),
           st.floats(min_value=-0.94, max_value=0.94))
    @settings(max_examples=60, deadline=None)
    def test_disc_distance_membership(self, x, y):
        z = complex(x, y)
        dom = UnitDisc()
        if abs(z) < 1:
            assert dom.boundary_distance(z) == pytest.approx(1 - abs(z), abs=1e-12)
            assert dom.contains(z)

    @given(st.floats(min_value=1.05, max_value=6.0),
           st.floats(min_value=0.0, max_value=2 * math.pi))
    @settings(max_examples=60, deadline=None)
    def test_annulus_invariants(self, r, phi):
        dom = Annulus(r)
        z = complex(math.cos(phi), math.sin(phi))  # on the unit circle, inside
        d = dom.boundary_distance(z)
        assert d > 0
        assert d == pytest.approx(min(r - 1, 1 - 1 / r), abs=1e-12)

    def test_invalid_parameters(self):
        with pytest.raises(DegenerateInput):
            Annulus(0.9)
        with pytest.raises(DegenerateInput):
            Sector(0.0)
        with pytest.raises(DegenerateInput):
            Disc(0j, -1.0)


class TestCatalogInputs:
    """The catalog constructors refuse non-finite and out-of-range numbers
    with DegenerateInput, before numpy warns (RuntimeWarnings fail here)."""

    @pytest.mark.parametrize("args", [
        (0j, math.nan, 1 + 0j, 0.5), (0j, 1.0, math.inf + 0j, 0.5), (0j, 1.0, 3 + 0j, math.inf),
        (0j, -math.inf, 3 + 0j, 1.0), (complex(math.nan, 0.0), 1.0, 3 + 0j, 1.0),
        (0j, 1.0, complex(3.0, math.inf), 1.0)])
    def test_hull(self, args):
        for make in (two_disc_hull, TwoDiscHull, hull_distance):
            with pytest.raises(DegenerateInput):
                make(*args)

    @pytest.mark.parametrize("center, radius", [
        (complex(math.nan, 0.0), 1.0), (complex(math.inf, 0.0), 1.0),
        (complex(0.0, -math.inf), 1.0), (0j, math.inf)])
    def test_disc(self, center, radius):
        with pytest.raises(DegenerateInput):
            Disc(center, radius)

    @pytest.mark.parametrize("a, b", [(math.inf, 1.0), (math.nan, 1.0), (1.0, math.nan),
                                      (1.0, -math.inf), (0.0, 1.0)])
    def test_ellipse(self, a, b):
        with pytest.raises(DegenerateInput):
            ellipse_domain(a, b)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3", np.int64(-2)])
    def test_wobbly(self, seed):
        with pytest.raises(DegenerateInput, match="seed"):
            wobbly_domain(seed)

    def test_wobbly_takes_numpy_integers(self):
        assert domain_to_json(wobbly_domain(np.int64(3))) == domain_to_json(wobbly_domain(3))
