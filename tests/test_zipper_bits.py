"""Bitwise pins of the zipper Riemann map on the four catalog Jordan curves.

The pinned `float.hex` strings in data/zipper_bits.json were recorded before
the chain's steps were split into a scalar loop for single points and an
in-place array step for builds and batches.  They cover the scalar
`evaluate`, both parts of `evaluate_with_derivative` and the scalar
`inverse` of 25 seeded points per map (nine of them 1e-4, 1e-5 and 1e-6 from
the boundary), the same points as one array, two builds per map and
`hull_distance` on several hulls; every value must come out with the same
bits.  `PYTHONPATH=src python tests/test_zipper_bits.py` prints the file the
current code gives.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from invdist.conformal import _GeodesicChain, riemann_map
from invdist.distances import hull_distance
from invdist.domains import ellipse_domain, lens_domain, two_disc_hull, wobbly_domain

PINS = Path(__file__).with_name("data") / "zipper_bits.json"

# hull_distance(z, d_z, w, d_w)
HULLS = [(0j, 1.0, 2.5 + 0j, 0.7), (0j, 0.05, 1.0 + 0j, 0.01), (0j, 0.5, 1.2 + 0j, 0.9),
         (0j, 0.2, 0.6 + 0j, 0.3), (0j, 1.5, 3.0 + 0j, 0.4), (0j, 0.8, 0.5 + 0j, 0.6),
         (0.3 - 0.2j, 1.0, 2.1 + 0.4j, 0.5)]

DEPTHS = (1e-4, 1e-5, 1e-6)


def _maps():
    return {"ellipse": ellipse_domain(2.0, 1.0), "wobbly": wobbly_domain(7),
            "lens": lens_domain(0.75),
            "hull": two_disc_hull(0j, 1.0, 2.5 + 0j, 0.7).as_jordan()}


def _hex(z):
    z = complex(z)
    return [z.real.hex(), z.imag.hex()]


def _unhex(pair):
    return complex(float.fromhex(pair[0]), float.fromhex(pair[1]))


def seeded_points(dom, seed):
    """16 interior points on segments from the anchor to the boundary, then
    three points at each depth of DEPTHS along the inward normal."""
    rng = np.random.default_rng(seed)
    z0 = dom.anchor()
    pts = []
    while len(pts) < 16:
        t, s = rng.uniform(), rng.uniform(0.02, 0.95)
        z = complex(z0 + s * (dom.point(t) - z0))
        if dom.contains(z):
            pts.append(z)
    for depth in DEPTHS:
        found = 0
        while found < 3:
            t = rng.uniform()
            tan = complex(dom.tangent(t))
            z = complex(dom.point(t) + depth * 1j * tan / abs(tan))
            if dom.contains(z) and dom.boundary_distance(z) > 0.5 * depth:
                pts.append(z)
                found += 1
    return pts


def recorded_outcomes(points) -> dict:
    """Every pinned label -> its float.hex outcome under the current code,
    for the points of each map (a name -> list of complex dict)."""
    out = {}
    for name, dom in _maps().items():
        pts = points[name]
        zm = riemann_map(dom, dom.anchor()).engine
        imgs = []
        for i, z in enumerate(pts):
            val = zm.evaluate(z)
            v2, der = zm.evaluate_with_derivative(z)
            imgs.append(val)
            out[f"{name}/evaluate/{i}"] = _hex(val)
            out[f"{name}/evaluate_with_derivative/{i}"] = [_hex(v2), _hex(der)]
            out[f"{name}/inverse/{i}"] = _hex(zm.inverse(val))
        arr = np.array(pts)
        val, der = zm.evaluate_with_derivative(arr)
        out[f"{name}/array/forward"] = [_hex(v) for v in zm.chain.forward(arr)]
        out[f"{name}/array/evaluate"] = [_hex(v) for v in zm.evaluate(arr)]
        out[f"{name}/array/evaluate_with_derivative"] = [[_hex(a), _hex(b)]
                                                         for a, b in zip(val, der)]
        out[f"{name}/array/inverse"] = [_hex(v) for v in zm.inverse(np.array(imgs))]
        out[f"{name}/build/anchor"] = [zm.accuracy.hex(), zm.deriv_z0.hex()]
        other = riemann_map(dom, pts[0]).engine
        out[f"{name}/build/point0"] = [other.accuracy.hex(), other.deriv_z0.hex(),
                                       _hex(other.evaluate(pts[1]))]
    for z, dz, w, dw in HULLS:
        out[f"hull_distance/{z},{dz},{w},{dw}"] = hull_distance(z, dz, w, dw).hex()
    return out


def _pinned():
    doc = json.loads(PINS.read_text())
    points = {name: [_unhex(p) for p in pts] for name, pts in doc["points"].items()}
    return points, doc["pins"]


def test_pinned_bits():
    points, want = _pinned()
    got = recorded_outcomes(points)
    assert sorted(got) == sorted(want)
    diff = {k: (got[k], want[k]) for k in want if got[k] != want[k]}
    assert not diff


def test_pinned_points_reach_the_boundary():
    points, _ = _pinned()
    for name, dom in _maps().items():
        pts = points[name]
        assert len(pts) == 25
        near = sorted(dom.boundary_distance(z) for z in pts)[:9]
        assert near[0] < 2e-6 and near[-1] < 2e-4, name


@pytest.mark.parametrize("name", ["ellipse", "wobbly", "lens", "hull"])
def test_array_rows_do_not_depend_on_their_batch(name):
    """Row i of an array call is bitwise the one-element array call on row i."""
    points, _ = _pinned()
    dom = _maps()[name]
    zm = riemann_map(dom, dom.anchor()).engine
    arr = np.array(points[name])
    fwd = zm.chain.forward(arr)
    val, der = zm.chain.forward_with_derivative(arr)
    inv = zm.chain.inverse(fwd)
    for i in range(len(arr)):
        one = arr[i:i + 1]
        assert zm.chain.forward(one).tobytes() == fwd[i:i + 1].tobytes()
        v1, d1 = zm.chain.forward_with_derivative(one)
        assert (v1.tobytes(), d1.tobytes()) == (val[i:i + 1].tobytes(), der[i:i + 1].tobytes())
        assert zm.chain.inverse(fwd[i:i + 1]).tobytes() == inv[i:i + 1].tobytes()


def test_point_forms_agree():
    """A point as a Python complex, a numpy scalar and a 0-d array maps to
    the same bits."""
    points, _ = _pinned()
    for name, dom in _maps().items():
        zm = riemann_map(dom, dom.anchor()).engine
        for z in points[name][::4]:
            want = _hex(zm.evaluate(z))
            for form in (np.complex128(z), np.asarray(z)):
                assert _hex(zm.evaluate(form)) == want, name
                assert [_hex(v) for v in zm.evaluate_with_derivative(form)] == \
                    [_hex(v) for v in zm.evaluate_with_derivative(z)], name


def test_a_point_takes_the_scalar_loop(monkeypatch):
    """A Python-complex evaluate runs no array step, and still one forward."""
    dom = ellipse_domain(2.0, 1.0)
    zm = riemann_map(dom, dom.anchor()).engine
    counts = {"_g": 0, "forward": 0}
    g, forward = _GeodesicChain._g, _GeodesicChain.forward

    def counted_g(*args):
        counts["_g"] += 1
        return g(*args)

    def counted_forward(self, z):
        counts["forward"] += 1
        return forward(self, z)

    monkeypatch.setattr(_GeodesicChain, "_g", staticmethod(counted_g))
    monkeypatch.setattr(_GeodesicChain, "forward", counted_forward)
    zm.evaluate(0.5 + 0.2j)
    assert counts == {"_g": 0, "forward": 1}
    zm.evaluate(np.array([0.5 + 0.2j]))
    assert counts == {"_g": len(zm.chain.steps), "forward": 2}


if __name__ == "__main__":
    points = {name: seeded_points(dom, 20261020 + k)
              for k, (name, dom) in enumerate(_maps().items())}
    table = recorded_outcomes(points)
    doc = {"points": {name: [_hex(z) for z in pts] for name, pts in points.items()},
           "pins": table}
    lines = ["{", '"points": {']
    lines.append(",\n".join(f"{json.dumps(name)}: {json.dumps(doc['points'][name])}"
                            for name in doc["points"]))
    lines.append("},")
    lines.append('"pins": {')
    lines.append(",\n".join(f"{json.dumps(k)}: {json.dumps(table[k])}" for k in sorted(table)))
    lines.append("}")
    lines.append("}")
    sys.stdout.write("\n".join(lines) + "\n")
