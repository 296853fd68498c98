"""Bitwise pins of the zipper Riemann map deep inside the boundary layer.

data/zipper_bits.json stops at depth 1e-6.  The `float.hex` strings in
data/zipper_deep_bits.json pin the scalar `evaluate` and both parts of
`evaluate_with_derivative` on the four catalog maps of test_zipper_bits.py
at seeded points 1e-8, 1e-10 and 1e-12 from the boundary along the inward
normal, kept 0.03 in parameter away from the lens corners.  They were
recorded before the chain's point loop took its quotient in Python floats.
`PYTHONPATH=src python tests/test_zipper_deep_bits.py` prints the file the
current code gives.
"""

import json
import sys
from pathlib import Path

import numpy as np

from invdist.conformal import riemann_map
from test_zipper_bits import _hex, _maps, _unhex

PINS = Path(__file__).with_name("data") / "zipper_deep_bits.json"

DEPTHS = (1e-8, 1e-10, 1e-12)
PER_DEPTH = 4
CORNER_GAP = 0.03


def deep_points(dom, seed):
    """PER_DEPTH points at each depth of DEPTHS along the inward normal,
    at seeded parameters at least CORNER_GAP from every corner."""
    rng = np.random.default_rng(seed)
    pts = []
    for depth in DEPTHS:
        found = 0
        while found < PER_DEPTH:
            t = rng.uniform()
            if any(abs((t - c + 0.5) % 1.0 - 0.5) < CORNER_GAP for c in dom.corner_params):
                continue
            tan = complex(dom.tangent(t))
            z = complex(dom.point(t) + depth * 1j * tan / abs(tan))
            if dom.contains(z) and dom.boundary_distance(z, tol=0.01 * depth) > 0.5 * depth:
                pts.append(z)
                found += 1
    return pts


def recorded_outcomes(points) -> dict:
    """Every pinned label -> its float.hex outcome under the current code."""
    out = {}
    for name, dom in _maps().items():
        zm = riemann_map(dom, dom.anchor())
        for i, z in enumerate(points[name]):
            v, d = zm.evaluate_with_derivative(z)
            out[f"{name}/evaluate/{i}"] = _hex(zm.evaluate(z))
            out[f"{name}/evaluate_with_derivative/{i}"] = [_hex(v), _hex(d)]
    return out


def _pinned():
    doc = json.loads(PINS.read_text())
    points = {name: [_unhex(p) for p in pts] for name, pts in doc["points"].items()}
    return points, doc["pins"]


def test_pinned_deep_bits():
    points, want = _pinned()
    got = recorded_outcomes(points)
    assert sorted(got) == sorted(want)
    diff = {k: (got[k], want[k]) for k in want if got[k] != want[k]}
    assert not diff


def test_pinned_points_sit_at_their_depths():
    points, _ = _pinned()
    for name, dom in _maps().items():
        pts = points[name]
        assert len(pts) == PER_DEPTH * len(DEPTHS)
        for k, depth in enumerate(DEPTHS):
            for z in pts[k * PER_DEPTH:(k + 1) * PER_DEPTH]:
                d = dom.boundary_distance(z, tol=0.01 * depth)
                assert 0.5 * depth < d < 1.5 * depth, (name, z)


if __name__ == "__main__":
    points = {name: deep_points(dom, 20261022 + k)
              for k, (name, dom) in enumerate(_maps().items())}
    table = recorded_outcomes(points)
    lines = ["{", '"points": {']
    lines.append(",\n".join(f"{json.dumps(name)}: {json.dumps([_hex(z) for z in pts])}"
                            for name, pts in points.items()))
    lines.append("},")
    lines.append('"pins": {')
    lines.append(",\n".join(f"{json.dumps(k)}: {json.dumps(table[k])}" for k in sorted(table)))
    lines.append("}")
    lines.append("}")
    sys.stdout.write("\n".join(lines) + "\n")
