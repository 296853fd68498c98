"""Bitwise pins of the piecewise boundaries: the two-disc hull (arcs around
each disc joined by two tangent segments) and the lens (an arc of the unit
circle and an arc of the rho circle).

The pinned `float.hex` strings in data/boundary_piece_bits.json were
recorded before both boundaries were built from one table of arcs and
segments.  Each domain is pinned at every piece boundary, at its
`nextafter` on either side, and at eight interior parameters; `curve` and
`dcurve` must give the same bits.  The invariants below hold on any
parametrization: the curve closes, `dcurve` is the derivative of `curve`,
the hull's tangent turns continuously, and a NaN parameter gives NaN.
`PYTHONPATH=src python
tests/test_piece_bits.py` prints the file the current code gives.
"""

import cmath
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from invdist import domains
from invdist.domains import lens_domain, two_disc_hull

PINS = Path(__file__).with_name("data") / "boundary_piece_bits.json"

HULLS = {"hull(0,1;2.5,0.7)": (0j, 1.0, 2.5 + 0j, 0.7),
         "hull(0.3-0.2i,1;2.1+0.4i,0.5)": (0.3 - 0.2j, 1.0, 2.1 + 0.4j, 0.5)}
LENSES = {"lens(0.75)": 0.75, "lens(1.6)": 1.6}


def boundaries():
    """name -> (curve, dcurve) of each pinned domain."""
    out = {name: two_disc_hull(*args).parametrize() for name, args in HULLS.items()}
    for name, rho in LENSES.items():
        lens = lens_domain(rho)
        out[name] = lens._raw_curve, lens._raw_dcurve
    return out


def piece_bounds():
    """name -> the parameters 0, ..., 1 where its pieces start and end."""
    out = {name: domains._arcs_and_segments(two_disc_hull(*args)._pieces())[3]
           for name, args in HULLS.items()}
    out.update((name, [*lens_domain(rho).corner_params, 1.0]) for name, rho in LENSES.items())
    return out


def pinned_params(bounds):
    """Every piece bound with its neighbouring floats, then eight interior
    parameters."""
    ts = []
    for b in bounds:
        ts += [math.nextafter(b, -math.inf), b, math.nextafter(b, math.inf)]
    return ts + [(k + 0.3) / 8 for k in range(8)]


def _hex(z):
    z = complex(z)
    return [z.real.hex(), z.imag.hex()]


def outcomes(ts) -> dict:
    """name -> [t, curve(t), dcurve(t)] as float.hex for each parameter of
    ts[name], from one array call of each."""
    out = {}
    for name, (curve, dcurve) in boundaries().items():
        pts, ders = curve(np.array(ts[name])), dcurve(np.array(ts[name]))
        out[name] = [[t.hex(), _hex(p), _hex(d)] for t, p, d in zip(ts[name], pts, ders)]
    return out


def recorded_outcomes() -> dict:
    """The pin file's table under the current code: each domain's bounds and
    its pins at `pinned_params`."""
    bounds = piece_bounds()
    pins = outcomes({name: pinned_params(b) for name, b in bounds.items()})
    return {name: {"bounds": [b.hex() for b in bounds[name]], "pins": pins[name]}
            for name in bounds}


def _pinned():
    return json.loads(PINS.read_text())


def _bounds(name):
    return [float.fromhex(b) for b in _pinned()[name]["bounds"]]


def test_pinned_bits():
    want = {name: doc["pins"] for name, doc in _pinned().items()}
    assert sorted(want) == sorted([*HULLS, *LENSES])
    got = outcomes({name: [float.fromhex(row[0]) for row in rows] for name, rows in want.items()})
    for name in want:
        diff = [(g, w) for g, w in zip(got[name], want[name]) if g != w]
        assert not diff, name


@pytest.mark.parametrize("name", list(LENSES))
def test_lens_corners_are_its_piece_bounds(name):
    assert [*lens_domain(LENSES[name]).corner_params, 1.0] == _bounds(name)


@pytest.mark.parametrize("name", [*HULLS, *LENSES])
def test_scalar_calls_match_the_array(name):
    curve, dcurve = boundaries()[name]
    for t, p, d in _pinned()[name]["pins"]:
        t = float.fromhex(t)
        got_p, got_d = curve(t), dcurve(t)
        assert type(got_p) is complex and type(got_d) is complex
        assert [_hex(got_p), _hex(got_d)] == [p, d]


@pytest.mark.parametrize("name", [*HULLS, *LENSES])
def test_curve_closes_and_joins(name):
    """The curve is continuous across every piece bound, 1 included."""
    curve, _ = boundaries()[name]
    bounds = _bounds(name)
    assert bounds[0] == 0.0 and bounds[-1] == 1.0
    for b in bounds[1:]:
        gap = abs(curve(math.nextafter(b, 0.0)) - curve(b % 1.0))
        assert gap < 1e-12, (name, b)


@pytest.mark.parametrize("name", [*HULLS, *LENSES])
def test_dcurve_is_the_derivative(name):
    """dcurve matches a central difference of curve at parameters more than
    two steps from any piece bound."""
    curve, dcurve = boundaries()[name]
    bounds = _bounds(name)
    h = 1e-6
    ts = np.linspace(0.0, 1.0, 97)[1:-1]
    ts = [t for t in ts if min(abs(t - b) for b in bounds) > 2 * h]
    assert len(ts) > 80
    for t in ts:
        fd = (curve(t + h) - curve(t - h)) / (2 * h)
        assert abs(fd - dcurve(t)) < 1e-7 * abs(dcurve(t)), (name, t)


@pytest.mark.parametrize("name", [*HULLS, *LENSES])
def test_nan_parameter_gives_nan(name):
    curve, dcurve = boundaries()[name]
    for f in (curve, dcurve):
        assert cmath.isnan(f(math.nan))
        assert np.isnan(f(np.array([math.nan, 0.5]))).tolist() == [True, False]


@pytest.mark.parametrize("name", list(HULLS))
def test_hull_tangent_turns_continuously(name):
    """At each of the four junctions of arc and segment the unit tangent is
    the same on both sides."""
    _, dcurve = boundaries()[name]
    bounds = _bounds(name)
    assert len(bounds) == 5
    for b in bounds[1:]:
        before, after = dcurve(math.nextafter(b, 0.0)), dcurve(b % 1.0)
        assert abs(before / abs(before) - after / abs(after)) < 1e-12, (name, b)


def dump(table) -> str:
    """The pin file's text: one line per pinned parameter."""
    return "{\n" + ",\n".join(
        f'{json.dumps(name)}: {{"bounds": {json.dumps(doc["bounds"])}, "pins": [\n  '
        + ",\n  ".join(json.dumps(row) for row in doc["pins"]) + "]}"
        for name, doc in table.items()) + "\n}\n"


if __name__ == "__main__":
    sys.stdout.write(dump(recorded_outcomes()))
