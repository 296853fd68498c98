"""Bitwise pins of every closed-form value: the charts of the disc,
half-plane, sector and slit plane, and the Ball and Polydisc formulas.

The pinned `float.hex` strings in data/closed_form_bits.json were recorded
before the closed-form query path lost its per-call overhead (charts built
once per domain object, branch cuts tested in floats, the C^n formulas
without numpy's norm dispatch); every value must come out with the same
bits.  `PYTHONPATH=src python tests/test_closed_bits.py` prints the table
the current code gives, in that file's format.
"""

import json
import sys
from pathlib import Path

import numpy as np

from invdist.bergman import bergman_distance, bergman_kernel, bergman_metric
from invdist.distances import (
    CertifiedValue,
    caratheodory,
    chart_distances,
    cn_model_distance,
    kobayashi_metric,
    lempert,
)
from invdist.domains import Ball, Disc, HalfPlane, Polydisc, Sector, SlitPlane

PINS = Path(__file__).with_name("data") / "closed_form_bits.json"


def _outcome(fn):
    """float.hex of a value (each field of a CertifiedValue), or the name of
    the exception it raised."""
    try:
        res = fn()
    except Exception as exc:  # the pinned outcome is the exception's type
        return type(exc).__name__
    if isinstance(res, CertifiedValue):
        return [res.lo.hex(), res.hi.hex(), res.method, res.error_estimate.hex()]
    if isinstance(res, (bool, np.bool_)):
        return bool(res)
    return float(res).hex()


def _planar_cases():
    """(name, domain, points); the points include some near the boundary,
    on both sides of the sector's and slit's cuts, and far from the origin."""
    return [
        ("disc", Disc(0.25 - 0.5j, 1.5),
         [0.3 - 0.2j, -0.9 - 1.1j, 1.2 - 0.5j, 1.7499 - 0.5j, 0.25 + 0.9999j, 0.25 - 0.5j]),
        ("unitdisc", Disc(0j, 1.0), [0j, 0.5 + 0.5j, -0.999999 + 0j, 0.1 - 0.7j]),
        ("halfplane", HalfPlane(0.6 + 0.8j),
         [0.3 + 0.9j, 2.0 - 0.4j, 1e-6 + 0.5j, 40.0 + 25.0j, 0.6e-9 + 0.8e-9j]),
        ("upper", HalfPlane(1j), [1j, 3.0 + 2j, -1e5 + 1e-5j, 1e-8j]),
        ("sector0.7", Sector(0.7),
         [1.0 + 0j, 0.4 + 0.2j, 2.5 - 1.5j, 1e-5 + 1e-6j, 0.7 + 0.58j, 30.0 - 1.0j]),
        ("sector2.0", Sector(2.0), [1.0 + 0j, -0.5 + 1.5j, -0.3 - 1.0j, 4.0 + 0.1j]),
        ("slitplane", SlitPlane(),
         [-1.0 + 0j, 0.5 + 0.5j, 2.0 - 1e-3j, 3.0 + 1e-9j, -1e-7 + 0j, 1e4 - 2.0j]),
    ]


def _cn_cases():
    """(name, domain, points, directions); each point is given as an array,
    a list and a tuple."""
    b2 = np.array([0.3 + 0.1j, -0.2 + 0.4j])
    b3 = np.array([0.1 - 0.2j, 0.5j, 1.2 + 0j])
    return [
        ("ball", Ball((0j, 0j), 1.0),
         [np.array([0.1 + 0.2j, -0.3j]), b2, np.array([0.69 + 0.0j, 0.0 + 0.72j]),
          np.zeros(2, dtype=complex)],
         [np.array([1.0, 0.5j]), np.array([-0.2 + 0.3j, 1.0 + 0j])]),
        ("ball3", Ball((0.1 + 0.2j, -0.3j, 0.5), 2.0),
         [b3, np.array([-1.0 + 0.5j, 0.2j, 0.1]), np.array([0.1 + 0.2j, -0.3j, 0.5 + 1.9j])],
         [np.array([1.0, 0.5j, -2.0]), np.array([0j, 1j, 0j])]),
        ("polydisc", Polydisc((0j, 0j), (1.0, 2.0)),
         [np.array([0.1 + 0.2j, -0.3j]), np.array([0.9j, 1.5 + 0.5j]), b2,
          np.array([-0.99, 1.99 + 0j])],
         [np.array([1.0, 0.5j]), np.array([0.3 - 0.2j, 2.0 + 0j])]),
        ("polydisc3", Polydisc((0.5j, 1 + 0j, -0.2), (0.7, 1.5, 3.0)),
         [np.array([0.2 + 0.4j, 1.3 - 0.4j, 2.0 + 1.0j]), np.array([0.1j, 0.5, -3.1])],
         [np.array([1.0, 0.5j, -0.25 + 0.1j])]),
    ]


def recorded_outcomes() -> dict:
    """Every pinned label -> its outcome under the current code."""
    out = {}
    for name, dom, pts in _planar_cases():
        for i, z in enumerate(pts):
            w = pts[(i + 1) % len(pts)]
            key = f"{name}/{i}"
            for label, fn in (("carath", caratheodory), ("lempert", lempert),
                              ("bergman", bergman_distance)):
                out[f"{label}/{key}"] = _outcome(lambda: fn(dom, z, w))
            for label, fn in (("kobayashi_metric", kobayashi_metric),
                              ("bergman_metric", bergman_metric)):
                out[f"{label}/{key}"] = _outcome(lambda: fn(dom, z))
                out[f"{label}/{key}/X"] = _outcome(lambda: fn(dom, z, 0.3 - 1.7j))
            out[f"bergman_kernel/{key}"] = _outcome(lambda: bergman_kernel(dom, z))
            # the same point as a numpy scalar, and as a float when it is real
            for form, p in (("np", np.complex128(z)), ("float", z.real if z.imag == 0 else None)):
                if p is not None:
                    out[f"carath/{key}/{form}"] = _outcome(lambda: caratheodory(dom, p, w))
                    out[f"kobayashi_metric/{key}/{form}"] = _outcome(
                        lambda: kobayashi_metric(dom, p))
        batch = chart_distances(dom, pts, pts[1:] + pts[:1])
        out[f"chart_distances/{name}"] = [_outcome(lambda: v) for v in batch]
    for name, dom, pts, dirs in _cn_cases():
        for i, z in enumerate(pts):
            w = pts[(i + 1) % len(pts)]
            key = f"{name}/{i}"
            for form, cast in (("array", lambda p: p), ("list", list), ("tuple", tuple)):
                zc, wc = cast(z), cast(w)
                for label, fn in (("carath", caratheodory), ("lempert", lempert)):
                    out[f"{label}/{key}/{form}"] = _outcome(lambda: fn(dom, zc, wc))
                out[f"cn_model_distance/{key}/{form}"] = _outcome(
                    lambda: cn_model_distance(dom, zc, wc))
                for j, X in enumerate(dirs):
                    out[f"kobayashi_metric/{key}/{form}/{j}"] = _outcome(
                        lambda: kobayashi_metric(dom, zc, cast(X)))
                for signed in (False, True):
                    out[f"boundary_distance/{key}/{form}/{signed}"] = _outcome(
                        lambda: dom.boundary_distance(zc, signed=signed))
                out[f"contains/{key}/{form}"] = _outcome(lambda: dom.contains(zc))
    return out


def test_pinned_bits():
    want = json.loads(PINS.read_text())
    got = recorded_outcomes()
    assert sorted(got) == sorted(want)
    diff = {k: (got[k], want[k]) for k in want if got[k] != want[k]}
    assert not diff


def test_pins_cover_every_closed_form_label():
    want = json.loads(PINS.read_text())
    labels = {k.split("/")[0] for k in want}
    assert labels == {"carath", "lempert", "bergman", "kobayashi_metric", "bergman_metric",
                      "bergman_kernel", "chart_distances", "cn_model_distance",
                      "boundary_distance", "contains"}
    # every pinned outcome is a value, none an exception's name
    assert not [k for k, v in want.items() if isinstance(v, str) and not v.startswith("0x")]


if __name__ == "__main__":
    table = recorded_outcomes()
    sys.stdout.write("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(table[k])}"
                                         for k in sorted(table)) + "\n}\n")
