"""Output checks: independent closed forms, value sanity and strict JSON.

The closed forms here are written from the textbook formulas, not taken
from the library, so a wrong pullback or dispatch in the library shows as
a mismatch.  Each check returns None when the output is right and a short
reason when it is not.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

REL_TOL = 1e-9
C_LE_L_SLACK = 1e-8


def _atanh(rho):
    return 0.5 * (math.log1p(rho) - math.log1p(-rho))


def disc_distance(center, radius, z, w):
    u, v = (z - center) / radius, (w - center) / radius
    return _atanh(abs((u - v) / (1.0 - u.conjugate() * v)))


def halfplane_distance(normal, z, w):
    """Half-plane {Re(conj(n) z) > 0}: rotate onto the right half-plane and
    use rho = |z - w| / |z + conj(w)|."""
    rot = normal.conjugate() / abs(normal)
    a, b = rot * z, rot * w
    return _atanh(abs(a - b) / abs(a + b.conjugate()))


def ball_distance(radius, z, w):
    u, v = np.asarray(z) / radius, np.asarray(w) / radius
    nu, nv = float(np.vdot(u, u).real), float(np.vdot(v, v).real)
    ip = complex(np.vdot(v, u))
    rho2 = 1.0 - (1.0 - nu) * (1.0 - nv) / abs(1.0 - ip) ** 2
    return _atanh(math.sqrt(max(rho2, 0.0)))


def polydisc_distance(radii, z, w):
    return max(disc_distance(0j, r, complex(a), complex(b)) for r, a, b in zip(radii, z, w))


def disc_kobayashi_metric(center, radius, z):
    return 1.0 / radius / (1.0 - abs((z - center) / radius) ** 2)


def halfplane_kobayashi_metric(normal, z):
    return 1.0 / (2.0 * (normal.conjugate() / abs(normal) * z).real)


def ball_kobayashi_metric(z, X):
    """Unit ball: kappa^2 = |X|^2 / (1 - |z|^2) + |<X, z>|^2 / (1 - |z|^2)^2."""
    z, X = np.asarray(z), np.asarray(X)
    s = 1.0 - float(np.vdot(z, z).real)
    return math.sqrt(float(np.vdot(X, X).real) / s + abs(complex(np.vdot(z, X))) ** 2 / s ** 2)


def polydisc_kobayashi_metric(radii, z, X):
    return max(abs(x) / r / (1.0 - abs(a / r) ** 2) for r, a, x in zip(radii, z, X))


def disc_bergman_kernel(center, radius, z):
    return radius ** 2 / (math.pi * (radius ** 2 - abs(z - center) ** 2) ** 2)


def mismatch(got, want, what="closed form"):
    if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=1e-12):
        return f"{what} mismatch: got {got!r}, want {want!r}"
    return None


def interval_problem(lo, hi):
    """A returned enclosure must be finite with lo <= hi."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return f"non-finite enclosure [{lo}, {hi}]"
    if lo > hi:
        return f"lo > hi in [{lo}, {hi}]"
    return None


def positive_finite(x):
    x = float(x)
    if not (math.isfinite(x) and x > 0.0):
        return f"metric or kernel value {x!r} is not positive and finite"
    return None


def c_le_l(c, l):
    """Caratheodory never exceeds Lempert on the same pair; `c` is None when
    the Caratheodory op of the pair failed (already counted there)."""
    if c is not None and c.lo > l.hi + C_LE_L_SLACK:
        return f"c > l: c.lo = {c.lo!r} > l.hi = {l.hi!r}"
    return None


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text):
    """Parse JSON, refusing the inf / nan extensions Python accepts."""
    return json.loads(text, parse_constant=_reject_constant)


def round_sig(x, digits=9):
    x = float(x)
    if x == 0.0 or not math.isfinite(x):
        return repr(x)
    return format(x, f".{digits}g")


def checksum(values):
    """Digest of a value list rounded to 9 significant digits."""
    text = ",".join(round_sig(v) for v in values)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def json_floats(doc):
    """The numbers in a parsed JSON document, in document order."""
    if isinstance(doc, bool) or doc is None or isinstance(doc, str):
        return []
    if isinstance(doc, (int, float)):
        return [float(doc)]
    if isinstance(doc, dict):
        return [x for v in doc.values() for x in json_floats(v)]
    return [x for v in doc for x in json_floats(v)]


