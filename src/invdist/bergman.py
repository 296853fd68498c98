"""Bergman kernel, metric, and distance on the supported domains.

A simply connected planar domain transports the model kernel through its
conformal chart f onto the unit disc or the upper half-plane:
K = |f'|^2 / (pi q^2) and beta = sqrt(2) |f' X| / q, with q = 1 - |f|^2 on
the disc and 2 Im f on the half-plane.  The annulus kernel is the Laurent
orthonormal series with an explicit geometric tail bound.  On the diagonal
each point sums the term range of its fixed bin of log|z|, so its value
does not depend on the batch it comes in; the terms' log-norms and moments
are read from one table per kernel, grown on demand.  The metric is the
square root of the Laplacian-type Hessian of log K.  The annulus Bergman
distance is a shortest path in the metric field: Dijkstra on a polar graph,
then a corridor dynamic-programming refinement; the coarse/fine grid gap is
the reported error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distances import CertifiedValue, MetricField, _chart_distance, _chart_jet, chart
from .domains import Annulus, Disc
from .errors import DomainViolation, NonConvergence, UnsupportedDomain

__all__ = [
    "bergman_kernel",
    "bergman_kernel_pair",
    "bergman_metric",
    "bergman_distance",
    "bergman_field",
    "annulus_monomial_norm_sq",
    "integrate_metric",
    "shortest_path_length",
    "AnnulusKernel",
]


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


# largest Laurent index a kernel sum uses, whatever the point's modulus
_NMAX = 4000

# The diagonal sums bin log|z| on the scale v = atanh(log|z| / log r): a
# bin is [k, k + 1) * _BIN_WIDTH in v.  A tail's term count grows like the
# inverse distance to its circle, and the bins shrink geometrically toward
# both circles, so a bin's term count exceeds its points' own by ~13% at most.
# Points on or outside a circle fall in its last bin, whose range is _NMAX.
_BIN_WIDTH = 1.0 / 16.0
_T_MAX = np.nextafter(1.0, 0.0)
_TOL = 1e-14     # each Laurent tail is cut where its bound falls to this


def annulus_monomial_norm_sq(r: float, n: int) -> float:
    """L^2(A_r) norm squared of zeta^n: pi (r^{2n+2} - r^{-(2n+2)}) / (n+1),
    and 4 pi log r for n = -1."""
    if n == -1:
        return 4.0 * math.pi * math.log(r)
    m = n + 1
    return math.pi * (r ** (2 * m) - r ** (-2 * m)) / m


def _log_norm_sq(r: float, ns: np.ndarray) -> np.ndarray:
    """log of the monomial norms, stable for large |n| (norms overflow fast)."""
    ns = np.asarray(ns)
    logr = math.log(r)
    m = np.maximum(np.abs(ns + 1.0), 1.0)  # norm is symmetric under n -> -2 - n
    out = math.log(math.pi) + 2.0 * m * logr + np.log1p(-np.exp(-4.0 * m * logr)) - np.log(m)
    out[ns == -1] = math.log(4.0 * math.pi * logr)
    return out


@dataclass
class AnnulusKernel:
    """Truncated Laurent-series Bergman kernel of A_r with tail control.

    K(z) = sum_n |z|^{2n} / ||z^n||^2.  diagonal and log_diag_hessian give
    each point, scalar or in an array, the term range of its bin of log|z|
    (see _BIN_WIDTH), never that of its batch, so a value does not depend on
    the points evaluated with it.  The kernel's table holds the columns
    [1, n(n-1), n, -log ||z^n||^2] for n in [-N - 1, N], grown on demand up
    to N = _NMAX (8002 rows, 256 KB); each bin reads a slice of it, and the
    term range of each bin is computed once.
    """

    r: float
    _ranges: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _n: int = field(default=-1, init=False, repr=False, compare=False)
    _table: np.ndarray = field(default=None, init=False, repr=False, compare=False)

    def _terms(self, a: float, a_lo: float | None = None):
        """Term range covering both tails below _TOL for moduli in [a_lo, a]
        (a_lo = a by default): the high tail terms ~ (n+1) (a / r)^{2n} peak
        at a and the low ones ~ (n+1) (1 / (a_lo r))^{2n} at a_lo, so the
        count adapts to the moduli, up to _NMAX."""
        r = self.r
        if a_lo is None:
            a_lo = a
        ratio_hi = (a / r) ** 2
        ratio_lo = (1.0 / (a_lo * r)) ** 2
        n_hi = _tail_cut(ratio_hi)
        n_lo = _tail_cut(ratio_lo)
        n = min(max(n_hi, n_lo, 8), _NMAX)
        return np.arange(-n - 1, n + 1)

    def _bin_range(self, k: int):
        """Term range [-n_lo - 1, n_hi] of bin k as (n_lo, n_hi), each tail
        cut by _tail_cut at the bin edge nearest its circle."""
        rng = self._ranges.get(k)
        if rng is None:
            L = math.log(self.r)
            # (|z| / r)^2 at the upper edge and (1 / (|z| r))^2 at the lower
            ratio_hi = math.exp(-2.0 * L * (1.0 - math.tanh((k + 1) * _BIN_WIDTH)))
            ratio_lo = math.exp(-2.0 * L * (1.0 + math.tanh(k * _BIN_WIDTH)))
            rng = (_tail_cut(ratio_lo), _tail_cut(ratio_hi))
            self._ranges[k] = rng
            if max(rng) > self._n:
                self._grow(max(rng))
        return rng

    def _grow(self, n: int):
        """Rebuild the table for n in [-N - 1, N], N >= n, at least doubling
        N so that a kernel rebuilds it a few times at most."""
        N = min(max(n, 2 * self._n), _NMAX)
        ns = np.arange(-N - 1.0, N + 1.0)
        tab = np.empty((ns.size, 4))
        tab[:, 0] = 1.0
        tab[:, 1] = ns * (ns - 1.0)
        tab[:, 2] = ns
        tab[:, 3] = -_log_norm_sq(self.r, ns)
        self._table, self._n = tab, N

    def _sums(self, z, cols: int):
        """|z|^2 and, per point, the first cols of the sums of t_n times
        [1, n(n-1), n] over its bin's term range, t_n = |z|^{2n} / ||z^n||^2.

        Each bin's (points x terms) block of exponents 2 n log|z| -
        log ||z^n||^2 is one matrix product with the table, exponentiated
        in place and contracted with the table in a second; blocks hold
        about 256k cells (2 MB), so a large batch never holds its whole
        table.
        """
        a = np.abs(np.asarray(z, dtype=complex)).ravel()
        u = np.log(a)
        t = np.minimum(np.maximum(u / math.log(self.r), -_T_MAX), _T_MAX)
        k = np.floor(np.arctanh(t) / _BIN_WIDTH).astype(int)
        x = np.empty((a.size, 2))       # rows [2 log|z|, 1] against [n, -log ||z^n||^2]
        x[:, 0] = 2.0 * u
        x[:, 1] = 1.0
        if k.min() == k.max():
            groups = [np.arange(a.size)]
        else:
            order = np.argsort(k, kind="stable")
            groups = np.split(order, np.flatnonzero(np.diff(k[order])) + 1)
        out = np.empty((a.size, cols))
        for idx in groups:
            n_lo, n_hi = self._bin_range(int(k[idx[0]]))
            tab = self._table[self._n - n_lo:self._n + n_hi + 2]
            step = max(1, 262144 // len(tab))
            for i in range(0, idx.size, step):
                ic = idx[i:i + step]
                terms = x[ic] @ tab[:, 2:].T
                np.exp(terms, out=terms)
                out[ic] = terms @ tab[:, :cols]
        return a * a, out

    def diagonal(self, z):
        """K(z) for a scalar or array z."""
        _, sums = self._sums(z, 1)
        out = sums[:, 0].reshape(np.shape(z))
        return out if out.shape else float(out)

    def pair(self, z, w: complex):
        """K(z, w) for a scalar or array z and a scalar w.

        Each Laurent term (z conj w)^n / ||n||^2 is formed from its neighbour
        toward n = 0, so no power of z overflows.  The tails fall like
        (|z||w| / r^2)^n and (1 / (|z||w| r^2))^n, so the term range comes
        from the extremes of sqrt(|z||w|) over the batch.  Rows sum in
        chunks of about 256k cells, as in log_diag_hessian.
        """
        z = np.asarray(z, dtype=complex)
        w = complex(w)
        u = (z * w.conjugate()).ravel()
        g = np.sqrt(np.abs(z).ravel() * abs(w))
        ns = self._terms(float(g.max()), float(g.min()))
        r, L = self.r, math.log(self.r)
        j = np.arange(1.0, ns[-1] + 1.0)
        # ||j-1||^2 / ||j||^2 in closed form, so nothing overflows; the norms
        # are symmetric under n -> -2 - n, which gives the factors below 0
        up = (j + 1.0) / j / (r * r) * np.expm1(-4.0 * j * L) / np.expm1(-4.0 * (j + 1.0) * L)
        a = math.sinh(2.0 * L) / (2.0 * L)     # ||0||^2 / ||-1||^2
        down = np.concatenate([[a, 1.0 / a], up[:-1]])
        t0 = 1.0 / (2.0 * math.pi * math.sinh(2.0 * L))   # 1 / ||0||^2
        rows = max(1, 262144 // ns.size)
        out = np.empty(u.shape, dtype=complex)
        for i in range(0, u.size, rows):
            uc = u[i:i + rows, None]
            hi = np.sum(np.cumprod(uc * up, axis=-1), axis=-1)
            lo = np.sum(np.cumprod(down / uc, axis=-1), axis=-1)
            out[i:i + rows] = t0 * (1.0 + hi + lo)
        out = out.reshape(z.shape)
        return out if out.shape else complex(out)

    def log_diag_hessian(self, z):
        """d^2/dz dzbar of log K at z, from the series in s = |z|^2:
        with k_j = d^j K / ds^j, it is k_1 / k_0 + s (k_2 / k_0 - (k_1 / k_0)^2).
        Each point's term range comes from its bin, as in diagonal."""
        s, sums = self._sums(z, 3)
        k0 = sums[:, 0]
        g = sums[:, 2] / s / k0
        out = g + s * (sums[:, 1] / (s * s) / k0 - g * g)
        out = out.reshape(np.shape(z))
        return out if out.shape else float(out)


def _tail_cut(ratio: float) -> int:
    """First n in 8, 12, ..., _NMAX whose tail bound is at most _TOL."""
    if ratio >= 1.0:
        return _NMAX
    # sum_{k>n} (k+1) ratio^k <= (n+3) ratio^{n+1} / (1-ratio)^2 approx.  The
    # bound only rises where it is far above _TOL (past n = 8 it rises only
    # for ratio > exp(-1/11), where it exceeds 600), so the steps above _TOL
    # are a prefix: bisect for the first one below it
    lo, hi = 8, _NMAX
    while lo < hi:
        mid = lo + 4 * ((hi - lo) // 8)
        if (mid + 3) * ratio ** (mid + 1) / (1.0 - ratio) ** 2 > _TOL:
            lo = mid + 4
        else:
            hi = mid
    return lo


_KERNELS: dict = {}


def _annulus_kernel(r: float) -> AnnulusKernel:
    k = _KERNELS.get(r)
    if k is None:
        k = AnnulusKernel(r)
        _KERNELS[r] = k
    return k


def bergman_kernel(domain, z) -> float:
    """Bergman kernel on the diagonal K_D(z)."""
    m = chart(domain)
    if m is not None:
        df, q = _chart_jet(m, z)
        return abs(df) ** 2 / (math.pi * q ** 2)
    if isinstance(domain, Annulus):
        if not domain.contains(z):
            raise DomainViolation("point outside the annulus")
        return _annulus_kernel(domain.r).diagonal(complex(z))
    raise UnsupportedDomain(f"bergman kernel unsupported on {type(domain).__name__}")


def bergman_kernel_pair(domain, z, w) -> complex:
    """Off-diagonal kernel K_D(z, w) (disc and annulus)."""
    if isinstance(domain, Disc):
        R = domain.radius
        u = (complex(z) - domain.center) / R
        v = (complex(w) - domain.center) / R
        return 1.0 / (math.pi * R * R * (1.0 - u * v.conjugate()) ** 2)
    if isinstance(domain, Annulus):
        return _annulus_kernel(domain.r).pair(complex(z), complex(w))
    raise UnsupportedDomain("pair kernel supports Disc and Annulus")


# ---------------------------------------------------------------------------
# metric
# ---------------------------------------------------------------------------


def bergman_metric(domain, z, X=1.0) -> float:
    """beta_D(z; X) = |X| sqrt(d^2 log K / dz dzbar)."""
    m = chart(domain)
    if m is not None:
        df, q = _chart_jet(m, z)
        return math.sqrt(2.0) * abs(df * X) / q
    if isinstance(domain, Annulus):
        if np.isscalar(z) or isinstance(z, complex):
            if not domain.contains(z):
                raise DomainViolation("point outside the annulus")
            h = _annulus_kernel(domain.r).log_diag_hessian(complex(z))
            return abs(X) * math.sqrt(max(h, 0.0))
        z = np.asarray(z, dtype=complex)
        a = np.abs(z)
        inside = (a > 1.0 / domain.r) & (a < domain.r)
        z_safe = np.where(inside, z, 1.0)
        h = _annulus_kernel(domain.r).log_diag_hessian(z_safe)
        return np.where(inside, np.abs(X) * np.sqrt(np.maximum(h, 0.0)), np.inf)
    raise UnsupportedDomain(f"bergman metric unsupported on {type(domain).__name__}")


def bergman_field(domain) -> MetricField:
    return MetricField("bergman", lambda z, X=1.0: bergman_metric(domain, z, X), domain)


# ---------------------------------------------------------------------------
# path integration helpers
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def integrate_metric(field: MetricField, path, dpath, n_panels: int = 16) -> float:
    """Integral of field along a parametrized curve t in [0, 1] (Gauss panels)."""
    total = 0.0
    edges = np.linspace(0.0, 1.0, n_panels + 1)
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        for x, wgt in zip(_GL_NODES, _GL_WEIGHTS):
            t = mid + half * x
            total += wgt * half * field(complex(path(t)), complex(dpath(t)))
    return total


def _segment_length(field, a, b):
    """Metric length of the straight segment [a, b] by 8-node Gauss quadrature."""
    d = b - a
    pts = a + (0.5 + 0.5 * _GL_NODES) * d
    vals = np.asarray(field(pts, d))
    return float(np.sum(_GL_WEIGHTS * 0.5 * vals))


# ---------------------------------------------------------------------------
# shortest path on the annulus
# ---------------------------------------------------------------------------


def _annulus_graph_path(field, r, z, w, n_r, n_t):
    """Dijkstra over a polar grid with 8-neighbour stencil; returns node path."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import dijkstra

    L = math.log(r)
    margin = L / (n_r + 1)
    us = np.linspace(-L + margin, L - margin, n_r)
    ts = np.arange(n_t) * (2.0 * math.pi / n_t)
    uu, tt = np.meshgrid(us, ts, indexing="ij")
    nodes = np.exp(uu) * np.exp(1j * tt)
    flat = nodes.ravel()

    rows_list, cols_list, vals_list = [], [], []
    offsets = [(0, 1), (1, 0), (1, 1), (1, -1)]
    j = np.arange(n_t)
    for di, dj in offsets:
        for i in range(n_r):
            i2 = i + di
            if i2 < 0 or i2 >= n_r:
                continue
            src = i * n_t + j
            dst = i2 * n_t + (j + dj) % n_t
            a = flat[src]
            b = flat[dst]
            wts = np.asarray(field(0.5 * (a + b), b - a))
            rows_list.append(src)
            cols_list.append(dst)
            vals_list.append(wts)
    n_nodes = n_r * n_t
    # connect source and target to their surrounding nodes
    extra = [complex(z), complex(w)]
    for e_idx, p in enumerate(extra):
        nearest = np.argsort(np.abs(flat - p))[:10]
        rows_list.append(np.full(nearest.size, n_nodes + e_idx))
        cols_list.append(nearest)
        vals_list.append(np.array([_segment_length(field, p, flat[k]) for k in nearest]))
    rows = np.concatenate(rows_list)
    cols = np.concatenate(cols_list)
    vals = np.concatenate(vals_list)
    g = coo_matrix((vals, (rows, cols)), shape=(n_nodes + 2, n_nodes + 2))
    dist, pred = dijkstra(g, directed=False, indices=[n_nodes], return_predecessors=True)
    if not np.isfinite(dist[0, n_nodes + 1]):
        raise NonConvergence("no graph path between the endpoints")
    path = [n_nodes + 1]
    while path[-1] != n_nodes:
        path.append(int(pred[0, path[-1]]))
    path.reverse()
    coords = [extra[0]] + [complex(flat[i]) for i in path[1:-1]] + [extra[1]]
    return coords


def _resample(pts, n):
    """Resample a polyline to n nodes equally spaced in euclidean arclength."""
    pts = np.asarray(pts, dtype=complex)
    seg = np.abs(np.diff(pts))
    s = np.concatenate([[0.0], np.cumsum(seg)])
    if s[-1] == 0.0:
        return np.full(n, pts[0])
    ss = np.linspace(0.0, s[-1], n)
    re = np.interp(ss, s, pts.real)
    im = np.interp(ss, s, pts.imag)
    return re + 1j * im


def _batched_lengths(field, a, b):
    """Metric lengths of segments a[...] -> b[...] in one field call."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    d = b - a
    t = 0.5 + 0.5 * _GL_NODES
    pts = a[..., None] + t * d[..., None]
    vals = np.asarray(field(pts, d[..., None]))
    return np.sum(_GL_WEIGHTS * 0.5 * vals, axis=-1)


_N_LAT = 15      # candidate points per trellis station


def _trellis_refine(field, r, pts, n_stations, width, shrinks):
    """Shorten the path by dynamic programming over lateral offsets.

    Stations are resampled along the current path; each interior station
    gets _N_LAT candidate points offset along the local normal.  A DP pass
    picks the cheapest chain; the corridor then shrinks around it.
    """
    margin = 1e-4

    def clamp(arr):
        mod = np.abs(arr)
        lo, hi = 1.0 / r + margin, r - margin
        scale = np.clip(mod, lo, hi) / np.where(mod == 0, 1.0, mod)
        out = arr * scale
        return out

    pts = clamp(_resample(pts, n_stations))
    for _ in range(shrinks):
        normals = np.zeros(n_stations, dtype=complex)
        tang = np.empty(n_stations, dtype=complex)
        tang[1:-1] = pts[2:] - pts[:-2]
        tang[0] = pts[1] - pts[0]
        tang[-1] = pts[-1] - pts[-2]
        nz = np.abs(tang) > 0
        normals[nz] = 1j * tang[nz] / np.abs(tang[nz])
        offs = np.linspace(-width, width, _N_LAT)
        cand = pts[:, None] + normals[:, None] * offs[None, :]
        cand = clamp(cand)
        cand[0, :] = pts[0]
        cand[-1, :] = pts[-1]
        back = np.zeros((n_stations, _N_LAT), dtype=int)
        cost = np.zeros(_N_LAT)
        for i in range(1, n_stations):
            seg = _batched_lengths(field, cand[i - 1][:, None], cand[i][None, :])
            tot = cost[:, None] + seg
            back[i] = np.argmin(tot, axis=0)
            cost = np.min(tot, axis=0)
        k = int(np.argmin(cost))
        best = float(cost[k])
        chain = [k]
        for i in range(n_stations - 1, 0, -1):
            chain.append(int(back[i, chain[-1]]))
        chain.reverse()
        pts = np.array([cand[i, chain[i]] for i in range(n_stations)])
        pts = clamp(_resample(pts, n_stations))
        pts[0], pts[-1] = cand[0, 0], cand[-1, 0]
        width /= 3.0
    return best, pts


def shortest_path_length(field: MetricField, r: float, z: complex, w: complex,
                         n_r: int = 64, n_t: int = 256) -> float:
    """Length of an approximate metric geodesic from z to w in A_r; 0 at z = w."""
    if z == w:
        return 0.0
    pts = _annulus_graph_path(field, r, z, w, n_r, n_t)
    n_st = max(64, min(int(1.5 * len(pts)), 192))
    best, pts = _trellis_refine(field, r, pts, n_st, width=0.4, shrinks=8)
    best, _ = _trellis_refine(field, r, pts, 2 * n_st, width=0.02, shrinks=4)
    return best


def bergman_distance(domain, z, w) -> CertifiedValue:
    """Bergman distance b_D(z, w).

    Simply connected planar domains: sqrt(2) times the hyperbolic distance
    of the domain's chart.  Annulus: shortest-path value of the metric field
    on two grid resolutions, an estimate whose error is the gap between them
    (none at z = w); shorter paths than the fine grid's exist, so its lo is
    no lower bound.
    """
    m = chart(domain)
    if m is not None:
        c = _chart_distance(m, z, w)
        root2 = math.sqrt(2.0)
        return CertifiedValue(root2 * c.lo, root2 * c.hi, c.method,
                              root2 * c.error_estimate)
    if isinstance(domain, Annulus):
        if not (domain.contains(z) and domain.contains(w)):
            raise DomainViolation("points must lie inside the annulus")
        if z == w:
            return CertifiedValue.exact(0.0, "shortest_path")
        field = bergman_field(domain)
        coarse = shortest_path_length(field, domain.r, z, w, 48, 192)
        fine = shortest_path_length(field, domain.r, z, w, 96, 384)
        err = max(abs(fine - coarse), 1e-6)
        return CertifiedValue.estimate(fine, err, "shortest_path")
    raise UnsupportedDomain(f"bergman distance unsupported on {type(domain).__name__}")
