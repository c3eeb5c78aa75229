"""Covering numbers, direction nets, and modulus-of-continuity statistics.

Nets on the model direction spaces are built by exact specialization:
the legs of a spider, uniform arcs on circles of directions, and poles
plus uniform page angles on the spine graph.  Dyadic profiles refine
nets by doubling, so the scales are nested and dyadic counts double
exactly away from the coarsest scales.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .errors import DomainError
from .geometry import DirectionNet, Point


# elements of one working array: net rows per distance block, pairs per chunk
_BLOCK = 1 << 16


def build_net(base: Point, eps: float) -> DirectionNet:
    """An eps-net on the space of directions at base.

    Every direction lies within eps of the net; on the circle-like
    spaces the net is a uniform grid of ceil(L/eps) points (so its
    covering radius is eps/2), and on the finite direction spaces it is
    the full direction set with covering radius 0.
    """
    if not eps > 0.0:
        raise DomainError("net resolution must be positive")
    ds = geo.direction_space(base)
    coords, w, cov_radius = ds.net_coords(eps)
    dirs = tuple(ds.from_coord(c) for c in coords)
    return DirectionNet(base, dirs, float(eps), float(cov_radius),
                        tuple(float(x) for x in w), np.asarray(coords, dtype=float))


def covering_number(base: Point, eps: float) -> int:
    """Upper estimate of the covering number N(eps).

    N(eps) is the minimal cardinality of an (eps/2)-cover; the uniform
    net at nominal scale eps has covering radius eps/2, so its
    cardinality is a certified upper bound.
    """
    if not eps > 0.0:
        raise DomainError("net resolution must be positive")
    return len(geo.direction_space(base).net_coords(eps)[0])


def _min_separation(ds, coords: np.ndarray) -> float:
    """Least distance between two distinct members of coords, in row blocks."""
    m = len(coords)
    block = max(1, _BLOCK // m)
    least = np.inf
    for lo in range(0, m, block):
        dist = ds.cross(coords[lo:lo + block], coords)
        rows = np.arange(len(dist))
        dist[rows, rows + lo] = np.inf
        least = min(least, float(dist.min()))
    return least


def covering_number_bounds(base: Point, eps: float) -> tuple[int, int]:
    """(lower, upper) sandwich for N(eps).

    The upper bound is the (eps/2)-net cardinality; the lower bound is
    the cardinality of a family with pairwise distances > eps (each
    (eps/2)-ball contains at most one of its members).
    """
    upper = covering_number(base, eps)
    ds = geo.direction_space(base)
    packed = ds.net_coords(2.0 * eps)[0]
    m = len(packed)
    if m > 1 and _min_separation(ds, packed) <= eps:
        # uniform spacing did not exceed eps; thin to every other point
        keep = packed[::2]
        nsub = len(keep)
        if nsub > 1 and _min_separation(ds, keep) <= eps:
            return 1, upper
        return nsub, upper
    return m, upper


@dataclass(frozen=True)
class CoveringProfile:
    """Dyadic covering counts and the fitted growth exponent."""

    base: Point
    scales: tuple  # eps = 2^-n for n = 1..n_max
    counts: tuple
    d_estimate: float
    stratum_dim_bound: float

    def to_csv_rows(self):
        yield ("scale", "count")
        yield from zip(self.scales, self.counts)


def stratum_dimension_bound(base: Point) -> float:
    """Sum over incident strata of their direction-space dimensions."""
    return float(sum(max(d - 1, 0) for _sid, d in geo.incident_strata(base)))


def dimension_constant(base: Point, n_max: int) -> CoveringProfile:
    """Covering counts N(2^-n) for n = 1..n_max and the log2 growth slope.

    Counts are the sizes of nested net coordinate sets (each scale refines
    the previous; no direction objects are built), and the slope is the
    least-squares fit over the finer half of the scales.  Constant counts
    short-circuit to an exact zero estimate.
    """
    if n_max < 4:
        raise DomainError("need n_max >= 4 for a meaningful slope")
    ds = geo.direction_space(base)
    coords, _w, radius = ds.net_coords(0.5)
    scales, counts = [], []
    for n in range(1, n_max + 1):
        eps = 2.0 ** (-n)
        while radius > eps / 2.0 + 1e-15:
            coords, _w, radius = ds.refine(coords)
        scales.append(eps)
        counts.append(len(coords))
    counts_arr = np.array(counts, dtype=float)
    if counts_arr.max() == counts_arr.min():
        slope = 0.0
    else:
        half = len(counts) // 2
        ns = np.arange(1, n_max + 1, dtype=float)[half:]
        ys = np.log2(counts_arr[half:])
        slope = float(np.polyfit(ns, ys, 1)[0])
    return CoveringProfile(base, tuple(scales), tuple(counts), slope,
                           stratum_dimension_bound(base))


# ---------------------------------------------------------------------------
# Modulus of continuity


def modulus_many(values: np.ndarray, net: DirectionNet, radii) -> np.ndarray:
    """w(h, r) per row of ``values`` and per radius (rows are fields).

    The net is walked in row blocks; each block's pairs j > i within the
    largest radius are sorted by distance, so the pairs within each
    radius form a prefix and every chunk of |h(V_i) - h(V_j)| is folded
    into the radii that contain it.  Memory is O(values + block).
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    for r in radii:
        if net.covering_radius > r / 4.0:
            raise DomainError(
                f"net covering radius {net.covering_radius:.3g} too coarse for "
                f"modulus radius {r:.3g}"
            )
    radii = np.asarray(radii, dtype=float).ravel()
    order = np.argsort(radii, kind="stable")
    ascending = radii[order]
    # seg[k]: max over pairs with distance in (ascending[k-1], ascending[k]]
    seg = np.zeros((len(radii), values.shape[0]))
    vt = np.ascontiguousarray(values.T)
    coords, ds, m = net.coords(), net.space(), len(net)
    block = max(1, _BLOCK // m)
    chunk = max(1, _BLOCK // max(1, values.shape[0]))
    for lo in range(0, m if len(radii) else 0, block):
        dist = ds.cross(coords[lo:lo + block], coords)
        rows, j = np.nonzero(dist <= ascending[-1])
        keep = j > rows + lo
        rows, j = rows[keep], j[keep]
        d = dist[rows, j]
        s = np.argsort(d, kind="stable")
        i, j, d = rows[s] + lo, j[s], d[s]
        start = 0
        for k, stop in enumerate(np.searchsorted(d, ascending, side="right")):
            for a in range(start, stop, chunk):
                b = min(stop, a + chunk)
                diff = vt[i[a:b]]
                diff -= vt[j[a:b]]
                np.maximum(seg[k], np.abs(diff, out=diff).max(axis=0), out=seg[k])
            start = stop
    out = np.empty((values.shape[0], len(radii)))
    out[:, order] = np.maximum.accumulate(seg, axis=0).T
    return out


def modulus(field, r: float) -> float:
    """w(h, r): sup of |h(V) - h(U)| over net pairs within angular r."""
    return float(modulus_many(field.values, field.net, [r])[0, 0])


@dataclass(frozen=True)
class ModulusTable:
    """Per-replicate modulus values and the truncated-mean aggregate."""

    label: str
    radii: tuple
    w: np.ndarray  # (replicates, radii)
    aggregate: tuple  # E[w /\ 1] per radius

    @staticmethod
    def from_fields(label: str, values: np.ndarray, net: DirectionNet,
                    radii) -> "ModulusTable":
        w = modulus_many(values, net, radii)
        agg = np.minimum(w, 1.0).mean(axis=0)
        return ModulusTable(label, tuple(float(r) for r in radii), w,
                            tuple(float(a) for a in agg))

    def to_csv_rows(self):
        yield ("radius", "replicate", "w", "aggregate")
        for c, (r, agg) in enumerate(zip(self.radii, self.aggregate)):
            for rep, w in enumerate(self.w[:, c].tolist()):
                yield (r, rep, w, agg)


def holder_estimate(values: np.ndarray, net: DirectionNet,
                    radii) -> tuple[float, float]:
    """Slope of log E[w(., r)] against log r, with the fit residual.

    The estimate describes how fast the expected modulus shrinks with
    the radius; no pass/fail threshold is attached.
    """
    radii = [float(r) for r in radii]
    if len(radii) < 4:
        raise DomainError("need at least 4 radii for a slope estimate")
    w = modulus_many(values, net, radii)
    means = w.mean(axis=0)
    if np.all(means == 0.0):
        raise DomainError("degenerate (all-zero) fields have no modulus slope")
    if np.any(means <= 0.0):
        raise DomainError("zero expected modulus at some radius; refine the net")
    x = np.log(radii)
    y = np.log(means)
    coeffs, residuals, *_ = np.polyfit(x, y, 1, full=True)
    resid = float(residuals[0]) if len(residuals) else 0.0
    return float(coeffs[0]), resid
