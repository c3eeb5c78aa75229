"""Covering numbers, direction nets, and modulus-of-continuity statistics.

Nets on the model direction spaces are built by exact specialization:
the legs of a spider, uniform arcs on circles of directions, and poles
plus uniform page angles on the spine graph.  Dyadic profiles refine
nets by doubling, so the scales are nested and dyadic counts double
exactly away from the coarsest scales.

The modulus of continuity w(h, r), the largest |h(V) - h(U)| over net
pairs within angular distance r, is taken from window extrema along
the chains of the direction space (``geometry``: the cyclic order on a
circle, the label order on a finite set, page lines and through-pole
chains at a spine point).  On a chain the pairs within r of a position
form one forward run, so w is the largest max - min of h over the
runs' windows, found by doubling in blocks of replicates; memory is
O(block x chain length) beyond the input.  Float subtraction rounds
monotonically, so fl(max - min) is the largest |fl(h(V) - h(U))| in a
window and the result is bit-identical to the all-pairs maximum.
Spheres of directions have no chains and are refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .errors import DomainError
from .geometry import DirectionNet, Point


# elements of one working array: chain positions by steps ahead,
# replicates by chain positions, or replicates by pairs
_BLOCK = 1 << 15

# the finest scale 2^-COVER_N_MAX of a cover profile, a net or a modulus net
COVER_N_MAX = 16


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


def covering_number_bounds(base: Point, eps: float) -> tuple[int, int]:
    """(lower, upper) sandwich for N(eps).

    The upper bound is the (eps/2)-net cardinality.  The lower bound is
    the size of the uniform net at scale 2 eps when its members are
    pairwise more than eps apart (each (eps/2)-ball then contains at most
    one of them), and 1 otherwise.  Neighbours in that net are twice its
    covering radius apart on circles and spines, and pi apart on the
    finite direction sets, whose covering radius is 0.
    """
    upper = covering_number(base, eps)
    packed, _w, radius = geo.direction_space(base).net_coords(2.0 * eps)
    separation = 2.0 * radius if radius > 0.0 else math.pi
    if len(packed) > 1 and separation <= eps:
        return 1, upper
    return len(packed), upper


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


def _band(t: np.ndarray, r: float) -> int:
    """The most steps from a position along a chain (arc positions t,
    nondecreasing) to a later one at a t-gap of at most r (+ slack)."""
    ends = np.searchsorted(t, t + (r + geo.CHAIN_SLACK), side="right")
    return int((ends - np.arange(1, len(t) + 1)).max(initial=0))


def _runs(values: np.ndarray, ds, coords: np.ndarray, idx: np.ndarray,
          t: np.ndarray, radii: np.ndarray, out: np.ndarray) -> list:
    """Window ends per radius along one chain (net indices idx, arc
    positions t).

    Per radius r, position i looks at the positions ahead at a t-gap of
    at most r (at most band(r) steps), with distances from ``ds.dist``;
    K[i] counts the leading ones within r, and the window of position i
    ends at E[i], the least i' + K[i'] over i' >= i, so every pair inside
    a window is within r.  The pairs within r that no window holds, which
    only rounding leaves, are folded into ``out`` here.  The distances
    go in chunks of ``_BLOCK // len(t)`` steps.
    """
    c, n = coords[idx], len(t)
    pos = np.arange(n)
    bands = [_band(t, r) for r in radii]
    count = np.zeros((len(radii), n), dtype=np.intp)
    open_ = np.ones((len(radii), n), dtype=bool)
    step = max(1, _BLOCK // n)
    for k0 in range(1, max(bands) + 1, step):
        ks = np.arange(k0, min(max(bands), k0 + step - 1) + 1)
        j = np.minimum(pos[:, None] + ks, n - 1)
        d = ds.dist(c[:, None], c[j])
        gap = t[j] - t[:, None]
        gap[pos[:, None] + ks >= n] = np.inf
        for q, r in enumerate(radii):
            cols = bands[q] - k0 + 1
            if cols <= 0:
                continue
            inside = d[:, :cols] <= r
            inside &= gap[:, :cols] <= r + geo.CHAIN_SLACK
            run = np.logical_and.accumulate(inside, axis=1)
            run &= open_[q][:, None]
            count[q] += run.sum(axis=1)
            open_[q] = run[:, -1]
            inside ^= run
            if inside.any():
                i, col = np.nonzero(inside)
                _fold_pairs(values, idx[i], idx[i + ks[col]], out[:, q])
    ends = []
    for q in range(len(radii)):
        e = pos + count[q]
        end = np.minimum.accumulate(e[::-1])[::-1]
        cut = e - end
        if cut.any():
            # the pairs (i, b), end[i] < b <= e[i], that the suffix minimum cut
            first = np.repeat(np.cumsum(cut) - cut - end - 1, cut)
            _fold_pairs(values, idx[np.repeat(pos, cut)],
                        idx[np.arange(cut.sum()) - first], out[:, q])
        ends.append(end)
    return ends


def _fold_windows(values: np.ndarray, idx: np.ndarray, ends, out: np.ndarray):
    """out[:, q] = max(out[:, q], max over windows of radius q of max - min).

    The window of chain position i spans i..ends[q][i].  Extrema come by
    doubling: level j holds the max and min over 2^j consecutive
    positions, and a window of length L, 2^j <= L < 2^(j+1), is the union
    of two level-j spans.  The most common length is taken at every
    position by slices (positions of another length are zeroed); windows
    of other lengths that the window before does not hold are gathered.
    Replicates go in blocks of ``_BLOCK // len(idx)``, laid out
    position-major so that every slice is one contiguous run.
    """
    n = len(idx)
    pos = np.arange(n)
    plans = []
    for q, end in enumerate(ends):
        length = end - pos + 1
        if length.max() < 2:
            continue
        common = int(np.bincount(length)[2:].argmax()) + 2
        zero = np.flatnonzero(length[:n - common + 1] != common)
        other = np.ones(n, dtype=bool)
        other[1:] = end[1:] > end[:-1]
        other &= (length >= 2) & (length != common)
        plans.append((q, common, zero, pos[other], length[other]))
    if not plans:
        return
    top = int(max(max(p[1], p[4].max(initial=0)) for p in plans)).bit_length() - 1
    rows = max(1, _BLOCK // n)
    for lo in range(0, values.shape[0], rows):
        hi = mn = values[lo:lo + rows].T[idx]
        for j in range(1, top + 1):
            half = 1 << (j - 1)
            hi = np.maximum(hi[:-half], hi[half:])
            mn = np.minimum(mn[:-half], mn[half:])
            for q, common, zero, starts, lengths in plans:
                dest = out[lo:lo + rows, q]
                if common.bit_length() - 1 == j:
                    cnt, sh = n - common + 1, common - (1 << j)
                    w = np.maximum(hi[:cnt], hi[sh:sh + cnt])
                    w -= np.minimum(mn[:cnt], mn[sh:sh + cnt])
                    w[zero] = 0.0
                    np.maximum(dest, w.max(axis=0), out=dest)
                at = np.flatnonzero(lengths >> j == 1)
                if len(at):
                    a = starts[at]
                    c = a + lengths[at] - (1 << j)
                    w = np.maximum(hi[a], hi[c])
                    w -= np.minimum(mn[a], mn[c])
                    np.maximum(dest, w.max(axis=0), out=dest)


def _fold_pairs(values: np.ndarray, ia: np.ndarray, ib: np.ndarray,
                out: np.ndarray):
    """out = max(out, max over pairs of |h(V_a) - h(V_b)|), in pair chunks."""
    chunk = max(1, _BLOCK // max(1, values.shape[0]))
    for a in range(0, len(ia), chunk):
        diff = values[:, ia[a:a + chunk]]
        diff -= values[:, ib[a:a + chunk]]
        np.maximum(out, np.abs(diff, out=diff).max(axis=1), out=out)


def modulus_many(values: np.ndarray, net: DirectionNet, radii) -> np.ndarray:
    """w(h, r) per row of ``values`` and per radius (rows are fields).

    w(h, r) is the largest |h(V) - h(U)| over net pairs within angular
    distance r.  The direction space lists chains of net indices (see
    ``geometry``) on which the pairs within r of a position form one
    forward run, so w is the largest (max - min) of h over the windows
    of the runs.  Float subtraction rounds monotonically, so
    fl(max - min) is the largest |fl(h(V) - h(U))| over a window and the
    result equals the all-pairs maximum bit for bit; pairs that rounding
    leaves outside the runs are folded in one by one.  Beyond ``values``
    memory is O(block x chain length), a block being ``_BLOCK // chain
    length`` replicates.  Spheres of directions (euclidean dimension
    >= 3) have no chains and raise DomainError.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    for r in radii:
        if net.covering_radius > r / 4.0:
            raise DomainError(
                f"net covering radius {net.covering_radius:.3g} too coarse for "
                f"modulus radius {r:.3g}"
            )
    radii = np.asarray(radii, dtype=float).ravel()
    out = np.zeros((values.shape[0], len(radii)))
    if not len(radii):
        return out
    ds, coords = net.space(), net.coords()
    for idx, t in ds.chains(coords, float(radii.max())):
        if len(idx) > 1:
            ends = _runs(values, ds, coords, idx, t, radii, out)
            _fold_windows(values, idx, ends, out)
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
