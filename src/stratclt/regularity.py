"""Direction nets and modulus-of-continuity statistics.

A uniform net is the grid that ``covering.uniform_grid`` sizes, held as
its direction-space coordinates; ``dimension_constant`` is also bound
here, where the layer suite of ``perfbench`` traces it.

The modulus of continuity w(h, r), the largest |h(V) - h(U)| over net
pairs within angular distance r, is taken from window extrema along
the chains of the direction space (``directions``: the cyclic order on a
circle, the label order on a finite set, page lines and through-pole
chains at a spine point).  On a chain the pairs within r of a position
form one forward run, so w is the largest max - min of h over the
runs' windows, found by doubling.  The chains, windows and stray pairs
are planned once from the geometry; the fields are then read and folded
a block of replicates at a time, so a field formed from its counts
block by block never exists whole, and memory is O(block x net size)
beyond the input.  Float subtraction rounds monotonically, so
fl(max - min) is the largest |fl(h(V) - h(U))| in a window and the
result is bit-identical to the all-pairs maximum, whatever the block
size.  Spheres of directions have no chains and are refused.
"""

from __future__ import annotations

import numpy as np

from .covering import COVER_N_MAX, dimension_constant, uniform_grid  # noqa: F401
from .directions import CHAIN_SLACK, DirectionNet, direction_space
from .errors import DomainError
from .geometry import Point


# elements of one working array: chain positions by steps ahead,
# replicates by chain positions or directions, or replicates by pairs
_BLOCK = 1 << 13


def build_net(base: Point, eps: float) -> DirectionNet:
    """The uniform eps-net on the space of directions at base: the grid
    of ``uniform_grid``'s m = ceil(L/eps) steps, at covering radius
    L/m/2 <= eps/2 (the full direction set, at radius 0, on the finite
    direction spaces).  Spheres of directions have no grid and raise
    DomainError."""
    if not eps > 0.0:
        raise DomainError("net resolution must be positive")
    m = uniform_grid(base, eps)[0]  # first: spheres of directions have no grid
    return DirectionNet(base, direction_space(base)._uniform(m))


# ---------------------------------------------------------------------------
# Modulus of continuity


def _band(t: np.ndarray, r: float) -> int:
    """The most steps from a position along a chain (arc positions t,
    nondecreasing) to a later one at a t-gap of at most r (+ slack)."""
    ends = np.searchsorted(t, t + (r + CHAIN_SLACK), side="right")
    return int((ends - np.arange(1, len(t) + 1)).max(initial=0))


def _runs(ds, coords: np.ndarray, idx: np.ndarray, t: np.ndarray,
          radii: np.ndarray) -> tuple[list, list]:
    """Window ends and stray pairs per radius along one chain (net
    indices idx, arc positions t).

    Per radius r, position i looks at the positions ahead at a t-gap of
    at most r (at most band(r) steps), with distances from ``ds.dist``;
    K[i] counts the leading ones within r, and the window of position i
    ends at E[i], the least i' + K[i'] over i' >= i, so every pair inside
    a window is within r.  The pairs within r that no window holds, which
    only rounding leaves, are the strays: a pair of arrays of net indices
    per radius.  The distances go in chunks of ``_BLOCK // len(t)`` steps.
    """
    c, n = coords[idx], len(t)
    pos = np.arange(n)
    bands = [_band(t, r) for r in radii]
    count = np.zeros((len(radii), n), dtype=np.intp)
    open_ = np.ones((len(radii), n), dtype=bool)
    strays = [([], []) for _ in radii]
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
            inside &= gap[:, :cols] <= r + CHAIN_SLACK
            run = np.logical_and.accumulate(inside, axis=1)
            run &= open_[q][:, None]
            count[q] += run.sum(axis=1)
            open_[q] = run[:, -1]
            inside ^= run
            i, col = np.nonzero(inside)
            strays[q][0].append(i)
            strays[q][1].append(i + ks[col])
    ends = []
    for q in range(len(radii)):
        e = pos + count[q]
        end = np.minimum.accumulate(e[::-1])[::-1]
        cut = e - end
        # the pairs (i, b), end[i] < b <= e[i], that the suffix minimum cut
        first = np.repeat(np.cumsum(cut) - cut - end - 1, cut)
        strays[q][0].append(np.repeat(pos, cut))
        strays[q][1].append(np.arange(cut.sum()) - first)
        ends.append(end)
    return ends, [(idx[np.concatenate(a)], idx[np.concatenate(b)]) for a, b in strays]


def _plan(net: DirectionNet, radii: np.ndarray):
    """The chains of the net laid end to end, as net indices; the
    ``_window_plan`` of their windows in that layout; and the stray pairs
    per radius.  None when no chain has two directions."""
    ds, coords = net.space(), net.coords()
    idx, ends, strays = [], [], []
    at = 0
    for chain, t in ds.chains(coords, float(radii.max())):
        if len(chain) > 1:
            e, s = _runs(ds, coords, chain, t, radii)
            idx.append(chain)
            ends.append([x + at for x in e])
            strays.append(s)
            at += len(chain)
    if not idx:
        return None
    ends = [np.concatenate(e) for e in zip(*ends)]
    strays = [tuple(map(np.concatenate, zip(*s))) for s in zip(*strays)]
    return np.concatenate(idx), _window_plan(ends), strays


def _window_plan(ends) -> list:
    """The steps that fold the windows of chains laid end to end, per
    doubling level.

    The window of position i spans i..ends[q][i], inside its chain.
    Extrema come by doubling: level j holds the max and min over 2^j
    consecutive positions, and a window of length L, 2^j <= L < 2^(j+1),
    is the union of two level-j spans.  The most common length is taken
    at every position by slices (positions of another length are
    zeroed); windows of other lengths that the window before does not
    hold are gathered.
    Entry j - 1 lists the level-j steps (q, first, second, zero): the
    two spans as slices and the mask of the positions to zero, or as
    index arrays.
    """
    n = len(ends[0])
    pos = np.arange(n)
    levels = []
    for q, end in enumerate(ends):
        length = end - pos + 1
        if length.max() < 2:
            continue
        common = int(np.bincount(length)[2:].argmax()) + 2
        other = np.ones(n, dtype=bool)
        other[1:] = end[1:] > end[:-1]
        other &= (length >= 2) & (length != common)
        starts, lengths = pos[other], length[other]
        top = int(max(common, lengths.max(initial=0))).bit_length() - 1
        levels += [[] for _ in range(top - len(levels))]
        j = common.bit_length() - 1
        cnt, sh = n - common + 1, common - (1 << j)
        levels[j - 1].append((q, slice(0, cnt), slice(sh, sh + cnt),
                              length[:cnt] != common))
        for j in range(1, top + 1):
            at = np.flatnonzero(lengths >> j == 1)
            if len(at):
                a = starts[at]
                levels[j - 1].append((q, a, a + lengths[at] - (1 << j), None))
    return levels


def _fold_windows(block: np.ndarray, idx: np.ndarray, levels: list, out: np.ndarray):
    """out[:, q] = max(out[:, q], max over the windows of radius q of
    max - min) for the rows of ``block``, by the steps of ``_window_plan``
    on the chain layout ``idx``.  The block is gathered one row of chain
    positions per replicate, so every slice and every maximum runs along
    contiguous rows."""
    hi = mn = np.take(block, idx, axis=1)
    for j, steps in enumerate(levels, 1):
        half = 1 << (j - 1)
        hi = np.maximum(hi[:, :-half], hi[:, half:])
        mn = np.minimum(mn[:, :-half], mn[:, half:])
        for q, first, second, zero in steps:
            w = np.maximum(hi[:, first], hi[:, second])
            w -= np.minimum(mn[:, first], mn[:, second])
            if zero is not None:
                np.copyto(w, 0.0, where=zero)
            np.maximum(out[:, q], w.max(axis=1), out=out[:, q])


def _fold_pairs(values: np.ndarray, ia: np.ndarray, ib: np.ndarray,
                out: np.ndarray):
    """out = max(out, max over pairs of |h(V_a) - h(V_b)|), in pair chunks."""
    chunk = max(1, _BLOCK // max(1, values.shape[0]))
    for a in range(0, len(ia), chunk):
        diff = values[:, ia[a:a + chunk]]
        diff -= values[:, ib[a:a + chunk]]
        np.maximum(out, np.abs(diff, out=diff).max(axis=1), out=out)


def modulus_many(values, net: DirectionNet, radii) -> np.ndarray:
    """w(h, r) per row of ``values`` and per radius (rows are fields).

    w(h, r) is the largest |h(V) - h(U)| over net pairs within angular
    distance r.  The direction space lists chains of net indices (see
    ``directions``) on which the pairs within r of a position form one
    forward run, so w is the largest (max - min) of h over the windows
    of the runs.  Float subtraction rounds monotonically, so
    fl(max - min) is the largest |fl(h(V) - h(U))| over a window and the
    result equals the all-pairs maximum bit for bit; pairs that rounding
    leaves outside the runs are folded in one by one.

    The chains, windows and stray pairs are planned once from the
    geometry, with the chains laid end to end so that each doubling level
    is one step for all of them; then the rows are read and folded a
    block of about ``_BLOCK / m`` replicates at a time.  ``values`` is an
    R x m array or
    any object with ``shape`` (R, m) whose row slices are such arrays, as
    a field formed from its counts a block at a time; memory beyond it is
    O(block x m).  Spheres of directions (euclidean dimension >= 3) have
    no chains and raise DomainError.
    """
    if isinstance(values, np.ndarray) or not hasattr(values, "shape"):
        values = np.atleast_2d(np.asarray(values, dtype=float))
    radii = np.asarray(radii, dtype=float).ravel()
    out = np.zeros((values.shape[0], len(radii)))
    if not len(radii):
        return out
    plan = _plan(net, radii)
    if plan is None:
        return out
    idx, levels, strays = plan
    rows = max(1, _BLOCK // max(len(idx), values.shape[1]))
    for lo in range(0, values.shape[0], rows):
        block, dest = values[lo:lo + rows], out[lo:lo + rows]
        for q, (ia, ib) in enumerate(strays):
            if len(ia):
                _fold_pairs(block, ia, ib, dest[:, q])
        _fold_windows(block, idx, levels, dest)
    return out
