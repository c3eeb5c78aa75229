"""Uniform direction grids and dyadic covering profiles, in closed form
without numpy: the grid of m = ceil(L/eps) steps (``uniform_grid``, for
every eps-net) is the legs or signs, m points on a circle of length L,
or 2 + pages (m - 1) points at a spine point, at covering radius L/m/2.
The dimension bound is that of the directions: 0 on legs and signs, 1 on
a circle and pages at a spine point, one semicircle per page."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add

from .errors import DomainError
from .geometry import _TWO_PI, D_ANGLE, D_LEG, D_PAGE_ANGLE, Point, direction_kind, stratum_of

# the finest scale 2^-COVER_N_MAX of a cover profile, a net or a modulus net
COVER_N_MAX = 16


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


def _grid(base: Point) -> tuple:
    """(L, size, bound): the grid of m steps at base has size(m) directions
    at covering radius L / m / 2 (L = 0 on the finite direction sets), and
    the directions there have dimension at most bound (0 on legs and
    signs, 1 on a circle, pages at a spine point)."""
    sp, kind = base.space, direction_kind(base)
    if kind == D_LEG:
        return 0.0, lambda m: sp.legs, 0
    if kind == D_PAGE_ANGLE:
        return math.pi, lambda m: 2 + sp.pages * (m - 1), sp.pages
    if kind == D_ANGLE:
        return sp.circumference, lambda m: m, 1
    dim = stratum_of(base)[1]
    if dim > 2:
        raise DomainError("direction nets on spheres of dimension >= 2 are not supported")
    return (0.0, lambda m: 2, 0) if dim == 1 else (_TWO_PI, lambda m: m, 1)


def uniform_grid(base: Point, eps: float) -> tuple[int, float]:
    """(m, L / m / 2): the uniform eps-net at base has m = ceil(L / eps)
    steps (at least 1) and covering radius L / m / 2 <= eps / 2."""
    length = _grid(base)[0]
    m = max(1, math.ceil(length / eps))
    return m, length / m / 2.0


def dimension_constant(base: Point, n_max: int) -> CoveringProfile:
    """Covering counts N(2^-n) for n = 1..n_max and the log2 growth slope.

    N(2^-n) is the size of the grid of the 0.5-net, doubled until its
    covering radius is at most 2^-n / 2 (+ 1e-15), so the grids are
    nested.  The slope is the least-squares fit over the finer half of
    the scales, centred on the means of n (exact) and of log2 N, each sum
    taken in scale order.  Constant counts give an exact zero estimate.
    """
    if n_max < 4:
        raise DomainError("need n_max >= 4 for a meaningful slope")
    length, size, bound = _grid(base)
    m = uniform_grid(base, 0.5)[0]
    scales = tuple(2.0 ** (-n) for n in range(1, n_max + 1))
    counts = []
    for eps in scales:
        while length / m / 2.0 > eps / 2.0 + 1e-15:
            m *= 2
        counts.append(size(m))
    slope = 0.0
    if counts[-1] > counts[0]:
        ns = range(n_max // 2 + 1, n_max + 1)
        ys = [math.log2(c) for c in counts[n_max // 2:]]
        n_bar, y_bar = (ns[0] + n_max) / 2.0, reduce(add, ys) / len(ys)
        slope = (reduce(add, [(n - n_bar) * (y - y_bar) for n, y in zip(ns, ys)])
                 / reduce(add, [(n - n_bar) ** 2 for n in ns]))
    return CoveringProfile(base, scales, tuple(counts), slope, float(bound))
