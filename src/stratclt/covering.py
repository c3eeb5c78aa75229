"""Dyadic covering profiles, counted in closed form without numpy: the
uniform grid of m steps on a space of directions (each ``_uniform`` of
``directions``) is its legs or signs, m points on a circle of length L,
or 2 + pages (m - 1) points at a spine point, at covering radius L/m/2."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add

from .errors import DomainError
from .geometry import _TWO_PI, FLAT_CONE, OPEN_BOOK, SPIDER, Point, incident_strata, stratum_of

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
    """(L, size): the grid of m steps at base has size(m) directions at
    covering radius L / m / 2 (L = 0 on the finite direction sets)."""
    sp, (sid, dim) = base.space, stratum_of(base)
    if sp.kind == SPIDER and sid == "apex":
        return 0.0, lambda m: sp.legs
    if sp.kind == OPEN_BOOK and sid == "spine":
        return math.pi, lambda m: 2 + sp.pages * (m - 1)
    if sp.kind == FLAT_CONE and sid == "apex":
        return sp.circumference, lambda m: m
    if dim > 2:
        raise DomainError("direction nets on spheres of dimension >= 2 are not supported")
    return (0.0, lambda m: 2) if dim == 1 else (_TWO_PI, lambda m: m)


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
    length, size = _grid(base)
    m = max(1, math.ceil(length / 0.5))
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
    # the bound: the sum of the direction-space dimensions of the incident strata
    bound = float(sum(max(d - 1, 0) for _sid, d in incident_strata(base)))
    return CoveringProfile(base, scales, tuple(counts), slope, bound)
