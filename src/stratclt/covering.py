"""Uniform direction grids and dyadic covering profiles, in closed form
without numpy, read from ``geometry.direction_join``: the grid of
m = ceil(L/eps) steps (``uniform_grid``, for every eps-net) is a finite
Gamma, m points on a circle of length L, or 2 + k (m - 1) points on the k
semicircles at a spine point, at covering radius L/m/2.
``stratum_dim_bound`` bounds the fitted growth exponent: 0 on a finite
Gamma, 1 on a circle and k at a spine point, whose directions are
1-dimensional but whose count a doubling of m multiplies by up to
(2 + k) / 2 <= 2^k, so the fit reads a little above 1."""

from __future__ import annotations

import math
from functools import reduce
from operator import add

from .errors import DomainError
from .geometry import Point, Record, direction_join

# the finest scale 2^-COVER_N_MAX of a cover profile, a net or a modulus net
COVER_N_MAX = 16


class CoveringProfile(Record):
    """Dyadic covering counts at the scales 2^-n, n = 1..n_max, and the fitted growth exponent."""

    __slots__ = ("base", "scales", "counts", "d_estimate", "stratum_dim_bound")

    def __init__(self, base: Point, scales: tuple, counts: tuple, d_estimate: float,
                 stratum_dim_bound: float):
        self._fill(base, scales, counts, d_estimate, stratum_dim_bound)

    def to_csv_rows(self):
        yield ("scale", "count")
        yield from zip(self.scales, self.counts)


def _grid(base: Point) -> tuple:
    """(L, size, bound): the grid of m steps at base has size(m) directions
    at covering radius L / m / 2, with L the length of a circle Gamma, pi
    (a semicircle) where a = 1 and 0 on a finite Gamma; bound is the
    module's bound on the fitted growth exponent."""
    a, gamma = direction_join(base)
    if a > 1:
        raise DomainError("direction nets on spheres of dimension >= 2 are not supported")
    if a:
        return math.pi, lambda m: 2 + len(gamma) * (m - 1), len(gamma)
    if isinstance(gamma, tuple):
        return 0.0, lambda m: len(gamma), 0
    return gamma, lambda m: m, 1


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
