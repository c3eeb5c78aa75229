"""Vectorized direction spaces, pairings and direction nets.

The unit tangent sphere at every base point of the model spaces is one
of: a finite set of pi-separated points, a circle with the arc metric,
or k semicircles glued at two poles.  The classes below hold direction
coordinates in numpy arrays so nets, pairing matrices and covariance
kernels can be computed without per-element Python work.  ``dist`` is
the metric, elementwise over broadcast coordinate arrays, and the shared
``cross`` is its outer form.

``chains(coords, reach)`` lists paths through a net as (net indices,
arc positions t), with t nondecreasing along each path.  Every pair of
directions within r <= reach lies on some path at a t-gap of at most r,
and from each position the directions ahead at a t-gap of at most r
that lie within r come first, so they form one contiguous forward run.
Both hold in exact arithmetic; a t-gap can round a few ulps above the
distance it equals, and CHAIN_SLACK on every reach in t absorbs that.

The scalar point layer, ``geometry``, imports none of this, so a run
that needs no direction space (``mean``) loads no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SpaceMismatchError
from .geometry import (_TWO_PI, D_ANGLE, Direction, Point, describe_direction, direction_join,
                       direction_kind)

CHAIN_SLACK = 1e-9


class _Directions:
    def cross(self, a, b) -> np.ndarray:
        """dist from each member of a to each of b (scalars or rows)."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        return self.dist(a[:, None], b[None])

    def to_coord(self, d: Direction) -> np.ndarray:
        """The coordinate row of d: its data, (page, theta) or a unit vector."""
        return np.asarray(d.data, dtype=float)


class DiscreteDirections(_Directions):
    """Finitely many pairwise pi-separated directions (spider apex, lines)."""

    def __init__(self, labels: list):
        self.labels = list(labels)

    def to_coord(self, d: Direction) -> float:
        return float(self.labels.index(d.data[0]))

    def data(self, coords) -> list:
        return [(self.labels[int(round(c))],) for c in coords.tolist()]

    def dist(self, a, b) -> np.ndarray:
        return np.where(a == b, 0.0, math.pi)

    def chains(self, coords, reach: float) -> list:
        """The label order at t = pi x label (equal labels adjacent at
        t-gap 0), or at t = 0 when reach >= pi holds every pair."""
        order = np.argsort(coords, kind="stable")
        t = coords[order] * math.pi if reach < math.pi else np.zeros(len(order))
        return [(order, t)]

    def _uniform(self, m: int) -> np.ndarray:
        """Every direction, whatever m: the grid of a finite set."""
        return np.arange(len(self.labels), dtype=float)


class CircleDirections(_Directions):
    """Directions forming a circle of circumference L with the arc metric."""

    def __init__(self, kind: str, length: float):
        self.kind = kind
        self.length = float(length)

    def to_coord(self, d: Direction) -> float:
        if self.kind == D_ANGLE:
            return d.data[0]
        return math.atan2(d.data[1], d.data[0]) % _TWO_PI

    def data(self, coords) -> list:
        """The angle, or (cos c, sin c) divided by its hypot as ``Direction`` divides it."""
        if self.kind == D_ANGLE:
            return [(c,) for c in coords.tolist()]
        xy = [(math.cos(c), math.sin(c)) for c in coords.tolist()]
        return [(x / math.hypot(x, y), y / math.hypot(x, y)) for x, y in xy]

    def dist(self, a, b) -> np.ndarray:
        d = np.abs(a - b)
        return np.minimum(d, self.length - d)

    def chains(self, coords, reach: float) -> list:
        """The sorted cyclic order, continued past the end by the
        directions within reach of the last, at t = arc length: a t-gap
        is at least the distance and equals it in one of the two cyclic
        orders of a pair."""
        m = len(coords)
        order = np.argsort(coords, kind="stable")
        t = coords[order]
        t = np.concatenate([t, t[:-1] + self.length])
        t = t[:np.searchsorted(t, t[m - 1] + reach + CHAIN_SLACK, side="right")]
        return [(order[np.arange(len(t)) % m], t)]

    def _uniform(self, m: int) -> np.ndarray:
        return self.length * np.arange(m) / m


class SpineDirections(_Directions):
    """Directions at a spine point: k semicircles glued at two poles.

    Coordinates are (page, theta) rows; the poles are (0, 0) and
    (0, pi) and belong to every page.
    """

    def __init__(self, pages: int):
        self.pages = int(pages)

    def data(self, coords) -> list:
        return [(int(round(page)), theta) for page, theta in coords.tolist()]

    def dist(self, a, b) -> np.ndarray:
        """|theta - theta'| on one page, else the shorter through-pole
        sum, formed in two arrays of the output's size."""
        pa, ta = a[..., 0], a[..., 1]
        pb, tb = b[..., 0], b[..., 1]
        out = np.add(ta, tb)
        south = np.subtract(math.pi, tb, out=np.empty_like(out))
        south += math.pi - ta
        np.minimum(out, south, out=out)
        within = np.subtract(ta, tb, out=south)
        np.copyto(out, np.abs(within, out=within), where=pa == pb)
        return out

    def chains(self, coords, reach: float) -> list:
        """Each page line pole-page-pole at t = theta, and for each pair of
        pages p < q and each pole a chain through it: page p's directions
        within reach of the pole, the pole, then page q's, at t = -/+ the
        distance to the pole.  A t-gap is at least the distance; it
        equals it for pairs on one page or with a pole on a page line, and
        for pairs on two pages within reach on a chain through a pole."""
        page, theta = coords[:, 0], coords[:, 1]
        north = np.flatnonzero(theta == 0.0)
        south = np.flatnonzero(theta == math.pi)
        near = reach + CHAIN_SLACK
        lines, out = [], []
        for p in range(self.pages):
            on = np.flatnonzero((page == p) & (theta > 0.0) & (theta < math.pi))
            on = on[np.argsort(theta[on], kind="stable")]
            lines.append(on)
            idx = np.concatenate([north, on, south])
            out.append((idx, theta[idx]))
        for p in range(self.pages):
            for q in range(p + 1, self.pages):
                for pole, gap in ((north, theta), (south, math.pi - theta)):
                    a = lines[p][gap[lines[p]] <= near]
                    b = lines[q][gap[lines[q]] <= near]
                    a = a[np.argsort(-gap[a], kind="stable")]
                    b = b[np.argsort(gap[b], kind="stable")]
                    idx = np.concatenate([a, pole, b])
                    t = np.concatenate([-gap[a], np.zeros(len(pole)), gap[b]])
                    out.append((idx, t))
        return out

    def _uniform(self, m: int) -> np.ndarray:
        rows = [np.array([[0.0, 0.0], [0.0, math.pi]])]
        if m > 1:
            thetas = math.pi / m * np.arange(1, m)
            for p in range(self.pages):
                rows.append(np.column_stack([np.full(m - 1, float(p)), thetas]))
        return np.vstack(rows)


class SphereDirections(_Directions):
    """Unit sphere in euclidean d >= 3, great-circle metric: no uniform
    grid (``covering._grid`` refuses it) and no chains."""

    def dist(self, a, b) -> np.ndarray:
        # 2 atan2(|a - b|, |a + b|) is exact near 0 and pi, where the
        # arccos of a dot product is not
        return 2.0 * np.arctan2(np.linalg.norm(a - b, axis=-1),
                                np.linalg.norm(a + b, axis=-1))

    def chains(self, coords, reach):
        raise DomainError(
            "direction chains on spheres of dimension >= 2 are not supported"
        )


def direction_space(base: Point):
    """The vectorized model of the join S^(a-1) * Gamma of directions at
    base: k semicircles at a spine point (a = 1, Gamma k pages), the sphere
    S^(a-1) where Gamma is empty, else the finite set or circle Gamma."""
    a, gamma = direction_join(base)
    if a:
        return SpineDirections(len(gamma)) if gamma else SphereDirections()
    if isinstance(gamma, tuple):
        return DiscreteDirections(gamma)
    return CircleDirections(direction_kind(base), gamma)


def pairings(base: Point, vectors, coords) -> np.ndarray:
    """<v_i, V_j> = |v_i| cos(min(angle, pi)) for tangent vectors v_i at
    base and unit directions V_j given by direction-space coordinates;
    rows of zero vectors are zero."""
    lengths = np.array([v.length for v in vectors], dtype=float)
    out = np.zeros((len(lengths), len(coords)))
    nonzero = lengths > 0.0
    if nonzero.any():
        ds = direction_space(base)
        rows = np.array([ds.to_coord(v.direction) for v in vectors if not v.is_zero])
        out[nonzero] = lengths[nonzero, None] * np.cos(
            np.minimum(ds.cross(rows, coords), math.pi))
    return out


# ---------------------------------------------------------------------------
# Direction nets


@dataclass(frozen=True, eq=False)
class DirectionNet:
    """Finite ordered net on the unit tangent sphere at a base point: the
    directions as direction-space ``coords()`` and their descriptors
    (``names``), for an explicit net those of the directions given, for a
    uniform net formatted from the coordinates by the first
    ``descriptors()``.  A uniform net's covering radius is
    ``covering.uniform_grid``'s; an explicit net has none.
    """

    base: Point
    _coords: np.ndarray = field(repr=False)
    names: tuple | None = None

    def __len__(self):
        return len(self._coords)

    def space(self):
        return direction_space(self.base)

    def coords(self) -> np.ndarray:
        return self._coords

    def pairwise_distances(self) -> np.ndarray:
        return self.space().cross(self._coords, self._coords)

    def descriptors(self) -> list[str]:
        if self.names is None:  # a uniform net's, formatted once, when first asked for
            kind = direction_kind(self.base)
            object.__setattr__(self, "names", tuple(
                describe_direction(kind, d) for d in self.space().data(self._coords)))
        return list(self.names)


def net_from_directions(base: Point, directions) -> DirectionNet:
    """Wrap an explicit list of directions as a net."""
    dirs = tuple(directions)
    if not dirs:
        raise DomainError("a direction net needs at least one direction")
    for d in dirs:
        if d.base != base:
            raise SpaceMismatchError("net directions must share the base point")
    ds = direction_space(base)
    return DirectionNet(base, np.array([ds.to_coord(d) for d in dirs]),
                        tuple(d.describe() for d in dirs))
