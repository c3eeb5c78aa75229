"""Model stratified CAT(0) spaces: points, geodesics, tangent cones.

Four concrete spaces are implemented:

* ``euclidean(d)`` -- flat d-dimensional space, one stratum;
* ``spider(k)`` -- k half-lines glued at an apex (k >= 3);
* ``open_book(k)`` -- k half-planes glued along a common line, the
  spine (k >= 2);
* ``flat_cone(alpha)`` -- the cone over a circle of circumference
  ``alpha >= 2*pi``, flat away from the apex.

All are complete, locally compact CAT(0) geodesic spaces with
closed-form distances, unique geodesics, and explicit tangent cones.
Tangent vectors carry a base point, a direction descriptor and a
nonnegative length; directions at a point are metrized by the angular
(length) metric, which on a flat-cone apex is the arc metric of a
circle of circumference ``alpha`` and may exceed pi.

This module is the scalar point layer: points, strata, distances,
geodesics, directions and the log and exp maps, on tuples of Python
floats, with no numpy import.  The vectorized direction spaces, pairings
and direction nets live in ``directions``.

Each space is R^a x Cone(Gamma): euclidean(d) is R^d with no cone
factor, spider(k) is Cone(k points), open_book(k) is R x Cone(k points)
and flat_cone(alpha) is Cone(circle of length alpha).  ``split`` turns a
point into (s, r, g), its R^a part, its cone radius and its point of
Gamma (a leg or page index, or a circle angle), and ``join`` turns
(s, r, g) back into a point.  ``distance``, ``geodesic_point``,
``log_map`` and ``exp_map`` are each written once on that split:

* the turn rule: seen from (r0, g0) and developed into the chart at g0,
  where (r0, g0) sits at r0 (1, 0), the point (r1, g1) sits at r1 times
  one turn (cos, sin): (1, 0) at the same point of Gamma, (-1, 0) to or
  through the cone point (two points of a finite Gamma, a radius 0, a
  circle gap of pi or more), and (cos d, sin d) at a signed circle gap d
  within pi.  The distance is the hypot of the R^a offset and the chart
  offset (a law of cosines in development form);
* the directions at a point form a join S^(a-1) * Gamma, which
  ``direction_join`` gives as (a, Gamma), Gamma read by ``link``; at a
  cone point a direction is its point of Gamma and, where a = 1, its
  angle in [0, pi] from the +s axis;
* the continuation rule: a geodesic that reaches the cone point along
  (-1, 0) comes out where its end lies (``geodesic_point``) or, for
  ``exp_map``, on the lowest-index other leg or page, or at circle
  offset +pi.

Conventions fixed here and relied on everywhere else:

* boundary identifications are canonicalized (spider radius 0 => leg 0,
  open-book height 0 => page 0, cone radius 0 => angle 0), so point
  equality is tuple equality;
* the angle used in the angular pairing is ``min(d_s, pi)`` even where
  the angular metric itself exceeds pi;
* a flat-cone pair with both radii positive and circle gap >= pi is
  joined through the apex; at a gap of exactly pi that path is still
  the unique geodesic, as in every CAT(0) space.
"""

from __future__ import annotations

import math
import sys
from operator import attrgetter

from .errors import (ConfigError, DomainError, NumericalConsistencyError, SpaceMismatchError,
                     json_number, json_object)

EUCLIDEAN = "euclidean"
SPIDER = "spider"
OPEN_BOOK = "open_book"
FLAT_CONE = "flat_cone"

_TWO_PI = 2.0 * math.pi
_set = object.__setattr__  # how a record's __init__ sets a field


class Record:
    """Frozen record of the numpy-free layer, which loads no ``dataclasses``: its
    fields are ``__slots__`` set in ``__init__``; equal fields make equal records."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r} of a record")
    __delattr__ = __setattr__

    def __setstate__(self, state):  # copy and pickle give (None, {slot: value})
        self._fill(*map(state[1].get, self.__slots__))

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def _fill(self, *values):  # the fields' values in slot order
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)


# ---------------------------------------------------------------------------
# Spaces and points


# kind -> (parameter, type, least value); a flat cone of circumference
# at least 2 pi is CAT(0)
_SPACE_PARAMS = {EUCLIDEAN: ("dim", int, 1), SPIDER: ("legs", int, 3),
                 OPEN_BOOK: ("pages", int, 2), FLAT_CONE: ("circumference", float, _TWO_PI)}


class SpaceSpec(Record):
    """One of the four model spaces, with its defining parameter."""

    __slots__ = ("kind", "dim", "legs", "pages", "circumference")

    def __init__(self, kind: str, dim: int = 0, legs: int = 0, pages: int = 0,
                 circumference: float = 0.0):
        self._fill(kind, dim, legs, pages, circumference)
        if not isinstance(self.kind, str) or self.kind not in _SPACE_PARAMS:
            raise DomainError(f"unknown space kind {self.kind!r}")
        name, cast, least = _SPACE_PARAMS[self.kind]
        value = json_number(getattr(self, name),
                            f"the numeric {name!r} of a {self.kind} space", cast)
        if not value >= least:
            raise DomainError(f"{self.kind} {name} must be >= {least:.6g}, got {value}")
        _set(self, name, value)

    @staticmethod
    def euclidean(dim: int) -> "SpaceSpec":
        return SpaceSpec(EUCLIDEAN, dim=dim)

    @staticmethod
    def spider(legs: int) -> "SpaceSpec":
        return SpaceSpec(SPIDER, legs=legs)

    @staticmethod
    def open_book(pages: int) -> "SpaceSpec":
        return SpaceSpec(OPEN_BOOK, pages=pages)

    @staticmethod
    def flat_cone(circumference: float) -> "SpaceSpec":
        return SpaceSpec(FLAT_CONE, circumference=circumference)

    def to_json(self) -> dict:
        name = _SPACE_PARAMS[self.kind][0]
        return {"kind": self.kind, name: getattr(self, name)}

    @staticmethod
    def from_json(obj) -> "SpaceSpec":
        """The space of a JSON spec: its ``kind`` and that kind's parameter."""
        kind = json_object(obj, "space spec", required=("kind",),
                           optional=tuple(p[0] for p in _SPACE_PARAMS.values()))["kind"]
        if not isinstance(kind, str) or kind not in _SPACE_PARAMS:
            raise DomainError(f"unknown space kind {kind!r}")
        name = _SPACE_PARAMS[kind][0]
        return SpaceSpec(kind, **{name: json_object(obj, f"{kind} space spec",
                                                    required=("kind", name))[name]})


def _wrap_angle(phi: float, alpha: float) -> float:
    """phi reduced into [0, alpha); a tiny negative phi rounds up to alpha, i.e. 0."""
    phi = phi % alpha
    return 0.0 if phi == alpha else phi


def _coordinate(x, index: bool = False):
    """x as an int index or a finite float by ``json_number``'s rule, numpy's
    numbers taken as Python's, else a DomainError."""
    # a numpy number exists only once numpy is loaded, so none is imported here
    np = sys.modules.get("numpy")
    if np is not None and isinstance(x, (np.integer, np.floating)):
        x = x.item()
    try:
        return json_number(x, "a coordinate", int if index else float)
    except ConfigError as exc:
        raise DomainError(str(exc)) from None


# kind -> coordinate names (euclidean: d of them); only leg and page are indices
_LAYOUTS = {SPIDER: ("leg", "r"), OPEN_BOOK: ("page", "s", "t"), FLAT_CONE: ("r", "phi")}


class Point(Record):
    """A point of a model space, stored in canonical coordinates.

    Coordinate layout: euclidean ``(x1, .., xd)``; spider ``(leg, r)``;
    open book ``(page, s, t)``; flat cone ``(r, phi)`` with phi reduced
    into ``[0, alpha)``.
    """

    __slots__ = ("space", "coords")

    def __init__(self, space: SpaceSpec, coords: tuple):
        sp, c = space, coords
        names = _LAYOUTS.get(sp.kind, ("x",) * sp.dim)
        if len(c) != len(names):
            raise DomainError(f"{sp.kind} point needs {len(names)} coordinates, got {len(c)}")
        indexed = sp.kind in (SPIDER, OPEN_BOOK)
        try:
            c = tuple(_coordinate(x, indexed and i == 0) for i, x in enumerate(c))
        except DomainError as exc:
            raise DomainError(f"malformed {sp.kind} coordinates {c!r}: {exc}") from exc
        if indexed:
            # (index, .., length): a length 0 lies on every leg or page: index 0
            if c[0] not in link(sp):
                raise DomainError(f"{sp.kind} point is ({', '.join(names)}) with "
                                  f"0 <= {names[0]} < {len(link(sp))}")
            if c[-1] < 0:
                raise DomainError(f"{sp.kind} point needs {names[-1]} >= 0")
            if c[-1] == 0.0:
                c = (0, *c[1:])
        elif sp.kind == FLAT_CONE:
            if c[0] < 0:
                raise DomainError("cone radius must be >= 0")
            c = (c[0], _wrap_angle(c[1], sp.circumference) if c[0] > 0.0 else 0.0)
        _set(self, "space", sp)
        _set(self, "coords", c)

    @staticmethod
    def of(space: SpaceSpec, coords) -> "Point":
        return Point(space, tuple(coords))

    def to_coords(self) -> list:
        return list(self.coords)


def apex(space: SpaceSpec) -> Point:
    """The singular point of a spider, (0, 0.0), or flat cone, (0.0, 0.0)."""
    if space.kind not in (SPIDER, FLAT_CONE):
        raise DomainError(f"{space.kind} has no apex")
    return Point(space, (0, 0.0))


# ---------------------------------------------------------------------------
# Strata


def stratum_of(p: Point) -> tuple[str, int]:
    """Identify the stratum containing p and its dimension."""
    return _stratum(p.space, *split(p))


def _stratum(space: SpaceSpec, s: tuple, r: float, g) -> tuple[str, int]:
    """``stratum_of`` the point with split (s, r, g)."""
    if g is None:
        return EUCLIDEAN, len(s)
    if r == 0.0:
        return ("spine", 1) if s else ("apex", 0)
    return (f"leg{g}", 1) if space.kind == SPIDER else (f"page{g}", 2) if s else ("cone", 2)


# ---------------------------------------------------------------------------
# The cone split: every space is R^a x Cone(Gamma)


def split(p: Point) -> tuple:
    """(s, r, g): the R^a part of p, its cone radius and its point of Gamma,
    a leg or page index or a circle angle (None on euclidean, where r = 0)."""
    c, kind = p.coords, p.space.kind
    if kind == EUCLIDEAN:
        return c, 0.0, None
    if kind == OPEN_BOOK:
        return c[1:2], c[2], c[0]
    return ((), c[1], c[0]) if kind == SPIDER else ((), c[0], c[1])


def join(space: SpaceSpec, s: tuple, r: float, g) -> Point:
    """The point of space with R^a part s, cone radius r and point g of Gamma."""
    kind = space.kind
    if kind == EUCLIDEAN:
        return Point(space, s)
    if kind == OPEN_BOOK:
        return Point(space, (g, *s, r))
    return Point(space, (g, r) if kind == SPIDER else (r, g))


def link(space: SpaceSpec):
    """Gamma: the leg or page labels, or the circle's length; None on euclidean."""
    return space.circumference or tuple(range(space.legs or space.pages)) or None


def _same_space(p: Point, q: Point):
    if p.space != q.space:
        raise SpaceMismatchError("points live in different spaces")


# where a point of Cone(Gamma) sits, per unit radius, in the chart developed
# at its own point of Gamma
_AXIS = (1.0, 0.0)


def _turn(space: SpaceSpec, r0: float, g0, r1: float, g1) -> tuple:
    """The unit vector along which (r1, g1) lies from the cone point, in the
    chart of Cone(Gamma) developed at g0, where (r0, g0) sits at r0 (1, 0):
    (1, 0) at the same point of Gamma, (-1, 0) to or through the cone point
    and (cos d, sin d) within pi on a circle.  The chart is a plane on a
    circle, a line (the first entry) on a finite Gamma and empty on euclidean."""
    if g0 is None:
        return ()
    turn = _AXIS if g0 == g1 else (-1.0, 0.0)
    alpha = space.circumference  # nonzero only where Gamma is a circle
    if not alpha:
        return turn[:1]
    if g0 != g1 and r0 > 0.0 and r1 > 0.0:
        # both angles lie in [0, alpha); reducing a tiny negative difference
        # modulo alpha would round it to alpha and then to an offset of 0
        delta = g1 - g0
        if delta > alpha / 2.0:
            delta -= alpha
        elif delta <= -alpha / 2.0:
            delta += alpha
        if abs(delta) < math.pi:
            turn = (math.cos(delta), math.sin(delta))
    return turn


def _beyond(space: SpaceSpec, g):
    """Where a geodesic from g continues past the cone point: the lowest
    other index, or g + pi on a circle."""
    return g + math.pi if space.circumference else (1 if g == 0 else 0)


def _undevelop(chart, g, past) -> tuple:
    """(r, g) of the point at chart position (x, y) developed at g; a point
    on the negative x axis lies past the cone point, at past."""
    x, y = (*chart, 0.0, 0.0)[:2]
    if y == 0.0:
        return (x, g) if x >= 0.0 else (-x, past)
    return math.hypot(x, y), g + math.atan2(y, x)


# ---------------------------------------------------------------------------
# Distance and geodesics


def distance(p: Point, q: Point) -> float:
    """Geodesic distance between two points of the same model space."""
    _same_space(p, q)
    (s0, r0, g0), (s1, r1, g1) = split(p), split(q)
    turn = _turn(p.space, r0, g0, r1, g1)
    # law of cosines in development form: stable when the points nearly agree
    return math.hypot(*(a - b for a, b in zip(s0, s1)),
                      *(r0 * e - r1 * u for e, u in zip(_AXIS, turn)))


def _check_fraction(t: float):
    if not 0.0 <= t <= 1.0:
        raise DomainError("geodesic fraction must lie in [0, 1]")


def geodesic_point(p: Point, q: Point, t: float) -> Point:
    """The point at arclength fraction t along the geodesic from p to q."""
    _same_space(p, q)
    _check_fraction(t)
    if t == 0.0 or p.coords == q.coords:
        return p
    if t == 1.0:
        return q
    (s0, r0, g0), (s1, r1, g1) = split(p), split(q)
    turn = _turn(p.space, r0, g0, r1, g1)
    s = tuple(a + t * (b - a) for a, b in zip(s0, s1))
    chart = (r0 * e + t * (r1 * u - r0 * e) for e, u in zip(_AXIS, turn))
    return join(p.space, s, *_undevelop(chart, g0, g1))


# ---------------------------------------------------------------------------
# Directions and tangent vectors

# descriptor tags
D_LEG = "leg"          # spider apex: leg index
D_SIGN = "sign"        # spider leg interior: +1 away from apex
D_PAGE_ANGLE = "page_angle"  # open-book spine point: (page, theta in [0, pi])
D_ANGLE = "angle"      # flat cone apex: circle coordinate in [0, alpha)
D_VECTOR = "vector"    # smooth 2-d charts and euclidean: unit vector
# the descriptor of each kind's data; a vector's joins its entries
_DESCRIPTORS = {D_LEG: "leg:{}", D_SIGN: "sign:{:+d}", D_PAGE_ANGLE: "page:{},theta:{:.17g}",
                D_ANGLE: "angle:{:.17g}"}


def _directions(p: Point) -> tuple:
    """(kind, a, Gamma, d) from one split of p: the ``direction_kind``, the
    ``direction_join`` and the dimension d of p's stratum."""
    s, r, g = split(p)
    spider = p.space.kind == SPIDER
    if g is not None and r == 0.0:  # a spine point where a = 1, else an apex
        return D_PAGE_ANGLE if s else D_LEG if spider else D_ANGLE, len(s), link(p.space), len(s)
    d = _stratum(p.space, s, r, g)[1]  # not len(s) + 1: the flat cone is a plane off its apex
    return (D_SIGN if spider else D_VECTOR,
            *((0, (1, -1)) if d == 1 else (0, _TWO_PI) if d == 2 else (d, None)), d)


def direction_join(p: Point) -> tuple:
    """(a, Gamma): the unit directions at p form the join S^(a-1) * Gamma.
    At a cone point a is the dimension of the R^a factor and Gamma the
    ``link``; at a smooth point of dimension d they form S^(d-1), given
    as the signs (0, (1, -1)), the circle (0, 2 pi) or (d, None)."""
    return _directions(p)[1:3]


def direction_kind(p: Point) -> str:
    """The one kind of every unit direction at p: legs at a spider apex,
    signs on a leg, page angles at a spine point, angles at a cone apex
    and vectors everywhere else."""
    return _directions(p)[0]


class Direction(Record):
    """A unit direction at a base point (an element of the direction space)."""

    __slots__ = ("base", "kind", "data")

    def __init__(self, base: Point, kind: str, data: tuple):
        k, d = kind, data
        exists, a, gamma, dim = _directions(base)
        if k != exists:
            raise DomainError(f"no {k!r} directions exist at {base.to_coords()} "
                              f"in {base.space.kind}; the directions there are {exists!r}")
        arity = dim if k == D_VECTOR else 1 + a
        if len(d) != arity:
            raise DomainError(f"a {k!r} direction here takes {arity} coordinate(s), got {len(d)}")
        if k == D_ANGLE:
            d = (_wrap_angle(_coordinate(d[0]), gamma),)
        elif k == D_VECTOR:
            v = tuple(_coordinate(x) for x in d)
            n = math.hypot(*v)
            if not math.isfinite(n) or n == 0.0:
                raise DomainError("direction vector must be nonzero and finite")
            d = tuple(x / n for x in v)
        else:  # a label of Gamma and, at a spine point, its angle from the +s axis
            label, *theta = _coordinate(d[0], True), *map(_coordinate, d[1:])
            if label not in gamma or not all(0.0 <= t <= math.pi for t in theta):
                raise DomainError(f"a {k!r} direction here is a label in {list(gamma)}"
                                  f"{' and an angle in [0, pi]' if theta else ''}, got {list(d)}")
            # the two spine poles belong to every page
            d = (0 if theta and theta[0] in (0.0, math.pi) else label, *theta)
        _set(self, "base", base)
        _set(self, "kind", k)
        _set(self, "data", d)

    def describe(self) -> str:
        """Compact printable descriptor (used in CSV headers)."""
        return describe_direction(self.kind, self.data)


def describe_direction(kind: str, data: tuple) -> str:
    """The descriptor of the direction of this kind and canonical data."""
    if kind == D_VECTOR:
        return "vec:" + ",".join(f"{x:.17g}" for x in data)
    return _DESCRIPTORS[kind].format(*data)


class TangentVector(Record):
    """Element of the tangent cone: direction plus nonnegative length.

    Length zero is the cone apex; all zero vectors at a base point are
    equal and carry no direction.
    """

    __slots__ = ("base", "direction", "length")

    def __init__(self, base: Point, direction: Direction | None, length: float):
        ln = float(length)
        if not math.isfinite(ln) or ln < 0.0:
            raise DomainError("tangent vector length must be finite and >= 0")
        if ln == 0.0:
            direction = None
        elif direction is None:
            raise DomainError("nonzero tangent vector needs a direction")
        elif direction.base != base:
            raise SpaceMismatchError("direction is based at a different point")
        _set(self, "base", base)
        _set(self, "direction", direction)
        _set(self, "length", ln)

    @property
    def is_zero(self) -> bool:
        return self.length == 0.0


def zero_vector(base: Point) -> TangentVector:
    return TangentVector(base, None, 0.0)


# ---------------------------------------------------------------------------
# Log and exp maps


def log_map(base: Point, x: Point) -> TangentVector:
    """Initial direction and length of the unique shortest path base -> x."""
    _same_space(base, x)
    if base.coords == x.coords:
        return zero_vector(base)
    (s0, r0, g0), (s1, r1, g1) = split(base), split(x)
    ds = tuple(b - a for a, b in zip(s0, s1))
    if g0 is not None and r0 == 0.0:
        # at a cone point: x's point (g, theta) of the join S^(a-1) * Gamma
        ln = math.hypot(*ds, r1)
        data = (g1, *(math.atan2(r1, d) for d in ds))
    else:
        turn = _turn(base.space, r0, g0, r1, g1)
        vec = (*ds, *(r1 * u - r0 * e for e, u in zip(_AXIS, turn)))
        ln = math.hypot(*vec)
        # a unit vector of one entry is a sign
        data = vec if len(vec) > 1 else (math.copysign(1.0, vec[0]),)
    if ln == 0.0:  # an offset that underflows
        return zero_vector(base)
    if ln == math.inf:  # an offset beyond the floats
        raise NumericalConsistencyError(f"the log map from {base.to_coords()} to "
                                        f"{x.to_coords()} leaves the float range")
    return TangentVector(base, Direction(base, direction_kind(base), data), ln)


def exp_map(base: Point, v: TangentVector) -> Point:
    """Point reached by following v from its base for length |v|.

    At smooth base points a geodesic that hits a singular stratum is
    continued deterministically (lowest-index other leg/page, or +pi
    around a cone apex).
    """
    if v.base != base:
        raise SpaceMismatchError("tangent vector is based at a different point")
    if v.is_zero:
        return base
    s0, r0, g0 = split(base)
    ln, data = v.length, v.direction.data
    if g0 is not None and r0 == 0.0:
        # at a cone point: data is a point (g, theta) of the join, theta
        # the angle from the +s axis, given only when a = 1
        g, *theta = data
        s = tuple(x + ln * math.cos(th) for x, th in zip(s0, theta))
        return join(base.space, s, ln * math.sin(theta[0]) if theta else ln, g)
    s = tuple(x + ln * u for x, u in zip(s0, data))
    chart = (r0 * e + ln * u for e, u in zip(_AXIS, data[len(s0):]))
    return join(base.space, s, *_undevelop(chart, g0, _beyond(base.space, g0)))


# ---------------------------------------------------------------------------
# The vectorized direction spaces live in ``directions``, which loads numpy;
# their names are still read here, the module imported on first access.

_DIRECTIONS = frozenset(
    "CHAIN_SLACK CircleDirections DirectionNet DiscreteDirections SphereDirections "
    "SpineDirections direction_space net_from_directions pairings".split())


def __getattr__(name: str):
    if name not in _DIRECTIONS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import directions
    value = globals()[name] = getattr(directions, name)
    return value
