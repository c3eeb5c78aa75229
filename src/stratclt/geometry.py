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

Conventions fixed here and relied on everywhere else:

* boundary identifications are canonicalized (spider radius 0 => leg 0,
  open-book height 0 => page 0, cone radius 0 => angle 0), so point
  equality is tuple equality;
* the angle used in the angular pairing is ``min(d_s, pi)`` even where
  the angular metric itself exceeds pi;
* a flat-cone pair with both radii positive and circle gap >= pi is
  joined through the apex; at a gap of exactly pi that path is still
  the unique geodesic, as in every CAT(0) space;
* geodesic continuation through a singular stratum is deterministic:
  through a spider apex or across a spine the path continues into the
  lowest-index other leg/page, and through a cone apex it continues at
  circle offset +pi.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import ConfigError, DomainError, SpaceMismatchError, json_number, reject_unknown_keys

EUCLIDEAN = "euclidean"
SPIDER = "spider"
OPEN_BOOK = "open_book"
FLAT_CONE = "flat_cone"

_TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Spaces and points


# kind -> (parameter, type, least value); a flat cone of circumference
# at least 2 pi is CAT(0)
_SPACE_PARAMS = {EUCLIDEAN: ("dim", int, 1), SPIDER: ("legs", int, 3),
                 OPEN_BOOK: ("pages", int, 2), FLAT_CONE: ("circumference", float, _TWO_PI)}


@dataclass(frozen=True)
class SpaceSpec:
    """One of the four model spaces, with its defining parameter."""

    kind: str
    dim: int = 0
    legs: int = 0
    pages: int = 0
    circumference: float = 0.0

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _SPACE_PARAMS:
            raise DomainError(f"unknown space kind {self.kind!r}")
        name, cast, least = _SPACE_PARAMS[self.kind]
        value = json_number(getattr(self, name),
                            f"the numeric {name!r} of a {self.kind} space", cast)
        if not value >= least:
            raise DomainError(f"{self.kind} {name} must be >= {least:.6g}, got {value}")
        object.__setattr__(self, name, value)

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
    def from_json(obj: dict) -> "SpaceSpec":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise DomainError("space spec must be an object with a 'kind' field")
        kind = obj["kind"]
        if not isinstance(kind, str) or kind not in _SPACE_PARAMS:
            raise DomainError(f"unknown space kind {kind!r}")
        name = _SPACE_PARAMS[kind][0]
        reject_unknown_keys(obj, ("kind", name), f"{kind} space spec")
        return SpaceSpec(kind, **{name: obj.get(name)})


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
        v = json_number(x, "a coordinate", int if index else float)
    except ConfigError as exc:
        raise DomainError(str(exc)) from None
    if not math.isfinite(v):
        raise DomainError(f"a coordinate must be finite, got {x!r}")
    return v


# kind -> coordinate names (euclidean: d of them); only leg and page are indices
_LAYOUTS = {SPIDER: ("leg", "r"), OPEN_BOOK: ("page", "s", "t"), FLAT_CONE: ("r", "phi")}


@dataclass(frozen=True)
class Point:
    """A point of a model space, stored in canonical coordinates.

    Coordinate layout: euclidean ``(x1, .., xd)``; spider ``(leg, r)``;
    open book ``(page, s, t)``; flat cone ``(r, phi)`` with phi reduced
    into ``[0, alpha)``.
    """

    space: SpaceSpec
    coords: tuple

    def __post_init__(self):
        sp, c = self.space, self.coords
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
            count = sp.legs if sp.kind == SPIDER else sp.pages
            if not 0 <= c[0] < count:
                raise DomainError(f"{sp.kind} point is ({', '.join(names)}) with "
                                  f"0 <= {names[0]} < {count}")
            if c[-1] < 0:
                raise DomainError(f"{sp.kind} point needs {names[-1]} >= 0")
            if c[-1] == 0.0:
                c = (0, *c[1:])
        elif sp.kind == FLAT_CONE:
            if c[0] < 0:
                raise DomainError("cone radius must be >= 0")
            c = (c[0], _wrap_angle(c[1], sp.circumference) if c[0] > 0.0 else 0.0)
        object.__setattr__(self, "coords", c)

    @staticmethod
    def of(space: SpaceSpec, coords) -> "Point":
        try:
            return Point(space, tuple(coords))
        except TypeError as exc:
            raise DomainError(f"point coordinates must be a list, got {coords!r}") from exc

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
    sp = p.space
    if sp.kind == EUCLIDEAN:
        return (EUCLIDEAN, sp.dim)
    if sp.kind == SPIDER:
        leg, r = p.coords
        return ("apex", 0) if r == 0.0 else (f"leg{leg}", 1)
    if sp.kind == OPEN_BOOK:
        page, _s, t = p.coords
        return ("spine", 1) if t == 0.0 else (f"page{page}", 2)
    r, _phi = p.coords
    return ("apex", 0) if r == 0.0 else ("cone", 2)


# ---------------------------------------------------------------------------
# Distance


def _same_space(p: Point, q: Point):
    if p.space != q.space:
        raise SpaceMismatchError("points live in different spaces")


def _cone_gap(space: SpaceSpec, phi1: float, phi2: float) -> float:
    d = abs(phi1 - phi2)
    return min(d, space.circumference - d)


def distance(p: Point, q: Point) -> float:
    """Geodesic distance between two points of the same model space."""
    _same_space(p, q)
    sp = p.space
    if sp.kind == EUCLIDEAN:
        return math.dist(p.coords, q.coords)
    if sp.kind == SPIDER:
        l1, r1 = p.coords
        l2, r2 = q.coords
        # radius 0 is stored on leg 0, so the apex needs no branch
        return abs(r1 - r2) if l1 == l2 else r1 + r2
    if sp.kind == OPEN_BOOK:
        p1, s1, t1 = p.coords
        p2, s2, t2 = q.coords
        if p1 == p2 or t1 == 0.0 or t2 == 0.0:
            # within one page chart (spine points belong to every page)
            return math.hypot(s1 - s2, t1 - t2)
        return math.hypot(s1 - s2, t1 + t2)
    r1, phi1 = p.coords
    r2, phi2 = q.coords
    if r1 == 0.0 or r2 == 0.0:
        return r1 + r2
    gap = _cone_gap(sp, phi1, phi2)
    ang = min(gap, math.pi)
    # law of cosines in development form: stable when the points nearly agree
    return math.hypot(r1 - r2 * math.cos(ang), r2 * math.sin(ang))


# ---------------------------------------------------------------------------
# Geodesics


def _check_fraction(t: float):
    if not 0.0 <= t <= 1.0:
        raise DomainError("geodesic fraction must lie in [0, 1]")


def _cone_signed_gap(space: SpaceSpec, phi_from: float, phi_to: float) -> float:
    """Signed circle offset of the shorter route from phi_from to phi_to."""
    alpha = space.circumference
    # both angles lie in [0, alpha); reducing a tiny negative difference
    # modulo alpha would round it to alpha and then to an offset of 0
    delta = phi_to - phi_from
    if delta > alpha / 2.0:
        return delta - alpha
    return delta + alpha if delta <= -alpha / 2.0 else delta


def geodesic_point(p: Point, q: Point, t: float) -> Point:
    """The point at arclength fraction t along the geodesic from p to q."""
    _same_space(p, q)
    _check_fraction(t)
    if t == 0.0 or p.coords == q.coords:
        return p
    if t == 1.0:
        return q
    sp = p.space
    if sp.kind == EUCLIDEAN:
        return Point(sp, tuple(a + t * (b - a) for a, b in zip(p.coords, q.coords)))
    if sp.kind == SPIDER:
        l1, r1 = p.coords
        l2, r2 = q.coords
        if l1 == l2 or r1 == 0.0 or r2 == 0.0:
            if r1 == 0.0:
                return Point(sp, (l2, t * r2))
            if r2 == 0.0:
                return Point(sp, (l1, (1.0 - t) * r1))
            return Point(sp, (l1, r1 + t * (r2 - r1)))
        arc = t * (r1 + r2)
        if arc <= r1:
            return Point(sp, (l1, r1 - arc))
        return Point(sp, (l2, arc - r1))
    if sp.kind == OPEN_BOOK:
        p1, s1, t1 = p.coords
        p2, s2, t2 = q.coords
        s = s1 + t * (s2 - s1)
        if p1 == p2 or t1 == 0.0 or t2 == 0.0:
            return Point(sp, (p1 if t1 > 0.0 else p2, s, t1 + t * (t2 - t1)))
        # unfold page of q across the spine into h < 0
        h = t1 + t * (-t2 - t1)
        if h >= 0.0:
            return Point(sp, (p1, s, h))
        return Point(sp, (p2, s, -h))
    r1, phi1 = p.coords
    r2, phi2 = q.coords
    if r1 == 0.0:
        return Point(sp, (t * r2, phi2))
    if r2 == 0.0:
        return Point(sp, ((1.0 - t) * r1, phi1))
    if _cone_gap(sp, phi1, phi2) >= math.pi:
        arc = t * (r1 + r2)
        if arc <= r1:
            return Point(sp, (r1 - arc, phi1))
        return Point(sp, (arc - r1, phi2))
    # develop the wedge: p at angle 0, q at signed angle delta
    delta = _cone_signed_gap(sp, phi1, phi2)
    x1, y1 = r1, 0.0
    x2, y2 = r2 * math.cos(delta), r2 * math.sin(delta)
    x, y = x1 + t * (x2 - x1), y1 + t * (y2 - y1)
    r = math.hypot(x, y)
    if r == 0.0:
        return apex(sp)
    psi = math.atan2(y, x)
    return Point(sp, (r, phi1 + psi))


# ---------------------------------------------------------------------------
# Directions and tangent vectors

# descriptor tags
D_LEG = "leg"          # spider apex: leg index
D_SIGN = "sign"        # spider leg interior / 1-d line: +1 away from apex
D_PAGE_ANGLE = "page_angle"  # open-book spine point: (page, theta in [0, pi])
D_ANGLE = "angle"      # flat cone apex: circle coordinate in [0, alpha)
D_VECTOR = "vector"    # smooth 2-d charts and euclidean: unit vector
# the descriptor of each kind's data; a vector's joins its entries
_DESCRIPTORS = {D_LEG: "leg:{}", D_SIGN: "sign:{:+d}", D_PAGE_ANGLE: "page:{},theta:{:.17g}",
                D_ANGLE: "angle:{:.17g}"}


def direction_kind(p: Point) -> str:
    """The one kind of every unit direction at p: legs at a spider apex,
    signs on a leg, page angles at a spine point, angles at a cone apex
    and vectors everywhere else."""
    sid, _ = stratum_of(p)
    if sid == "apex":
        return D_LEG if p.space.kind == SPIDER else D_ANGLE
    if sid == "spine":
        return D_PAGE_ANGLE
    return D_SIGN if p.space.kind == SPIDER else D_VECTOR


@dataclass(frozen=True)
class Direction:
    """A unit direction at a base point (an element of the direction space)."""

    base: Point
    kind: str
    data: tuple

    def __post_init__(self):
        sp = self.base.space
        k, d = self.kind, self.data
        exists = direction_kind(self.base)
        if k != exists:
            raise DomainError(f"no {k!r} directions exist at {self.base.to_coords()} "
                              f"in {sp.kind}; the directions there are {exists!r}")
        arity = 2 if k == D_PAGE_ANGLE else stratum_of(self.base)[1] if k == D_VECTOR else 1
        if len(d) != arity:
            raise DomainError(f"a {k!r} direction here takes {arity} coordinate(s), got {len(d)}")
        if k == D_LEG:
            leg = _coordinate(d[0], True)
            if not 0 <= leg < sp.legs:
                raise DomainError("leg index out of range")
            d = (leg,)
        elif k == D_SIGN:
            s = _coordinate(d[0], True)
            if s not in (-1, 1):
                raise DomainError("sign direction must be +1 or -1")
            d = (s,)
        elif k == D_PAGE_ANGLE:
            page, theta = d
            page, theta = _coordinate(page, True), _coordinate(theta)
            if not 0.0 <= theta <= math.pi:
                raise DomainError("page angle must lie in [0, pi]")
            if not 0 <= page < sp.pages:
                raise DomainError("page index out of range")
            if theta == 0.0 or theta == math.pi:
                page = 0  # the two spine poles belong to every page
            d = (page, theta)
        elif k == D_ANGLE:
            d = (_wrap_angle(_coordinate(d[0]), sp.circumference),)
        else:
            v = tuple(_coordinate(x) for x in d)
            n = math.hypot(*v)
            if not math.isfinite(n) or n == 0.0:
                raise DomainError("direction vector must be nonzero and finite")
            d = tuple(x / n for x in v)
        object.__setattr__(self, "data", d)

    def describe(self) -> str:
        """Compact printable descriptor (used in CSV headers)."""
        return describe_direction(self.kind, self.data)


def describe_direction(kind: str, data: tuple) -> str:
    """The descriptor of the direction of this kind and canonical data."""
    if kind == D_VECTOR:
        return "vec:" + ",".join(f"{x:.17g}" for x in data)
    return _DESCRIPTORS[kind].format(*data)


@dataclass(frozen=True)
class TangentVector:
    """Element of the tangent cone: direction plus nonnegative length.

    Length zero is the cone apex; all zero vectors at a base point are
    equal and carry no direction.
    """

    base: Point
    direction: Direction | None
    length: float

    def __post_init__(self):
        ln = float(self.length)
        if not math.isfinite(ln) or ln < 0.0:
            raise DomainError("tangent vector length must be finite and >= 0")
        if ln == 0.0:
            object.__setattr__(self, "direction", None)
        else:
            if self.direction is None:
                raise DomainError("nonzero tangent vector needs a direction")
            if self.direction.base != self.base:
                raise SpaceMismatchError("direction is based at a different point")
        object.__setattr__(self, "length", ln)

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
    sp = base.space
    if sp.kind == EUCLIDEAN:
        diff = tuple(b - a for a, b in zip(base.coords, x.coords))
        return _vector(base, diff, math.dist(x.coords, base.coords))
    if sp.kind == SPIDER:
        l0, r0 = base.coords
        l1, r1 = x.coords
        if r0 == 0.0:
            return TangentVector(base, Direction(base, D_LEG, (l1,)), r1)
        if l1 == l0 and r1 > 0.0:
            sign = 1 if r1 > r0 else -1
            return TangentVector(base, Direction(base, D_SIGN, (sign,)), abs(r1 - r0))
        # through the apex (or to it)
        return TangentVector(base, Direction(base, D_SIGN, (-1,)), r0 + r1)
    if sp.kind == OPEN_BOOK:
        pg0, s0, t0 = base.coords
        pg1, s1, t1 = x.coords
        if t0 == 0.0:
            ln = math.hypot(s1 - s0, t1)
            theta = math.atan2(t1, s1 - s0)
            return TangentVector(base, Direction(base, D_PAGE_ANGLE, (pg1, theta)), ln)
        if pg1 == pg0 or t1 == 0.0:
            vec = (s1 - s0, t1 - t0)
        else:
            vec = (s1 - s0, -t1 - t0)  # unfold x's page across the spine
        return _vector(base, vec, math.hypot(*vec))
    r0, phi0 = base.coords
    r1, phi1 = x.coords
    if r0 == 0.0:
        return TangentVector(base, Direction(base, D_ANGLE, (phi1,)), r1)
    if r1 == 0.0:
        return TangentVector(base, Direction(base, D_VECTOR, (-1.0, 0.0)), r0)
    if _cone_gap(sp, phi0, phi1) >= math.pi:
        return TangentVector(base, Direction(base, D_VECTOR, (-1.0, 0.0)), r0 + r1)
    delta = _cone_signed_gap(sp, phi0, phi1)
    vx = r1 * math.cos(delta) - r0
    vy = r1 * math.sin(delta)
    return _vector(base, (vx, vy), math.hypot(vx, vy))


def _vector(base: Point, vec: tuple, ln: float) -> TangentVector:
    """Length ln along chart vector vec; zero if ln is (an offset that underflows)."""
    if ln == 0.0:
        return zero_vector(base)
    return TangentVector(base, Direction(base, D_VECTOR, vec), ln)


def _other_index(i: int) -> int:
    """Deterministic continuation target: lowest index different from i."""
    return 1 if i == 0 else 0


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
    sp = base.space
    d = v.direction
    ln = v.length
    if sp.kind == EUCLIDEAN:
        return Point(sp, tuple(x + ln * u for x, u in zip(base.coords, d.data)))
    if sp.kind == SPIDER:
        l0, r0 = base.coords
        if d.kind == D_LEG:
            return Point(sp, (d.data[0], ln))
        if d.data[0] == 1:
            return Point(sp, (l0, r0 + ln))
        if ln <= r0:
            return Point(sp, (l0, r0 - ln))
        return Point(sp, (_other_index(l0), ln - r0))
    if sp.kind == OPEN_BOOK:
        pg0, s0, t0 = base.coords
        if d.kind == D_PAGE_ANGLE:
            page, theta = d.data
            return Point(sp, (page, s0 + ln * math.cos(theta), ln * math.sin(theta)))
        us, ut = d.data
        s1 = s0 + ln * us
        t1 = t0 + ln * ut
        if t1 >= 0.0:
            return Point(sp, (pg0, s1, t1))
        return Point(sp, (_other_index(pg0), s1, -t1))
    r0, phi0 = base.coords
    if d.kind == D_ANGLE:
        return Point(sp, (ln, d.data[0]))
    a, b = d.data
    if b == 0.0 and a == -1.0:
        if ln <= r0:
            return Point(sp, (r0 - ln, phi0))
        return Point(sp, (ln - r0, phi0 + math.pi))
    x = r0 + ln * a
    y = ln * b
    r = math.hypot(x, y)
    psi = math.atan2(y, x)
    return Point(sp, (r, phi0 + psi))


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
