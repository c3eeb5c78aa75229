import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from stratclt import (
    Direction,
    DomainError,
    Point,
    SpaceSpec,
    SpaceMismatchError,
    TangentVector,
    apex,
    distance,
    exp_map,
    geodesic_point,
    log_map,
    stratum_of,
    zero_vector,
)
from stratclt.geometry import D_ANGLE, D_LEG, D_PAGE_ANGLE, D_SIGN, D_VECTOR, direction_kind

from .oracles import book_cross_distance_oracle, comparison_median, cone_distance_oracle
from .reference import angular_distance, angular_pairing, conical_distance, scale

E2 = SpaceSpec.euclidean(2)
E1 = SpaceSpec.euclidean(1)
SP3 = SpaceSpec.spider(3)
OB3 = SpaceSpec.open_book(3)
OB2 = SpaceSpec.open_book(2)
FC = SpaceSpec.flat_cone(3 * math.pi)
ALPHA = 3 * math.pi


def random_point(space, rng):
    if space.kind == "euclidean":
        return Point(space, tuple(rng.normal(0, 1.5, space.dim)))
    if space.kind == "spider":
        return Point(space, (int(rng.integers(space.legs)), float(rng.uniform(0, 2.5))))
    if space.kind == "open_book":
        return Point(space, (int(rng.integers(space.pages)),
                             float(rng.uniform(-2, 2)), float(rng.uniform(0, 2))))
    return Point(space, (float(rng.uniform(0, 2.5)), float(rng.uniform(0, ALPHA))))


def crosses_branch_point(base, x):
    """Whether the geodesic from base to x passes through a singular point
    interiorly, where continuation branches."""
    sp = base.space
    if sp.kind == "spider":
        l0, r0 = base.coords
        l1, r1 = x.coords
        return r0 > 0.0 and r1 > 0.0 and l0 != l1
    if sp.kind == "open_book":
        p0, _s0, t0 = base.coords
        p1, _s1, t1 = x.coords
        return t0 > 0.0 and t1 > 0.0 and p0 != p1
    if sp.kind == "flat_cone":
        r0, a0 = base.coords
        r1, a1 = x.coords
        gap = min(abs(a0 - a1), sp.circumference - abs(a0 - a1))
        return r0 > 0.0 and r1 > 0.0 and gap >= math.pi
    return False


@st.composite
def gap_pi_pair(draw):
    """A flat-cone base p = (r1, 0) and two points at radius r2: one at
    circle gap exactly pi from p, one at pi - 1 ulp or pi + 1 ulp."""
    sp = SpaceSpec.flat_cone(draw(st.floats(2.0 * math.pi, 4.0 * math.pi)))
    r1, r2 = (draw(st.floats(1e-6, 1e3)) for _ in range(2))
    near = math.nextafter(math.pi, draw(st.sampled_from((0.0, math.inf))))
    return Point(sp, (r1, 0.0)), (Point(sp, (r2, math.pi)), Point(sp, (r2, near)))


# ---------------------------------------------------------------------------
# space and point construction


class TestConstruction:
    def test_space_invariants(self):
        with pytest.raises(DomainError):
            SpaceSpec.spider(2)
        with pytest.raises(DomainError):
            SpaceSpec.open_book(1)
        with pytest.raises(DomainError):
            SpaceSpec.flat_cone(6.0)  # < 2*pi
        with pytest.raises(DomainError):
            SpaceSpec.euclidean(0)

    def test_canonical_boundary_points(self):
        assert Point(SP3, (2, 0.0)) == Point(SP3, (0, 0.0))
        assert Point(OB3, (2, 1.5, 0.0)) == Point(OB3, (0, 1.5, 0.0))
        assert Point(FC, (0.0, 2.2)) == Point(FC, (0.0, 0.0))
        # angle reduced mod circumference
        assert Point(FC, (1.0, ALPHA + 1.0)).coords == (1.0, 1.0)

    @pytest.mark.parametrize("phi, want", [
        (-1e-17, 0.0),  # phi % 7 rounds to 7.0 itself
        (-0.0, 0.0),
        (math.nextafter(7.0, 0.0), math.nextafter(7.0, 0.0)),
        (7.0, 0.0),
    ])
    def test_cone_angle_stays_in_range(self, phi, want):
        sp = SpaceSpec.flat_cone(7.0)
        p = Point(sp, (1.0, phi))
        assert p.coords == (1.0, want)
        assert math.copysign(1.0, p.coords[1]) == 1.0
        assert p == Point(sp, (1.0, want))
        d = Direction(apex(sp), D_ANGLE, (phi,))
        assert d.data == (want,)
        assert 0.0 <= d.data[0] < sp.circumference

    def test_space_spec_json_round_trip(self):
        for sp in (E2, SP3, OB3, FC):
            assert SpaceSpec.from_json(sp.to_json()) == sp

    def test_invalid_coordinates(self):
        with pytest.raises(DomainError):
            Point(SP3, (1, -0.5))
        with pytest.raises(DomainError):
            Point(OB3, (1, 0.0, -0.1))
        with pytest.raises(DomainError):
            Point(FC, (-1.0, 0.0))
        with pytest.raises(DomainError):
            Point(E2, (1.0, math.nan))

    @pytest.mark.parametrize("space, coords", [
        (SP3, (1.5, 1.0)), (SP3, (True, 1.0)), (SP3, ("1", 1.0)), (SP3, (1, "1.0")),
        (OB3, (2.9, 0.0, 1.0)), (FC, (1.0, math.inf)), (E2, (1.0, 10 ** 400)),
    ])
    def test_loosely_typed_coordinates(self, space, coords):
        with pytest.raises(DomainError, match="malformed"):
            Point(space, coords)

    def test_numpy_and_integral_coordinates(self):
        # numpy numbers are numbers, and an integral float is an index
        assert Point(SP3, (np.int64(2), np.float32(1.5))).coords == (2, 1.5)
        assert Point(OB3, (2.0, np.int8(1), 1)).coords == (2, 1.0, 1.0)
        assert type(Point(SP3, (np.int64(2), 1.0)).coords[0]) is int
        assert Direction(apex(SP3), D_LEG, (np.int64(1),)).data == (1,)

    @pytest.mark.parametrize("kind, data", [
        (D_LEG, (1.5,)), (D_LEG, (True,)), (D_ANGLE, (10 ** 400,)), (D_ANGLE, (math.nan,)),
    ])
    def test_malformed_direction_data(self, kind, data):
        # a DomainError (a ValueError) for every malformed entry, an int
        # beyond the floats included
        space = SP3 if kind == D_LEG else FC
        with pytest.raises(DomainError):
            Direction(apex(space), kind, data)


# ---------------------------------------------------------------------------
# distance


class TestDistance:
    def test_spider_same_leg(self):
        assert distance(Point(SP3, (1, 2.0)), Point(SP3, (1, 3.0))) == 1.0

    def test_spider_through_apex(self):
        # oracle: shortest path runs through the apex, r1 + r2
        assert distance(Point(SP3, (1, 2.0)), Point(SP3, (2, 3.0))) == 5.0

    def test_book_across_pages(self):
        # oracle: minimize over the spine crossing point
        d = distance(Point(OB3, (1, 0.0, 1.0)), Point(OB3, (2, 0.0, 1.0)))
        assert d == pytest.approx(2.0, abs=1e-12)
        assert d == pytest.approx(book_cross_distance_oracle(0.0, 1.0, 0.0, 1.0),
                                  abs=1e-9)

    def test_cone_large_gap(self):
        # circle gap min(1.6pi, 1.4pi) = 1.4pi > pi caps the angle
        d = distance(Point(FC, (1.0, 0.0)), Point(FC, (1.0, 1.6 * math.pi)))
        assert d == pytest.approx(2.0, abs=1e-12)

    def test_book_oracle_random(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            s1, s2 = rng.uniform(-2, 2, 2)
            t1, t2 = rng.uniform(0.05, 2, 2)
            d = distance(Point(OB3, (1, s1, t1)), Point(OB3, (2, s2, t2)))
            assert d == pytest.approx(book_cross_distance_oracle(s1, t1, s2, t2),
                                      abs=1e-7)

    def test_cone_oracle_random(self):
        rng = np.random.default_rng(5)
        for _ in range(12):
            p = (float(rng.uniform(0.2, 1.5)), float(rng.uniform(0, ALPHA)))
            q = (float(rng.uniform(0.2, 1.5)), float(rng.uniform(0, ALPHA)))
            d = distance(Point(FC, p), Point(FC, q))
            oracle = cone_distance_oracle(ALPHA, p, q)
            assert d == pytest.approx(oracle, rel=2e-3, abs=1e-6)

    def test_space_mismatch(self):
        with pytest.raises(SpaceMismatchError):
            distance(Point(SP3, (1, 1.0)), Point(OB3, (1, 0.0, 1.0)))


# ---------------------------------------------------------------------------
# geodesics


class TestGeodesics:
    def test_euclidean_midpoint(self):
        p = geodesic_point(Point(E2, (0.0, 0.0)), Point(E2, (2.0, 0.0)), 0.5)
        assert p.coords == (1.0, 0.0)

    def test_spider_hits_apex_exactly(self):
        p = geodesic_point(Point(SP3, (1, 2.0)), Point(SP3, (2, 3.0)), 0.4)
        assert p == apex(SP3)

    def test_spider_past_apex(self):
        p = geodesic_point(Point(SP3, (1, 2.0)), Point(SP3, (2, 3.0)), 0.8)
        assert p.coords == (2, pytest.approx(2.0, abs=1e-12))

    def test_arclength_fractions(self):
        rng = np.random.default_rng(23)
        for space in (E2, SP3, OB3, FC):
            for _ in range(200):
                p, q = random_point(space, rng), random_point(space, rng)
                t = float(rng.random())
                mid = geodesic_point(p, q, t)
                assert distance(p, mid) == pytest.approx(t * distance(p, q),
                                                         rel=1e-12, abs=1e-12)

    @given(gap_pi_pair(), st.floats(0.0, 1.0))
    def test_cone_gap_pi_geodesic(self, case, t):
        # at circle gap pi the one geodesic runs through the apex; at
        # pi - 1 ulp it passes within rounding of it
        p, qs = case
        for q in qs:
            d = distance(p, q)
            mid = geodesic_point(p, q, t)
            r = p.coords[0] + q.coords[0]
            assert distance(p, mid) == pytest.approx(t * d, rel=0.0, abs=1e-12 * r)
            assert distance(mid, q) == pytest.approx((1.0 - t) * d, rel=0.0, abs=1e-12 * r)

    def test_fraction_domain(self):
        with pytest.raises(DomainError):
            geodesic_point(Point(E1, (0.0,)), Point(E1, (1.0,)), 1.5)


# ---------------------------------------------------------------------------
# log / exp


class TestLogExp:
    def test_log_at_spider_apex(self):
        v = log_map(apex(SP3), Point(SP3, (2, 1.5)))
        assert v.direction.kind == D_LEG and v.direction.data == (2,)
        assert v.length == 1.5

    def test_log_spine_polar(self):
        # page-chart polar coordinates oracle
        v = log_map(Point(OB2, (0, 0.0, 0.0)), Point(OB2, (1, 3.0, 4.0)))
        assert v.length == pytest.approx(5.0, abs=1e-12)
        page, theta = v.direction.data
        assert page == 1 and theta == pytest.approx(math.atan2(4.0, 3.0), abs=1e-15)

    @pytest.mark.parametrize("space, a, b", [
        (E2, (0.0, 0.0), (1.7e-274, 0.0)),
        (SpaceSpec.euclidean(1), (0.0,), (1e-200,)),
    ])
    def test_log_length_is_distance_below_underflow(self, space, a, b):
        # the squared offset underflows to 0; the log still has the distance
        p, q = Point(space, a), Point(space, b)
        assert log_map(p, q).length == distance(p, q) == b[0]

    def test_log_zero_vector(self):
        p = Point(E2, (1.0, 1.0))
        assert log_map(p, p) == zero_vector(p)

    def test_exp_examples(self):
        assert exp_map(apex(SP3), TangentVector(apex(SP3),
                       Direction(apex(SP3), D_LEG, (1,)), 0.6)).coords == (1, 0.6)
        b = Point(E2, (1.0, 2.0))
        v = TangentVector(b, Direction(b, D_VECTOR, (0.0, 1.0)), 2.0)
        assert exp_map(b, v).coords == (1.0, 4.0)
        spine = Point(OB3, (0, 1.0, 0.0))
        w = TangentVector(spine, Direction(spine, D_PAGE_ANGLE, (2, math.pi / 2)), 2.0)
        out = exp_map(spine, w)
        assert out.coords[0] == 2
        assert out.coords[1] == pytest.approx(1.0, abs=1e-12)
        assert out.coords[2] == pytest.approx(2.0, abs=1e-12)

    def test_round_trip_random(self):
        # exp(log(x)) recovers x whenever the geodesic does not run through
        # a singular point interiorly (past a branch point the tangent
        # vector cannot encode which branch x sits on: the initial
        # directions coincide); log(exp(v)) = v holds regardless.
        rng = np.random.default_rng(7)
        plain = 0
        for space in (E2, E1, SP3, OB3, FC):
            for _ in range(400):
                base, x = random_point(space, rng), random_point(space, rng)
                v = log_map(base, x)
                assert distance(base, x) == pytest.approx(v.length, abs=1e-12)
                back = exp_map(base, v)
                if not crosses_branch_point(base, x):
                    assert distance(back, x) <= 1e-10
                    plain += 1
                if v.length > 0:
                    again = log_map(base, back)
                    assert again.length == pytest.approx(v.length, abs=1e-12)
                    assert angular_distance(again.direction, v.direction) <= 1e-12
        assert plain > 500  # the qualified branch is not vacuous

    @given(gap_pi_pair())
    def test_cone_gap_pi_log(self, case):
        # the log has the length of the distance on both sides of gap pi,
        # and moving the target by 1 ulp across gap pi moves the log by
        # rounding only: the through-apex branch is continuous there
        p, (at_pi, near) = case
        for q in (at_pi, near):
            assert log_map(p, q).length == distance(p, q)
        r = p.coords[0] + near.coords[0]
        assert conical_distance(log_map(p, at_pi), log_map(p, near)) <= 1e-9 * r

    def test_exp_through_singularities(self):
        # spider leg: beyond the apex continues into the lowest other leg
        b = Point(SP3, (2, 1.0))
        v = TangentVector(b, Direction(b, D_SIGN, (-1,)), 2.5)
        assert exp_map(b, v).coords == (0, 1.5)
        # page interior: across the spine into the lowest other page
        b2 = Point(OB3, (1, 0.0, 1.0))
        v2 = TangentVector(b2, Direction(b2, D_VECTOR, (0.0, -1.0)), 1.75)
        assert exp_map(b2, v2).coords == (0, 0.0, 0.75)
        # cone: straight through the apex comes out pi around
        b3 = Point(FC, (1.0, 1.0))
        v3 = TangentVector(b3, Direction(b3, D_VECTOR, (-1.0, 0.0)), 1.5)
        out = exp_map(b3, v3)
        assert out.coords[0] == pytest.approx(0.5)
        assert out.coords[1] == pytest.approx(1.0 + math.pi)


# ---------------------------------------------------------------------------
# angular metric / pairing / conical metric


# cone points: each space is the tangent cone at this point
CONE_POINTS = (Point(E2, (0.0, 0.0)), apex(SP3), Point(OB3, (0, 0.0, 0.0)), apex(FC))


def _cone_directions(base):
    kind = base.space.kind
    if kind == "euclidean":
        return st.floats(0.0, 2.0 * math.pi).map(
            lambda a: Direction(base, D_VECTOR, (math.cos(a), math.sin(a))))
    if kind == "spider":
        return st.integers(0, 2).map(lambda leg: Direction(base, D_LEG, (leg,)))
    if kind == "open_book":
        thetas = st.one_of(st.sampled_from([0.0, math.pi]), st.floats(0.0, math.pi))
        return st.tuples(st.integers(0, 2), thetas).map(
            lambda pt: Direction(base, D_PAGE_ANGLE, pt))
    # 0 and pi are exactly pi apart; most other pairs are more than pi apart
    angles = st.one_of(st.sampled_from([0.0, math.pi]),
                       st.floats(0.0, ALPHA, exclude_max=True))
    return angles.map(lambda a: Direction(base, D_ANGLE, (a,)))


def _cone_vector_pairs(base):
    lengths = st.one_of(st.just(0.0), st.floats(0.0, 5.0))
    vectors = st.builds(lambda d, ln: TangentVector(base, d, ln),
                        _cone_directions(base), lengths)
    return st.tuples(st.just(base), vectors, vectors)


class TestAngular:
    def test_spider_legs(self):
        a = apex(SP3)
        u = Direction(a, D_LEG, (2,))
        assert angular_distance(u, u) == 0.0
        assert angular_distance(u, Direction(a, D_LEG, (0,))) == math.pi

    def test_spine_between_pages(self):
        spine = Point(OB3, (0, 0.0, 0.0))
        u = Direction(spine, D_PAGE_ANGLE, (1, math.pi / 2))
        v = Direction(spine, D_PAGE_ANGLE, (2, math.pi / 2))
        assert angular_distance(u, v) == pytest.approx(math.pi)
        w = Direction(spine, D_PAGE_ANGLE, (2, 0.25))
        assert angular_distance(u, w) == pytest.approx(math.pi / 2 + 0.25)

    def test_cone_apex_exceeds_pi(self):
        a = apex(FC)
        u = Direction(a, D_ANGLE, (0.0,))
        v = Direction(a, D_ANGLE, (1.25 * math.pi,))
        assert angular_distance(u, v) == pytest.approx(1.25 * math.pi)

    def test_pairing_examples(self, spider_apex):
        u = TangentVector(spider_apex, Direction(spider_apex, D_LEG, (1,)), 2.0)
        same = TangentVector(spider_apex, Direction(spider_apex, D_LEG, (1,)), 3.0)
        other = TangentVector(spider_apex, Direction(spider_apex, D_LEG, (2,)), 3.0)
        assert angular_pairing(u, same) == pytest.approx(6.0)
        assert angular_pairing(u, other) == pytest.approx(-6.0)
        a = apex(FC)
        c1 = TangentVector(a, Direction(a, D_ANGLE, (0.0,)), 1.0)
        c2 = TangentVector(a, Direction(a, D_ANGLE, (1.25 * math.pi,)), 1.0)
        assert angular_pairing(c1, c2) == pytest.approx(-1.0)  # angle capped at pi

    def test_pairing_zero_vector(self, spider_apex):
        u = TangentVector(spider_apex, Direction(spider_apex, D_LEG, (1,)), 2.0)
        assert angular_pairing(u, zero_vector(spider_apex)) == 0.0

    def test_conical_examples(self, spider_apex):
        b = Point(E2, (0.0, 0.0))
        v = TangentVector(b, Direction(b, D_VECTOR, (1.0, 0.0)), 1.0)
        w = TangentVector(b, Direction(b, D_VECTOR, (0.0, 1.0)), 1.0)
        assert conical_distance(v, w) == pytest.approx(math.sqrt(2.0), abs=1e-15)
        v1 = TangentVector(spider_apex, Direction(spider_apex, D_LEG, (1,)), 2.0)
        v2 = TangentVector(spider_apex, Direction(spider_apex, D_LEG, (2,)), 3.0)
        assert conical_distance(v1, v2) == pytest.approx(5.0)
        assert conical_distance(v1, v1) == 0.0

    @example((apex(FC), TangentVector(apex(FC), Direction(apex(FC), D_ANGLE, (0.0,)), 1.0),
              TangentVector(apex(FC), Direction(apex(FC), D_ANGLE, (math.pi,)), 2.0)))
    @example((apex(FC), TangentVector(apex(FC), Direction(apex(FC), D_ANGLE, (0.5,)), 1.0),
              TangentVector(apex(FC), Direction(apex(FC), D_ANGLE, (5.0,)), 2.0)))
    @given(st.sampled_from(CONE_POINTS).flatmap(_cone_vector_pairs))
    def test_cone_isometry(self, case):
        # each model space is the tangent cone at its cone point, so exp
        # there is an isometry: the closed-form distance checks the angle
        base, v, w = case
        d_space = distance(exp_map(base, v), exp_map(base, w))
        assert abs(conical_distance(v, w) - d_space) <= 1e-12

    @pytest.mark.parametrize("base", [Point(E2, (0.3, -0.2)), Point(OB3, (1, 0.5, 0.8)),
                                      Point(FC, (1.2, 0.4)),
                                      Point(SpaceSpec.euclidean(3), (0.0, 0.0, 0.0))])
    @pytest.mark.parametrize("near", [((1.0, 0.0), (1.0, 1e-9)),
                                      ((0.0, 1.0), (-1e-9, 1.0))])
    def test_nearby_vector_directions(self, base, near):
        pad = (0.0,) * max(base.space.dim - 2, 0)  # euclidean(3): the plane z = 0
        u, v = (Direction(base, D_VECTOR, d + pad) for d in near)
        assert abs(angular_distance(u, v) - 1e-9) <= 1e-15

    def test_homogeneity(self, spider_apex):
        rng = np.random.default_rng(17)
        a = apex(FC)
        for _ in range(200):
            phi1, phi2 = rng.uniform(0, ALPHA, 2)
            v = TangentVector(a, Direction(a, D_ANGLE, (phi1,)), float(rng.uniform(0.1, 2)))
            w = TangentVector(a, Direction(a, D_ANGLE, (phi2,)), float(rng.uniform(0.1, 2)))
            t = float(rng.uniform(0, 3))
            lhs = conical_distance(scale(v, t), scale(w, t))
            rhs = t * conical_distance(v, w)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_scale(self, spider_apex):
        v = TangentVector(spider_apex, Direction(spider_apex, D_LEG, (1,)), 2.0)
        assert scale(v, 3.0).length == 6.0
        assert scale(v, 0.0) == zero_vector(spider_apex)
        with pytest.raises(DomainError):
            scale(v, -1.0)

    def test_different_base_rejected(self):
        u = Direction(apex(SP3), D_LEG, (0,))
        v = Direction(Point(SP3, (1, 1.0)), D_SIGN, (1,))
        with pytest.raises(SpaceMismatchError):
            angular_distance(u, v)


# ---------------------------------------------------------------------------
# strata


class TestStrata:
    @pytest.mark.parametrize("point,expected", [
        (apex(SP3), ("apex", 0)),
        (Point(SP3, (2, 0.7)), ("leg2", 1)),
        (Point(SpaceSpec.open_book(4), (2, 1.0, 0.5)), ("page2", 2)),
        (Point(OB3, (1, 2.0, 0.0)), ("spine", 1)),
        (apex(FC), ("apex", 0)),
        (Point(FC, (1.0, 2.0)), ("cone", 2)),
        (Point(E2, (0.0, 0.0)), ("euclidean", 2)),
    ])
    def test_stratum_of(self, point, expected):
        assert stratum_of(point) == expected


# one base on each stratum of each space, with the one kind of direction there
KIND_AT_BASE = [
    (apex(SP3), D_LEG),
    (Point(SP3, (2, 0.7)), D_SIGN),
    (Point(OB3, (1, 2.0, 0.0)), D_PAGE_ANGLE),
    (Point(OB3, (2, 1.0, 0.5)), D_VECTOR),
    (apex(FC), D_ANGLE),
    (Point(FC, (1.0, 2.0)), D_VECTOR),
    (Point(E1, (0.5,)), D_VECTOR),
    (Point(E2, (0.0, 0.0)), D_VECTOR),
]


class TestDirectionKind:
    @pytest.mark.parametrize("base,kind", KIND_AT_BASE)
    def test_direction_accepts_only_the_kind_at_its_base(self, base, kind):
        assert direction_kind(base) == kind
        width = base.space.dim if base.space.kind == "euclidean" else 2
        data = {D_LEG: (0,), D_SIGN: (1,), D_PAGE_ANGLE: (0, 1.0), D_ANGLE: (1.0,),
                D_VECTOR: (1.0,) * width}
        assert Direction(base, kind, data[kind]).kind == kind
        for other in [*(k for k in data if k != kind), "bogus"]:
            with pytest.raises(DomainError, match=f"no '{other}' directions.*'{kind}'"):
                Direction(base, other, data.get(other, (1.0,)))


# ---------------------------------------------------------------------------
# randomized metric properties (acceptance reruns these at 10^4-10^5 scale)


class TestMetricProperties:
    @pytest.mark.parametrize("space", [E2, SP3, OB3, FC])
    def test_metric_axioms(self, space):
        rng = np.random.default_rng(101)
        for _ in range(1500):
            p, q, r = (random_point(space, rng) for _ in range(3))
            dpq = distance(p, q)
            assert dpq >= 0.0
            assert dpq == pytest.approx(distance(q, p), abs=1e-12)
            assert distance(p, p) == 0.0
            assert dpq <= distance(p, r) + distance(r, q) + 1e-10
        p = random_point(space, rng)
        assert distance(p, p) == 0.0

    @pytest.mark.parametrize("space", [SP3, OB3, FC])
    def test_thin_triangles(self, space):
        rng = np.random.default_rng(55)
        checked = 0
        while checked < 800:
            a, b, c = (random_point(space, rng) for _ in range(3))
            mid = geodesic_point(b, c, 0.5)
            med = distance(a, mid)
            comparison = comparison_median(distance(b, c), distance(a, b),
                                           distance(a, c))
            assert med <= comparison + 1e-9
            checked += 1

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(77)
        a = apex(FC)
        spine = Point(OB3, (0, 0.0, 0.0))
        for _ in range(5000):
            v = TangentVector(a, Direction(a, D_ANGLE, (float(rng.uniform(0, ALPHA)),)),
                              float(rng.uniform(0, 2)) + 1e-6)
            w = TangentVector(a, Direction(a, D_ANGLE, (float(rng.uniform(0, ALPHA)),)),
                              float(rng.uniform(0, 2)) + 1e-6)
            assert abs(angular_pairing(v, w)) <= v.length * w.length + 1e-12
            u1 = TangentVector(spine, Direction(spine, D_PAGE_ANGLE,
                               (int(rng.integers(3)), float(rng.uniform(0, math.pi)))),
                               float(rng.uniform(0, 2)) + 1e-6)
            u2 = TangentVector(spine, Direction(spine, D_PAGE_ANGLE,
                               (int(rng.integers(3)), float(rng.uniform(0, math.pi)))),
                               float(rng.uniform(0, 2)) + 1e-6)
            assert abs(angular_pairing(u1, u2)) <= u1.length * u2.length + 1e-12

    def test_angle_first_order_expansion(self):
        # The model spaces are flat away from the singular strata, so the
        # finite-difference quotient is exact (up to roundoff) once both
        # geodesics stay in a common development; the O(h) envelope is
        # what the contract requires, and a measured slope >= 0.9 is
        # demanded only when the errors sit above the fp floor.
        rng = np.random.default_rng(13)
        hs = (1e-2, 1e-3, 1e-4)
        cases = []
        b1 = Point(OB3, (1, 0.2, 0.7))
        cases.append((b1, log_map(b1, Point(OB3, (1, 1.0, 1.5))),
                      log_map(b1, Point(OB3, (2, -0.5, 1.0)))))
        b2 = Point(FC, (1.0, 2.0))
        cases.append((b2, log_map(b2, Point(FC, (1.5, 2.8))),
                      log_map(b2, Point(FC, (0.7, 1.1)))))
        b3 = Point(E2, (0.3, -0.2))
        cases.append((b3, log_map(b3, Point(E2, (1.0, 1.0))),
                      log_map(b3, Point(E2, (-1.0, 0.5)))))
        for base, v1, v2 in cases:
            cosang = math.cos(min(angular_distance(v1.direction, v2.direction),
                                  math.pi))
            errs = []
            for h in hs:
                p1 = exp_map(base, scale(v1, h / v1.length))
                p2 = exp_map(base, scale(v2, h / v2.length))
                q = (2 * h * h - distance(p1, p2) ** 2) / (2 * h * h)
                errs.append(abs(q - cosang))
            # cancellation in the quotient amplifies fp noise to ~eps/h^2,
            # i.e. up to ~1e-8 at h = 1e-4; below that the convergence is
            # exact and beats any O(h) envelope
            if max(errs) <= 1e-7:
                continue
            slope = np.polyfit(np.log(hs), np.log(np.maximum(errs, 1e-300)), 1)[0]
            assert slope >= 0.9
            assert all(e <= 10.0 * h for e, h in zip(errs, hs))


class TestConicalIdentity:
    def test_development_form_matches_displayed_formula(self):
        # hypot development form == sqrt(|V|^2 + |W|^2 - 2<V,W>) exactly
        rng = np.random.default_rng(31)
        a = apex(FC)
        spine = Point(OB3, (0, 0.0, 0.0))
        for _ in range(2000):
            v = TangentVector(a, Direction(a, D_ANGLE, (float(rng.uniform(0, ALPHA)),)),
                              float(rng.uniform(0.01, 2)))
            w = TangentVector(a, Direction(a, D_ANGLE, (float(rng.uniform(0, ALPHA)),)),
                              float(rng.uniform(0.01, 2)))
            displayed = math.sqrt(max(
                v.length**2 + w.length**2 - 2.0 * angular_pairing(v, w), 0.0))
            assert conical_distance(v, w) == pytest.approx(displayed,
                                                           rel=1e-12, abs=1e-12)
            u1 = TangentVector(spine, Direction(spine, D_PAGE_ANGLE,
                               (int(rng.integers(3)), float(rng.uniform(0, math.pi)))),
                               float(rng.uniform(0.01, 2)))
            u2 = TangentVector(spine, Direction(spine, D_PAGE_ANGLE,
                               (int(rng.integers(3)), float(rng.uniform(0, math.pi)))),
                               float(rng.uniform(0.01, 2)))
            displayed2 = math.sqrt(max(
                u1.length**2 + u2.length**2 - 2.0 * angular_pairing(u1, u2), 0.0))
            assert conical_distance(u1, u2) == pytest.approx(displayed2,
                                                             rel=1e-12, abs=1e-12)


class TestGeodesicInternalConsistency:
    def test_pairwise_interior_distances(self):
        # d(gamma(s), gamma(t)) = |s - t| d(p, q) for interior fractions:
        # stronger than the endpoint check, this catches wrong unfoldings
        rng = np.random.default_rng(91)
        for space in (E2, SP3, OB3, FC):
            checked = 0
            while checked < 300:
                p, q = random_point(space, rng), random_point(space, rng)
                if p == q:
                    continue
                s, t = sorted(rng.random(2))
                gs = geodesic_point(p, q, float(s))
                gt = geodesic_point(p, q, float(t))
                expected = (t - s) * distance(p, q)
                assert distance(gs, gt) == pytest.approx(expected, rel=1e-10,
                                                         abs=1e-10)
                checked += 1

    def test_log_direction_matches_geodesic(self):
        # the initial direction reported by log_map agrees with the
        # direction toward an early geodesic point (independent paths)
        rng = np.random.default_rng(92)
        for space in (E2, SP3, OB3, FC):
            checked = 0
            while checked < 200:
                p, q = random_point(space, rng), random_point(space, rng)
                if p == q or distance(p, q) < 1e-6:
                    continue
                v = log_map(p, q)
                near = geodesic_point(p, q, 1e-3)
                w = log_map(p, near)
                if w.is_zero:
                    continue
                assert angular_distance(v.direction, w.direction) <= 1e-6
                checked += 1
