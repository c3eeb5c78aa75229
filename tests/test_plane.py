"""The plane three ways: open_book(2) and flat_cone(2 pi) are isometric to
euclidean(2), by (q, s, t) -> (s, +-t) on the book and (r, phi) ->
(r cos phi, r sin phi) on the cone.  Their spine and apex are singular
in the code but not in the metric, so distances, geodesics, log and exp
maps, Fréchet means and values, the first-order certificate, stickiness
and tangent covariances on mapped nets must agree with the plane's."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from stratclt import (Direction, DiscreteMeasure, Point, SpaceSpec, build_net, cov_matrix,
                      distance, exp_map, frechet_function, frechet_mean, geodesic_point,
                      log_map, net_from_directions)
from stratclt.geometry import D_ANGLE, D_PAGE_ANGLE, D_VECTOR

from .reference import scale

TOL = 1e-13
PLANE = SpaceSpec.euclidean(2)
BOOK = SpaceSpec.open_book(2)
CONE = SpaceSpec.flat_cone(2.0 * math.pi)

# one draw in five puts an atom on the spine or at the apex
on_stratum = st.sampled_from([True, False, False, False, False])
# cone radii reach down to the apex: the mean is exp_o(max(sup, 0) V* / W)
# at every radius, so one atom at radius 1e-12 is its own mean
radius = st.one_of(st.floats(0.0, 3.0), st.floats(0.0, 1e-9))


@st.composite
def book_point(draw):
    t = 0.0 if draw(on_stratum) else draw(st.floats(0.0, 3.0))
    return Point(BOOK, (draw(st.integers(0, 1)), draw(st.floats(-3.0, 3.0)), t))


@st.composite
def cone_point(draw):
    r = 0.0 if draw(on_stratum) else draw(radius)
    return Point(CONE, (r, draw(st.floats(0.0, 2.0 * math.pi, exclude_max=True))))


def to_plane(p: Point) -> Point:
    if p.space == BOOK:
        q, s, t = p.coords
        return Point(PLANE, (s, t if q == 0 else -t))
    r, phi = p.coords
    return Point(PLANE, (r * math.cos(phi), r * math.sin(phi)))


def to_plane_unit(d: Direction) -> tuple:
    """The unit vector of the plane that a direction at d.base maps to."""
    if d.kind == D_PAGE_ANGLE:
        page, theta = d.data
        return math.cos(theta), math.sin(theta) if page == 0 else -math.sin(theta)
    if d.kind == D_ANGLE:
        return math.cos(d.data[0]), math.sin(d.data[0])
    a, b = d.data  # chart vector: (s, t) on a page, (radial, angular) on the cone
    if d.base.space == PLANE:
        return a, b
    if d.base.space == BOOK:
        return a, b if d.base.coords[0] == 0 else -b
    phi = d.base.coords[1]
    return a * math.cos(phi) - b * math.sin(phi), a * math.sin(phi) + b * math.cos(phi)


def to_plane_vector(v) -> tuple:
    if v.is_zero:
        return 0.0, 0.0
    x, y = to_plane_unit(v.direction)
    return v.length * x, v.length * y


def close(a, b) -> bool:
    return max(abs(x - y) for x, y in zip(a, b)) <= TOL


def measures(point):
    weights = st.lists(st.floats(0.01, 1.0), min_size=1, max_size=5)
    return weights.flatmap(lambda w: st.tuples(
        st.lists(point(), min_size=len(w), max_size=len(w)),
        st.just([x / sum(w) for x in w])))


def check_maps(p: Point, q: Point):
    """Distance, geodesic points, log and exp (also past q and through the
    spine or apex) agree with the plane's."""
    pp, qq = to_plane(p), to_plane(q)
    assert abs(distance(p, q) - distance(pp, qq)) <= TOL
    for t in (0.25, 0.5, 0.75):
        assert close(to_plane(geodesic_point(p, q, t)).coords,
                     geodesic_point(pp, qq, t).coords)
    v, plane_v = log_map(p, q), log_map(pp, qq)
    assert close(to_plane_vector(v), to_plane_vector(plane_v))
    for s in (0.5, 1.0, 2.0):
        assert close(to_plane(exp_map(p, scale(v, s))).coords,
                     exp_map(pp, scale(plane_v, s)).coords)


def check_cov(measure, plane, base: Point):
    """The tangent covariance on a net at base equals the plane's on the
    image net."""
    net = build_net(base, 0.7)
    pb = to_plane(base)
    image = net_from_directions(pb, [Direction(pb, D_VECTOR, to_plane_unit(d))
                                     for d in net.directions])
    got = cov_matrix(measure, base, net).entries
    want = cov_matrix(plane, pb, image).entries
    assert abs(got - want).max() <= TOL


def check_plane(atoms):
    points, weights = atoms
    space = points[0].space
    measure = DiscreteMeasure(space, tuple(zip(points, weights)))
    plane = DiscreteMeasure(PLANE, tuple(zip(map(to_plane, points), weights)))
    diag, plane_diag = frechet_mean(measure), frechet_mean(plane)
    mean = diag.mean
    assert close(to_plane(mean).coords, plane_diag.mean.coords)
    # the certificate's sup at the mean, and no stickiness on a plane
    assert abs(diag.certificate.sup_tangent_mean
               - plane_diag.certificate.sup_tangent_mean) <= TOL
    assert diag.sticky == plane_diag.sticky
    for p in (mean, *points):
        assert abs(frechet_function(measure, p)
                   - frechet_function(plane, to_plane(p))) <= TOL
        check_cov(measure, plane, p)
        for q in (mean, *points):
            check_maps(p, q)


@settings(max_examples=200)
@given(measures(book_point))
def test_open_book_is_the_plane(atoms):
    check_plane(atoms)


@settings(max_examples=200)
@given(measures(cone_point))
def test_flat_cone_is_the_plane(atoms):
    check_plane(atoms)
