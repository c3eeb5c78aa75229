"""The plane three ways: open_book(2) and flat_cone(2 pi) are isometric to
euclidean(2), by (q, s, t) -> (s, +-t) on the book and (r, phi) ->
(r cos phi, r sin phi) on the cone.  Their spine and apex are singular
in the code but not in the metric, so distances, Fréchet means and
Fréchet values must agree with the plane's."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from stratclt import DiscreteMeasure, Point, SpaceSpec, distance, frechet_function, frechet_mean

TOL = 1e-13
PLANE = SpaceSpec.euclidean(2)
BOOK = SpaceSpec.open_book(2)
CONE = SpaceSpec.flat_cone(2.0 * math.pi)

# one draw in five puts an atom on the spine or at the apex
on_stratum = st.sampled_from([True, False, False, False, False])
# the cone solver puts the mean at the apex when the tangent mean there is
# at most 1e-9 (one atom at radius 1e-12 has the apex as its mean), so the
# radii off the apex are at least 0.05
radius = st.floats(0.05, 3.0)


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


def measures(point):
    weights = st.lists(st.floats(0.01, 1.0), min_size=1, max_size=5)
    return weights.flatmap(lambda w: st.tuples(
        st.lists(point(), min_size=len(w), max_size=len(w)),
        st.just([x / sum(w) for x in w])))


def check_plane(atoms):
    points, weights = atoms
    space = points[0].space
    measure = DiscreteMeasure(space, tuple(zip(points, weights)))
    plane = DiscreteMeasure(PLANE, tuple(zip(map(to_plane, points), weights)))
    for p in points:
        for q in points:
            assert abs(distance(p, q) - distance(to_plane(p), to_plane(q))) <= TOL
    mean, plane_mean = frechet_mean(measure).mean, frechet_mean(plane).mean
    assert max(abs(a - b) for a, b in
               zip(to_plane(mean).coords, plane_mean.coords)) <= TOL
    for p in (mean, *points):
        assert abs(frechet_function(measure, p)
                   - frechet_function(plane, to_plane(p))) <= TOL


@settings(max_examples=200)
@given(measures(book_point))
def test_open_book_is_the_plane(atoms):
    check_plane(atoms)


@settings(max_examples=200)
@given(measures(cone_point))
def test_flat_cone_is_the_plane(atoms):
    check_plane(atoms)
