"""The plane three ways: open_book(2) and flat_cone(2 pi) are isometric to
euclidean(2), by (q, s, t) -> (s, +-t) on the book and (r, phi) ->
(r cos phi, r sin phi) on the cone.  Their spine and apex are singular
in the code but not in the metric, so distances, geodesics, log and exp
maps, Fréchet means and values, the first-order certificate, stickiness,
tangent covariances on mapped nets and every ``clt`` table of one seed
must agree with the plane's."""

import csv
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from stratclt import (Direction, DiscreteMeasure, Point, SpaceSpec, build_net, cov_matrix,
                      distance, exp_map, frechet_function, frechet_mean, geodesic_point,
                      log_map, net_from_directions)
from stratclt.cli import main
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


# ---------------------------------------------------------------------------
# clt on the plane three ways: one four-atom measure with unequal weights,
# mapped, with its base and an explicit net mapped too.  The atoms keep
# their order, so the counts are the same draws and every table is the
# plane's up to rounding.

PLANE_ATOMS = [((1.0, 0.5), 0.1), ((-0.7, 1.2), 0.2), ((0.3, -1.1), 0.3),
               ((-1.4, -0.6), 0.4)]
# net directions as plane angles, on both pages and through both poles
NET_ANGLES = [0.0, 0.4, 1.3, 2.2, math.pi, 3.9, 4.6, 5.8]


def from_plane(space: SpaceSpec, xy: tuple) -> list:
    """Coordinates on space of the plane point xy, the inverse of ``to_plane``."""
    x, y = xy
    if space == PLANE:
        return [x, y]
    if space == BOOK:
        return [0 if y >= 0.0 else 1, x, abs(y)]
    return [math.hypot(x, y), math.atan2(y, x) % (2.0 * math.pi)]


def mapped_clt_config(space: SpaceSpec) -> dict:
    if space == PLANE:
        base, net = [0.0, 0.0], {"vectors": [[math.cos(a), math.sin(a)] for a in NET_ANGLES]}
    elif space == BOOK:
        # plane angle a is page 0 at theta a, or page 1 at theta 2 pi - a
        base, net = [0, 0.0, 0.0], {"page_angles": [
            [0, a] if a <= math.pi else [1, 2.0 * math.pi - a] for a in NET_ANGLES]}
    else:
        base, net = [0.0, 0.0], {"angles": NET_ANGLES}
    return {
        "measure": {"space": space.to_json(),
                    "atoms": [{"point": from_plane(space, xy), "weight": w}
                              for xy, w in PLANE_ATOMS]},
        "base": base,
        "net": net,
        "sample_sizes": [300],
        "replicates": 200,
        "martingale": {"n": 300, "k": 300},
        "tests": ["cov", "ks", "mahalanobis", "moments", "increments", "martingale"],
    }


def read_cells(path) -> tuple[list, list]:
    """The header of a CSV and its rows, each cell a float where it parses
    as one."""

    def cell(text):
        try:
            return float(text)
        except ValueError:
            return text

    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, [[cell(x) for x in row] for row in rows]


def test_clt_tables_agree_on_the_plane_three_ways(tmp_path, capsys):
    outs, codes = [], set()
    for space in (PLANE, BOOK, CONE):
        cfg = tmp_path / f"{space.kind}.json"
        cfg.write_text(json.dumps(mapped_clt_config(space)))
        out = tmp_path / space.kind
        codes.add(main(["clt", "--config", str(cfg), "--seed", "7", "--out", str(out)]))
        outs.append(out)
    capsys.readouterr()
    assert len(codes) == 1 and codes <= {0, 2}
    names = sorted(p.name for p in outs[0].glob("*.csv"))
    assert len(names) == 7
    for name in names:
        (header, plane), *others = [read_cells(out / name) for out in outs]
        for _, rows in others:
            assert len(rows) == len(plane), name
        for col, title in enumerate(header):
            cols = [[row[col] for row in rows] for rows in (plane, *(r for _, r in others))]
            values = [x for x in cols[0] if isinstance(x, float)]
            top = max(map(abs, values), default=0.0)
            for other in cols[1:]:
                for a, b in zip(cols[0], other):
                    if isinstance(a, float):
                        # a column of numbers: equal to 1e-9 of its largest
                        assert isinstance(b, float) and abs(a - b) <= 1e-9 * top, \
                            (name, title, a, b)
                    elif title != "descriptor":
                        # flags and empty cells; a descriptor names a
                        # direction in its own space's chart
                        assert a == b, (name, title, a, b)
