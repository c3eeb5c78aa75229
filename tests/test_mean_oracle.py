"""Closed-form Fréchet means against an independent grid of the Fréchet
function, on random measures of all four model spaces."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stratclt import (
    DiscreteMeasure,
    distance,
    frechet_function,
    frechet_mean,
    geodesic_point,
)

from .conftest import MEASURE_FILES, load_measure
from .oracles import closed_form_mean, frechet_grid, frechet_values, sq_distances
from .test_geometry import random_point

SEP = 0.05            # runner-up separation
GRID_POINTS = 40_000  # oracle grid size per measure, about

coordinate = st.floats(-3.0, 3.0)
# radius or height; zero puts the atom on the apex or the spine
radius = st.one_of(st.just(0.0), st.floats(0.0, 3.0))


@st.composite
def measures(draw, kind):
    if kind == "euclidean":
        dim = draw(st.integers(1, 3))
        space = {"kind": kind, "dim": dim}
        point = st.lists(coordinate, min_size=dim, max_size=dim)
    elif kind == "spider":
        space = {"kind": kind, "legs": draw(st.integers(3, 5))}
        point = st.tuples(st.integers(0, space["legs"] - 1), radius)
    elif kind == "open_book":
        space = {"kind": kind, "pages": draw(st.integers(2, 4))}
        point = st.tuples(st.integers(0, space["pages"] - 1), coordinate, radius)
    else:
        alpha = draw(st.floats(2.0 * math.pi, 4.0 * math.pi))
        space = {"kind": kind, "circumference": alpha}
        point = st.tuples(radius, st.floats(0.0, alpha, exclude_max=True))
    points = draw(st.lists(point, min_size=1, max_size=5))
    # weights down to 1e-12, summing to 1 only within the 1e-12 tolerance
    raw = draw(st.lists(st.floats(1e-12, 1.0), min_size=len(points),
                        max_size=len(points)))
    scale = (1.0 + draw(st.floats(-4e-13, 4e-13))) / sum(raw)
    return {"space": space,
            "atoms": [{"point": list(p), "weight": w * scale}
                      for p, w in zip(points, raw)]}


def check_against_grid(raw):
    diag = frechet_mean(DiscreteMeasure.from_json(raw))
    space = raw["space"]
    atoms = [(a["point"], a["weight"]) for a in raw["atoms"]]
    mean = np.array(diag.mean.to_coords(), dtype=float)

    cert = diag.certificate
    assert cert.sup_tangent_mean <= cert.tol

    f_mean = float(frechet_values(space, atoms, mean[None, :])[0])
    assert diag.frechet_value == pytest.approx(f_mean, abs=1e-12)
    dims = space.get("dim", 2)
    grid = frechet_grid(space, atoms, round(GRID_POINTS ** (1.0 / dims) / 2))
    values = frechet_values(space, atoms, grid) - f_mean
    assert values.min() >= -1e-12
    # F is 1-strongly convex: F(q) - F(mean) >= d(q, mean)^2 / 2, so the
    # best grid point at least SEP away is worse by at least SEP^2 / 2
    d2 = sq_distances(space, grid, mean)
    assert np.all(values >= 0.5 * d2 - 1e-9)
    far = d2 >= SEP ** 2
    if far.any():
        assert values[far].min() >= SEP ** 2 / 2.0 - 1e-12

    want = np.array([closed_form_mean(space, atoms)], dtype=float)
    assert math.sqrt(sq_distances(space, want, mean)[0]) <= 1e-9


@settings(max_examples=40)
@given(measures("euclidean"))
def test_euclidean_mean_beats_oracle_grid(raw):
    check_against_grid(raw)


@settings(max_examples=40)
@given(measures("spider"))
def test_spider_mean_beats_oracle_grid(raw):
    check_against_grid(raw)


@settings(max_examples=40)
@given(measures("open_book"))
def test_open_book_mean_beats_oracle_grid(raw):
    check_against_grid(raw)


@settings(max_examples=40)
@given(measures("flat_cone"))
# the solver's and the oracle's means agree to 1e-17 here; the law of
# cosines as r^2 + s^2 - 2 r s cos read their squared distance below zero
@example({"space": {"kind": "flat_cone", "circumference": 7.0},
          "atoms": [{"point": [1.0, 0.0], "weight": 7.0 / 15.0},
                    {"point": [1.0, 4.0], "weight": 8.0 / 15.0}]})
# the mean lies on angle 0, at circle gap exactly pi from the lighter atom,
# whose geodesic to the mean runs through the apex
@example({"space": {"kind": "flat_cone", "circumference": 7.0},
          "atoms": [{"point": [1.2219075986766934, 0.0], "weight": 0.81},
                    {"point": [2.2377010472663215, math.pi], "weight": 0.19}]})
def test_flat_cone_mean_beats_oracle_grid(raw):
    check_against_grid(raw)


@pytest.mark.parametrize("name", MEASURE_FILES)
def test_midpoint_strong_convexity(name):
    # F(mid) <= (F(a) + F(b)) / 2 - d(a, b)^2 / 8 on every geodesic
    mu = load_measure(name)
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 200:
        a, b = random_point(mu.space, rng), random_point(mu.space, rng)
        mid = geodesic_point(a, b, 0.5)
        bound = 0.5 * (frechet_function(mu, a) + frechet_function(mu, b))
        assert frechet_function(mu, mid) <= bound - distance(a, b) ** 2 / 8.0 + 1e-12
        checked += 1
