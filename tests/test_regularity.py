import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stratclt import (
    DomainError,
    GaussianFieldSampler,
    Point,
    SpaceSpec,
    apex,
    build_net,
    cov_matrix,
    dimension_constant,
    substream,
)
from stratclt import regularity as rg
from stratclt.geometry import (D_ANGLE, D_LEG, D_PAGE_ANGLE, D_VECTOR, Direction,
                               direction_space, net_from_directions)
from stratclt.harness import _PURPOSE_MODULUS, _FieldSimulator, config_from_json
from stratclt.measures import validate_localized
from stratclt.regularity import modulus_many

from .conftest import load_config
from .oracles import modulus_all_pairs, net_is_valid, packing_lower_bound, refine_net
from .reference import covering_number_bounds, holder_estimate

FC = SpaceSpec.flat_cone(3 * math.pi)
OB3 = SpaceSpec.open_book(3)
SP3 = SpaceSpec.spider(3)
E1 = SpaceSpec.euclidean(1)
E2 = SpaceSpec.euclidean(2)
ALPHA = 3 * math.pi


class TestBuildNet:
    def test_spider_apex_legs(self):
        net = build_net(apex(SP3), 1.0)
        assert [d.data[0] for d in net.directions] == [0, 1, 2]
        assert net.covering_radius == 0.0

    def test_cone_circle_count(self):
        for eps in (0.5, 0.25, 0.11):
            net = build_net(apex(FC), eps)
            assert abs(len(net) - math.ceil(ALPHA / eps)) <= 1

    def test_euclidean_line(self):
        net = build_net(Point(E1, (0.3,)), 0.5)
        vals = sorted(d.data[0] for d in net.directions)
        assert vals == [-1.0, 1.0]

    def test_validity_exhaustive(self):
        for base, eps in ((apex(FC), 0.3), (Point(OB3, (0, 0.0, 0.0)), 0.25),
                          (apex(SP3), 1.0), (Point(FC, (1.0, 2.0)), 0.2)):
            net = build_net(base, eps)
            assert net_is_valid(net, eps)

    def test_spine_net_structure(self):
        net = build_net(Point(OB3, (0, 0.0, 0.0)), 0.4)
        poles = [d for d in net.directions if d.data[1] in (0.0, math.pi)]
        assert len(poles) == 2
        interior = [d for d in net.directions if 0.0 < d.data[1] < math.pi]
        pages = {d.data[0] for d in interior}
        assert pages == {0, 1, 2}

    def test_bad_resolution(self):
        with pytest.raises(DomainError):
            build_net(apex(SP3), 0.0)

    def test_sphere_unsupported(self):
        base = Point(SpaceSpec.euclidean(3), (0.0, 0.0, 0.0))
        with pytest.raises(DomainError):
            build_net(base, 0.5)


PACKING_BASES = {
    "spider3_apex": apex(SP3), "spider5_apex": apex(SpaceSpec.spider(5)),
    "spider3_leg": Point(SP3, (1, 0.5)), "line": Point(E1, (0.3,)),
    "plane": Point(E2, (0.0, 1.0)), "book3_spine": Point(OB3, (0, 0.0, 0.0)),
    "book2_spine": Point(SpaceSpec.open_book(2), (0, 1.0, 0.0)),
    "book3_page": Point(OB3, (1, 0.5, 2.0)), "cone3pi_apex": apex(FC),
    "cone2pi_apex": apex(SpaceSpec.flat_cone(2 * math.pi)),
    "cone7_apex": apex(SpaceSpec.flat_cone(7.0)), "cone3pi_off_apex": Point(FC, (1.0, 2.0)),
}


class TestCoveringNumbers:
    def test_spider_constant(self):
        for eps in (0.1, 0.5, 1.0, 2.0):
            lower, upper = covering_number_bounds(apex(SP3), eps)
            assert upper == 3
            assert lower == 3

    def test_cone_sandwich(self):
        eps = 2.0 ** -3
        lower, upper = covering_number_bounds(apex(FC), eps)
        n = len(build_net(apex(FC), eps))
        assert n == upper
        assert ALPHA / eps * 0.5 <= n <= ALPHA / eps * 2.0
        assert lower <= n
        assert n / lower <= 4.0

    def test_openbook_order(self):
        base = Point(SpaceSpec.open_book(4), (0, 0.0, 0.0))
        eps = 0.1
        n = len(build_net(base, eps))
        total = 4 * math.pi
        assert total / eps * 0.5 <= n <= total / eps * 2.0 + 4

    def test_sandwich_across_scales(self):
        for base in (apex(FC), Point(OB3, (0, 0.0, 0.0))):
            for n in range(2, 7):
                eps = 2.0 ** -n
                lower, upper = covering_number_bounds(base, eps)
                assert lower <= upper
                assert upper / lower <= 4.0

    def test_bad_resolution(self):
        for eps in (0.0, -1.0):
            with pytest.raises(DomainError):
                build_net(apex(FC), eps)
            with pytest.raises(DomainError):
                covering_number_bounds(apex(FC), eps)

    @pytest.mark.parametrize("name", PACKING_BASES)
    def test_lower_bound_matches_all_pairs_scan(self, name):
        base = PACKING_BASES[name]
        # pi, pi/2 and half the length of a circle or semicircle are the
        # scales where the packed net's separation meets eps
        length = getattr(direction_space(base), "length", math.pi)
        eps = [math.pi, math.pi / 2 - 1e-12, math.pi / 2, math.pi / 2 + 1e-12,
               length / 2 - 1e-12, length / 2, length / 2 + 1e-12]
        eps += (2.0 ** np.random.default_rng(0).uniform(-8.0, 2.0, 300)).tolist()
        for e in eps:
            assert covering_number_bounds(base, e)[0] == packing_lower_bound(base, e), e

    def test_bounds_memory_bounded(self):
        # 4826 packed directions, whose full distance matrix would take
        # about 190 MB
        tracemalloc.start()
        try:
            bounds = covering_number_bounds(apex(FC), 2.0 ** -10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bounds == (4826, 9651)
        assert peak < 32e6


class TestDimensionConstant:
    def test_spider_exact_zero(self):
        profile = dimension_constant(apex(SP3), 8)
        assert profile.counts == tuple([3] * 8)
        assert profile.d_estimate == 0.0
        assert profile.stratum_dim_bound == 0.0

    def test_cone_slope_one(self):
        profile = dimension_constant(apex(FC), 8)
        assert 0.9 <= profile.d_estimate <= 1.1
        assert profile.d_estimate <= profile.stratum_dim_bound + 1e-9

    def test_openbook_slope_one(self):
        profile = dimension_constant(Point(OB3, (0, 0.0, 0.0)), 8)
        assert 0.9 <= profile.d_estimate <= 1.1
        assert profile.stratum_dim_bound == 3.0

    @pytest.mark.parametrize("base,bound", [
        (apex(SpaceSpec.spider(3)), 0.0),
        (Point(SpaceSpec.spider(3), (1, 0.5)), 0.0),
        (Point(SpaceSpec.open_book(2), (0, 1.0, 0.0)), 2.0),
        (Point(SpaceSpec.open_book(3), (0, 1.0, 0.0)), 3.0),
        (Point(SpaceSpec.open_book(5), (0, 1.0, 0.0)), 5.0),
        (Point(SpaceSpec.open_book(3), (1, 0.0, 2.0)), 1.0),
        (apex(SpaceSpec.flat_cone(9.0)), 1.0),
        (Point(SpaceSpec.flat_cone(9.0), (1.0, 2.0)), 1.0),
        (Point(SpaceSpec.euclidean(1), (0.5,)), 0.0),
        (Point(SpaceSpec.euclidean(2), (0.5, 1.0)), 1.0),
    ])
    def test_stratum_dim_bound(self, base, bound):
        # the dimension of the directions at base: 0 on legs and signs, 1 on
        # a circle, one semicircle per page at a spine point
        profile = dimension_constant(base, 8)
        assert type(profile.stratum_dim_bound) is float
        assert profile.stratum_dim_bound == bound

    def test_counts_nondecreasing(self):
        profile = dimension_constant(apex(FC), 8)
        assert all(b >= a for a, b in zip(profile.counts, profile.counts[1:]))

    def test_nestedness(self):
        # refining a net keeps every existing direction
        for base in (apex(FC), Point(OB3, (0, 0.0, 0.0))):
            net = build_net(base, 0.25)
            fine = refine_net(base, net, 0.125)
            coarse = {d.describe() for d in net.directions}
            finer = {d.describe() for d in fine.directions}
            assert coarse <= finer

    def test_requires_enough_scales(self):
        with pytest.raises(DomainError):
            dimension_constant(apex(SP3), 3)

    @pytest.mark.parametrize("n_max", range(4, rg.COVER_N_MAX + 1))
    def test_cone_counts_double_exactly(self, n_max):
        # at the 3 pi apex the counts are 19 2^(n - 1), whose log2 grows by
        # exactly 1 per scale; the centred fit, summed in scale order,
        # returns 1.0 at every depth
        profile = dimension_constant(apex(FC), n_max)
        assert profile.counts == tuple(19 * 2 ** n for n in range(n_max))
        assert profile.d_estimate == 1.0

    @pytest.mark.parametrize("base", [
        apex(FC), Point(OB3, (0, 0.2, 0.0)), apex(SP3), Point(E2, (0.0, 0.0)),
        # every other kind of direction space: a spider leg, the line, a
        # book page, the cone's smooth part, and other sizes of each
        Point(SP3, (1, 0.7)), Point(E1, (0.3,)), Point(OB3, (2, -1.5, 0.4)),
        Point(FC, (1.0, 0.3)), apex(SpaceSpec.spider(5)),
        Point(SpaceSpec.open_book(5), (0, -0.3, 0.0)), apex(SpaceSpec.flat_cone(7.0)),
        apex(SpaceSpec.flat_cone(2 * math.pi))])
    def test_counts_match_nested_nets(self, base):
        # the counts are closed-form grid sizes; nets built scale by scale
        # as direction objects must give the same profile
        net = build_net(base, 0.5)
        counts = [len(net)]
        for n in range(2, 11):
            eps = 2.0 ** -n
            net = refine_net(base, net, eps)
            while net.covering_radius > eps / 2.0 + 1e-15:
                net = refine_net(base, net, eps)
            counts.append(len(net))
        assert dimension_constant(base, 10).counts == tuple(counts)


def _shuffled_cone_net():
    dirs = list(build_net(apex(FC), 0.1).directions)
    np.random.default_rng(3).shuffle(dirs)
    return net_from_directions(apex(FC), dirs)


SPINE = Point(OB3, (0, 0.0, 0.0))


def _shuffled_spine_net():
    # the uniform spine net in random order with both poles listed twice
    dirs = list(build_net(SPINE, 2.0 ** -3).directions)
    dirs += [Direction(SPINE, D_PAGE_ANGLE, (0, 0.0)),
             Direction(SPINE, D_PAGE_ANGLE, (0, math.pi))]
    np.random.default_rng(5).shuffle(dirs)
    return net_from_directions(SPINE, dirs)


def _off_grid_spine_net():
    rng = np.random.default_rng(11)
    return net_from_directions(SPINE, [
        Direction(SPINE, D_PAGE_ANGLE, (int(p), float(t)))
        for p, t in zip(rng.integers(0, 3, 150), rng.uniform(0.0, math.pi, 150))])


# (net, radii): nets of every direction-space model, sizes that leave a
# partial last block, unsorted and repeated radii, radii at and beyond
# the diameter, repeated directions, and a one-direction net
MODULUS_CASES = {
    "spine_eps8th": (lambda: build_net(SPINE, 2.0 ** -3),
                     (0.25, 0.5, 1.0, 2.0, math.pi)),
    "spine_eps64th": (lambda: build_net(Point(OB3, (0, 0.3, 0.0)), 2.0 ** -6),
                      (2.0 ** -2, 2.0 ** -3, 2.0 ** -4, 2.0 ** -5)),
    "spine_shuffled_poles_twice": (_shuffled_spine_net, (0.25, 1.0, math.pi, 0.5)),
    "spine_off_grid": (_off_grid_spine_net, (0.75, 1.0, 2.0, 3.0)),
    "book2_spine": (lambda: build_net(Point(SpaceSpec.open_book(2), (0, 1.0, 0.0)),
                                      2.0 ** -4), (0.25, 1.0, 3.0)),
    "spine_pi_and_above": (lambda: build_net(SPINE, 2.0 ** -4),
                           (math.pi, 3.5, 2.0 ** -2)),
    "cone_apex": (lambda: build_net(apex(FC), 0.05), (0.2, 0.5, 1.0, 4.0)),
    "cone_half_circumference": (lambda: build_net(apex(FC), 0.1),
                                (ALPHA / 2.0, 5.0, math.pi, 10.0)),
    "euclid2_circle": (lambda: build_net(Point(E2, (0.3, -1.0)), 0.05),
                       (0.2, 0.7, math.pi)),
    "spider_apex": (lambda: build_net(apex(SP3), 1.0), (3.0, math.pi)),
    "spider_repeated_leg": (lambda: net_from_directions(apex(SP3), [
        Direction(apex(SP3), D_LEG, (leg,)) for leg in (0, 1, 1, 2, 0, 1)]),
        (1.0, math.pi)),
    "euclid1_pm1": (lambda: build_net(Point(E1, (0.3,)), 0.5), (1.0, math.pi, 4.0)),
    "shuffled_explicit": (_shuffled_cone_net, (0.5, 0.2, 1.0)),
    "unsorted_duplicates": (lambda: build_net(apex(FC), 0.05),
                            (0.5, 0.125, 0.5, 2.0, 0.25, 0.125)),
    "single_direction": (lambda: net_from_directions(
        apex(SP3), [Direction(apex(SP3), D_LEG, (1,))]), (13.0, 20.0)),
}

_REPLICATES = 30


def _longest_chain(net, radii):
    return max(len(idx) for idx, _ in net.space().chains(net.coords(), max(radii)))


def _explicit_net(base, dirs):
    # the kernel, not the net's resolution check, is under test here
    return dataclasses.replace(net_from_directions(base, dirs), covering_radius=0.0)


@st.composite
def _random_nets(draw):
    kind = draw(st.sampled_from(["cone", "circle", "spine", "spider", "line"]))
    size = draw(st.integers(1, 40))
    grid = st.integers(0, 16)
    if kind == "cone":
        base, make = apex(FC), lambda: Direction(apex(FC), D_ANGLE, (
            draw(grid) * ALPHA / 16.0 if draw(st.booleans())
            else draw(st.floats(0.0, ALPHA, exclude_max=True)),))
    elif kind == "circle":
        base = Point(E2, (0.2, 0.1))

        def make():
            a = draw(grid) * math.pi / 8.0 if draw(st.booleans()) \
                else draw(st.floats(0.0, 2.0 * math.pi))
            return Direction(base, D_VECTOR, (math.cos(a), math.sin(a)))
    elif kind == "spine":
        base = Point(SpaceSpec.open_book(draw(st.integers(2, 4))), (0, 0.5, 0.0))
        pages = base.space.pages
        make = lambda: Direction(base, D_PAGE_ANGLE, (
            draw(st.integers(0, pages - 1)),
            draw(grid) * math.pi / 16.0 if draw(st.booleans())
            else draw(st.floats(0.0, math.pi))))
    elif kind == "spider":
        base = apex(SpaceSpec.spider(4))
        make = lambda: Direction(base, D_LEG, (draw(st.integers(0, 3)),))
    else:
        base = Point(E1, (0.3,))
        make = lambda: Direction(base, D_VECTOR, (draw(st.sampled_from([-1.0, 1.0])),))
    net = _explicit_net(base, [make() for _ in range(size)])
    radii = draw(st.lists(st.sampled_from(
        [0.0, 0.1, 0.3, math.pi / 4, 1.0, 2.0, math.pi, 4.0, ALPHA / 2.0]),
        min_size=1, max_size=4))
    return net, radii


class TestModulusBlocking:
    @pytest.mark.parametrize("rows_per_block", [None, 7])
    @pytest.mark.parametrize("case", sorted(MODULUS_CASES))
    def test_matches_all_pairs(self, case, rows_per_block, monkeypatch):
        make, radii = MODULUS_CASES[case]
        net = make()
        if rows_per_block is not None:
            # 7 forward steps per distance chunk on the longest chain and
            # at most 7 replicates per block (7 on a net of one chain, so
            # a last block of 2)
            monkeypatch.setattr(rg, "_BLOCK", rows_per_block * _longest_chain(net, radii))
        values = np.random.default_rng(len(net)).normal(size=(_REPLICATES, len(net)))
        got = modulus_many(values, net, radii)
        assert got.shape == (_REPLICATES, len(radii))
        assert np.array_equal(got, modulus_all_pairs(values, net, radii))

    def test_some_nets_leave_a_partial_block(self):
        # in blocks of 7 replicates the last block is partial, and some
        # chain's band spans several distance chunks of 7 steps
        assert _REPLICATES % 7
        sizes, bands = [], []
        for make, radii in MODULUS_CASES.values():
            net = make()
            sizes.append(len(net))
            bands += [rg._band(t, max(radii)) for _, t in
                      net.space().chains(net.coords(), max(radii))]
        assert 1 in sizes
        assert any(b > 7 and b % 7 for b in bands)

    @given(_random_nets(), st.integers(1, 12), st.integers(0, 2 ** 32 - 1))
    def test_random_explicit_nets(self, case, replicates, seed):
        net, radii = case
        values = np.random.default_rng(seed).normal(size=(replicates, len(net)))
        values = np.round(values, 1)  # ties between field values
        assert np.array_equal(modulus_many(values, net, radii),
                              modulus_all_pairs(values, net, radii))

    @pytest.mark.parametrize("steps_per_chunk", [None, 2])
    def test_broken_runs_are_exact(self, steps_per_chunk, monkeypatch):
        # a metric that puts one pair two steps apart on the circle out of
        # reach breaks the forward runs around it (as rounding could);
        # the pairs past the break, also past a chunk boundary, and the
        # pairs cut from earlier windows still count, the broken pair not
        net = build_net(apex(FC), 0.05)
        c = net.coords()
        ds_class = type(net.space())
        exact = ds_class.dist
        monkeypatch.setattr(ds_class, "dist", lambda self, a, b: exact(self, a, b)
                            + ((a + b == c[10] + c[12]) & (np.abs(a - b) == c[12] - c[10])))
        folded = []
        fold = rg._fold_pairs
        monkeypatch.setattr(rg, "_fold_pairs", lambda v, a, b, o: (
            folded.append(len(a)), fold(v, a, b, o)))
        radii = (0.5, 4.0)
        if steps_per_chunk is not None:
            monkeypatch.setattr(rg, "_BLOCK", steps_per_chunk * _longest_chain(net, radii))
        values = np.zeros((2, len(net)))
        # row 0: at r = 0.5 the largest pair (10, 13) lies past the break
        values[0, [10, 12, 13]] = 10.0, -10.0, -7.0
        # row 1: the largest pair (9, 12) is cut from the window of 9
        values[1, [9, 12]] = 20.0, -10.0
        got = modulus_many(values, net, radii)
        assert np.array_equal(got, modulus_all_pairs(values, net, radii))
        assert got.tolist() == [[17.0, 20.0], [30.0, 30.0]]
        assert sum(folded) > 0

    def test_radius_at_a_pair_distance_across_angle_zero(self):
        # past angle 0 the arc position of the later direction rounds
        # up by a few ulps over the pair's distance; a radius equal to
        # that distance must still hold the pair
        dirs = [Direction(apex(FC), D_ANGLE, (a,))
                for a in (8.975366078145138, 0.04300621803050131, 4.0)]
        net = _explicit_net(apex(FC), dirs)
        radii = [float(net.pairwise_distances()[0, 1])]
        values = np.array([[1.0, -2.0, 0.5]])
        assert np.array_equal(modulus_many(values, net, radii), [[3.0]])

    def test_sphere_net_refused(self):
        base = Point(SpaceSpec.euclidean(3), (0.0, 0.0, 0.0))
        net = net_from_directions(base, [Direction(base, D_VECTOR, v) for v in
                                         ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))])
        # a radius of 4 pi passes the resolution check (covering radius pi)
        with pytest.raises(DomainError, match="chains"):
            modulus_many(np.zeros((3, 2)), net, [13.0])

    def test_memory_bounded_on_bundled_book(self):
        # the bundled open-book modulus input: 2414 directions, R = 500,
        # 5 radii; the all-pairs form allocated about 612 MB, the pair
        # loop over distance-sorted blocks 13 MB, the window kernel 2.1 MB
        cfg = config_from_json(load_config("openbook3_spine.json"), seed=42)
        base = validate_localized(cfg.measure, cfg.validation_config()).base
        net = build_net(base, cfg.modulus.epsilon)
        values = _FieldSimulator(cfg.measure, base, net).field_rows(
            42, _PURPOSE_MODULUS, 0, cfg.modulus.n, cfg.modulus.replicates)
        radii = [2.0 ** -k for k in cfg.modulus.radii_log2]
        assert values.shape == (500, 2414) and len(radii) == 5
        tracemalloc.start()
        try:
            modulus_many(values, net, radii)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6


class TestModulus:
    def test_constant_field(self):
        net = build_net(apex(FC), 0.02)
        h = np.full(len(net), 1.7)
        for r in (0.1, 0.5, 1.0):
            assert modulus_many(h[None], net, [r])[0, 0] == 0.0

    def test_spider_three_leg_net(self, spider_apex):
        net = build_net(spider_apex, 1.0)
        h = np.array([1.0, -0.5, 0.25])
        assert modulus_many(h[None], net, [3.0])[0, 0] == 0.0  # no pairs within r < pi
        # the max pairwise gap
        assert modulus_many(h[None], net, [math.pi])[0, 0] == pytest.approx(1.5)

    def test_arclength_field(self):
        # h = distance to a fixed direction is 1-Lipschitz with modulus r
        net = build_net(apex(FC), 0.01)
        coords = net.coords()
        h = np.minimum(coords, ALPHA - coords)
        for r in (0.25, 0.5, 1.0):
            assert modulus_many(h[None], net, [r])[0, 0] == pytest.approx(r, abs=0.02)

    def test_net_too_coarse(self):
        net = build_net(apex(FC), 0.5)
        h = np.zeros(len(net))
        with pytest.raises(DomainError):
            modulus_many(h[None], net, [0.25])  # covering radius 0.25 > r/4

    def test_modulus_table_monotone_rows(self):
        net = build_net(apex(FC), 0.01)
        rng = substream(3, 14)
        vals = rng.standard_normal((20, len(net)))
        radii = [0.5, 0.25, 0.125]
        w = modulus_many(vals, net, radii)
        # per realization w is nonincreasing as the radius shrinks
        assert np.all(w[:, 1] <= w[:, 0] + 1e-12)
        assert np.all(w[:, 2] <= w[:, 1] + 1e-12)


class TestHolderEstimate:
    def test_lipschitz_field(self):
        net = build_net(apex(FC), 0.005)
        coords = net.coords()
        h = np.minimum(coords, ALPHA - coords)
        radii = [2.0 ** -m for m in range(2, 6)]
        gamma, _resid = holder_estimate(h[None, :], net, radii)
        assert gamma == pytest.approx(1.0, abs=0.1)

    def test_white_noise_flat(self):
        net = build_net(apex(FC), 0.005)
        rng = substream(5, 5)
        vals = rng.standard_normal((200, len(net)))
        radii = [2.0 ** -m for m in range(2, 6)]
        gamma, _resid = holder_estimate(vals, net, radii)
        assert abs(gamma) < 0.1

    def test_zero_field_rejected(self):
        net = build_net(apex(FC), 0.005)
        radii = [2.0 ** -m for m in range(2, 6)]
        with pytest.raises(DomainError):
            holder_estimate(np.zeros((3, len(net))), net, radii)

    def test_gaussian_field_is_regular(self, book_spine_measure):
        # smooth kernel: the Gaussian field's expected modulus shrinks
        # roughly linearly in the radius
        base = Point(OB3, (0, 0.0, 0.0))
        net = build_net(base, 2.0 ** -7)
        cov = cov_matrix(book_spine_measure, base, net)
        sampler = GaussianFieldSampler.build(cov)
        draws = sampler.draw_matrix(substream(1, 2), 200)
        radii = [2.0 ** -m for m in range(2, 6)]
        gamma, _ = holder_estimate(draws, net, radii)
        assert gamma > 0.6


class TestChainingStatistic:
    def test_dyadic_decay_on_gaussian_field(self, book_spine_measure):
        # moments of the dyadic increment suprema decay geometrically:
        # fit the constant at the coarsest scale and check finer ones
        base = Point(OB3, (0, 0.0, 0.0))
        k_range = list(range(2, 7))
        nets = {k_range[0]: build_net(base, 2.0 ** -k_range[0])}
        for k in k_range[1:]:
            nets[k] = refine_net(base, nets[k - 1], 2.0 ** -k)
        fine = nets[k_range[-1]]
        cov = cov_matrix(book_spine_measure, base, fine)
        sampler = GaussianFieldSampler.build(cov)
        draws = sampler.draw_matrix(substream(9, 1), 300)
        desc = {d.describe(): i for i, d in enumerate(fine.directions)}
        d_dim = 1.0
        a = 4.0
        xi4 = []
        for k in k_range:
            idx = [desc[d.describe()] for d in nets[k].directions]
            assert len(idx) == len(nets[k])  # nets are genuinely nested
            vals = draws[:, idx]
            dmat = nets[k].pairwise_distances()
            iu, ju = np.triu_indices(len(nets[k]), k=1)
            mask = dmat[iu, ju] <= 2.0 ** -k
            sup = np.abs(vals[:, iu[mask]] - vals[:, ju[mask]]).max(axis=1)
            xi4.append(float(np.mean(sup ** 4)))
        k0 = k_range[0]
        fitted_k = xi4[0] / 2.0 ** (-k0 * (a - d_dim))
        for k, val in zip(k_range, xi4):
            assert val <= fitted_k * 2.0 ** (-k * (a - d_dim)) * (1 + 1e-9)

    def test_tightness_proxy_decreases(self, book_spine_measure):
        from stratclt.harness import ModulusSpec, _modulus_test
        base = Point(OB3, (0, 0.0, 0.0))
        spec = ModulusSpec(epsilon=2.0 ** -8, radii_log2=(2, 3, 4, 5, 6),
                           n=500, replicates=200)
        result = _modulus_test(book_spine_measure, base, 31, spec, 1.5)
        agg = result["aggregate"]
        assert result["monotone_within_error"]
        assert agg[0] / max(agg[-1], 1e-12) >= 1.5
        assert result["passed"]
