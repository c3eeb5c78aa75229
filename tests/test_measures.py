import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stratclt import (
    DiscreteMeasure,
    DomainError,
    Direction,
    NumericalConsistencyError,
    Point,
    SpaceSpec,
    TangentVector,
    apex,
    distance,
    exp_map,
    frechet_function,
    frechet_mean,
    pushforward,
    substream,
    validate_localized,
)
from stratclt import geometry as geo
from stratclt import measures as mz
from stratclt.covering import uniform_grid
from stratclt.geometry import D_LEG, D_SIGN, D_VECTOR
from stratclt.regularity import build_net

from .oracles import (
    enumeration_moments,
    frechet_grid,
    frechet_values,
    spider_pairing_table,
)
from .reference import (escape_cone_contains, sample, sample_indices, tangent_cov,
                        tangent_mean)


def unit(base, kind, data):
    return TangentVector(base, Direction(base, kind, data), 1.0)


class TestFrechetFunction:
    def test_euclidean_pm1(self, euclid_pm1):
        sp = euclid_pm1.space
        assert frechet_function(euclid_pm1, Point(sp, (0.0,))) == pytest.approx(0.5)

    def test_spider_uniform_at_apex(self, spider_uniform, spider_apex):
        assert frechet_function(spider_uniform, spider_apex) == pytest.approx(0.5)

    def test_spider_uniform_on_leg(self, spider_uniform, spider3):
        # distances 0.5, 1.5, 1.5 through the apex
        val = frechet_function(spider_uniform, Point(spider3, (1, 0.5)))
        expected = 0.5 * (0.25 + 2.25 + 2.25) / 3.0
        assert val == pytest.approx(expected, abs=1e-15)


class TestFrechetMean:
    def test_euclidean_pm1(self, euclid_pm1):
        diag = frechet_mean(euclid_pm1)
        assert diag.mean.coords == (0.0,)
        assert diag.certificate.sup_tangent_mean == 0.0
        assert not diag.sticky

    def test_spider_weighted_closed_form(self, spider_weighted):
        # minimize 0.5*(0.8(1-r)^2 + 0.2(1+r)^2) along leg 1: r = 0.6
        diag = frechet_mean(spider_weighted)
        leg, r = diag.mean.coords
        assert leg == 1
        assert r == pytest.approx(0.6, abs=1e-15)
        assert not diag.sticky

    def test_spider_uniform_sticky_apex(self, spider_uniform, spider3):
        diag = frechet_mean(spider_uniform)
        assert diag.mean == apex(spider3)
        assert diag.sticky
        assert diag.sticky_stratum == "apex"
        assert diag.min_outward_derivative == pytest.approx(1.0 / 3.0, abs=1e-15)
        # at a sticky apex the tangent mean is negative in every direction
        assert diag.certificate.sup_tangent_mean == pytest.approx(-1.0 / 3.0, abs=1e-15)

    @pytest.mark.parametrize("r", [1e-12, 1e-300, 5e-324])
    def test_cone_atom_near_apex_is_its_mean(self, r):
        # the mean is exp_o(max(sup, 0) V* / W) at every radius: no snap to
        # the apex below the certificate tolerance, and a subnormal radius
        # keeps its angle through the arc search
        sp = SpaceSpec.flat_cone(2.0 * math.pi)
        atom = Point(sp, (r, 1.0))
        diag = frechet_mean(DiscreteMeasure(sp, ((atom, 1.0),)))
        assert diag.mean == atom
        assert diag.frechet_value == 0.0

    @pytest.mark.parametrize("space, atoms, cone_point", [
        (SpaceSpec.flat_cone(3.0 * math.pi), [((1.0, 0.0), 0.5), ((1.0, math.pi), 0.5)],
         (0.0, 0.0)),
        (SpaceSpec.spider(3), [((0, 0.1), 1 / 3), ((0, 0.2), 1 / 3), ((1, 0.3), 1 / 3)],
         (0, 0.0)),
        (SpaceSpec.open_book(3),
         [((0, 0.5, 0.1), 1 / 3), ((0, 0.5, 0.2), 1 / 3), ((1, 0.5, 0.3), 1 / 3)],
         (0, 0.5, 0.0)),
    ], ids=["cone_antipodal_pair", "spider_balanced_legs", "book_balanced_pages"])
    def test_balanced_mean_stays_at_cone_point(self, space, atoms, cone_point):
        # the tangent mean along the peak direction is exactly 0 but rounds
        # to about 1e-17 > 0; within its rounding bound it reads as 0, so the
        # mean stays at the cone point (apex or spine), not on a smooth stratum
        mu = DiscreteMeasure(space, tuple((Point(space, c), w) for c, w in atoms))
        diag = frechet_mean(mu)
        assert diag.mean == Point(space, cone_point)
        assert geo.stratum_of(diag.mean)[0] in ("apex", "spine")
        assert not diag.sticky

    def test_point_mass_short_circuit(self, spider3):
        mu = DiscreteMeasure(spider3, ((Point(spider3, (2, 1.2)), 0.5),
                                       (Point(spider3, (2, 1.2)), 0.5)))
        diag = frechet_mean(mu)
        assert diag.certificate.sup_tangent_mean == 0.0  # every log is zero
        assert diag.mean.coords == (2, 1.2)

    def test_certificate_dominates_grid(self, spider_weighted):
        # reported F value must not exceed the oracle's value anywhere on
        # its grid, and the certificate must hold
        raw = spider_weighted.to_json()
        atoms = [(a["point"], a["weight"]) for a in raw["atoms"]]
        grid = frechet_grid(raw["space"], atoms, 100)
        diag = frechet_mean(spider_weighted)
        grid_min = float(frechet_values(raw["space"], atoms, grid).min())
        assert diag.frechet_value <= grid_min + 1e-15
        assert diag.certificate.sup_tangent_mean <= diag.certificate.tol


class TestPushforward:
    def test_spider_uniform(self, spider_uniform, spider_apex):
        tm = pushforward(spider_uniform, spider_apex)
        for i, (v, w) in enumerate(tm.atoms):
            assert w == pytest.approx(1.0 / 3.0)
            assert v.length == 1.0
            assert v.direction.data == (i,)

    def test_mass_and_length_preserved(self, book_spine_measure, book3):
        base = Point(book3, (0, 0.0, 0.0))
        tm = pushforward(book_spine_measure, base)
        assert sum(w for _, w in tm.atoms) == pytest.approx(1.0, abs=1e-12)
        for (v, _w), (x, _) in zip(tm.atoms, book_spine_measure.atoms):
            assert v.length == pytest.approx(distance(base, x), abs=1e-12)

    def test_ambiguous_atom_named(self, cone3pi):
        # atom 1 sits at circle gap exactly pi from the base, where its log
        # was once refused as ambiguous: its one geodesic runs through the
        # apex, so its log points at the apex with length r1 + r2
        mu = DiscreteMeasure(cone3pi, (
            (Point(cone3pi, (1.0, 0.0)), 0.5),
            (Point(cone3pi, (1.0, math.pi)), 0.5),
        ))
        base = Point(cone3pi, (0.6, 0.0))
        tm = pushforward(mu, base)
        v = tm.atoms[1][0]
        assert v.length == distance(base, mu.atoms[1][0]) == 1.6
        assert v.direction == geo.log_map(base, apex(cone3pi)).direction


class TestDirectionalDerivative:
    def test_spider_uniform_legs(self, spider_uniform, spider_apex):
        # enumeration oracle: pairings (1, -1, -1) against leg 0
        pair = spider_pairing_table(3, [0, 1, 2], [1.0] * 3, [0])
        oracle = -float(np.array([1 / 3] * 3) @ pair[:, 0])
        v = unit(spider_apex, D_LEG, (0,))
        assert -tangent_mean(spider_uniform, spider_apex, v) == \
            pytest.approx(oracle, abs=1e-15)
        assert oracle == pytest.approx(1.0 / 3.0)

    def test_euclidean_balanced(self, euclid_pm1):
        base = Point(euclid_pm1.space, (0.0,))
        v = unit(base, D_VECTOR, (1.0,))
        assert -tangent_mean(euclid_pm1, base, v) == pytest.approx(0.0)

    def test_weighted_stationary_at_mean(self, spider_weighted, spider3):
        base = Point(spider3, (1, 0.6))
        for sign in (1, -1):
            v = unit(base, D_SIGN, (sign,))
            assert -tangent_mean(spider_weighted, base, v) == \
                pytest.approx(0.0, abs=1e-12)

    def test_finite_difference_slope(self, spider_weighted, spider3):
        # one-sided difference quotients converge at first order in h
        base = Point(spider3, (1, 0.3))
        v = unit(base, D_SIGN, (1,))
        exact = -tangent_mean(spider_weighted, base, v)
        hs = (1e-2, 1e-3, 1e-4)
        errs = []
        for h in hs:
            q = (frechet_function(spider_weighted, exp_map(base, TangentVector(
                base, v.direction, h))) - frechet_function(spider_weighted, base)) / h
            errs.append(abs(q - exact))
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope >= 0.9

    def test_requires_unit_vector(self, spider_uniform, spider_apex):
        v = TangentVector(spider_apex, Direction(spider_apex, D_LEG, (0,)), 2.0)
        with pytest.raises(DomainError):
            tangent_mean(spider_uniform, spider_apex, v)


class TestEscapeCone:
    def test_uniform_apex_not_in_cone(self, spider_uniform, spider_apex):
        v = unit(spider_apex, D_LEG, (0,))
        assert not escape_cone_contains(spider_uniform, spider_apex, v, tol=1e-9)

    def test_euclidean_mean_always_in_cone(self, euclid_pm1):
        base = Point(euclid_pm1.space, (0.0,))
        for s in (1.0, -1.0):
            assert escape_cone_contains(euclid_pm1, base, unit(base, D_VECTOR, (s,)))

    def test_weighted_along_leg(self, spider_weighted, spider3):
        base = Point(spider3, (1, 0.6))
        assert escape_cone_contains(spider_weighted, base, unit(base, D_SIGN, (1,)))

    def test_warns_when_not_at_mean(self, spider_weighted, spider3):
        base = Point(spider3, (1, 0.2))  # mean pulls outward from here
        with pytest.warns(UserWarning, match="not a Fr"):
            escape_cone_contains(spider_weighted, base, unit(base, D_SIGN, (1,)))


class TestValidateLocalized:
    def test_spider_uniform_passes(self, spider_uniform):
        report = validate_localized(spider_uniform)
        assert report.base == report.mean == apex(spider_uniform.space)
        assert report.certificate.sup_tangent_mean <= report.certificate.tol

    def test_euclidean_passes(self):
        sp = SpaceSpec.euclidean(2)
        mu = DiscreteMeasure(sp, ((Point(sp, (0.0, 0.0)), 0.25),
                                  (Point(sp, (1.0, 0.0)), 0.25),
                                  (Point(sp, (0.0, 1.0)), 0.25),
                                  (Point(sp, (1.0, 1.0)), 0.25)))
        report = validate_localized(mu)
        assert report.mean.coords == (0.5, 0.5)
        assert report.certificate.sup_tangent_mean <= report.certificate.tol

    def test_flatcone_ambiguous_log_fails_bullet_c(self, cone3pi):
        # atoms at circle gap exactly pi seen from the given base, once
        # refused as an ambiguous log: the base is used as it is, and every
        # atom has its one log there
        mu = DiscreteMeasure(cone3pi, (
            (Point(cone3pi, (1.0, 0.0)), 0.8),
            (Point(cone3pi, (1.0, math.pi)), 0.2),
        ))
        base = Point(cone3pi, (0.6, 0.0))
        report = validate_localized(mu, base)
        assert report.base == base
        assert report.mean is None and report.certificate is None
        tm = pushforward(mu, report.base)
        assert [v.length for v, _ in tm.atoms] == [
            distance(base, x) for x, _ in mu.atoms]

    def test_given_base_used_as_is(self, spider_uniform, spider3):
        # a given base is not checked: no mean is solved or certified
        base = Point(spider3, (1, 0.5))
        report = validate_localized(spider_uniform, base)
        assert report.base == base
        assert report.mean is None and report.certificate is None


class TestSampling:
    def test_point_mass_constant(self, spider3):
        mu = DiscreteMeasure(spider3, ((Point(spider3, (1, 2.0)), 1.0),))
        pts = sample(mu, substream(1, 0), 25)
        assert all(p.coords == (1, 2.0) for p in pts)

    def test_determinism(self, spider_uniform):
        a = sample(spider_uniform, substream(99, 4), 1000)
        b = sample(spider_uniform, substream(99, 4), 1000)
        assert a == b

    def test_binomial_concentration(self, euclid_pm1):
        idx = sample_indices(euclid_pm1, substream(3, 1), 10**6)
        freq = float(np.mean(idx == 1))
        assert abs(freq - 0.5) < 0.002

    def test_weights_respected(self, spider_weighted):
        idx = sample_indices(spider_weighted, substream(5, 2), 200000)
        freq = float(np.mean(idx == 0))
        assert abs(freq - 0.8) < 0.005

    def test_sample_size_domain(self, spider_uniform):
        with pytest.raises(DomainError):
            sample(spider_uniform, substream(0, 0), 0)


class TestMeasureConstruction:
    def test_weight_validation(self, spider3):
        with pytest.raises(DomainError):
            DiscreteMeasure(spider3, ((Point(spider3, (0, 1.0)), 0.5),
                                      (Point(spider3, (1, 1.0)), 0.4)))
        with pytest.raises(DomainError):
            DiscreteMeasure(spider3, ((Point(spider3, (0, 1.0)), 0.0),
                                      (Point(spider3, (1, 1.0)), 1.0)))

    def test_json_round_trip(self, spider_weighted):
        again = DiscreteMeasure.from_json(spider_weighted.to_json())
        assert again == spider_weighted

    def test_tangent_mean_nonpositive_at_mean(self, spider_uniform, spider_apex):
        # at the minimizer the tangent mean is never strictly positive
        for leg in range(3):
            v = unit(spider_apex, D_LEG, (leg,))
            assert tangent_mean(spider_uniform, spider_apex, v) <= 1e-12


class TestEnumerationOracle:
    def test_table_matches_pushforward(self, spider_uniform, spider_apex):
        pair = spider_pairing_table(3, [0, 1, 2], [1.0] * 3, [0, 1, 2])
        stats = enumeration_moments(pair, [1 / 3] * 3)
        assert stats["mean"] == pytest.approx([-1 / 3] * 3)
        for i in range(3):
            for j in range(3):
                got = tangent_cov(spider_uniform, spider_apex,
                                  unit(spider_apex, D_LEG, (i,)),
                                  unit(spider_apex, D_LEG, (j,)))
                assert got == pytest.approx(stats["cov"][i, j], abs=1e-15)


class TestCertificateFailure:
    def test_off_mean_point_is_refused(self, spider_weighted, spider3, monkeypatch):
        # a solve that lands off the mean fails its first-order certificate
        from stratclt import measures
        monkeypatch.setattr(measures, "_closed_form_mean",
                            lambda mu: Point(spider3, (1, 0.5)))
        with pytest.raises(NumericalConsistencyError, match="certificate"):
            frechet_mean(spider_weighted)


class TestBookSpineMean:
    def test_mean_sticks_to_spine(self, book_spine_measure):
        diag = frechet_mean(book_spine_measure)
        page, s, t = diag.mean.coords
        assert t == 0.0
        assert s == 0.0
        assert diag.sticky and diag.sticky_stratum == "spine"
        # each page normal: tau_q = 0.2 - 0.2 - 0.2
        assert diag.min_outward_derivative == pytest.approx(0.2, abs=1e-15)
        assert diag.certificate.sup_tangent_mean <= diag.certificate.tol


class TestHigherDimensionalEuclidean:
    def test_validate_localized_dim3(self):
        sp = SpaceSpec.euclidean(3)
        mu = DiscreteMeasure(sp, (
            (Point(sp, (0.0, 0.0, 0.0)), 0.5),
            (Point(sp, (1.0, 1.0, 1.0)), 0.5),
        ))
        report = validate_localized(mu)
        assert report.mean.coords == (0.5, 0.5, 0.5)
        assert report.certificate.sup_tangent_mean <= report.certificate.tol


class TestConeMaxSignedMasses:
    """``_cone_max`` is the exact sup of sum_i xi_i <v_i, V> for signed
    xi, as in the Gaussian field G = xi P.  Each term is |xi_i||v_i|-
    Lipschitz in V (the capped angle is 1-Lipschitz), so the max over a
    net of covering radius rho lies within rho sum_i |xi_i||v_i| below
    the sup, and never above it; both sides allow 1e-12 of rounding."""

    CASES = {
        "spider_apex": (SpaceSpec.spider(4), (0, 0.0),
                        [(0, 1.0), (1, 0.5), (1, 2.0), (3, 0.7), (2, 0.0)]),
        "spine_point": (SpaceSpec.open_book(3), (0, 0.3, 0.0),
                        [(0, 1.0, 0.5), (1, -0.4, 1.2), (2, 0.3, 0.8),
                         (0, -1.5, 0.0), (2, 0.3, 0.0), (1, 0.9, 2.0)]),
        "cone_apex": (SpaceSpec.flat_cone(3 * math.pi), (0.0, 0.0),
                      [(1.0, 0.0), (0.5, 2.0), (1.5, 4.5), (0.8, 7.0),
                       (0.0, 0.0), (1.2, 9.0)]),
        "page_point": (SpaceSpec.open_book(3), (1, 0.2, 0.7),
                       [(0, 1.0, 0.5), (1, -0.4, 1.2), (2, 0.3, 0.8),
                        (1, 0.2, 0.7), (0, 0.5, 0.0)]),
        "plane_point": (SpaceSpec.euclidean(2), (0.3, -0.2),
                        [(1.0, 0.5), (-0.4, 1.2), (0.3, -0.8), (0.3, -0.2), (2.0, 0.0)]),
        "leg_point": (SpaceSpec.spider(3), (1, 0.6),
                      [(0, 1.0), (1, 0.2), (1, 2.0), (2, 0.7), (1, 0.6)]),
        "cone_point": (SpaceSpec.flat_cone(3 * math.pi), (0.7, 1.0),
                       [(1.0, 0.0), (0.5, 2.0), (1.5, 4.5), (0.8, 7.0),
                        (0.0, 0.0), (0.7, 1.0)]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_kernel_sup_against_fine_net(self, case):
        space, base_coords, atoms = self.CASES[case]
        base = Point(space, base_coords)
        logs = [geo.log_map(base, Point(space, x)) for x in atoms]
        lengths = np.array([v.length for v in logs])
        net = build_net(base, 2.0 ** -10)
        table = geo.pairings(base, logs, net.coords())
        nz = lengths > 0.0
        chart = mz._unit_chart(base, [v.direction.data for v in logs if not v.is_zero])
        rng = np.random.default_rng(11)
        for _ in range(50):
            xi = rng.standard_normal(len(atoms))
            net_max = float(np.max(xi @ table))
            sup, _, _ = mz._cone_max(space, chart, (xi[nz] * lengths[nz]).tolist())
            slack = uniform_grid(base, 2.0 ** -10)[1] * float(np.abs(xi) @ lengths)
            assert net_max - 1e-12 <= sup <= net_max + slack + 1e-12


@st.composite
def circle_angles(draw):
    """A circumference and atom angles on it, with exact ties and the
    angles 0 and alpha - pi, whose breakpoints meet at 0."""
    alpha = draw(st.one_of(st.sampled_from([2 * math.pi, 3 * math.pi, 7.0]),
                           st.floats(2 * math.pi, 40.0)))
    pool = draw(st.lists(st.floats(0.0, alpha, exclude_max=True), min_size=1, max_size=4))
    angles = draw(st.lists(st.sampled_from([*pool, 0.0, alpha - math.pi]),
                           min_size=1, max_size=8))
    return alpha, np.array(angles)


class TestBreakpoints:
    @given(circle_angles())
    def test_equal_to_np_unique(self, case):
        # the circle kernel's sorted distinct breakpoints, bit for bit
        alpha, angles = case
        expected = np.unique(np.concatenate([(angles + math.pi) % alpha,
                                             (angles - math.pi) % alpha]))
        got = mz._breakpoints(alpha, angles.tolist())
        assert [float(x).hex() for x in got] == [x.hex() for x in expected.tolist()]


# flat-cone measures whose circle maximum lies within about 1e-9 rad of a
# breakpoint that is not a maximum: an arc end beside the peak's own arc,
# and the end of a sliver arc one ulp wide next to it
NEAR_BREAKPOINT = {
    "dominated_end": (3 * math.pi, [
        ((1.532096870857364e-08, 8.645201278384082), 0.14736312083453607),
        ((1.2489050626691043, math.pi), 0.23481346824223212),
        ((1.4963140893773463, 0.0), 0.42153903731848325),
        ((1.0201615276399565, 0.0), 0.1962843736047486)]),
    "sliver_arc_end": (2 * math.pi, [
        ((1.475520788248078e-05, 5.258751596378818), 0.15827740736200308),
        ((32.718747749905816, 2.1171589427890245), 0.35258713865813873),
        ((32.718747749905816, 2.1171589427890245), 0.12782102615012167),
        ((1.475520788248078e-05, 5.258751596378818), 0.04529727851734375),
        ((1.475520788248078e-05, 5.258751596378818), 0.06543225698961345),
        ((2.1695324959653933e-08, 2.665401811860228), 0.25058489232277936)]),
}


@st.composite
def flat_cone_measures(draw):
    """A flat-cone measure with radii 0 and log-uniform in [1e-8, 1e2],
    and angles drawn anywhere or at a circle gap of exactly pi from an
    earlier atom."""
    alpha = draw(st.sampled_from([2 * math.pi, 7.5, 3 * math.pi]))
    sp = SpaceSpec.flat_cone(alpha)
    points = []
    for _ in range(draw(st.integers(1, 6))):
        r = draw(st.one_of(st.just(0.0), st.floats(-8.0, 2.0).map(lambda e: 10.0 ** e)))
        if points and draw(st.booleans()):
            phi = (draw(st.sampled_from(points))[1] + math.pi) % alpha
        else:
            phi = draw(st.floats(0.0, alpha, exclude_max=True))
        points.append((r, phi))
    w = [draw(st.floats(0.01, 1.0)) for _ in points]
    return DiscreteMeasure(sp, tuple((Point(sp, x), v / math.fsum(w)) for x, v in zip(points, w)))


class TestCircleMax:
    @pytest.mark.parametrize("case", sorted(NEAR_BREAKPOINT))
    def test_mean_at_the_peak_not_a_breakpoint(self, case):
        # at the parent a breakpoint whose value ties the peak's after
        # rounding won, and the certificate refused the mean (exit 4)
        alpha, atoms = NEAR_BREAKPOINT[case]
        sp = SpaceSpec.flat_cone(alpha)
        diag = frechet_mean(DiscreteMeasure(sp, tuple((Point(sp, x), w) for x, w in atoms)))
        assert diag.certificate.sup_tangent_mean <= 1e-12

    def test_peak_at_the_one_breakpoint(self):
        # alpha = 2 pi and one angle leave one breakpoint, and the one arc
        # peaks at it: M cos(theta) peaks at 0, whatever its rounding
        masses = [-3.458365902450457e-4, -0.7198440764607532]
        value, theta = mz._circle_max(2 * math.pi, [math.pi, math.pi], masses)
        assert value == pytest.approx(-sum(masses), rel=1e-15)
        assert min(theta, 2 * math.pi - theta) <= 1e-15

    @given(flat_cone_measures())
    def test_certificate_at_rounding_level(self, mu):
        diag = frechet_mean(mu)
        scale = math.fsum(w * p.coords[0] for p, w in mu.atoms)
        assert diag.certificate.sup_tangent_mean <= 1e-14 * max(scale, 1.0)
