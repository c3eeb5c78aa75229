import dataclasses
import math

import numpy as np
import pytest

from stratclt import (
    DiscreteMeasure,
    Direction,
    DomainError,
    GaussianFieldSampler,
    Point,
    TangentVector,
    apex,
    build_net,
    cov_matrix,
    distance,
    exp_map,
    frechet_function,
    net_from_directions,
    pushforward,
    substream,
)
from stratclt.fields import pairing_matrix
from stratclt.geometry import D_LEG, D_VECTOR
from stratclt.harness import _FieldSimulator, _PURPOSE_SAMPLES

from .conftest import load_measure
from .reference import (centered_pairing, empirical_field, net_directions, sample, tangent_cov,
                        tangent_mean)


def unit(base, kind, data):
    return TangentVector(base, Direction(base, kind, data), 1.0)


def bundled_cases():
    """(measure, base, net) for every bundled example measure."""
    cases = []
    pm1 = load_measure("euclidean_pm1.measure.json")
    b = Point(pm1.space, (0.0,))
    cases.append((pm1, b, net_from_directions(
        b, [Direction(b, D_VECTOR, (1.0,)), Direction(b, D_VECTOR, (-1.0,))])))
    uni = load_measure("spider3_uniform.measure.json")
    a = apex(uni.space)
    cases.append((uni, a, build_net(a, 1.0)))
    wgt = load_measure("spider3_weighted.measure.json")
    bw = Point(wgt.space, (1, 0.6))
    cases.append((wgt, bw, build_net(bw, 1.0)))
    book = load_measure("openbook3_spine.measure.json")
    bs = Point(book.space, (0, 0.0, 0.0))
    cases.append((book, bs, build_net(bs, 0.4)))
    cone = load_measure("flatcone4_star.measure.json")
    ac = apex(cone.space)
    cases.append((cone, ac, build_net(ac, 0.5)))
    return cases


class TestTangentMoments:
    def test_tangent_mean_spider(self, spider_uniform, spider_apex):
        v = unit(spider_apex, D_LEG, (0,))
        assert tangent_mean(spider_uniform, spider_apex, v) == \
            pytest.approx(-1.0 / 3.0, abs=1e-15)

    def test_mean_is_minus_derivative(self):
        # along a ray that stays in one stratum of the cone over the base,
        # F(exp(hV)) = F(base) - h m(V) + h^2 / 2 exactly, so the difference
        # quotient of F gives m(V) up to rounding
        h = 2.0 ** -4
        for mu, base, net in bundled_cases():
            f0 = frechet_function(mu, base)
            for d in net_directions(net):
                v = TangentVector(base, d, 1.0)
                fh = frechet_function(mu, exp_map(base, TangentVector(base, d, h)))
                assert tangent_mean(mu, base, v) == pytest.approx(
                    (f0 - fh) / h + h / 2.0, abs=1e-12)

    def test_point_mass_mean(self, spider3):
        mu = DiscreteMeasure(spider3, ((Point(spider3, (1, 1.0)), 1.0),))
        v = unit(apex(spider3), D_LEG, (1,))
        assert tangent_mean(mu, apex(spider3), v) == pytest.approx(1.0)

    def test_cov_spider_values(self, spider_uniform, spider_apex):
        v0 = unit(spider_apex, D_LEG, (0,))
        v1 = unit(spider_apex, D_LEG, (1,))
        assert tangent_cov(spider_uniform, spider_apex, v0, v0) == \
            pytest.approx(8.0 / 9.0, abs=1e-12)
        assert tangent_cov(spider_uniform, spider_apex, v0, v1) == \
            pytest.approx(-4.0 / 9.0, abs=1e-12)

    def test_cov_point_mass(self, spider3):
        mu = DiscreteMeasure(spider3, ((Point(spider3, (2, 1.5)), 1.0),))
        a = apex(spider3)
        for i in range(3):
            for j in range(3):
                assert tangent_cov(mu, a, unit(a, D_LEG, (i,)),
                                   unit(a, D_LEG, (j,))) == pytest.approx(0.0)


class TestCenteredPairing:
    def test_values(self, spider_uniform, spider_apex, spider3):
        v = unit(spider_apex, D_LEG, (0,))
        assert centered_pairing(Point(spider3, (0, 1.0)), spider_uniform,
                                spider_apex, v) == pytest.approx(4.0 / 3.0)
        assert centered_pairing(Point(spider3, (1, 1.0)), spider_uniform,
                                spider_apex, v) == pytest.approx(-2.0 / 3.0)

    def test_centering_identity(self):
        # weighted average of the centered field over atoms vanishes
        for mu, base, net in bundled_cases():
            tm = pushforward(mu, base)
            pair = pairing_matrix(tm, net)
            w = mu.weights
            centered = pair - w @ pair
            assert np.max(np.abs(w @ centered)) <= 1e-12

    def test_covariance_identity(self):
        # E tau(V) tau(W) equals the covariance kernel exactly
        for mu, base, net in bundled_cases():
            tm = pushforward(mu, base)
            pair = pairing_matrix(tm, net)
            w = mu.weights
            centered = pair - w @ pair
            direct = centered.T @ (w[:, None] * centered)
            cov = cov_matrix(mu, base, net)
            assert np.max(np.abs(direct - cov.entries)) <= 1e-12


class TestEmpiricalField:
    def test_single_sample_clt(self, spider_uniform, spider_apex):
        net = build_net(spider_apex, 1.0)
        f = empirical_field([Point(spider_uniform.space, (0, 1.0))],
                            spider_uniform, spider_apex, net, "clt")
        assert f.values[0] == pytest.approx(4.0 / 3.0)

    def test_clt_is_sqrt_n_times_lln(self, spider_uniform, spider_apex):
        net = build_net(spider_apex, 1.0)
        pts = sample(spider_uniform, substream(21, 0), 400)
        clt = empirical_field(pts, spider_uniform, spider_apex, net, "clt")
        lln = empirical_field(pts, spider_uniform, spider_apex, net, "lln")
        assert np.allclose(clt.values, math.sqrt(400) * lln.values, atol=1e-13)

    def test_lln_decay(self, spider_uniform, spider_apex):
        net = build_net(spider_apex, 1.0)
        pts = sample(spider_uniform, substream(8, 1), 10**5)
        lln = empirical_field(pts, spider_uniform, spider_apex, net, "lln")
        assert np.max(np.abs(lln.values)) < 0.02

    def test_empty_rejected(self, spider_uniform, spider_apex):
        net = build_net(spider_apex, 1.0)
        with pytest.raises(DomainError):
            empirical_field([], spider_uniform, spider_apex, net)

    def test_matches_counts_simulator(self):
        # the harness count path and the sample-by-sample path agree: the
        # same multinomial draw, expanded into a point list, gives the
        # simulator's row (counts @ P - n m = sum of centered pairings)
        for mu, base, net in bundled_cases():
            sim = _FieldSimulator(mu, base, net)
            n, reps = 257, 4
            rows = sim.field_rows(123, _PURPOSE_SAMPLES, 0, n, reps)[:]
            w = mu.weights / mu.weights.sum()
            counts = substream(123, _PURPOSE_SAMPLES, 0).multinomial(n, w, size=reps)
            for rep in range(reps):
                pts = [p for p, c in zip(mu.points, counts[rep]) for _ in range(c)]
                f = empirical_field(pts, mu, base, net, "clt")
                assert np.allclose(rows[rep], f.values, atol=1e-10)


class TestCovMatrix:
    def test_spider_matrix_and_eigs(self, spider_uniform, spider_apex):
        net = build_net(spider_apex, 1.0)
        cov = cov_matrix(spider_uniform, spider_apex, net)
        expected = np.full((3, 3), -4.0 / 9.0) + np.eye(3) * (8.0 / 9.0 + 4.0 / 9.0)
        assert np.max(np.abs(cov.entries - expected)) <= 1e-12
        # the eigenvalues of entries are the squared singular values of F^T
        s2 = np.linalg.svd(cov.gram_factor, compute_uv=False) ** 2
        assert s2 == pytest.approx([4.0 / 3.0, 4.0 / 3.0, 0.0], abs=1e-12)

    def test_euclidean_pm1_matrix(self, euclid_pm1):
        b = Point(euclid_pm1.space, (0.0,))
        net = net_from_directions(b, [Direction(b, D_VECTOR, (1.0,)),
                                      Direction(b, D_VECTOR, (-1.0,))])
        cov = cov_matrix(euclid_pm1, b, net)
        assert np.allclose(cov.entries, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-15)

    def test_point_mass_zero(self, spider3):
        mu = DiscreteMeasure(spider3, ((Point(spider3, (0, 2.0)), 1.0),))
        a = apex(spider3)
        cov = cov_matrix(mu, a, build_net(a, 1.0))
        assert np.all(cov.entries == 0.0)


class TestKernelRegularityBounds:
    """Exact finite-sum checks of the pointwise and kernel bounds on all
    bundled measures, over every atom and every net pair."""

    @pytest.mark.parametrize("case", range(5))
    def test_pointwise_and_kernel_bounds(self, case):
        mu, base, net = bundled_cases()[case]
        tm = pushforward(mu, base)
        pair = pairing_matrix(tm, net)
        w = mu.weights
        centered = pair - w @ pair
        dmat = net.pairwise_distances()
        lengths = np.array([v.length for v, _ in tm.atoms])
        e_d = float(w @ lengths)
        e_d2 = float(w @ lengths**2)
        cov = centered.T @ (w[:, None] * centered)
        m = len(net)
        for u in range(m):
            for v in range(m):
                ds = float(dmat[u, v])
                # |tau(x_i,V) - tau(x_i,U)| <= (E d + d_i) d_s
                lhs = np.abs(centered[:, v] - centered[:, u])
                assert np.all(lhs <= (e_d + lengths) * ds + 1e-10)
                # second moment of the increment
                lhs2 = float(w @ (centered[:, v] - centered[:, u]) ** 2)
                assert lhs2 <= 4.0 * e_d2 * ds * ds + 1e-10
                # kernel continuity in one slot
                for t in range(m):
                    assert abs(cov[u, v] - cov[u, t]) <= \
                        4.0 * math.sqrt(e_d2) * float(dmat[v, t]) + 1e-10

    @pytest.mark.parametrize("case", range(5))
    def test_realized_field_lipschitz(self, case):
        # per-sample bound: |G_n(V) - G_n(U)| <= (sqrt(n) E|X| +
        # sum|X_i|/sqrt(n)) d_s(U, V), checked on realized draws
        mu, base, net = bundled_cases()[case]
        if len(net) < 2:
            return
        n = 400
        pts = sample(mu, substream(17, case), n)
        f = empirical_field(pts, mu, base, net, "clt")
        tm = pushforward(mu, base)
        e_d = float(mu.weights @ np.array([v.length for v, _ in tm.atoms]))
        total = sum(distance(base, p) for p in pts)
        lip = math.sqrt(n) * e_d + total / math.sqrt(n)
        dmat = net.pairwise_distances()
        vals = f.values
        diff = np.abs(vals[:, None] - vals[None, :])
        assert np.all(diff <= lip * dmat + 1e-10)


class TestGaussianSampler:
    def test_factor_reproduces_entries(self):
        for mu, base, net in bundled_cases():
            cov = cov_matrix(mu, base, net)
            factor = GaussianFieldSampler.build(cov).cov.gram_factor
            recon = factor @ factor.T
            assert np.max(np.abs(recon - cov.entries)) <= 1e-8

    def test_draws_ignore_last_bit_of_entries(self):
        # a rank-2 kernel on five directions at the origin of R^3: an
        # eigendecomposition factor took square roots of its rounding-noise
        # eigenvalues, so a one-ulp change of an entry moved the draws
        space = {"kind": "euclidean", "dim": 3}
        mu = DiscreteMeasure.from_json({"space": space, "atoms": [
            {"point": [1.0, 0.0, 0.0], "weight": 1 / 3},
            {"point": [0.0, 1.0, 0.0], "weight": 1 / 3},
            {"point": [-1.0, -1.0, 0.0], "weight": 1 / 3}]})
        o = Point(mu.space, (0.0, 0.0, 0.0))
        vectors = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
                   (0.6, 0.8, 0.0), (0.0, 0.6, 0.8)]
        net = net_from_directions(o, [Direction(o, D_VECTOR, v) for v in vectors])
        cov = cov_matrix(mu, o, net)
        entries = cov.entries.copy()
        entries[3, 3] = np.nextafter(entries[3, 3], np.inf)
        # the same Gram factor with the nudged kernel in place of its own
        nudged = dataclasses.replace(cov)
        vars(nudged)["entries"] = entries
        draws = [GaussianFieldSampler.build(c).draw_matrix(substream(3, 0), 500)
                 for c in (cov, nudged)]
        assert np.array_equal(draws[0], draws[1])

    def test_zero_cov_zero_field(self, spider3):
        mu = DiscreteMeasure(spider3, ((Point(spider3, (0, 2.0)), 1.0),))
        a = apex(spider3)
        sampler = GaussianFieldSampler.build(cov_matrix(mu, a, build_net(a, 1.0)))
        values = sampler.draw_matrix(substream(0, 0), 1)[0]
        assert np.all(values == 0.0)

    def test_empirical_covariance_close(self, spider_uniform, spider_apex):
        net = build_net(spider_apex, 1.0)
        cov = cov_matrix(spider_uniform, spider_apex, net)
        sampler = GaussianFieldSampler.build(cov)
        draws = sampler.draw_matrix(substream(42, 9), 10**5)
        emp = draws.T @ draws / draws.shape[0]
        assert np.max(np.abs(emp - cov.entries)) < 0.02

    def test_leg_sum_in_null_space(self, spider_uniform, spider_apex):
        # the all-ones vector is a null eigenvector of the spider kernel
        net = build_net(spider_apex, 1.0)
        sampler = GaussianFieldSampler.build(
            cov_matrix(spider_uniform, spider_apex, net))
        draws = sampler.draw_matrix(substream(7, 7), 2000)
        assert np.max(np.abs(draws.sum(axis=1))) <= 1e-12

    def test_mean_within_monte_carlo_band(self, spider_uniform, spider_apex):
        net = build_net(spider_apex, 1.0)
        cov = cov_matrix(spider_uniform, spider_apex, net)
        sampler = GaussianFieldSampler.build(cov)
        r = 20000
        draws = sampler.draw_matrix(substream(11, 3), r)
        means = draws.mean(axis=0)
        bands = 4.0 * np.sqrt(np.diag(cov.entries) / r)
        assert np.all(np.abs(means) <= bands)


class TestMeanSignCondition:
    def test_tangent_mean_nonpositive_at_solved_means(self):
        # at the minimizer the tangent mean function never exceeds zero
        # (up to solver placement error) in any net direction
        from stratclt.measures import pushforward as push
        for mu, base, net in bundled_cases():
            tm = push(mu, base)
            mean_vec = mu.weights @ pairing_matrix(tm, net)
            assert np.all(mean_vec <= 1e-6)
