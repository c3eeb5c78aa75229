import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy import special, stats as sstats

from stratclt import (
    ConfigError,
    Point,
    SpaceSpec,
    apex,
    compare_covariance,
    config_from_json,
    cov_matrix,
    build_net,
    ks_distance,
    run_clt_experiment,
    substream,
)
from stratclt import fields, harness, regularity
from stratclt.harness import (
    _FieldSimulator,
    _PURPOSE_MODULUS,
    _PURPOSE_SAMPLES,
    _increment_summary,
    _increment_test,
    _ks_test,
    _mc_fourth,
    _normal_ks,
    _rough_normal_cdf,
    _martingale_rows,
    _modulus_test,
    chi2_cdf,
    normal_cdf,
    resolve_net,
)
from stratclt.measures import DiscreteMeasure, validate_localized

from .conftest import EXPERIMENT_FILES, load_config
from .oracles import increment_pairs_loop
from .reference import sample_indices


def small_config(name, **overrides):
    raw = load_config(name)
    raw["sample_sizes"] = overrides.pop("sample_sizes", [200])
    raw["replicates"] = overrides.pop("replicates", 150)
    raw.setdefault("thresholds", {})
    # loose thresholds: these runs check plumbing, not statistics
    raw["thresholds"].update({"ks": 0.2, "mahalanobis_ks": 0.2, "cov_sup": 0.3})
    if "modulus" in raw:
        raw["modulus"].update({"n": 200, "replicates": 120})
    raw.update(overrides)
    return raw


class TestKsDistance:
    def test_perfect_quantiles(self):
        n = 50
        qs = sstats.norm.ppf((np.arange(1, n + 1) - 0.5) / n)
        assert ks_distance(qs, sstats.norm.cdf) == pytest.approx(1.0 / (2 * n),
                                                                 abs=1e-12)

    def test_point_mass_vs_normal(self):
        assert ks_distance(np.zeros(100), sstats.norm.cdf) == pytest.approx(0.5)

    def test_single_sample_at_median(self):
        assert ks_distance([0.0], sstats.norm.cdf) == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(Exception):
            ks_distance([], sstats.norm.cdf)


class TestCdfs:
    # scipy.special is the independent oracle for the numpy CDFs the gates use
    def test_normal_cdf_matches_ndtr(self):
        x = np.concatenate([np.linspace(-40.0, 40.0, 160_001),
                            np.random.default_rng(5).standard_normal(100_000)])
        assert np.max(np.abs(normal_cdf(x) - special.ndtr(x))) <= 4.5e-16

    def test_chi2_cdf_matches_chdtr(self):
        q = np.linspace(0.0005, 0.9995, 400)
        for dof in range(1, 201):
            x = np.concatenate([[0.0], sstats.chi2.ppf(q, dof),
                                np.linspace(0.0, 6.0 * dof + 100.0, 200)])
            err = np.max(np.abs(chi2_cdf(dof, x) - special.chdtr(dof, x)))
            assert err <= 1e-13, dof

    def test_chi2_cdf_zero_at_and_below_origin(self):
        for dof in (1, 2, 7):
            assert np.array_equal(chi2_cdf(dof, [-3.0, -0.0, 0.0]), np.zeros(3))

    @pytest.mark.parametrize("name", EXPERIMENT_FILES)
    def test_gates_match_scipy_cdfs(self, name, monkeypatch):
        raw = load_config(name)
        raw["tests"] = ["ks", "mahalanobis"]
        ours = run_clt_experiment(config_from_json(raw, seed=42)).per_n
        monkeypatch.setattr(harness, "normal_cdf", special.ndtr)
        monkeypatch.setattr(harness, "chi2_cdf", special.chdtr)
        ref = run_clt_experiment(config_from_json(raw, seed=42)).per_n
        for n, tests in ours.items():
            pairs = list(zip(tests["ks"]["directions"], ref[n]["ks"]["directions"]))
            pairs += [(tests[t], ref[n][t]) for t in ("ks", "mahalanobis")]
            for a, b in pairs:
                assert a["passed"] == b["passed"]
                if "ks" in a and a["ks"] is not None:
                    assert abs(a["ks"] - b["ks"]) <= 1e-15


class TestCompareCovariance:
    def test_identical(self):
        a = np.array([[1.0, 0.2], [0.2, 1.0]])
        assert compare_covariance(a, a) == (0.0, 0.0)

    def test_zero_analytic_absolute(self):
        e = np.array([[0.3, 0.0], [0.0, 0.1]])
        sup, fro = compare_covariance(e, np.zeros((2, 2)))
        assert sup == pytest.approx(0.3)
        assert fro == pytest.approx(np.linalg.norm(e))

    def test_single_entry_perturbation(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        e = a.copy()
        e[0, 1] = 0.01
        sup, _ = compare_covariance(e, a)
        assert sup == pytest.approx(0.01)


class TestConfigValidation:
    def test_replicate_floor(self):
        raw = small_config("spider3_uniform.json")
        raw["replicates"] = 10
        with pytest.raises(ConfigError):
            config_from_json(raw, seed=1)

    def test_sample_sizes_increasing(self):
        raw = small_config("spider3_uniform.json")
        raw["sample_sizes"] = [100, 100]
        with pytest.raises(ConfigError):
            config_from_json(raw, seed=1)

    def test_net_required(self):
        raw = small_config("spider3_uniform.json")
        del raw["net"]
        with pytest.raises(ConfigError):
            config_from_json(raw, seed=1)

    def test_unknown_test_rejected(self):
        raw = small_config("spider3_uniform.json")
        raw["tests"] = ["cov", "bogus"]
        with pytest.raises(ConfigError):
            config_from_json(raw, seed=1)

    @pytest.mark.parametrize("radii_log2, ok", [
        ([-1, 2], True), ([-2], False), ([-2000], False)])
    def test_modulus_radius_floor(self, radii_log2, ok):
        # radius 2 can leave pairs out of a direction space of diameter pi;
        # radius 4 or more cannot
        raw = small_config("spider3_uniform.json")
        raw["modulus"] = {"radii_log2": radii_log2}
        if ok:
            assert config_from_json(raw, seed=1).modulus.radii_log2 == tuple(radii_log2)
        else:
            with pytest.raises(ConfigError, match="radii_log2 must be >= -1"):
                config_from_json(raw, seed=1)

    def test_unknown_top_level_key(self):
        raw = small_config("spider3_uniform.json")
        raw["bogus_key"] = 1
        with pytest.raises(ConfigError, match="bogus_key"):
            config_from_json(raw, seed=1)

    @pytest.mark.parametrize("spec", [
        {"page_angles": [[0, 1.0, 5.0]]},
        {"page_angles": [[0]]},
        {"page_angles": [["x", 1.0]]},
        {"vectors": [[1.0, 0.0]]},
    ])
    def test_malformed_explicit_net(self, spec):
        # checked when the net is resolved at the base: the spine point here
        spine = Point(SpaceSpec.open_book(3), (0, 0.0, 0.0))
        with pytest.raises(ConfigError):
            resolve_net(spine, spec)


    def test_net_epsilon_floor(self):
        legs = apex(SpaceSpec.spider(3))
        assert len(resolve_net(legs, {"epsilon": 2.0 ** -16})) == 3
        with pytest.raises(ConfigError, match="2\\^-16"):
            resolve_net(legs, {"epsilon": math.nextafter(2.0 ** -16, 0.0)})


class TestDeterminism:
    def test_bit_identical_reports(self):
        raw = small_config("spider3_uniform.json")
        blobs = []
        for _ in range(2):
            cfg = config_from_json(raw, seed=31337)
            rep = run_clt_experiment(cfg)
            blobs.append(json.dumps(rep.to_json(), sort_keys=True))
        assert blobs[0] == blobs[1]

    def test_thread_count_invariance(self):
        # the threads keyword is still accepted and has no effect
        raw = small_config("spider3_uniform.json", replicates=250)
        blobs = []
        for threads in (None, 4):
            cfg = config_from_json(raw, seed=7, threads=threads)
            rep = run_clt_experiment(cfg)
            blobs.append(json.dumps(rep.to_json(), sort_keys=True))
        assert blobs[0] == blobs[1]

    def test_seed_changes_results(self):
        raw = small_config("spider3_uniform.json")
        rep_a = run_clt_experiment(config_from_json(raw, seed=1))
        rep_b = run_clt_experiment(config_from_json(raw, seed=2))
        assert rep_a.per_n[200]["cov"]["sup_error"] != \
            rep_b.per_n[200]["cov"]["sup_error"]


class TestRefusals:
    def test_non_localized_measure_refused(self, cone3pi):
        # the gap-pi config once refused as non-localized: its one geodesic
        # runs through the apex, so the experiment runs at the given base
        mu_json = {
            "space": {"kind": "flat_cone", "circumference": 3 * math.pi},
            "atoms": [{"point": [1.0, 0.0], "weight": 0.8},
                      {"point": [1.0, math.pi], "weight": 0.2}],
        }
        raw = {
            "measure": mu_json,
            "base": [0.6, 0.0],
            "net": {"epsilon": 0.5},
            "sample_sizes": [200],
            "replicates": 150,
        }
        cfg = config_from_json(raw, seed=5)
        report = run_clt_experiment(cfg)
        assert report.base == Point(cone3pi, (0.6, 0.0))
        assert list(report.per_n) == [200]


class TestModulusGate:
    def test_rising_aggregate_fails(self, book_spine_measure, monkeypatch):
        # a table whose aggregate rises by more than two standard errors
        # from one radius to the next fails, though its drop ratio passes
        rows = np.array([0.75, 0.25, 0.5, 0.125])
        monkeypatch.setattr(regularity, "modulus_many",
                            lambda values, net, radii: np.tile(rows, (values.shape[0], 1)))
        spec = harness.ModulusSpec(epsilon=2.0 ** -5, radii_log2=(2, 3, 4, 5),
                                   n=100, replicates=100)
        base = Point(SpaceSpec.open_book(3), (0, 0.0, 0.0))
        result = _modulus_test(book_spine_measure, base, 1, spec, 1.5)
        assert result["aggregate"] == rows.tolist()
        assert result["drop_ratio"] == 6.0
        assert not result["monotone_within_error"]
        assert not result["passed"]


class TestPointMassTrivial:
    def test_all_fields_identically_zero(self, spider3):
        raw = {
            "measure": {"space": {"kind": "spider", "legs": 3},
                        "atoms": [{"point": [1, 1.0], "weight": 1.0}]},
            "net": {"signs": [1, -1]},
            "sample_sizes": [500],
            "replicates": 150,
            "tests": ["cov", "ks", "mahalanobis", "moments", "martingale"],
        }
        rep = run_clt_experiment(config_from_json(raw, seed=3))
        assert rep.passed
        tests = rep.per_n[500]
        assert tests["cov"]["sup_error"] <= 1e-12
        assert all(r["ks"] is None for r in tests["ks"]["directions"])
        m = tests["mahalanobis"]
        assert (m["dof"], m["atoms"], m["pearson"]) == (0, 1, True)


class TestMahalanobisRank:
    @pytest.mark.parametrize("legs, dof", [([0, 1, 2], 2), ([0], 1)])
    def test_pearson_exactly_at_rank_k_minus_1(self, legs, dof):
        # three atoms: the three leg directions span rank 2 = k - 1, where
        # the whitened norm is Pearson's statistic; one leg spans rank 1
        raw = load_config("spider3_uniform.json")
        raw.update(net={"legs": legs}, sample_sizes=[200], replicates=150,
                   tests=["mahalanobis"])
        m = run_clt_experiment(config_from_json(raw, seed=5)).per_n[200]["mahalanobis"]
        assert (m["dof"], m["atoms"], m["pearson"]) == (dof, 3, dof == 2)


class TestStatisticalInvariants:
    def test_covariance_error_scales_with_replicates(self, spider_uniform,
                                                     spider_apex):
        # sup error decays like 1/sqrt(R): quadrupling R should shrink the
        # seed-averaged error by a factor inside [1.3, 3.2]
        net = build_net(spider_apex, 1.0)
        sim = _FieldSimulator(spider_uniform, spider_apex, net)
        cov = cov_matrix(spider_uniform, spider_apex, net)
        errors = {}
        for r_count in (500, 2000, 8000):
            sups = []
            for seed in range(5):
                vals = sim.field_rows(seed, _PURPOSE_SAMPLES, 0, 50, r_count, 1)[:]
                emp = vals.T @ vals / r_count
                sups.append(compare_covariance(emp, cov)[0])
            errors[r_count] = float(np.mean(sups))
        assert 1.3 <= errors[500] / errors[2000] <= 3.2
        assert 1.3 <= errors[2000] / errors[8000] <= 3.2

    def test_lln_rate(self, spider_uniform, spider_apex):
        # sup |gbar_n| over the net decays like 1/sqrt(n); one sample
        # stream per replicate is reused across the n values (prefixes)
        # so only the n-dependence varies
        net = build_net(spider_apex, 1.0)
        sim = _FieldSimulator(spider_uniform, spider_apex, net)
        ns = (1000, 4000, 16000)
        reps = 400
        sups = {n: [] for n in ns}
        from stratclt import substream
        for rep in range(reps):
            idx = sample_indices(spider_uniform, substream(77, 50, rep), ns[-1])
            for n in ns:
                counts = np.bincount(idx[:n], minlength=len(sim.probs)).astype(float)
                gbar = (counts @ sim.cov.pair - n * sim.cov.mean_vec) / n
                sups[n].append(np.abs(gbar).max())
        means = {n: float(np.mean(sups[n])) for n in ns}
        assert 1.3 <= means[1000] / means[4000] <= 3.2
        assert 1.3 <= means[4000] / means[16000] <= 3.2

    @pytest.mark.slow
    @pytest.mark.parametrize("name", ["spider3_uniform.json",
                                      "openbook3_spine.json",
                                      "flatcone4_star.json"])
    def test_gaussianity_all_singular_spaces(self, name):
        # whitened squared-norm statistic is chi-square at n = 10^4
        raw = load_config(name)
        raw["sample_sizes"] = [10000]
        raw["tests"] = ["mahalanobis"]
        raw.pop("modulus", None)
        cfg = config_from_json(raw, seed=1234)
        rep = run_clt_experiment(cfg)
        t = rep.per_n[10000]["mahalanobis"]
        assert t["ks"] < 0.05
        assert t["passed"]


def fixed_order_product(counts, pair):
    """counts @ pair with each cell summed over the atoms in order, one
    rounded product at a time, out of place."""
    out = counts[:, :1] * pair[0]
    for a in range(1, len(pair)):
        out = out + counts[:, a:a + 1] * pair[a]
    return out


class TestFieldRowsInPlace:
    @pytest.mark.parametrize("name", EXPERIMENT_FILES)
    def test_rows_match_out_of_place(self, name):
        # field_rows and partial_sum_rows centre and scale the counts in
        # place and form the product with tau a chunk at a time; the same
        # ufuncs in the same order give the same bits as the out-of-place
        # expressions
        cfg = config_from_json(load_config(name), seed=42)
        base = validate_localized(cfg.measure, cfg.validation_config()).base
        sim = _FieldSimulator(cfg.measure, base, resolve_net(base, cfg.net))
        w, tau = sim.cov.weights, sim.cov.tau
        n, reps = 1000, 200
        counts = substream(42, _PURPOSE_SAMPLES, 1).multinomial(
            n, sim.probs, size=reps).astype(float)
        expected = fixed_order_product((counts - n * w) / math.sqrt(n), tau)
        assert np.array_equal(sim.field_rows(42, _PURPOSE_SAMPLES, 1, n, reps)[:],
                              expected)
        rng = substream(42, harness._PURPOSE_MARTINGALE)
        for got, m in zip(sim.partial_sum_rows(42, n, 300, reps), (n, 300)):
            c = rng.multinomial(m, sim.probs, size=reps).astype(float)
            want = fixed_order_product(c - m * w, tau)
            assert np.array_equal(got[:], want)
            assert np.array_equal(got.columns(0, want.shape[1]), want.T)


class TestMahalanobisIdentity:
    @pytest.mark.parametrize("name", EXPERIMENT_FILES)
    def test_pearson_at_full_rank(self, name):
        # at rank k - 1 the whitened squared norm of each replicate is
        # Pearson's chi-square of the counts it was simulated from
        cfg = config_from_json(load_config(name), seed=42)
        base = validate_localized(cfg.measure, cfg.validation_config()).base
        net = resolve_net(base, cfg.net)
        sim = _FieldSimulator(cfg.measure, base, net)
        cov = cov_matrix(cfg.measure, base, net)
        w = sim.cov.weights
        k = len(w)
        for i, n in enumerate(cfg.sample_sizes):
            white = harness._whiten(
                sim.field_rows(42, _PURPOSE_SAMPLES, i, n, cfg.replicates), cov)
            assert white.shape[1] == k - 1
            counts = substream(42, _PURPOSE_SAMPLES, i).multinomial(
                n, sim.probs, size=cfg.replicates)
            pearson = ((counts - n * w) ** 2 / (n * w)).sum(axis=1)
            # relative to the chi-square mean dof where a count row hits n w
            np.testing.assert_allclose(np.sum(white ** 2, axis=1), pearson,
                                       rtol=1e-12, atol=1e-12 * (k - 1))


class TestMartingaleResidual:
    def test_partial_sum_unbiasedness(self, spider_uniform, spider_apex):
        net = build_net(spider_apex, 1.0)
        raw = {
            "measure": {"space": {"kind": "spider", "legs": 3},
                        "atoms": [{"point": [i, 1.0], "weight": 1 / 3}
                                  for i in range(3)]},
            "net": {"legs": [0, 1, 2]},
            "sample_sizes": [200],
            "replicates": 2000,
            "tests": ["martingale"],
            "martingale": {"n": 500, "k": 500},
        }
        rep = run_clt_experiment(config_from_json(raw, seed=99))
        assert rep.martingale["passed"]
        # the report carries the normalization caveat and the scaling factor
        assert "martingale" in rep.martingale["normalization_note"]
        assert rep.martingale["conditional_scaling_sqrt_n_over_n_plus_k"] == \
            pytest.approx(math.sqrt(0.5))
        for row in rep.martingale["directions"]:
            assert row["cross_moment"] <= row["cross_bound"]

    def test_cross_moment_rejects_non_increment(self, spider_uniform, spider_apex):
        # S_{n+k} from the full counts in place of the increment: the
        # mean can still look centered, but E[S_n S_{n+k}] = n Sigma_jj
        # is far over the cross-moment bound 4 sqrt(n k) Sigma_jj / sqrt(R)
        n, k, reps = 500, 500, 2000
        net = build_net(spider_apex, 1.0)
        sim = _FieldSimulator(spider_uniform, spider_apex, net)
        cov = cov_matrix(spider_uniform, spider_apex, net)
        head, tail = sim.partial_sum_rows(99, n, k, reps)
        assert all(r["passed"] for r in _martingale_rows(head, tail, cov, n, k))
        # S_{n+k} held as the summed counts of the head and tail draws
        rng = substream(99, harness._PURPOSE_MARTINGALE)
        counts = sum(rng.multinomial(m, sim.probs, size=reps) for m in (n, k))
        full = harness._CountField(sim.cov, counts, n + k, 1.0)
        rows = _martingale_rows(head, full, cov, n, k)
        diag = np.diag(cov.entries)
        for r in rows:
            assert not r["passed"]
            assert r["cross_moment"] > r["cross_bound"]
            assert r["cross_moment"] == pytest.approx(n * diag[r["direction"]], rel=0.2)

    @pytest.mark.parametrize("radius", [1.0, 1e-7])
    def test_cross_moment_gate_is_scale_free(self, spider3, spider_apex, radius):
        # the head as its own increment is perfectly correlated, so every
        # direction fails at every scale: the rounding slack scales with
        # max|P| and does not swallow the bounds of a small measure
        measure = DiscreteMeasure(
            spider3, tuple((Point(spider3, (i, radius)), 1.0 / 3.0) for i in range(3)))
        net = build_net(spider_apex, 1.0)
        sim = _FieldSimulator(measure, spider_apex, net)
        n = k = 1000
        head, _ = sim.partial_sum_rows(3, n, k, 500)
        rows = _martingale_rows(head, head, sim.cov, n, k)
        assert len(rows) == 3
        for r in rows:
            assert not r["passed"]
            assert r["cross_moment"] > 5.0 * r["cross_bound"]

    @pytest.mark.parametrize("name", EXPERIMENT_FILES)
    def test_partial_sums_are_two_multinomial_draws(self, name):
        # the head counts of n draws, then the tail counts of k draws, from
        # one martingale substream
        cfg = config_from_json(load_config(name), seed=42)
        base = validate_localized(cfg.measure, cfg.validation_config()).base
        sim = _FieldSimulator(cfg.measure, base, resolve_net(base, cfg.net))
        n, k, reps = 700, 300, 200
        rng = substream(42, harness._PURPOSE_MARTINGALE)
        counts = [rng.multinomial(m, sim.probs, size=reps).astype(float) for m in (n, k)]
        head, tail = sim.partial_sum_rows(42, n, k, reps)
        w, tau = sim.cov.weights, sim.cov.tau
        assert np.array_equal(head[:], fixed_order_product(counts[0] - n * w, tau))
        assert np.array_equal(tail[:], fixed_order_product(counts[1] - k * w, tau))


class TestMomentExpansionOracle:
    """Exhaustive enumeration over all ordered sample tuples at tiny n:
    an independent check of the fourth-moment expansion the harness
    asserts exactly (3(1-1/n) e2^2 + e4/n) and of the finite-n
    covariance identity E[G_n(V) G_n(U)] = Sigma(V, U)."""

    def _enumerate(self, tau, weights, n):
        import itertools
        k = len(weights)
        e_g4 = np.zeros(tau.shape[1])
        e_gg = np.zeros((tau.shape[1], tau.shape[1]))
        for tup in itertools.product(range(k), repeat=n):
            prob = float(np.prod([weights[i] for i in tup]))
            g = tau[list(tup), :].sum(axis=0) / math.sqrt(n)
            e_g4 += prob * g**4
            e_gg += prob * np.outer(g, g)
        return e_g4, e_gg

    def test_fourth_moment_expansion_exact(self, spider_uniform, spider_apex):
        net = build_net(spider_apex, 1.0)
        sim = _FieldSimulator(spider_uniform, spider_apex, net)
        tau = sim.cov.tau
        w = spider_uniform.weights
        for n in (2, 3, 4):
            e_g4, e_gg = self._enumerate(tau, w, n)
            e2 = w @ tau**2
            e4 = w @ tau**4
            expansion = 3.0 * (1.0 - 1.0 / n) * e2**2 + e4 / n
            assert np.max(np.abs(e_g4 - expansion)) <= 1e-12
            cov = cov_matrix(spider_uniform, spider_apex, net)
            assert np.max(np.abs(e_gg - cov.entries)) <= 1e-12

    def test_increment_expansion_exact(self, spider_weighted, spider3):
        base = Point(spider3, (1, 0.6))
        net = build_net(base, 1.0)
        sim = _FieldSimulator(spider_weighted, base, net)
        tau = sim.cov.tau
        w = spider_weighted.weights
        delta = (tau[:, 0] - tau[:, 1])[:, None]
        for n in (2, 3):
            e_d4, _ = self._enumerate(delta, w, n)
            e2 = float(w @ delta[:, 0] ** 2)
            e4 = float(w @ delta[:, 0] ** 4)
            expansion = 3.0 * (1.0 - 1.0 / n) * e2 * e2 + e4 / n
            assert abs(float(e_d4[0]) - expansion) <= 1e-12


class TestIncrementReference:
    @pytest.mark.parametrize("name, net, replicates", [
        ("openbook3_spine.json", None, None),
        ("flatcone4_star.json", None, None),
        ("openbook3_spine.json", {"epsilon": 0.1}, 1000),  # 95 directions
    ])
    def test_matches_pair_loop(self, name, net, replicates):
        raw = load_config(name)
        if net is not None:
            raw["net"] = net
        if replicates is not None:
            raw["replicates"] = replicates
        # the replicate count no longer matters: the increments draw no field
        cfg = config_from_json(raw, seed=17)
        base = validate_localized(cfg.measure, cfg.validation_config()).base
        sim = _FieldSimulator(cfg.measure, base, resolve_net(base, cfg.net))
        n = cfg.sample_sizes[0]
        assert net is None or len(sim.cov.net) == 95
        # the measure's moment constants, and constants shrunk until the
        # bound splits the pairs, so the flag takes both values
        gammas = (cfg.measure.moment(base, 2), cfg.measure.moment(base, 4))
        for g2, g4 in (gammas, (-0.8, -0.8)):
            got = _increment_test(sim.cov, n, g2, g4)
            want = increment_pairs_loop(sim.cov, n, g2, g4)
            assert [(r["i"], r["j"]) for r in got["pairs"]] == \
                [(r["i"], r["j"]) for r in want]
            assert got["pairs"].dtype.names == tuple(want[0].keys())
            for g, w in zip(got["pairs"], want):
                for key in ("angular_distance", "bound", "passed"):
                    assert g[key] == w[key], key
                for key in ("exact_fourth_moment", "ratio"):
                    assert g[key] == pytest.approx(w[key], rel=1e-14, abs=0.0), key
            assert got["passed"] == all(r["passed"] for r in want)
        assert {r["passed"] for r in want} == {True, False}


class TestIncrementPower:
    """The exact increment check alone sees a pairing matrix that is not
    the geometry's: a seeded uniform k x m matrix at the true max|P| has
    increments that do not shrink with the direction metric."""

    @staticmethod
    def _run(name, monkeypatch):
        real = fields.pairing_matrix

        def random_pairings(tm, net):
            pair = real(tm, net)
            rng = np.random.default_rng(2024)
            return rng.uniform(-1.0, 1.0, pair.shape) * np.abs(pair).max()

        monkeypatch.setattr(fields, "pairing_matrix", random_pairings)
        raw = load_config(name)
        raw.update(sample_sizes=[1000], replicates=100, tests=["increments"])
        raw.pop("modulus", None)
        if name != "spider3_uniform.json":
            raw["net"] = {"epsilon": 0.1}
        return run_clt_experiment(config_from_json(raw, seed=3))

    @pytest.mark.parametrize("name", ["openbook3_spine.json", "flatcone4_star.json"])
    def test_random_pairings_fail(self, name, monkeypatch):
        report = self._run(name, monkeypatch)
        pairs = report.per_n[1000]["increments"]["pairs"]
        assert len(pairs) == 4465
        assert not report.passed
        failed = pairs[~pairs["passed"]]
        # the failing pairs are the near ones, where the bound is small
        assert len(failed) > 100
        assert np.all(failed["exact_fourth_moment"] > failed["bound"])
        assert failed["angular_distance"].max() < np.median(pairs["angular_distance"])

    def test_spider_legs_pass(self, monkeypatch):
        # the three legs are pi apart, where the bound holds any pairings
        report = self._run("spider3_uniform.json", monkeypatch)
        pairs = report.per_n[1000]["increments"]["pairs"]
        assert np.all(pairs["angular_distance"] == math.pi)
        assert report.passed and pairs["passed"].all()


def fine_sim(name, net, seed=17):
    """The simulator of a bundled config on the given net."""
    raw = load_config(name)
    raw["net"] = net
    cfg = config_from_json(raw, seed=seed)
    base = validate_localized(cfg.measure, cfg.validation_config()).base
    return _FieldSimulator(cfg.measure, base, resolve_net(base, cfg.net))


def fine_values(name, net, n, replicates, seed=17):
    """(sim, values) for a bundled config on the given net at sample size
    n, the values direction-major, one row per net direction."""
    sim = fine_sim(name, net, seed)
    field = sim.field_rows(seed, _PURPOSE_SAMPLES, 0, n, replicates)
    return sim, field.columns(0, field.shape[1])


class TestMcFourth:
    @pytest.mark.parametrize("axis", [0, 1])
    def test_matches_mean_and_std(self, axis):
        # along axis 1 of x, or along axis 0 through the strided rows of x.T
        x = np.random.default_rng(5).standard_normal((301, 17)) * 3.0
        rows = x if axis == 1 else x.T
        # the array itself, and leading rows of a larger buffer as
        # _moment_test passes them
        spare = np.empty((rows.shape[0] + 50, rows.shape[1]))
        spare[:len(rows)] = rows
        for arg in (rows, spare[:len(rows)]):
            x4 = arg * arg
            x4 *= x4
            want = (x4.mean(axis=1), x4.std(axis=1, ddof=1) / math.sqrt(arg.shape[1]))
            got = _mc_fourth(arg)
            for g, w in zip(got, want):
                assert g.shape == w.shape
                assert np.array_equal(g, w)


class TestIncrementNets:
    @pytest.mark.parametrize("net", [
        {"page_angles": [[0, 0.5]]},
        {"page_angles": [[0, 0.5], [1, 2.0]]},
        {"epsilon": 0.1},  # 95 directions
    ])
    def test_rows_match_per_pair_moments(self, net):
        cov = fine_sim("openbook3_spine.json", net).cov
        m = len(cov.net)
        got = _increment_test(cov, 1000, 1.0, 1.0)
        assert [(r["i"], r["j"]) for r in got["pairs"]] == \
            [(i, j) for i in range(m) for j in range(i + 1, m)]
        # each row holds its own pair's moment, bit for bit as the formula
        # gives it on that pair alone
        tau_t = cov.tau.T
        for r in got["pairs"][::37]:
            delta = tau_t[r["i"]] - tau_t[r["j"]]
            assert r["exact_fourth_moment"] == \
                harness._exact_fourth(delta[None], cov.weights, 1000)[0]

    @pytest.mark.parametrize("gammas", [(1.0, 1.0), (-0.8, -0.8)])
    def test_summary_matches_rows(self, gammas):
        # a repeated direction puts one pair at distance 0
        sim = fine_sim("spider3_uniform.json", {"legs": [0, 0, 1, 2]})
        inc = _increment_test(sim.cov, 100, *gammas)
        sim95 = fine_sim("openbook3_spine.json", {"epsilon": 0.1})
        inc95 = _increment_test(sim95.cov, 1000, *gammas)
        for result, m in ((inc, 4), (inc95, 95)):
            summary = _increment_summary(result)
            assert summary["pairs"] == m * (m - 1) // 2
            assert sum(b["pairs"] for b in summary["bins"]) == summary["pairs"]
            assert summary["passed"] == result["passed"]
            for b in summary["bins"]:
                k = b["log2_distance"]
                rows = [r for r in result["pairs"]
                        if (None if r["angular_distance"] == 0.0
                            else math.floor(math.log2(r["angular_distance"]))) == k]
                worst = max(rows, key=lambda r: r["ratio"])
                assert b["pairs"] == len(rows)
                assert b["failed"] == sum(not r["passed"] for r in rows)
                assert b["worst_ratio"] == worst["ratio"]
                assert b["worst_pair"] == [worst["i"], worst["j"]]
        assert [b["log2_distance"] for b in _increment_summary(inc)["bins"]] == [None, 1]
        if gammas[0] < 0.0:
            assert any(b["failed"] for b in _increment_summary(inc95)["bins"])


class TestWorkingSet:
    """tracemalloc peaks on the 95-direction openbook3_spine net at
    R = 5000: a run holds one m x R array and the per-direction tests
    blocks of its rows; the increments hold their pair array and one
    direction's row of pairs, with no field; the modulus field is formed
    from its counts a block of replicates at a time."""

    R = 5000

    @staticmethod
    def _peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_increment_test_peak(self):
        cov = fine_sim("openbook3_spine.json", {"epsilon": 0.1}).cov
        results = []
        peak = self._peak(lambda: results.append(_increment_test(cov, 10000, 1.0, 1.0)))
        pairs = results[0]["pairs"]
        assert len(pairs) == 95 * 94 // 2
        # the pair array, the index, distance and bound columns it is filled
        # from (the bounds as a Python list), and one direction's row of
        # pairs: 2.8 times the pair array, where the k x pairs differences
        # of all pairs at once would take it above 5
        assert peak <= 3.5 * pairs.nbytes

    def test_ks_test_peak(self):
        sim, values = fine_values("openbook3_spine.json", {"epsilon": 0.1},
                                  10000, self.R)
        cov = sim.cov
        # the sorted block and the rough CDF's arrays, four rows wide
        peak = self._peak(lambda: _ks_test(values, cov, 0.03, 1e-10))
        assert peak <= 0.5 * values.nbytes

    def test_modulus_test_peak(self):
        # the bundled modulus input: 2414 directions, R = 500; its whole
        # field would be 500 x 2414 x 8 bytes, about 9.7 MB
        cfg = config_from_json(load_config("openbook3_spine.json"), seed=42)
        base = validate_localized(cfg.measure, cfg.validation_config()).base
        results = []
        peak = self._peak(lambda: results.append(_modulus_test(
            cfg.measure, base, 42, cfg.modulus, 1.5)))
        assert results[0]["net_size"] == 2414 and cfg.modulus.replicates == 500
        assert peak < 500 * 2414 * 8 / 4

    def test_run_peak(self):
        raw = load_config("openbook3_spine.json")
        raw["net"] = {"epsilon": 0.1}
        raw["replicates"] = self.R
        raw["tests"] = [t for t in raw["tests"] if t != "modulus"]
        raw.pop("modulus")
        cfg = config_from_json(raw, seed=42)
        reports = []
        peak = self._peak(lambda: reports.append(run_clt_experiment(cfg)))
        assert len(reports[0].net) == 95
        assert peak <= 1.5 * self.R * 95 * 8


# every block size of the fixed-order product, the per-direction tests,
# the modulus table and the report's table rows
BLOCK_CONSTANTS = ((fields, "_PRODUCT_CHUNK"), (harness, "_KS_BLOCK"),
                   (harness, "_COLUMN_BLOCK"), (regularity, "_BLOCK"),
                   (harness, "_CSV_BLOCK"))


def block_test_config(name: str) -> dict:
    if name == "book_modulus":
        raw = small_config("openbook3_spine.json")
        raw["modulus"] = {"epsilon": 2.0 ** -5, "radii_log2": [2, 3, 4],
                          "n": 200, "replicates": 100}
        return raw
    raw = small_config("openbook3_spine.json", sample_sizes=[1000], replicates=300)
    raw["net"] = {"epsilon": 0.1}
    raw["tests"] = [t for t in raw["tests"] if t != "modulus"]
    raw.pop("modulus")
    return raw


def report_text(raw: dict) -> tuple:
    rep = run_clt_experiment(config_from_json(raw, seed=5))
    tables = {name: [repr(row) for row in rows] for name, rows in rep.tables().items()}
    return json.dumps(rep.to_json(), sort_keys=True), tables


class TestBlockSizeInvariance:
    @pytest.mark.parametrize("size", [1, 2 ** 40])
    @pytest.mark.parametrize("name", ["book_modulus", "book_fine_net"])
    def test_reports_identical(self, name, size, monkeypatch):
        # blocks of one element (one row, one column or one replicate) and
        # blocks that cover the whole array give the same bits
        raw = block_test_config(name)
        want = report_text(raw)
        for module, attr in BLOCK_CONSTANTS:
            monkeypatch.setattr(module, attr, size)
        got = report_text(raw)
        assert got[0] == want[0]
        assert got[1].keys() == want[1].keys()
        for table in want[1]:
            assert got[1][table] == want[1][table], table
        if name == "book_modulus":
            assert "modulus.csv" in want[1]
        else:
            assert len(json.loads(want[0])["net"]) == 95

    def test_field_blocks_match_whole_array(self):
        sim = fine_sim("openbook3_spine.json", {"epsilon": 0.1})
        field = sim.field_rows(3, _PURPOSE_MODULUS, 0, 1000, 37)
        whole = fixed_order_product(field.xi.T, sim.cov.tau)
        assert np.array_equal(field[:], whole)
        for lo, hi in ((0, 1), (5, 17), (36, 37), (0, 37)):
            assert np.array_equal(field[lo:hi], whole[lo:hi])
        for lo, hi in ((0, 1), (3, 40), (94, 95), (0, 95)):
            assert np.array_equal(field.columns(lo, hi), whole[:, lo:hi].T)


class TestBracketedKs:
    def test_rough_cdf_error(self):
        z = np.linspace(-40.0, 40.0, 160_001)
        assert np.max(np.abs(_rough_normal_cdf(z) - normal_cdf(z))) <= 1e-7

    def test_equals_ks_distance_on_random_samples(self):
        rng = np.random.default_rng(23)
        for trial in range(300):
            n = int(rng.integers(1, 400))
            sigma = float(np.exp(rng.uniform(-3.0, 3.0)))
            x = rng.standard_normal((n, 1)) * sigma * rng.uniform(0.5, 2.0)
            if trial % 3 == 0:
                x = np.round(x, 1)  # ties
            want = ks_distance(x[:, 0], lambda t: normal_cdf(t / sigma))
            assert _normal_ks(x.T, np.array([0]), np.array([sigma]))[0] == want

    def test_equals_ks_distance_at_midpoint_quantiles(self):
        # every deviation is 1/(2n) up to rounding, far inside the rough
        # CDF's error, so the maximum sits at an index the rough CDF cannot
        # single out; only the bracket keeps it
        for n in (10, 99, 1000, 4000):
            for sigma in (0.3, 1.0, 7.0):
                x = special.ndtri((np.arange(n) + 0.5) / n)[:, None] * sigma
                want = ks_distance(x[:, 0], lambda t: normal_cdf(t / sigma))
                assert _normal_ks(x.T, np.array([0]), np.array([sigma]))[0] == want

    @pytest.mark.parametrize("name, net", [
        ("spider3_uniform.json", {"legs": [0, 1, 2]}),
        ("flatcone4_star.json", {"epsilon": 0.5}),
        ("openbook3_spine.json", {"epsilon": 0.1}),
    ])
    def test_equals_ks_distance_on_lattice_fields(self, name, net):
        # at n = 100 the field takes few distinct values: ties everywhere
        sim, values = fine_values(name, net, 100, 500)
        cov = sim.cov
        rows = _ks_test(values, cov, 0.03, 1e-10)["directions"]
        assert len(rows) == len(sim.cov.net)
        for j, r in enumerate(rows):
            sigma = math.sqrt(cov.entries[j, j])
            want = ks_distance(values[j], lambda t: normal_cdf(t / sigma))
            assert r["ks"] == want


class TestZeroVarianceDirection:
    def test_orthogonal_direction_asserted_zero(self):
        # atoms along one axis: the orthogonal direction has zero variance
        # and its field values must vanish identically
        raw = {
            "measure": {"space": {"kind": "euclidean", "dim": 2},
                        "atoms": [{"point": [-1.0, 0.0], "weight": 0.5},
                                  {"point": [1.0, 0.0], "weight": 0.5}]},
            "base": [0.0, 0.0],
            "net": {"vectors": [[1.0, 0.0], [0.0, 1.0]]},
            "sample_sizes": [500],
            "replicates": 150,
            "tests": ["ks"],
            "thresholds": {"ks": 0.2},
        }
        rep = run_clt_experiment(config_from_json(raw, seed=8))
        rows = rep.per_n[500]["ks"]["directions"]
        assert rows[0]["ks"] is not None        # along the atoms: KS tested
        assert rows[1]["ks"] is None            # orthogonal: asserted zero
        assert rows[1]["max_abs"] <= 1e-10
        assert rep.per_n[500]["ks"]["passed"]

    @pytest.mark.parametrize("scale", [1.0, 1e9])
    def test_zero_field_check_is_scale_free(self, scale):
        # both atoms sit 0.1 scale above the axis of their mean, so the
        # field at (0, 1) is the rounding of the mean, 7.4e-17 scale: it
        # passes against zero_variance max|P| at every scale, where an
        # absolute 1e-10 failed it at 1e9
        raw = {
            "measure": {"space": {"kind": "euclidean", "dim": 2},
                        "atoms": [{"point": [scale, 0.1 * scale], "weight": 0.3},
                                  {"point": [-scale, 0.1 * scale], "weight": 0.7}]},
            "net": {"vectors": [[0.0, 1.0], [1.0, 0.0]]},
            "sample_sizes": [1000],
            "replicates": 200,
            "tests": ["ks", "mahalanobis"],
            "thresholds": {"ks": 0.2, "mahalanobis_ks": 0.2},
        }
        rep = run_clt_experiment(config_from_json(raw, seed=1))
        zero = rep.per_n[1000]["ks"]["directions"][0]
        assert zero["ks"] is None
        assert 0.0 < zero["max_abs"] <= 1e-10 * 1.4 * scale
        assert rep.passed

    def test_cut_is_scale_free(self):
        # the 3-spider with its atoms at radius 1 and at 1e-7 draws the same
        # counts, so its fields differ by the scale alone: no direction is
        # cut as zero-variance at the small scale, and every verdict agrees
        runs = []
        for radius in (1.0, 1e-7):
            raw = load_config("spider3_uniform.json")
            for atom in raw["measure"]["atoms"]:
                atom["point"][1] = radius
            raw.update(sample_sizes=[1000], replicates=500, tests=["ks"],
                       thresholds={"ks": 0.2})
            rep = run_clt_experiment(config_from_json(raw, seed=3))
            runs.append(rep.per_n[1000]["ks"]["directions"])
        for big, small in zip(*runs):
            assert small["passed"] == big["passed"]
            assert small["ks"] == pytest.approx(big["ks"], abs=1e-9)
