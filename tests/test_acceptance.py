"""Acceptance suite: one test per criterion, stated tolerances, one
printed PASS line each (run with ``pytest -s`` to see them live)."""

import json
import math

import numpy as np
import pytest

from stratclt import (
    Direction,
    Point,
    SpaceSpec,
    TangentVector,
    apex,
    build_net,
    config_from_json,
    cov_matrix,
    dimension_constant,
    distance,
    exp_map,
    frechet_mean,
    geodesic_point,
    log_map,
    pushforward,
    run_clt_experiment,
)
from stratclt.fields import pairing_matrix
from stratclt.geometry import D_LEG, D_SIGN
from stratclt.harness import _FieldSimulator, _PURPOSE_SAMPLES, _modulus_test, ModulusSpec
from stratclt.cli import main as cli_main

from .conftest import load_config
from .test_fields import bundled_cases
from .test_geometry import crosses_branch_point, random_point
from .oracles import comparison_median, refine_net
from .reference import angular_pairing, escape_cone_contains, tangent_mean

SP3 = SpaceSpec.spider(3)
OB3 = SpaceSpec.open_book(3)
FC = SpaceSpec.flat_cone(3 * math.pi)
E2 = SpaceSpec.euclidean(2)
ALPHA = 3 * math.pi

pytestmark = pytest.mark.acceptance


def report(num, detail):
    print(f"ACCEPTANCE {num}: PASS  {detail}", flush=True)


def test_criterion_01_geometry_axioms():
    """Metric axioms, thin triangles, Cauchy-Schwarz, log/exp round trips
    on 10^4-10^5 randomized cases per model space, tolerances <= 1e-9."""
    rng = np.random.default_rng(2024)
    spaces = (E2, SP3, OB3, FC)
    for space in spaces:
        for _ in range(10_000):
            p, q, r = (random_point(space, rng) for _ in range(3))
            dpq = distance(p, q)
            assert dpq >= 0.0
            assert abs(dpq - distance(q, p)) <= 1e-10
            assert dpq <= distance(p, r) + distance(r, q) + 1e-10
        p = random_point(space, rng)
        assert distance(p, p) == 0.0

    for space in (SP3, OB3, FC):
        checked = 0
        while checked < 10_000:
            a, b, c = (random_point(space, rng) for _ in range(3))
            mid = geodesic_point(b, c, 0.5)
            comparison = comparison_median(distance(b, c), distance(a, b),
                                           distance(a, c))
            assert distance(a, mid) <= comparison + 1e-9
            checked += 1

    cs_checked = 0
    a = apex(FC)
    spine = Point(OB3, (0, 0.0, 0.0))
    while cs_checked < 100_000:
        phi1, phi2 = rng.uniform(0, ALPHA, 2)
        l1, l2 = rng.uniform(1e-6, 2.0, 2)
        v = TangentVector(a, Direction(a, "angle", (float(phi1),)), float(l1))
        w = TangentVector(a, Direction(a, "angle", (float(phi2),)), float(l2))
        assert abs(angular_pairing(v, w)) <= v.length * w.length + 1e-12
        cs_checked += 1

    for space in spaces:
        done = 0
        while done < 10_000:
            base, x = random_point(space, rng), random_point(space, rng)
            v = log_map(base, x)
            if not crosses_branch_point(base, x):
                assert distance(exp_map(base, v), x) <= 1e-10
            done += 1
    report(1, "metric axioms, CAT(0) comparison, Cauchy-Schwarz, round trips")


def test_criterion_02_spider_oracle_suite(spider_uniform, spider_apex):
    """Exact enumeration values on the uniform-thirds spider."""
    diag = frechet_mean(spider_uniform)
    assert diag.mean == apex(SP3)
    assert diag.certificate.sup_tangent_mean == -1.0 / 3.0
    for leg in range(3):
        v = TangentVector(spider_apex, Direction(spider_apex, D_LEG, (leg,)), 1.0)
        assert tangent_mean(spider_uniform, spider_apex, v) == -1.0 / 3.0
        assert -tangent_mean(spider_uniform, spider_apex, v) == 1.0 / 3.0
    net = build_net(spider_apex, 1.0)
    cov = cov_matrix(spider_uniform, spider_apex, net)
    expected = np.full((3, 3), -4.0 / 9.0) + np.eye(3) * (8.0 / 9.0 + 4.0 / 9.0)
    assert np.max(np.abs(cov.entries - expected)) <= 1e-12
    eigs = np.sort(np.linalg.eigvalsh(cov.entries))
    assert np.max(np.abs(eigs - np.array([0.0, 4.0 / 3.0, 4.0 / 3.0]))) <= 1e-12
    report(2, "mean=apex, m=-1/3, grad=+1/3, Sigma and eigenvalues exact")


def test_criterion_03_sticky_dichotomy(spider_uniform, spider_weighted):
    """Weighted measure: interior mean with escape cone along the leg;
    uniform measure: sticky apex with strictly positive leg derivatives."""
    diag_w = frechet_mean(spider_weighted)
    leg, r = diag_w.mean.coords
    assert leg == 1 and abs(r - 0.6) <= 1e-3
    assert not diag_w.sticky
    for sign in (1, -1):
        v = TangentVector(diag_w.mean, Direction(diag_w.mean, D_SIGN, (sign,)), 1.0)
        assert escape_cone_contains(spider_weighted, diag_w.mean, v, tol=1e-6)

    diag_u = frechet_mean(spider_uniform)
    assert diag_u.mean == apex(SP3)
    assert diag_u.sticky and diag_u.sticky_stratum == "apex"
    for leg in range(3):
        v = TangentVector(diag_u.mean, Direction(diag_u.mean, D_LEG, (leg,)), 1.0)
        d = -tangent_mean(spider_uniform, diag_u.mean, v)
        assert d >= 1.0 / 3.0 - 1e-9
    report(3, "weighted mean (leg1, 0.600) non-sticky; uniform apex sticky")


def test_criterion_04_kernel_bounds_exact():
    """Pointwise/second-moment/kernel continuity bounds hold exactly
    (tolerance 1e-10) over all atoms and net pairs, all bundled measures."""
    for mu, base, net in bundled_cases():
        tm = pushforward(mu, base)
        pair = pairing_matrix(tm, net)
        w = mu.weights
        centered = pair - w @ pair
        cov = centered.T @ (w[:, None] * centered)
        dmat = net.pairwise_distances()
        lengths = np.array([v.length for v, _ in tm.atoms])
        e_d = float(w @ lengths)
        e_d2 = float(w @ lengths**2)
        m = len(net)
        for u in range(m):
            diffs = centered - centered[:, u][:, None]  # atoms x directions
            assert np.all(np.abs(diffs) <=
                          (e_d + lengths)[:, None] * dmat[u] + 1e-10)
            second = w @ diffs**2
            assert np.all(second <= 4.0 * e_d2 * dmat[u] ** 2 + 1e-10)
            kernel_step = np.abs(cov[u][:, None] - cov[u][None, :])
            assert np.all(kernel_step <= 4.0 * math.sqrt(e_d2) * dmat + 1e-10)
    report(4, "pointwise and kernel bounds exact on all bundled measures")


def test_criterion_05_clt_finite_dimensional():
    """n = 10^4, R = 5000: Euclidean KS < 0.03; spider per-leg KS < 0.03,
    chi-square KS < 0.05, covariance sup-error < 0.05, leg sums exact."""
    raw_e = load_config("euclidean_pm1.json")
    raw_e["sample_sizes"] = [10000]
    rep_e = run_clt_experiment(config_from_json(raw_e, seed=20240501))
    ks_e = rep_e.per_n[10000]["ks"]["directions"][0]["ks"]
    assert ks_e < 0.03

    raw_s = load_config("spider3_uniform.json")
    raw_s["sample_sizes"] = [10000]
    rep_s = run_clt_experiment(config_from_json(raw_s, seed=20240502))
    tests = rep_s.per_n[10000]
    for row in tests["ks"]["directions"]:
        assert row["variance"] == pytest.approx(8.0 / 9.0, abs=1e-12)
        assert row["ks"] < 0.03
    assert tests["mahalanobis"]["dof"] == 2
    assert tests["mahalanobis"]["atoms"] == 3 and tests["mahalanobis"]["pearson"]
    assert tests["mahalanobis"]["ks"] < 0.05
    assert tests["cov"]["sup_error"] < 0.05

    measure = config_from_json(raw_s, seed=20240502).measure
    sim = _FieldSimulator(measure, rep_s.base, rep_s.net)
    vals = sim.field_rows(20240502, _PURPOSE_SAMPLES, 0, 10000, 5000, 1)[:]
    assert np.max(np.abs(vals.sum(axis=1))) <= 1e-10
    report(5, f"euclid KS={ks_e:.4f}; spider KS/chi2/cov within thresholds; "
              "leg sums exact")


def test_criterion_06_moment_bounds():
    """Fourth-moment and increment bounds with explicit constants hold
    at n in {100, 1000, 10000} within 3 MC standard errors, all examples."""
    for name in ("euclidean_pm1.json", "spider3_uniform.json",
                 "spider3_weighted.json", "openbook3_spine.json",
                 "flatcone4_star.json"):
        raw = load_config(name)
        raw["sample_sizes"] = [100, 1000, 10000]
        raw["replicates"] = 2000
        raw["tests"] = ["moments", "increments"]
        raw.pop("modulus", None)
        rep = run_clt_experiment(config_from_json(raw, seed=611))
        for n, tests in rep.per_n.items():
            assert tests["moments"]["passed"], (name, n)
            for row in tests["moments"]["directions"]:
                assert row["exact_ok"]
            assert tests["increments"]["passed"], (name, n)
            for row in tests["increments"]["pairs"]:
                assert row["exact_ok"]
    report(6, "Monte Carlo fourth moments respect the explicit two-term "
              "bounds at n=100/1000/10000 on all examples")


def test_criterion_07_martingale_residual():
    """Partial-sum martingale residual at (n, k, R) = (1000, 1000, 5000)
    on all examples, with the normalization caveat in the report."""
    for name in ("euclidean_pm1.json", "spider3_uniform.json",
                 "spider3_weighted.json", "openbook3_spine.json",
                 "flatcone4_star.json"):
        raw = load_config(name)
        raw["sample_sizes"] = [200]
        raw["replicates"] = 5000
        raw["tests"] = ["martingale"]
        raw["martingale"] = {"n": 1000, "k": 1000}
        raw.pop("modulus", None)
        rep = run_clt_experiment(config_from_json(raw, seed=712))
        assert rep.martingale["passed"], name
        assert "not itself a martingale" in rep.martingale["normalization_note"]
        assert rep.martingale["conditional_scaling_sqrt_n_over_n_plus_k"] == \
            pytest.approx(math.sqrt(0.5))
    report(7, "S_{n+k} - S_n residual within 4 sqrt(k Sigma / R) and its "
              "cross-moment with S_n within 4 sqrt(n k) Sigma / sqrt(R); "
              "normalization discrepancy flagged")


def test_criterion_08_covering_dimension():
    """Spider d = 0 exactly; cone and book direction spaces give slope in
    [0.9, 1.1]; every estimate at most the stratum-dimension bound."""
    prof_spider = dimension_constant(apex(SP3), 8)
    assert prof_spider.d_estimate == 0.0
    assert prof_spider.counts == tuple([3] * 8)

    prof_cone = dimension_constant(apex(FC), 8)
    assert 0.9 <= prof_cone.d_estimate <= 1.1
    prof_book = dimension_constant(Point(OB3, (0, 0.0, 0.0)), 8)
    assert 0.9 <= prof_book.d_estimate <= 1.1

    for prof in (prof_spider, prof_cone, prof_book):
        # 1e-9 slack absorbs fp rounding in the log2 regression
        assert prof.d_estimate <= prof.stratum_dim_bound + 1e-9
    report(8, f"d: spider={prof_spider.d_estimate:.3f} "
              f"cone={prof_cone.d_estimate:.3f} book={prof_book.d_estimate:.3f}")


def test_criterion_09_tightness_and_chaining(book_spine_measure):
    """Open book, 5 atoms, n = 1000, R = 500: truncated expected modulus
    nonincreasing and dropping >= 1.5x from m=2 to m=6; dyadic increment
    fourth moments decay geometrically under the fitted constant."""
    base = Point(OB3, (0, 0.0, 0.0))
    spec = ModulusSpec(epsilon=2.0 ** -8, radii_log2=(2, 3, 4, 5, 6),
                       n=1000, replicates=500)
    result = _modulus_test(book_spine_measure, base, 906, spec, 1.5)
    agg = result["aggregate"]
    assert result["monotone_within_error"]
    assert agg[0] / max(agg[-1], 1e-300) >= 1.5
    assert result["passed"]

    # chaining statistic on the empirical field: E xi_k^4 <= K 2^{-k(4-d)}
    k_range = list(range(2, 7))
    nets = {k_range[0]: build_net(base, 2.0 ** -k_range[0])}
    for k in k_range[1:]:
        nets[k] = refine_net(base, nets[k - 1])
    fine = nets[k_range[-1]]
    sim = _FieldSimulator(book_spine_measure, base, fine)
    draws = sim.field_rows(907, _PURPOSE_SAMPLES, 0, 1000, 500, 1)[:]
    desc = {s: i for i, s in enumerate(fine.descriptors())}
    xi4 = []
    for k in k_range:
        idx = [desc[s] for s in nets[k].descriptors()]
        vals = draws[:, idx]
        dmat = nets[k].pairwise_distances()
        iu, ju = np.triu_indices(len(nets[k]), k=1)
        mask = dmat[iu, ju] <= 2.0 ** -k
        sup = np.abs(vals[:, iu[mask]] - vals[:, ju[mask]]).max(axis=1)
        xi4.append(float(np.mean(sup**4)))
    d_dim, a = 1.0, 4.0
    fitted_k = xi4[0] / 2.0 ** (-k_range[0] * (a - d_dim))
    for k, val in zip(k_range, xi4):
        assert val <= fitted_k * 2.0 ** (-k * (a - d_dim)) * (1 + 1e-9)
    drop = agg[0] / agg[-1]
    report(9, f"modulus drop x{drop:.1f} (>= 1.5), xi_k^4 geometric decay")


def test_criterion_10_reproducibility(tmp_path):
    """cmd_clt: byte-identical primary outputs across reruns (manifest
    timestamps excluded)."""
    raw = load_config("spider3_uniform.json")
    raw["sample_sizes"] = [1000]
    raw["replicates"] = 500
    # reproducibility is under test here, not statistical power: widen the
    # thresholds so the run exits 0 at this replicate count
    raw["thresholds"] = {"ks": 0.2, "mahalanobis_ks": 0.2, "cov_sup": 0.3}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    blobs = []
    for tag in ("r1", "r2"):
        outdir = tmp_path / tag
        code = cli_main(["clt", "--config", str(cfg_path), "--seed", "424242",
                         "--out", str(outdir)])
        assert code in (0, 2)
        blob = {f.name: f.read_bytes() for f in sorted(outdir.iterdir())
                if f.name != "manifest.json"}
        blobs.append(blob)
    assert blobs[0] == blobs[1]
    report(10, "byte-identical report.json and CSVs across reruns")
