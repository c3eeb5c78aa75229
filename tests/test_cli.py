import csv
import hashlib
import json
import math
import platform
from pathlib import Path

import numpy as np
import pytest

from stratclt.cli import main

from .conftest import CONFIG_DIR, load_config


# SHA-256 of each output of `clt --seed 42` on small_clt_config (the
# bundled spider3_uniform experiment, shrunk); the manifest is excluded
CLT_DIGESTS = {
    "cov.csv": "258b545bd6350a125ea7bc961acb93e903065f2ad8024e4acf8327974064be4b",
    "cov_matrix.csv": "2005e081d5050c10d35d6ed3c20b89a44ece773f87b5d4046de2b4e11494b96a",
    "increments.csv": "dfa7684f06d27b39b1cda6f65c7f6f416c168b63fec3c2c3ac5ab340934b61a5",
    "ks.csv": "69546142faf4216befc3a7852e23c97b78770a86ab133e823a884c1ee3724f65",
    "mahalanobis.csv": "7bd7f65873cf47ddf55f7a7acee5356cae6396e525eb66d2105aff8cdb019495",
    "martingale.csv": "cb74e065c1be58792faa2c98a963fa701397b19282a8e810df3a7cbc8a456195",
    "moments.csv": "ff21cf1ce84a977134767a2fae93be40a32a8ac779205fbe376ec080b300385f",
    "report.json": "966787742e5e288e57ea667b8503677c41966b351f875d62ca6dc58d846a7c9c",
}

# SHA-256 of each output of `clt --seed 42` on openbook3_spine with a
# 95-direction net (epsilon 0.1, modulus test off); the manifest is excluded
FINE_NET_DIGESTS = {
    "cov.csv": "d7b10b99bb3a571216d6bda97f404046f604ed30e89ef5e44aefe1b738ddfe6f",
    "cov_matrix.csv": "36c0451c75e7a0859d6e222c7a94ef76d8ce952e3840d195aac4eed40ab8f102",
    "increments.csv": "e05bcfcb408e0bae2940e2903239944f41346f53264d641714f0853492523bf4",
    "ks.csv": "f6df399ad26977d7af87cecea90a77c8529e8482c670569373c97de985b55267",
    "mahalanobis.csv": "5d792ebc5bff6b6fbed0422a228876bb8239db011d30c5ab929d4e3eeb10a4d1",
    "martingale.csv": "209106e2ae45bb601b4691af739bb0f9c290dbf7182b4d42b278135d4157f2a8",
    "moments.csv": "dc44abee4cafabcf0a57aac15c133e49ac8273b68ad52e1fee10709e8daea276",
    "report.json": "c8e83a2e5fc2b2da7a5aaf6af9362b0178317e5937135dc6f670fe24da9c11a7",
}

# SHA-256 of modulus.csv from `clt --seed 1` in
# TestOutputFormats.test_format_csv_only_includes_modulus
MODULUS_CSV_DIGEST = "a5a4df9fc3a5606bdc89fef146bd69ec176e7a6f3b34e2a3c27b8f103972be45"

# SHA-256 of the outputs and stdout of `cover --n-max 8 --out` at the apex
# of a flat cone of circumference 3 pi (TestCover.test_cone_slope), whose
# counts 19 2^(n - 1) give d_estimate exactly 1.0
COVER_DIGESTS = {
    "covering.csv": "99a0118dfc6809b5ba0b0b9e6c4c5f58b80686779be17a595e7e43117448ca88",
    "covering.json": "941d7957fe05e88926050cf578d1f6ded4f8910bbcb8e88bb40cb54c8694ccef",
    "stdout": "d174ef89f9ea92787e77d9dece4f1fd72833ad033aa48b8201f426fce5b569fb",
}

# SHA-256 of the outputs of `field --seed 7 --draws 20000 --empirical-n 1000`
# on the bundled field_example config; the empirical rows repeat within
# and across the writer's 4096-row blocks
FIELD_DIGESTS = {
    "cov_matrix.csv": "2005e081d5050c10d35d6ed3c20b89a44ece773f87b5d4046de2b4e11494b96a",
    "empirical_draws.csv": "fffe36acf6ab635fe5e71950105e0c13a1c9ca3b18702d0ebab9eca7b1fe273e",
    "gaussian_draws.csv": "5fa835db669b3b7a7d6ebd735f14b39a918564837ed0271e84fb497d9fd74a87",
}


CLOSED_FORM_MEASURES = {
    "cone_off_apex":
        {"space": {"kind": "flat_cone", "circumference": 3 * math.pi},
         "atoms": [{"point": [1.0, 0.0], "weight": 0.6},
                   {"point": [1.0, 1.0], "weight": 0.4}]},
    "euclidean3_four":
        {"space": {"kind": "euclidean", "dim": 3},
         "atoms": [{"point": [1.0, 0.0, 0.0], "weight": 0.25},
                   {"point": [0.0, 1.0, 0.0], "weight": 0.25},
                   {"point": [0.0, 0.0, 1.0], "weight": 0.25},
                   {"point": [-1.0, -1.0, 0.5], "weight": 0.25}]},
}

# SHA-256 of the JSON that `mean` prints for each bundled measure file
# and each CLOSED_FORM_MEASURES entry
MEAN_DIGESTS = {
    "euclidean_pm1.measure.json": "ee8224af0033355b77092e35e68ce2adfdb5701318bb522d8d7bbd9c1de72cc9",
    "flatcone4_star.measure.json": "5f50e6ca0bbded7f33ab680cddcb03738b1047ce3cbb0decacebc8b4838f0264",
    "openbook3_spine.measure.json": "b30b8a487f0b34140f490625ea94a7af63a990e4a82d5b6d5ce85fb52ab703bf",
    "spider3_uniform.measure.json": "e8b52ce0b3ab6904e6856965a5da35e860e172b83c66967b4ed970344614aec9",
    "spider3_weighted.measure.json": "c674488072895f50ddac202071b8feeca196059a3e3ecbe425675b7b00b79f11",
    "cone_off_apex": "bcd4262162198a4fec75a530e6236ab3d70cc0ba9105c86d8d8469169bde97ec",
    "euclidean3_four": "cb7ff5988de39b989b0106e0a64c8335af1654533c6ab944e8a6dc2b243d314b",
}


def write_json(path: Path, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return str(path)


def small_clt_config(tmp_path, name="spider3_uniform.json", **overrides):
    raw = load_config(name)
    raw["sample_sizes"] = [200]
    raw["replicates"] = 150
    raw["thresholds"] = {"ks": 0.2, "mahalanobis_ks": 0.2, "cov_sup": 0.3}
    raw.update(overrides)
    return write_json(tmp_path / "config.json", raw)


class TestMean:
    def test_spider_weighted(self, capsys):
        code = main(["mean", "--config",
                     str(CONFIG_DIR / "spider3_weighted.measure.json")])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        leg, r = out["mean"]["coords"]
        assert leg == 1
        assert abs(r - 0.6) < 1e-15
        cert = out["certificate"]
        assert cert["kind"] == "first_order"
        assert cert["sup_tangent_mean"] <= cert["tol"]
        assert cert["grid_points"] == 0

    def test_euclidean_pm1(self, capsys):
        code = main(["mean", "--config",
                     str(CONFIG_DIR / "euclidean_pm1.measure.json")])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert abs(out["mean"]["coords"][0]) < 1e-3

    def test_malformed_weights_exit_3(self, tmp_path, capsys):
        bad = {
            "space": {"kind": "spider", "legs": 3},
            "atoms": [{"point": [0, 1.0], "weight": 0.5},
                      {"point": [1, 1.0], "weight": 0.4}],
        }
        code = main(["mean", "--config", write_json(tmp_path / "bad.json", bad)])
        assert code == 3
        assert "weights sum" in capsys.readouterr().err

    def test_grid_csv_usage_exit_3(self, tmp_path, capsys):
        # the removed flag is an argparse usage error, which exits 3, not 2
        with pytest.raises(SystemExit) as exc:
            main(["mean", "--config",
                  str(CONFIG_DIR / "spider3_weighted.measure.json"),
                  "--grid-csv", str(tmp_path / "grid.csv")])
        assert exc.value.code == 3
        err = capsys.readouterr().err
        assert "unrecognized arguments: --grid-csv" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name, measure, want", [
        # alpha = 3 pi: the mean is off the apex, in the wedge of both atoms
        ("cone_off_apex", CLOSED_FORM_MEASURES["cone_off_apex"],
         [math.hypot(0.6 + 0.4 * math.cos(1.0), 0.4 * math.sin(1.0)),
          math.atan2(0.4 * math.sin(1.0), 0.6 + 0.4 * math.cos(1.0))]),
        ("euclidean3_four", CLOSED_FORM_MEASURES["euclidean3_four"], [0.0, 0.0, 0.375]),
    ])
    def test_closed_form_means(self, tmp_path, capsys, name, measure, want):
        code = main(["mean", "--config", write_json(tmp_path / f"{name}.json", measure)])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["mean"]["coords"] == pytest.approx(want, abs=1e-9)
        assert out["certificate"]["sup_tangent_mean"] <= out["certificate"]["tol"]

    @pytest.mark.parametrize("name", sorted(MEAN_DIGESTS))
    def test_outputs_pinned(self, tmp_path, capsys, name):
        if name in CLOSED_FORM_MEASURES:
            path = write_json(tmp_path / f"{name}.json", CLOSED_FORM_MEASURES[name])
        else:
            path = str(CONFIG_DIR / name)
        assert main(["mean", "--config", path]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == MEAN_DIGESTS[name]

    def test_flatcone_star_sticky_apex(self, capsys):
        code = main(["mean", "--config",
                     str(CONFIG_DIR / "flatcone4_star.measure.json")])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["mean"]["coords"] == [0.0, 0.0]
        assert out["sticky"] and out["sticky_stratum"] == "apex"
        # best direction 3 pi / 8 sees two atoms at 3 pi / 8 and two past pi
        assert out["min_outward_derivative"] == pytest.approx(
            (1.0 - math.cos(3 * math.pi / 8)) / 2, abs=1e-12)
        assert out["min_outward_derivative"] == pytest.approx(0.30866, abs=1e-5)

    @pytest.mark.parametrize("key", ["solver", "validation"])
    def test_removed_solver_keys_exit_3(self, tmp_path, capsys, key):
        if key == "solver":
            raw = load_config("spider3_weighted.measure.json")
            raw["solver"] = {"grid_step": 0.01}
            argv = ["mean"]
        else:
            raw = load_config("spider3_uniform.json")
            raw["validation"] = {"solver": {"grid_step": 0.01}}
            argv = ["clt", "--seed", "1", "--out", str(tmp_path / "o")]
        code = main(argv + ["--config", write_json(tmp_path / "c.json", raw)])
        assert code == 3
        err = capsys.readouterr().err
        assert f"'{key}'" in err and "unknown" in err
        assert "Traceback" not in err


class TestClt:
    def test_deterministic_outputs(self, tmp_path, capsys):
        cfg = small_clt_config(tmp_path)
        contents = []
        for run in ("a", "b"):
            outdir = tmp_path / run
            code = main(["clt", "--config", cfg, "--seed", "42",
                         "--out", str(outdir)])
            assert code in (0, 2)
            capsys.readouterr()
            blob = {}
            for f in sorted(outdir.iterdir()):
                if f.name != "manifest.json":
                    blob[f.name] = f.read_bytes()
            contents.append(blob)
        assert contents[0].keys() == contents[1].keys()
        for name in contents[0]:
            assert contents[0][name] == contents[1][name], name
        digests = {name: hashlib.sha256(blob).hexdigest()
                   for name, blob in contents[0].items()}
        assert digests == CLT_DIGESTS

    def test_fine_net_outputs(self, tmp_path, capsys):
        raw = load_config("openbook3_spine.json")
        raw["net"] = {"epsilon": 0.1}
        raw["tests"] = [t for t in raw["tests"] if t != "modulus"]
        raw.pop("modulus")
        outdir = tmp_path / "fine"
        code = main(["clt", "--config", write_json(tmp_path / "c.json", raw),
                     "--seed", "42", "--out", str(outdir)])
        assert code == 0
        capsys.readouterr()
        for name, digest in FINE_NET_DIGESTS.items():
            assert hashlib.sha256((outdir / name).read_bytes()).hexdigest() == digest, name
        # increments.csv holds all 4465 pairs; report.json summarizes them
        # per distance bin, which keeps it far below the 2.1 MB of per-pair rows
        assert (outdir / "report.json").stat().st_size < 400_000

    def test_increments_only_draws_nothing(self, tmp_path, capsys, monkeypatch):
        # the increments are exact from the pairings, weights and n: a run
        # of them alone forms no field, and its output does not read the seed
        from stratclt import harness

        def no_field(*args, **kwargs):
            raise AssertionError("an increments-only run drew a field")

        monkeypatch.setattr(harness._FieldSimulator, "field_rows", no_field)
        raw = load_config("openbook3_spine.json")
        raw.update(net={"epsilon": 0.1}, tests=["increments"])
        raw.pop("modulus")
        cfg = write_json(tmp_path / "c.json", raw)
        blobs = []
        for seed in ("1", "2"):
            outdir = tmp_path / seed
            assert main(["clt", "--config", cfg, "--seed", seed, "--out", str(outdir)]) == 0
            capsys.readouterr()
            blobs.append((outdir / "increments.csv").read_bytes())
        assert blobs[0] == blobs[1]
        assert blobs[0].count(b"\n") == 1 + 95 * 94 // 2

    def test_blas_thread_count_invariance(self, tmp_path):
        # the fields are formed without BLAS, so every output of one seed
        # is the same under one BLAS thread and under two.  A CLI run starts
        # numpy with one thread whatever the environment asks for; a caller
        # that loaded numpy first keeps its pool, so the two-thread side
        # imports numpy and then calls main
        import subprocess, sys, os
        argv = ["clt", "--config", str(CONFIG_DIR / "openbook3_spine.json"),
                "--seed", "42", "--out"]
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
                   PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        proc = subprocess.run([sys.executable, "-m", "stratclt", *argv,
                               str(tmp_path / "threads1")],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        tasks = run_child(
            f"import json, os, numpy\nfrom stratclt.cli import main\n"
            f"assert main({[*argv, str(tmp_path / 'threads2')]!r}) == 0\n"
            f"print(json.dumps(len(os.listdir('/proc/self/task'))"
            f" if os.path.isdir('/proc/self/task') else None))",
            OPENBLAS_NUM_THREADS="2")
        if tasks is not None:
            # OpenBLAS starts no more threads than there are CPUs
            assert tasks == min(2, os.cpu_count())
        outputs = [{f.name: f.read_bytes() for f in (tmp_path / run).iterdir()
                    if f.name != "manifest.json"} for run in ("threads1", "threads2")]
        assert outputs[0].keys() == outputs[1].keys()
        assert {"modulus.csv", "report.json", "cov.csv"} <= outputs[0].keys()
        for name in outputs[0]:
            assert outputs[0][name] == outputs[1][name], name

    @pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                        reason="OPENBLAS_CORETYPE names x86-64 kernels")
    def test_blas_kernel_invariance(self, tmp_path):
        # every sum is taken in a fixed order without BLAS or LAPACK, the
        # Mahalanobis whitening included, so no output but the manifest
        # may follow the OpenBLAS kernel
        import os, subprocess, sys
        fine = load_config("openbook3_spine.json")
        fine["net"] = {"epsilon": 0.1}
        fine["tests"] = [t for t in fine["tests"] if t != "modulus"]
        fine.pop("modulus")
        runs = {
            "fine_net": ["clt", "--config", write_json(tmp_path / "fine.json", fine),
                         "--seed", "42"],
            "modulus": ["clt", "--config", str(CONFIG_DIR / "openbook3_spine.json"),
                        "--seed", "42"],
            "field": ["field", "--config", str(CONFIG_DIR / "field_example.json"),
                      "--seed", "42", "--empirical-n", "1000"],
        }
        outputs = {}
        for kernel in ("default", "Prescott", "Sandybridge"):
            env = dict(os.environ,
                       PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
            env.pop("OPENBLAS_CORETYPE", None)
            if kernel != "default":
                env["OPENBLAS_CORETYPE"] = kernel
            for name, argv in runs.items():
                outdir = tmp_path / f"{name}-{kernel}"
                proc = subprocess.run([sys.executable, "-m", "stratclt", *argv,
                                       "--out", str(outdir)],
                                      capture_output=True, text=True, env=env)
                assert proc.returncode == 0, proc.stderr
                outputs[name, kernel] = {
                    f.name: f.read_bytes() for f in outdir.iterdir()
                    if f.name != "manifest.json"}
        pinned = {"modulus.csv", "mahalanobis.csv", "report.json"}
        assert pinned <= outputs["modulus", "default"].keys()
        assert "mahalanobis.csv" in outputs["fine_net", "default"]
        assert "empirical_draws.csv" in outputs["field", "default"]
        for name in runs:
            want = outputs[name, "default"]
            for kernel in ("Prescott", "Sandybridge"):
                got = outputs[name, kernel]
                assert got.keys() == want.keys()
                for f in want:
                    assert got[f] == want[f], (name, kernel, f)

    def test_modulus_on_a_sphere_of_directions_refused_first(self, tmp_path, capsys,
                                                             monkeypatch):
        # the modulus net is the uniform net of modulus.epsilon, and a
        # sphere of directions has none: refused before any field is drawn
        from stratclt import harness

        def simulate(*args, **kwargs):
            raise AssertionError("fields were simulated before the refusal")

        monkeypatch.setattr(harness._FieldSimulator, "field_rows", simulate)
        raw = {
            "measure": CLOSED_FORM_MEASURES["euclidean3_four"],
            "net": {"vectors": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
            "sample_sizes": [200],
            "replicates": 150,
            "tests": ["cov", "ks", "modulus"],
        }
        code = main(["clt", "--config", write_json(tmp_path / "c.json", raw),
                     "--seed", "1", "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 3
        assert "modulus" in err and err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_modulus_net_too_coarse_refused_first(self, tmp_path, capsys, monkeypatch):
        # modulus.epsilon 2^-8 gives the spine net a covering radius of
        # about 2^-9, more than a quarter of the radius 2^-11: refused
        # before any field is drawn
        from stratclt import harness

        def simulate(*args, **kwargs):
            raise AssertionError("fields were simulated before the refusal")

        monkeypatch.setattr(harness._FieldSimulator, "field_rows", simulate)
        raw = load_config("openbook3_spine.json")
        raw["modulus"]["radii_log2"] = [2, 3, 4, 5, 6, 11]
        code = main(["clt", "--config", write_json(tmp_path / "c.json", raw),
                     "--seed", "1", "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 3
        assert "too coarse" in err and err.startswith("error: ") and err.count("\n") == 1

    def test_net_kind_absent_at_base_exit_3(self, tmp_path, capsys):
        # leg directions exist only at a spider apex: at a spine point the
        # explicit net is refused by name, before any field is drawn
        raw = load_config("openbook3_spine.json")
        raw.update(base=[0, 0.0, 0.0], net={"legs": [0]}, sample_sizes=[200],
                   replicates=150, tests=["cov"])
        raw.pop("modulus")
        code = main(["clt", "--config", write_json(tmp_path / "c.json", raw),
                     "--seed", "1", "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'leg'" in err and "'page_angle'" in err
        assert "Traceback" not in err

    def test_field_rerun_invariance(self, tmp_path, capsys):
        raw = {
            "measure": load_config("spider3_uniform.measure.json"),
            "base": [0, 0.0],
            "net": {"legs": [0, 1, 2]},
        }
        cfg = write_json(tmp_path / "f.json", raw)
        contents = []
        for run in ("a", "b"):
            outdir = tmp_path / run
            code = main(["field", "--config", cfg, "--seed", "11", "--out",
                         str(outdir), "--draws", "300", "--empirical-n", "400"])
            assert code == 0
            capsys.readouterr()
            blob = {f.name: f.read_bytes() for f in sorted(outdir.iterdir())
                    if f.name != "manifest.json"}
            contents.append(blob)
        assert "empirical_draws.csv" in contents[0]
        assert contents[0] == contents[1]

    def test_replicate_floor_exit_3(self, tmp_path, capsys):
        cfg = small_clt_config(tmp_path, replicates=10)
        code = main(["clt", "--config", cfg, "--seed", "1",
                     "--out", str(tmp_path / "o")])
        assert code == 3

    def test_missing_net_exit_3(self, tmp_path, capsys):
        raw = load_config("spider3_uniform.json")
        del raw["net"]
        raw["sample_sizes"] = [200]
        raw["replicates"] = 150
        cfg = write_json(tmp_path / "c.json", raw)
        code = main(["clt", "--config", cfg, "--seed", "1",
                     "--out", str(tmp_path / "o")])
        assert code == 3

    def test_manifest_written(self, tmp_path, capsys):
        cfg = small_clt_config(tmp_path)
        outdir = tmp_path / "out"
        main(["clt", "--config", cfg, "--seed", "5", "--out", str(outdir)])
        capsys.readouterr()
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["tool"] == "stratclt"
        assert manifest["seed"] == 5
        assert "report.json" in manifest["outputs"]
        assert manifest["config_sha256"]

    def test_localization_refusal_exit_3(self, tmp_path, capsys):
        # atom 1 sits at circle gap exactly pi from the given base. This
        # config was once refused with exit 3 as non-localized; its one
        # geodesic runs through the apex, so the run now goes ahead
        base = [0.6, 0.0]
        raw = {
            "measure": {
                "space": {"kind": "flat_cone", "circumference": 3 * math.pi},
                "atoms": [{"point": [1.0, 0.0], "weight": 0.8},
                          {"point": [1.0, math.pi], "weight": 0.2}],
            },
            "base": base,
            "net": {"epsilon": 0.5},
            "sample_sizes": [200],
            "replicates": 150,
        }
        outdir = tmp_path / "o"
        code = main(["clt", "--config", write_json(tmp_path / "c.json", raw),
                     "--seed", "1", "--out", str(outdir)])
        assert code in (0, 2)
        capsys.readouterr()
        assert json.loads((outdir / "report.json").read_text())["base"] == base

    def test_point_mass_modulus_table_is_zero(self, tmp_path, capsys):
        # a point mass on the spine is its own mean, so every field and the
        # whole modulus table are zero: the drop ratio is undefined and passes
        raw = {
            "measure": {"space": {"kind": "open_book", "pages": 3},
                        "atoms": [{"point": [0, 0.5, 0.0], "weight": 1.0}]},
            "net": {"epsilon": 0.5},
            "sample_sizes": [200],
            "replicates": 150,
            "tests": ["modulus"],
            "modulus": {"epsilon": 2.0 ** -5, "radii_log2": [2, 3, 4],
                        "n": 100, "replicates": 100},
        }
        outdir = tmp_path / "o"
        code = main(["clt", "--config", write_json(tmp_path / "c.json", raw),
                     "--seed", "1", "--out", str(outdir)])
        capsys.readouterr()
        assert code == 0
        modulus = json.loads((outdir / "report.json").read_text())["modulus"]
        assert modulus["aggregate"] == [0.0, 0.0, 0.0]
        assert modulus["drop_ratio"] is None
        assert modulus["monotone_within_error"] and modulus["passed"]


class TestCover:
    def test_spider_constant(self, capsys):
        code = main(["cover", "--space", '{"kind":"spider","legs":3}',
                     "--base", "[0, 0.0]", "--n-max", "6"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["counts"] == [3] * 6
        assert out["d_estimate"] == 0.0

    def test_euclidean_line_constant(self, capsys):
        code = main(["cover", "--space", '{"kind":"euclidean","dim":1}',
                     "--base", "[0.0]", "--n-max", "6"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["counts"] == [2] * 6

    def test_cone_slope(self, tmp_path, capsys):
        outdir = tmp_path / "cover"
        code = main(["cover", "--space",
                     json.dumps({"kind": "flat_cone",
                                 "circumference": 3 * math.pi}),
                     "--base", "[0.0, 0.0]", "--n-max", "8",
                     "--out", str(outdir)])
        assert code == 0
        stdout = capsys.readouterr().out
        out = json.loads(stdout)
        assert out["d_estimate"] == 1.0
        lines = (outdir / "covering.csv").read_text().strip().splitlines()
        assert lines[0] == "scale,count"
        assert len(lines) == 9
        digests = {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
                   for name in ("covering.csv", "covering.json")}
        digests["stdout"] = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
        assert digests == COVER_DIGESTS

    def test_invalid_base_exit_3(self, capsys):
        code = main(["cover", "--space", '{"kind":"spider","legs":3}',
                     "--base", "[5, 1.0]", "--n-max", "6"])
        assert code == 3

    @pytest.mark.parametrize("base, message", [
        ("[0]", "spider point"),
        ('["a", 1]', "malformed spider coordinates"),
        ("5", "must be a list"),
        ("[0, 1.0", "not valid JSON"),
    ])
    def test_malformed_base_exit_3(self, base, message, capsys):
        code = main(["cover", "--space", '{"kind":"spider","legs":3}',
                     "--base", base, "--n-max", "6"])
        assert code == 3
        assert message in capsys.readouterr().err

    def test_space_without_parameter_exit_3(self, capsys):
        code = main(["cover", "--space", '{"kind": "spider"}',
                     "--base", "[0, 0.0]", "--n-max", "6"])
        assert code == 3
        err = capsys.readouterr().err
        assert "spider space spec needs a 'legs' entry" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("missing", ["space", "base"])
    def test_config_without_space_or_base_exit_3(self, tmp_path, capsys, missing):
        raw = {"space": {"kind": "spider", "legs": 3}, "base": [0, 0.0]}
        del raw[missing]
        code = main(["cover", "--config", write_json(tmp_path / "c.json", raw)])
        assert code == 3
        err = capsys.readouterr().err
        assert missing in err
        assert "Traceback" not in err

    def test_no_input_exit_3(self, capsys):
        code = main(["cover", "--n-max", "6"])
        assert code == 3
        err = capsys.readouterr().err
        assert "cover needs --config or both --space and --base" in err
        assert "Traceback" not in err

    def test_sphere_of_directions_exit_3(self, capsys):
        code = main(["cover", "--space", '{"kind":"euclidean","dim":3}',
                     "--base", "[0.0, 0.0, 0.0]", "--n-max", "6"])
        assert code == 3
        err = capsys.readouterr().err
        assert "direction nets on spheres" in err
        assert "Traceback" not in err

    def test_n_max_cap_exit_3(self, capsys):
        code = main(["cover", "--space", '{"kind":"spider","legs":3}',
                     "--base", "[0, 0.0]", "--n-max", "17"])
        assert code == 3
        assert "--n-max" in capsys.readouterr().err


class TestField:
    def test_gaussian_draw_covariance(self, tmp_path, capsys):
        raw = {
            "measure": load_config("spider3_uniform.measure.json"),
            "base": [0, 0.0],
            "net": {"legs": [0, 1, 2]},
        }
        cfg = write_json(tmp_path / "f.json", raw)
        outdir = tmp_path / "field"
        code = main(["field", "--config", cfg, "--seed", "3",
                     "--out", str(outdir), "--draws", "20000"])
        assert code == 0
        capsys.readouterr()
        rows = np.loadtxt(outdir / "gaussian_draws.csv", delimiter=",",
                          skiprows=1)
        emp = rows.T @ rows / rows.shape[0]
        expected = np.full((3, 3), -4.0 / 9.0) + np.eye(3) * (12.0 / 9.0)
        assert np.max(np.abs(emp - expected)) < 0.03

    def test_point_mass_zero_columns(self, tmp_path, capsys):
        raw = {
            "measure": {"space": {"kind": "spider", "legs": 3},
                        "atoms": [{"point": [0, 0.0], "weight": 1.0}]},
            "base": [0, 0.0],
            "net": {"legs": [0, 1, 2]},
        }
        cfg = write_json(tmp_path / "f.json", raw)
        outdir = tmp_path / "field"
        code = main(["field", "--config", cfg, "--seed", "3",
                     "--out", str(outdir), "--draws", "50"])
        assert code == 0
        capsys.readouterr()
        rows = np.loadtxt(outdir / "gaussian_draws.csv", delimiter=",",
                          skiprows=1)
        assert np.all(rows == 0.0)

    def test_solver_key_exit_3(self, tmp_path, capsys):
        raw = {"measure": load_config("spider3_uniform.measure.json"),
               "net": {"legs": [0, 1, 2]}, "solver": {"iterations": 10}}
        code = main(["field", "--config", write_json(tmp_path / "f.json", raw),
                     "--seed", "3", "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert "'solver'" in err and "unknown" in err
        assert "Traceback" not in err

    def test_missing_net_exit_3(self, tmp_path, capsys):
        raw = {"measure": load_config("spider3_uniform.measure.json")}
        cfg = write_json(tmp_path / "f.json", raw)
        code = main(["field", "--config", cfg, "--seed", "3",
                     "--out", str(tmp_path / "o")])
        assert code == 3

    def test_empirical_draws(self, tmp_path, capsys):
        raw = {
            "measure": load_config("spider3_uniform.measure.json"),
            "base": [0, 0.0],
            "net": {"legs": [0, 1, 2]},
        }
        cfg = write_json(tmp_path / "f.json", raw)
        outdir = tmp_path / "field"
        code = main(["field", "--config", cfg, "--seed", "3",
                     "--out", str(outdir), "--draws", "200",
                     "--empirical-n", "500"])
        assert code == 0
        capsys.readouterr()
        emp = np.loadtxt(outdir / "empirical_draws.csv", delimiter=",",
                         skiprows=1)
        assert emp.shape == (200, 3)
        # per-replicate leg sums telescope to zero
        assert np.max(np.abs(emp.sum(axis=1))) < 1e-10

    def test_output_digests(self, tmp_path, capsys):
        outdir = tmp_path / "field"
        code = main(["field", "--config", str(CONFIG_DIR / "field_example.json"),
                     "--seed", "7", "--out", str(outdir), "--draws", "20000",
                     "--empirical-n", "1000"])
        assert code == 0
        capsys.readouterr()
        digests = {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
                   for name in FIELD_DIGESTS}
        assert digests == FIELD_DIGESTS


_DELETE = object()  # TestMalformedNumbers: delete the key instead of setting it


def run_with(tmp_path, command: str, keys: tuple, value, flags: tuple) -> int:
    """The exit code of ``command`` on a small valid config with the entry
    at the path ``keys`` set to ``value`` (deleted for ``_DELETE``)."""
    if command == "clt":
        raw = load_config("spider3_uniform.json")
        raw.update(sample_sizes=[200], replicates=150,
                   tests=[*raw["tests"], "modulus"])
    elif command == "field":
        raw = load_config("field_example.json")
    elif command == "mean":
        raw = load_config("flatcone4_star.measure.json")
    else:
        raw = {"space": {"kind": "spider", "legs": 3}, "base": [0, 0.0],
               "n_max": 6}
    if keys:
        target = raw
        for key in keys[:-1]:
            target = target[key]
        if value is _DELETE:
            del target[keys[-1]]
        else:
            target[keys[-1]] = value
    argv = [command, "--config", write_json(tmp_path / "c.json", raw)]
    if command in ("clt", "field"):
        argv += ["--seed", "1", "--out", str(tmp_path / "o")]
    return main([*argv, *flags])


class TestMalformedNumbers:
    """A malformed or missing value is a ConfigError where it is parsed:
    exit 3 with a message, never a traceback.  A moment whose terms leave
    the float range exits 4."""

    @pytest.mark.parametrize("command, keys, value, flags, message", [
        ("clt", ("replicates",), "abc", (), "replicates must be a 64-bit integer, got 'abc'"),
        ("clt", ("sample_sizes",), "abc", (), "sample_sizes must be a list, got 'abc'"),
        ("clt", ("net",), {"epsilon": "x"}, (), "net epsilon must be a number, got 'x'"),
        ("clt", ("net",), {"legs": 3}, (), "net legs must be a list, got 3"),
        ("clt", ("thresholds",), {"ks": "x"}, (), "Thresholds.ks must be a number, got 'x'"),
        ("clt", ("martingale",), {"n": "x"}, (),
         "MartingaleSpec.n must be a 64-bit integer, got 'x'"),
        ("clt", ("measure", "atoms", 0, "weight"), "x", (),
         "atom weight must be a number, got 'x'"),
        ("field", ("net",), 5, (), "net spec must be a JSON object"),
        ("field", ("net",), {"epsilon": "x"}, (), "net epsilon must be a number, got 'x'"),
        ("clt", ("modulus",), {"n": -5}, (), "ModulusSpec.n must be >= 1, got -5"),
        ("clt", ("modulus",), {"replicates": 0}, (),
         "ModulusSpec.replicates must be >= 100, got 0"),
        ("clt", ("martingale",), {"n": -5}, (), "MartingaleSpec.n must be >= 1, got -5"),
        ("clt", ("martingale",), {"k": 0}, (), "MartingaleSpec.k must be >= 1, got 0"),
        ("field", (), None, ("--empirical-n", "-3"),
         "argument --empirical-n: must be >= 1, got -3"),
        ("field", (), None, ("--draws", "-3"), "argument --draws: must be >= 1, got -3"),
        ("clt", (), None, ("--seed", "-1"), "argument --seed: must be >= 0, got -1"),
        ("field", (), None, ("--seed", "-1"), "argument --seed: must be >= 0, got -1"),
        ("clt", ("tests",), [["ks"]], (), "unknown tests: [['ks']]"),
        ("clt", ("tests",), [], (), "name each test once, got []"),
        ("clt", ("tests",), ["ks", "cov", "ks"], (),
         "name each test once, got ['ks', 'cov', 'ks']"),
        ("clt", ("modulus",), {"radii_log2": []}, (), "ModulusSpec.radii_log2 must be nonempty"),
        ("field", ("measure",), _DELETE, (), "field config needs a 'measure' entry"),
        ("clt", ("sample_sizes",), [10 ** 20], (),
         "sample size must be a 64-bit integer, got 100000000000000000000"),
        ("clt", ("thresholds",), {"ks": -1.0}, (), "Thresholds.ks must be > 0, got -1.0"),
        ("clt", ("thresholds",), {"modulus_min_drop": 0.0}, (),
         "Thresholds.modulus_min_drop must be > 0, got 0.0"),
        ("clt", ("thresholds",), {"zero_variance": -1e-3}, (),
         "Thresholds.zero_variance must be >= 0.0, got -0.001"),
        ("cover", ("space", "legs"), "3", (),
         "'legs' of a spider space must be a 64-bit integer, got '3'"),
        ("cover", ("space", "legs"), 3.7, (),
         "'legs' of a spider space must be a 64-bit integer, got 3.7"),
        ("cover", ("n_max",), "5", (), "n_max must be a 64-bit integer, got '5'"),
        ("cover", ("n_max",), 5.5, (), "n_max must be a 64-bit integer, got 5.5"),
        ("clt", ("modulus",), {"radii_log2": [-2000]}, (),
         "ModulusSpec.radii_log2 must be >= -1, got (-2000,)"),
        ("clt", ("bogus_key",), 1, (), "unknown experiment config key(s) ['bogus_key']"),
        ("field", ("bogus_key",), 1, (), "unknown field config key(s) ['bogus_key']"),
        ("clt", ("measure", "bogus_key"), 1, (), "unknown measure key(s) ['bogus_key']"),
        ("clt", ("measure", "atoms", 0, "bogus_key"), 1, (), "unknown atom key(s) ['bogus_key']"),
        ("clt", ("measure", "space", "bogus_key"), 1, (),
         "unknown space spec key(s) ['bogus_key']"),
        ("clt", ("net",), {"epsilon": 0.4, "legs": [0]}, (), "unknown net spec key(s) ['legs']"),
        ("clt", ("net",), {"legs": [0, 1, 2], "bogus_key": 1}, (),
         "unknown net spec key(s) ['bogus_key']"),
        ("field", ("net",), {"epsilon": 0.4, "legs": [0]}, (), "unknown net spec key(s) ['legs']"),
        ("cover", ("bogus",), 1, (), "unknown cover config key(s) ['bogus']"),
        ("clt", ("measure", "atoms", 0, "weight"), 10 ** 400, (),
         "atom weight must be within the float range"),
        ("clt", ("measure", "atoms", 0), [[0, 1.0], 0.5], (), "atom must be a JSON object"),
        ("mean", ("space", "circumference"), 1e309, (),
         "'circumference' of a flat_cone space must be finite, got inf"),
        ("cover", ("space",), {"kind": "flat_cone", "circumference": 1e309}, (),
         "'circumference' of a flat_cone space must be finite, got inf"),
        ("clt", ("measure", "space"), {"kind": "flat_cone", "circumference": -1e309}, (),
         "'circumference' of a flat_cone space must be finite, got -inf"),
        ("clt", ("thresholds",), {"ks": 1e309}, (), "Thresholds.ks must be finite, got inf"),
        ("mean", ("atoms", 0, "weight"), math.nan, (), "atom weight must be finite, got nan"),
        ("clt", ("net",), None, (), "net spec must be a JSON object"),
        ("clt", ("thresholds",), {"bogus": 1}, (),
         "unknown thresholds key(s) ['bogus']; the known keys are"),
        ("clt", ("modulus",), [], (), "modulus must be a JSON object"),
        ("clt", ("net",), _DELETE, (), "experiment config needs a 'net' entry"),
        ("cover", ("space", "kind"), _DELETE, (), "space spec needs a 'kind' entry"),
    ], ids=["replicates", "sample_sizes", "net_epsilon", "net_legs", "thresholds",
            "martingale", "weight", "field_net", "field_net_epsilon", "modulus_n",
            "modulus_replicates", "martingale_n", "martingale_k", "field_empirical_n",
            "field_draws", "clt_seed", "field_seed", "tests_list", "tests_empty",
            "tests_repeated", "modulus_no_radii",
            "field_no_measure", "sample_size_overflow",
            "threshold_ks", "threshold_min_drop", "threshold_zero_variance",
            "cover_legs_string", "cover_legs_fraction", "cover_n_max_string",
            "cover_n_max_fraction", "modulus_radius_overflow", "clt_unknown_key",
            "field_unknown_key", "measure_unknown_key", "atom_unknown_key",
            "space_unknown_key", "net_mixed_keys", "net_unknown_key", "field_net_mixed_keys",
            "cover_unknown_key", "weight_beyond_floats", "atom_as_list",
            "mean_infinite_circumference", "cover_infinite_circumference",
            "clt_infinite_circumference", "threshold_ks_infinite", "mean_nan_weight",
            "net_null", "thresholds_unknown_key", "modulus_not_object", "clt_no_net",
            "space_no_kind"])
    def test_exit_3_without_traceback(self, tmp_path, capsys, command, keys, value,
                                      flags, message):
        # each row names the refusal it expects, so no other check can
        # refuse the input in its place; the parser refuses a bad flag
        # itself, exiting 3 after a usage line
        try:
            code = run_with(tmp_path, command, keys, value, flags)
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("usage: " if flags else "error: ")
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, raw, order", [
        ("clt", dict(load_config("spider3_uniform.json"), measure={
            "space": {"kind": "spider", "legs": 3},
            "atoms": [{"point": [leg, 1e100], "weight": 1.0 / 3.0} for leg in range(3)]}), 4),
        ("mean", {"space": {"kind": "euclidean", "dim": 2},
                  "atoms": [{"point": [x, 0.0], "weight": 0.5} for x in (1e308, -1e308)]}, 2),
    ], ids=["clt_fourth_moment", "mean_second_moment"])
    def test_moment_overflow_exit_4(self, tmp_path, capsys, command, raw, order):
        # finite distances whose powers leave the floats: E d^4 of the
        # moment bounds at the spider apex, E d^2 of the Frechet value at 0
        argv = [command, "--config", write_json(tmp_path / "c.json", raw)]
        if command == "clt":
            argv += ["--seed", "1", "--out", str(tmp_path / "o")]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 4
        assert err == f"numerical error: E d(base, X)^{order} overflows the float range\n"

    @pytest.mark.parametrize("dim", [1, 2])
    def test_log_overflow_exit_4(self, tmp_path, capsys, dim):
        # the mean sits near 1.7e308, so the log to the far atom, a finite
        # point, has an offset beyond the floats
        raw = {"space": {"kind": "euclidean", "dim": dim},
               "atoms": [{"point": [x, 0.0][:dim], "weight": w}
                         for x, w in ((1.7e308, 0.99), (-1.7e308, 0.01))]}
        code = main(["mean", "--config", write_json(tmp_path / "c.json", raw)])
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("numerical error: the log map from ")
        assert err.endswith(" leaves the float range\n") and err.count("\n") == 1

    @pytest.mark.parametrize("command, keys, value, message", [
        ("clt", ("tests",), {"ks": 1}, "tests must be a list"),
        ("clt", ("tests",), "ks", "tests must be a list"),
        ("clt", ("sample_sizes",), "100", "sample_sizes must be a list"),
        ("clt", ("sample_sizes",), {"100": 1}, "sample_sizes must be a list"),
        ("clt", ("base",), "00", "base must be a list"),
        ("clt", ("net",), {"legs": "01"}, "net legs must be a list"),
        ("clt", ("net",), {"legs": {"0": 1}}, "net legs must be a list"),
        ("clt", ("modulus",), {"radii_log2": "23"}, "radii_log2 must be a list"),
        ("clt", ("measure", "atoms"), {"a": {}}, "measure atoms must be a list"),
        ("clt", ("measure", "atoms", 0, "point"), "01", "atom point must be a list"),
        ("field", ("base",), {"0": 0}, "base must be a list"),
        ("field", ("net",), {"legs": "012"}, "net legs must be a list"),
        ("cover", ("base",), "00", "base must be a list"),
    ], ids=["tests_object", "tests_string", "sample_sizes_string", "sample_sizes_object",
            "base", "net_legs_string", "net_legs_object", "radii_log2", "atoms", "point",
            "field_base", "field_net_legs", "cover_base"])
    def test_list_key_refuses_non_array(self, tmp_path, capsys, command, keys, value,
                                        message):
        # a string or an object would iterate as its characters or keys
        code = run_with(tmp_path, command, keys, value, ())
        err = capsys.readouterr().err
        assert code == 3
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, key, value", [
        ("clt", "net", {"epsilon": 1e-300}),
        ("clt", "net", {"epsilon": 5e-324}),
        ("clt", "modulus", {"epsilon": 1e-300}),
        ("field", "net", {"epsilon": 1e-300}),
    ], ids=["net", "net_subnormal", "modulus", "field_net"])
    def test_epsilon_below_finest_scale_exit_3(self, tmp_path, capsys, command, key,
                                               value):
        # a uniform net on the circle of directions at the sticky apex would
        # need 4 pi / epsilon directions
        raw = load_config("flatcone4_star.json")
        if command == "field":
            raw = {"measure": raw["measure"]}
        elif key == "modulus":
            raw["tests"] = ["modulus"]
        raw[key] = value
        code = main([command, "--config", write_json(tmp_path / "c.json", raw),
                     "--seed", "1", "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 3
        assert "epsilon must be >=" in err
        assert "Traceback" not in err

    def test_martingale_counts_need_no_joint_bound(self):
        # the head and tail counts are two multinomial draws, so n and k
        # take the range of the sample sizes each, with no bound on n + k
        from stratclt.harness import MartingaleSpec
        spec = MartingaleSpec(n=10 ** 9, k=1)
        assert (spec.n, spec.k) == (10 ** 9, 1)

    @pytest.mark.parametrize("config, keys, value, message", [
        ("spider3_uniform.json", ("measure", "atoms", 0, "point"), [1.5, 1.0],
         "malformed spider coordinates"),
        ("spider3_uniform.json", ("measure", "atoms", 0, "point"), [True, 1.0],
         "malformed spider coordinates"),
        ("spider3_uniform.json", ("measure", "atoms", 0, "point"), ["1", 1.0],
         "malformed spider coordinates"),
        ("spider3_uniform.json", ("measure", "atoms", 0, "point"), [1, "1.0"],
         "malformed spider coordinates"),
        ("openbook3_spine.json", ("measure", "atoms", 0, "point"), [2.9, 0.0, 1.0],
         "malformed open_book coordinates"),
        ("spider3_uniform.json", ("base",), [True, 0.0], "malformed spider coordinates"),
        ("spider3_uniform.json", ("net",), {"legs": [0, 1.5, 2]}, "malformed net legs"),
        ("openbook3_spine.json", ("net",), {"page_angles": [[1.7, 0.5], [0, 1.0]]},
         "malformed net page_angles"),
        ("flatcone4_star.json", ("net",), {"angles": [math.nan]}, "malformed net angles"),
        ("flatcone4_star.json", ("net",), {"angles": [math.inf]}, "malformed net angles"),
        ("flatcone4_star.json", ("net",), {"angles": [10 ** 400]}, "malformed net angles"),
    ], ids=["atom_leg_fraction", "atom_leg_bool", "atom_leg_string", "atom_radius_string",
            "atom_page_fraction", "base_leg_bool", "net_leg_fraction", "net_page_fraction",
            "net_angle_nan", "net_angle_infinity", "net_angle_beyond_floats"])
    def test_malformed_coordinates_exit_3(self, tmp_path, capsys, config, keys, value,
                                          message):
        # an index is an integer (1.0 is one) and a coordinate a finite
        # number, never a bool or a string
        raw = load_config(config)
        raw.update(sample_sizes=[200], replicates=150)
        target = raw
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        code = main(["clt", "--config", write_json(tmp_path / "c.json", raw),
                     "--seed", "1", "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 3
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("base", ["[1.5, 1.0]", '["1", "1.0"]'])
    def test_cover_base_coordinates_exit_3(self, capsys, base):
        code = main(["cover", "--space", '{"kind":"spider","legs":3}',
                     "--base", base, "--n-max", "6"])
        err = capsys.readouterr().err
        assert code == 3
        assert "malformed spider coordinates" in err
        assert "Traceback" not in err


class TestUnusablePaths:
    """A config that cannot be read as UTF-8 text, or an output directory
    or output file that cannot be made, is bad input: exit 3 with a
    one-line message."""

    @pytest.mark.parametrize("argv", [
        ["mean", "--config", "TMP"],
        ["mean", "--config", "UTF16"],
        ["clt", "--config", "CLT", "--seed", "1", "--out", "FILE"],
        ["cover", "--space", '{"kind": "spider", "legs": 3}', "--base", "[0, 0.0]",
         "--n-max", "4", "--out", "FILE"],
        ["field", "--config", "FIELD", "--seed", "1", "--draws", "10",
         "--out", "FILE/o"],
        ["clt", "--config", "CLT", "--seed", "1", "--out", "BUSY"],
        ["cover", "--space", '{"kind": "spider", "legs": 3}', "--base", "[0, 0.0]",
         "--n-max", "4", "--out", "BUSY"],
        ["field", "--config", "FIELD", "--seed", "1", "--draws", "10",
         "--out", "BUSY"],
    ], ids=["config_is_directory", "config_not_utf8", "clt_out_is_file",
            "cover_out_is_file", "field_out_under_file", "clt_report_is_directory",
            "cover_csv_is_directory", "field_draws_is_directory"])
    def test_exit_3_without_traceback(self, tmp_path, capsys, argv):
        (tmp_path / "file").write_text("x")
        (tmp_path / "utf16.json").write_bytes(b"\xff\xfe{\x00}\x00")
        # an output directory whose first file of each command is a directory
        for name in ("report.json", "covering.csv", "gaussian_draws.csv"):
            (tmp_path / "busy" / name).mkdir(parents=True)
        paths = {"TMP": str(tmp_path), "UTF16": str(tmp_path / "utf16.json"),
                 "CLT": small_clt_config(tmp_path), "FILE": str(tmp_path / "file"),
                 "FILE/o": str(tmp_path / "file" / "o"), "BUSY": str(tmp_path / "busy"),
                 "FIELD": str(CONFIG_DIR / "field_example.json")}
        code = main([paths.get(a, a) for a in argv])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["clt", "field"])
    def test_unusable_out_refused_before_the_run(self, tmp_path, capsys, monkeypatch,
                                                 command):
        # the output directory is made before the work starts, so an
        # unusable one costs no run
        from stratclt import fields, harness

        def run(*args):
            raise AssertionError("the run started before --out was made")

        (tmp_path / "file").write_text("x")
        if command == "clt":
            monkeypatch.setattr(harness, "run_clt_experiment", run)
            argv = ["clt", "--config", str(CONFIG_DIR / "openbook3_spine.json"),
                    "--seed", "1"]
        else:
            monkeypatch.setattr(fields, "cov_matrix", run)
            argv = ["field", "--config", str(CONFIG_DIR / "field_example.json"),
                    "--seed", "1"]
        assert main(argv + ["--out", str(tmp_path / "file")]) == 3
        assert "cannot create output directory" in capsys.readouterr().err


class TestCsvRoundTrip:
    def test_seventeen_digits(self, tmp_path, capsys):
        raw = {
            "measure": load_config("spider3_uniform.measure.json"),
            "base": [0, 0.0],
            "net": {"legs": [0, 1, 2]},
        }
        cfg = write_json(tmp_path / "f.json", raw)
        outdir = tmp_path / "field"
        main(["field", "--config", cfg, "--seed", "9", "--out", str(outdir),
              "--draws", "50"])
        capsys.readouterr()
        from stratclt import GaussianFieldSampler, apex, build_net, cov_matrix
        from stratclt import DiscreteMeasure, substream
        from stratclt.cli import _PURPOSE_GAUSSIAN
        mu = DiscreteMeasure.from_json(raw["measure"])
        a = apex(mu.space)
        sampler = GaussianFieldSampler.build(cov_matrix(mu, a, build_net(a, 1.0)))
        direct = sampler.draw_matrix(substream(9, _PURPOSE_GAUSSIAN), 50)
        parsed = np.loadtxt(outdir / "gaussian_draws.csv", delimiter=",",
                            skiprows=1)
        assert np.array_equal(parsed, direct)  # bit-faithful round trip

    @pytest.mark.parametrize("rows", [0, 1, 4097])
    def test_block_writer_matches_csv_writer(self, tmp_path, rows):
        # the row blocks of the draw CSVs match format_float row by row, on
        # rows that repeat within and across blocks and differ only in the
        # sign of a zero, a NaN payload or the sign of an infinity
        from stratclt.errors import format_float
        from stratclt.fields import _row_blocks, _write_matrix_csv
        nan_payload = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]
        special = np.array([[-0.0, 1e-300, 123456789.0], [np.nan, np.inf, -5e-324],
                            [0.0, 1e-300, 123456789.0], [-np.nan, -np.inf, nan_payload]])
        rng = np.random.default_rng(3)
        shape = (max(0, rows - 2 * len(special)), 3)
        # every other row from a signed lattice, so rows repeat; the rest normal
        middle = rng.integers(-2, 3, shape) * rng.choice([-1.0, 1.0], shape) / 7.0
        middle[::2] = rng.standard_normal(middle[::2].shape)
        values = np.vstack([special, middle, special])[:rows]
        header = ["vec:1,0", "leg:2", 'say "x"']
        with open(tmp_path / "rows.csv", "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(header)
            out.writerows([format_float(x) for x in row] for row in values)
        _write_matrix_csv(tmp_path / "block.csv", header, _row_blocks(values))
        assert (tmp_path / "block.csv").read_bytes() == \
            (tmp_path / "rows.csv").read_bytes()

    @pytest.mark.parametrize("replicates", [1, 4097, 9000])
    def test_empirical_writer_matches_row_blocks(self, tmp_path, replicates):
        # the count-keyed writer gives the bytes of formatting every row of
        # field[:] in draw order, across blocks, where distinct count vectors
        # give bit-equal rows and where rows differ only in a zero's sign
        from dataclasses import replace
        from stratclt import DiscreteMeasure, apex, build_net, cov_matrix
        from stratclt.fields import _row_blocks, _write_matrix_csv, write_empirical_fields_csv
        from stratclt.harness import _CountField
        mu = DiscreteMeasure.from_json(load_config("field_example.json")["measure"])
        a = apex(mu.space)
        # row (xi_0 + xi_1, +-0, (xi_0 + xi_1) / 2): -0 exactly when
        # xi_0 < 0, xi_1 < 0 and xi_2 > 0; every sum is exact at n w = (2, 2, 4)
        cov = replace(cov_matrix(mu, a, build_net(a, 1.0)), weights=np.array([0.25, 0.25, 0.5]),
                      tau=np.array([[1.0, 0.0, 0.5], [1.0, 0.0, 0.5], [0.0, -0.0, 0.0]]))
        counts = np.random.default_rng(4).multinomial(8, cov.weights, size=replicates)
        field = _CountField(cov, counts, 8, 1.0)
        whole = field[:]
        if replicates > 1:
            counts_of = {}  # the count vectors of each row, keyed on its bits
            for c, row in zip(counts.tolist(), whole):
                counts_of.setdefault(row.tobytes(), set()).add(tuple(c))
            assert max(map(len, counts_of.values())) > 1
            # rows equal as floats but not as bits, -0.0 against 0.0
            assert len(counts_of) > len(set(map(tuple, whole.tolist())))
        write_empirical_fields_csv(tmp_path / "emp.csv", cov, field.xi)
        _write_matrix_csv(tmp_path / "whole.csv", cov.net.descriptors(), _row_blocks(whole))
        assert (tmp_path / "emp.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


def run_child(code: str, **env):
    """Run ``code`` in a fresh interpreter with ``env`` added to the
    environment and return its last line of output, read as JSON."""
    import subprocess, sys, os
    env = dict(os.environ, **env,
               PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def loaded_after(code: str, *modules: str) -> list[str]:
    """Run ``code`` in a fresh interpreter and return which of ``modules``
    it left in ``sys.modules``."""
    return run_child(f"{code}\nimport json, sys\n"
                     f"print(json.dumps([m for m in {modules!r} if m in sys.modules]))")


# every public name of the package, each reachable as stratclt.<name>
EXPORTS = (
    "CLTReport ConfigError CovMatrix CoveringProfile Direction DirectionNet DiscreteMeasure "
    "DomainError ExperimentConfig GaussianFieldSampler MeanDiagnostics "
    "NumericalConsistencyError Point SpaceMismatchError SpaceSpec StratcltError TangentMeasure "
    "TangentVector __version__ apex build_net compare_covariance "
    "config_from_json cov_matrix covering dimension_constant directions distance errors exp_map "
    "fields frechet_function frechet_mean geodesic_point geometry harness ks_distance log_map "
    "measures net_from_directions pushforward regularity rng run_clt_experiment stratum_of "
    "substream validate_localized zero_vector").split()


class TestInfrastructure:
    def test_import_leaves_scipy_unloaded(self):
        # stratclt needs only numpy at run time; scipy is a test oracle
        assert loaded_after("import stratclt.cli", "scipy") == []

    @pytest.mark.parametrize("command", ["clt", "field", "mean"])
    def test_runs_leave_scipy_unloaded(self, tmp_path, command):
        if command == "clt":
            cfg = small_clt_config(tmp_path, tests=["cov", "ks", "mahalanobis",
                                                    "moments", "increments",
                                                    "martingale"])
            argv = ["clt", "--config", cfg, "--seed", "1", "--out", str(tmp_path / "o")]
        elif command == "field":
            argv = ["field", "--config", str(CONFIG_DIR / "field_example.json"),
                    "--seed", "1", "--out", str(tmp_path / "o"),
                    "--draws", "50", "--empirical-n", "100"]
        else:
            argv = ["mean", "--config",
                    str(CONFIG_DIR / "spider3_weighted.measure.json")]
        code = (f"from stratclt.cli import main\n"
                f"assert main({argv!r}) in (0, 2)")
        assert loaded_after(code, "scipy") == []

    def test_cli_import_loads_no_subcommand_modules(self):
        assert loaded_after("import stratclt.cli", "stratclt.harness", "stratclt.fields",
                            "stratclt.regularity", "stratclt.covering", "numpy.random",
                            "hashlib") == []

    def test_mean_loads_only_its_modules(self, tmp_path):
        # the closed-form mean and its certificate run on Python floats:
        # on every pinned input, neither numpy nor the vectorized direction
        # spaces load (a module once loaded stays in sys.modules), and the
        # records are declared without dataclasses, which loads inspect
        paths = [write_json(tmp_path / f"{name}.json", CLOSED_FORM_MEASURES[name])
                 if name in CLOSED_FORM_MEASURES else str(CONFIG_DIR / name)
                 for name in sorted(MEAN_DIGESTS)]
        code = (f"from stratclt.cli import main\nfor path in {paths!r}:\n"
                f"    assert main(['mean', '--config', path]) == 0")
        assert loaded_after(code, "numpy", "stratclt.directions", "stratclt.harness",
                            "dataclasses", "inspect") == []

    def test_cover_loads_only_its_modules(self, tmp_path):
        # the covering counts are closed-form grid sizes on Python ints and
        # floats and the CSV cell format lives in errors: with --out at a
        # cone apex, a spine point, a spider apex and a plane point, neither
        # numpy nor a module of nets, fields or experiments loads, nor
        # dataclasses and inspect
        runs = [({"kind": "flat_cone", "circumference": 3 * math.pi}, [0.0, 0.0]),
                ({"kind": "open_book", "pages": 3}, [0, 0.2, 0.0]),
                ({"kind": "spider", "legs": 3}, [0, 0.0]),
                ({"kind": "euclidean", "dim": 2}, [0.0, 1.0])]
        argvs = [["cover", "--space", json.dumps(space), "--base", json.dumps(base),
                  "--n-max", "12", "--out", str(tmp_path / f"o{i}")]
                 for i, (space, base) in enumerate(runs)]
        code = (f"from stratclt.cli import main\nfor argv in {argvs!r}:\n"
                f"    assert main(argv) == 0")
        assert loaded_after(code, "numpy", "stratclt.directions", "stratclt.regularity",
                            "stratclt.fields", "stratclt.harness", "dataclasses", "inspect") == []
        for i in range(len(runs)):
            assert (tmp_path / f"o{i}" / "covering.csv").read_text().startswith("scale,count\n")

    @pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                        reason="counts threads in /proc/self/task")
    def test_cli_runs_start_one_blas_thread(self, tmp_path):
        # no run path calls BLAS or LAPACK, so main starts numpy with one
        # OpenBLAS thread whatever OPENBLAS_NUM_THREADS asks for
        argvs = [["clt", "--config", small_clt_config(tmp_path), "--seed", "1",
                  "--out", str(tmp_path / "clt")],
                 ["field", "--config", str(CONFIG_DIR / "field_example.json"),
                  "--seed", "1", "--out", str(tmp_path / "field"), "--draws", "50"]]
        code = (f"import os\nfrom stratclt.cli import main\nfor argv in {argvs!r}:\n"
                f"    assert main(argv) in (0, 2)\n"
                f"print(len(os.listdir('/proc/self/task')))")
        assert run_child(code, OPENBLAS_NUM_THREADS="2") == 1

    def test_numpy_loaded_first_keeps_its_environment(self, tmp_path):
        # a caller that imported numpy before main has its BLAS pool
        # already, and main leaves its environment as it found it
        argv = ["field", "--config", str(CONFIG_DIR / "field_example.json"),
                "--seed", "1", "--out", str(tmp_path / "field"), "--draws", "50"]
        code = (f"import json, os, numpy\nfrom stratclt.cli import main\n"
                f"assert main({argv!r}) == 0\n"
                f"print(json.dumps(os.environ['OPENBLAS_NUM_THREADS']))")
        assert run_child(code, OPENBLAS_NUM_THREADS="2") == "2"

    def test_geometry_forwards_direction_spaces(self):
        # the point layer loads no numpy; the names that moved to
        # directions still resolve through geometry, on first access
        from stratclt import directions, geometry
        assert loaded_after("import stratclt.geometry", "numpy", "stratclt.directions") == []
        for name in ("CHAIN_SLACK", "DirectionNet", "direction_space", "net_from_directions",
                     "pairings"):
            assert getattr(geometry, name) is getattr(directions, name)
        with pytest.raises(AttributeError, match="no_such_name"):
            geometry.no_such_name

    def test_exports_resolve_on_first_access(self):
        import stratclt
        assert loaded_after("import stratclt", "stratclt.geometry", "numpy") == []
        code = f"import stratclt\nfor name in {EXPORTS!r}:\n    getattr(stratclt, name)"
        assert loaded_after(code, "stratclt.harness") == ["stratclt.harness"]
        assert stratclt.DiscreteMeasure is stratclt.measures.DiscreteMeasure
        assert set(EXPORTS) <= set(dir(stratclt))
        # the export table names exactly these: a dropped or stale name fails
        table = {*stratclt._EXPORTS, *stratclt._MODULE_OF, "__version__"}
        assert set(EXPORTS) == table
        with pytest.raises(AttributeError, match="no_such_name"):
            stratclt.no_such_name

    def test_benchmark_layer_suite_passes(self):
        # the layer suite rebinds and calls package names; a renamed or
        # dropped one fails it
        import subprocess, sys
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "clt-bundled",
             "--seed", "1", "--trace", "1"],
            capture_output=True, text=True, cwd=CONFIG_DIR.parent, timeout=600)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] is True and result["failed"] == 0, result

    def test_numerical_error_maps_to_exit_4(self, tmp_path, capsys, monkeypatch):
        from stratclt import harness
        from stratclt.errors import NumericalConsistencyError

        def boom(cfg):
            raise NumericalConsistencyError("synthetic indefinite matrix")

        monkeypatch.setattr(harness, "run_clt_experiment", boom)
        cfg = small_clt_config(tmp_path)
        code = main(["clt", "--config", cfg, "--seed", "1",
                     "--out", str(tmp_path / "o")])
        assert code == 4
        assert "numerical" in capsys.readouterr().err

    def test_module_entrypoint(self, tmp_path):
        import subprocess, sys, os
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "stratclt", "mean", "--config",
             str(CONFIG_DIR / "euclidean_pm1.measure.json")],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert abs(json.loads(proc.stdout)["mean"]["coords"][0]) < 1e-3


class TestOutputFormats:
    def test_format_csv_only_includes_modulus(self, tmp_path, capsys):
        raw = load_config("openbook3_spine.json")
        raw["sample_sizes"] = [200]
        raw["replicates"] = 120
        raw["thresholds"] = {"ks": 0.3, "mahalanobis_ks": 0.3, "cov_sup": 0.4}
        raw["modulus"] = {"epsilon": 0.00390625, "radii_log2": [2, 3, 4],
                          "n": 200, "replicates": 100}
        cfg = write_json(tmp_path / "c.json", raw)
        outdir = tmp_path / "csvonly"
        # clt has no --format: every run writes report.json and the CSVs
        with pytest.raises(SystemExit) as exc:
            main(["clt", "--config", cfg, "--seed", "1", "--out", str(outdir),
                  "--format", "csv"])
        assert exc.value.code == 3
        code = main(["clt", "--config", cfg, "--seed", "1", "--out", str(outdir)])
        assert code in (0, 2)
        capsys.readouterr()
        names = {f.name for f in outdir.iterdir()}
        # every table CSV is declared once, in CSV_TABLES, modulus.csv too
        from stratclt.harness import CSV_TABLES
        assert names == {"manifest.json", "report.json", "cov_matrix.csv",
                         *(table[0] for table in CSV_TABLES)}
        header = (outdir / "modulus.csv").read_text().splitlines()[0]
        assert header == "radius,replicate,w,aggregate"
        digest = hashlib.sha256((outdir / "modulus.csv").read_bytes()).hexdigest()
        assert digest == MODULUS_CSV_DIGEST


class TestCsvQuoting:
    def test_openbook_rows_match_header_width(self, tmp_path, capsys):
        # open-book descriptors ('page:0,theta:...') contain commas
        raw = load_config("openbook3_spine.json")
        raw["sample_sizes"] = [200]
        raw["replicates"] = 120
        raw["tests"] = ["cov", "ks", "moments", "martingale"]
        raw["thresholds"] = {"ks": 0.3, "mahalanobis_ks": 0.3, "cov_sup": 0.4}
        raw.pop("modulus")
        cfg = write_json(tmp_path / "c.json", raw)
        outdir = tmp_path / "clt"
        code = main(["clt", "--config", cfg, "--seed", "1", "--out", str(outdir)])
        assert code in (0, 2)
        capsys.readouterr()
        report = json.loads((outdir / "report.json").read_text())
        field_cfg = write_json(tmp_path / "f.json", {
            "measure": raw["measure"], "base": report["base"], "net": raw["net"]})
        code = main(["field", "--config", field_cfg, "--seed", "1", "--out",
                     str(outdir), "--draws", "20", "--empirical-n", "50"])
        assert code == 0
        capsys.readouterr()
        for name in ("cov_matrix.csv", "ks.csv", "moments.csv", "martingale.csv",
                     "gaussian_draws.csv", "empirical_draws.csv"):
            with open(outdir / name, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            assert len(rows) > 1, name
            assert all(len(r) == len(rows[0]) for r in rows), name
            if name.endswith("_draws.csv") or name == "cov_matrix.csv":
                assert rows[0] == report["net"], name


class TestStatisticalFailureExit:
    def test_exit_2_with_outputs(self, tmp_path, capsys):
        # impossible threshold: the run completes, writes its outputs,
        # and signals the statistical failure through the exit code
        raw = load_config("spider3_uniform.json")
        raw["sample_sizes"] = [200]
        raw["replicates"] = 120
        raw["thresholds"] = {"ks": 1e-9}
        cfg = write_json(tmp_path / "c.json", raw)
        outdir = tmp_path / "out"
        code = main(["clt", "--config", cfg, "--seed", "2",
                     "--out", str(outdir)])
        assert code == 2
        out = json.loads(capsys.readouterr().out)
        assert out["passed"] is False
        report = json.loads((outdir / "report.json").read_text())
        assert report["passed"] is False
