"""Command-line front end: mean, clt, cover, field subcommands.

Structured configuration goes in as JSON, tabular results come out as
CSV, and every run with an output directory also writes a manifest with
the tool version, config hash and produced files.  Identical arguments
and seed produce byte-identical primary outputs; only the manifest
carries timestamps.

Exit codes: 0 ok, 2 statistical failure, 3 input/precondition failure,
4 internal numerical inconsistency.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .errors import (ConfigError, NumericalConsistencyError, StratcltError, format_float,
                     json_array, json_number, json_object, open_output)

EXIT_OK = 0
EXIT_STATISTICAL = 2
EXIT_INPUT = 3
EXIT_NUMERICAL = 4

_PURPOSE_GAUSSIAN = 20
_PURPOSE_FIELD_EMPIRICAL = 21


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc


def _make_outdir(out: str) -> Path:
    outdir = Path(out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    return outdir


def _dump_json(path: Path, obj) -> None:
    with open_output(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(outdir: Path, command: str, config_path: str | None,
                    seed: int | None, outputs: list[str]):
    import hashlib
    from datetime import datetime, timezone
    _dump_json(outdir / "manifest.json", {
        "tool": "stratclt",
        "version": __version__,
        "command": command,
        "config_path": config_path,
        "config_sha256": (hashlib.sha256(Path(config_path).read_bytes()).hexdigest()
                          if config_path else None),
        "seed": seed,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "outputs": sorted(outputs),
    })


def _write_csv(path: Path, rows) -> None:
    """Rows of raw values, written as they are read, one cell format for
    every table: a float is written by ``errors.format_float``, None as an
    empty cell (as csv writes it) and anything else as is."""
    import csv
    with open_output(path, newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(
            [format_float(x) if isinstance(x, float) else x for x in row]
            for row in rows)


# ---------------------------------------------------------------------------
# mean


def cmd_mean(args) -> int:
    from . import measures as mz
    diag = mz.frechet_mean(mz.DiscreteMeasure.from_json(_load_json(args.config)))
    print(json.dumps(diag.to_json(), sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# clt


def _report_csvs(report, outdir: Path) -> list[str]:
    from . import fields as fl
    fl.write_cov_csv(outdir / "cov_matrix.csv", report.analytic_cov)
    tables = report.tables()
    for name, rows in tables.items():
        _write_csv(outdir / name, rows)
    return ["cov_matrix.csv", *tables]


def cmd_clt(args) -> int:
    from . import harness as hz
    cfg = hz.config_from_json(_load_json(args.config), seed=args.seed)
    outdir = _make_outdir(args.out)
    report = hz.run_clt_experiment(cfg)
    outputs = []
    if args.format in ("json", "both"):
        _dump_json(outdir / "report.json", report.to_json())
        outputs.append("report.json")
    if args.format in ("csv", "both"):
        outputs.extend(_report_csvs(report, outdir))
    _write_manifest(outdir, "clt", args.config, args.seed, outputs)
    print(json.dumps({"passed": report.passed, "out": str(outdir)},
                     sort_keys=True))
    return EXIT_OK if report.passed else EXIT_STATISTICAL


# ---------------------------------------------------------------------------
# cover


def _json_arg(name: str, text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{name} is not valid JSON: {exc}") from exc


def cmd_cover(args) -> int:
    from . import covering as cv, geometry as geo
    if args.config:
        raw = _load_json(args.config)
    elif args.space and args.base is not None:
        raw = {"space": _json_arg("--space", args.space),
               "base": _json_arg("--base", args.base), "n_max": args.n_max}
    else:
        raise ConfigError("cover needs --config or both --space and --base")
    raw = json_object(raw, "cover config", required=("space", "base"), optional=("n_max",))
    n_max = json_number(raw.get("n_max", args.n_max), "n_max", int)
    base = geo.Point.of(geo.SpaceSpec.from_json(raw["space"]), json_array(raw["base"], "base"))
    if n_max > cv.COVER_N_MAX:
        # the 2^-COVER_N_MAX floor of every net scale; the counts build no net
        raise ConfigError(f"--n-max must be <= {cv.COVER_N_MAX}, got {n_max}")
    profile = cv.dimension_constant(base, n_max)
    summary = {
        "d_estimate": profile.d_estimate,
        "stratum_dim_bound": profile.stratum_dim_bound,
        "counts": list(profile.counts),
    }
    print(json.dumps(summary, sort_keys=True))
    if args.out:
        outdir = _make_outdir(args.out)
        _write_csv(outdir / "covering.csv", profile.to_csv_rows())
        _dump_json(outdir / "covering.json", summary)
        _write_manifest(outdir, "cover", args.config, None,
                        ["covering.csv", "covering.json"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# field


def cmd_field(args) -> int:
    from . import fields as fl, harness as hz, measures as mz
    from .rng import substream
    raw = json_object(_load_json(args.config), "field config", required=("measure", "net"),
                      optional=("base",))
    measure, base = hz.measure_and_base(raw)
    base = mz.validate_localized(measure, base).base
    net = hz.resolve_net(base, raw["net"])
    outdir = _make_outdir(args.out)
    # the one covariance of the net serves the draws and the empirical fields
    sim = hz._FieldSimulator(measure, base, net)
    sampler = fl.GaussianFieldSampler.build(sim.cov)
    outputs = ["gaussian_draws.csv", "cov_matrix.csv"]
    # the draws are bound to no name, so they are freed before the
    # empirical fields are simulated and do not add to the peak RSS
    fl.write_fields_csv(outdir / "gaussian_draws.csv", net, sampler.draw_matrix(
        substream(args.seed, _PURPOSE_GAUSSIAN), args.draws))
    fl.write_cov_csv(outdir / "cov_matrix.csv", sim.cov)
    if args.empirical_n:
        emp = sim.field_rows(args.seed, _PURPOSE_FIELD_EMPIRICAL, 0,
                             args.empirical_n, args.draws)
        fl.write_empirical_fields_csv(outdir / "empirical_draws.csv", sim.cov, emp.xi)
        outputs.append("empirical_draws.csv")
    _write_manifest(outdir, "field", args.config, args.seed, outputs)
    print(json.dumps({"out": str(outdir), "draws": args.draws}, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / dispatch


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 3 (bad input); argparse's own 2 means a
    statistical failure here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _at_least(least: int):
    """An argparse type for an int >= least.  argparse puts the flag in the
    message, and on a non-integer prints "invalid integer value", taking
    "integer" from the function's name."""
    def integer(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value
    return integer


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stratclt",
        description="Tangent-field statistics on stratified CAT(0) model spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mean = sub.add_parser("mean", help="exact Fréchet mean with first-order certificate")
    p_mean.add_argument("--config", required=True, help="measure JSON file")
    p_mean.set_defaults(func=cmd_mean)

    p_clt = sub.add_parser("clt", help="run a CLT verification experiment")
    p_clt.add_argument("--config", required=True, help="experiment JSON file")
    p_clt.add_argument("--seed", required=True, type=_at_least(0))
    p_clt.add_argument("--out", required=True, help="output directory")
    p_clt.add_argument("--format", choices=("json", "csv", "both"),
                       default="both")
    p_clt.set_defaults(func=cmd_clt)

    p_cover = sub.add_parser("cover", help="covering-number profile")
    p_cover.add_argument("--config", default=None)
    p_cover.add_argument("--space", default=None, help="space spec JSON")
    p_cover.add_argument("--base", default=None, help="base point coords JSON")
    p_cover.add_argument("--n-max", type=int, default=8)
    p_cover.add_argument("--out", default=None)
    p_cover.set_defaults(func=cmd_cover)

    p_field = sub.add_parser("field", help="Gaussian tangent field draws")
    p_field.add_argument("--config", required=True)
    p_field.add_argument("--seed", required=True, type=_at_least(0))
    p_field.add_argument("--out", required=True)
    p_field.add_argument("--draws", type=_at_least(1), default=1000)
    p_field.add_argument("--empirical-n", type=_at_least(1), default=None,
                         help="also draw empirical fields at this sample size")
    p_field.set_defaults(func=cmd_field)
    return parser


def main(argv=None) -> int:
    if "numpy" not in sys.modules:
        # no run path calls BLAS or LAPACK: numpy starts no idle BLAS workers
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalConsistencyError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except StratcltError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
