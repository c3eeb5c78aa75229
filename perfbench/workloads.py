"""The four workloads: inputs generated from the seed, and one round of
CLI invocations with the check that decides whether each succeeded."""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracle

BUNDLED = ("euclidean_pm1", "spider3_uniform", "spider3_weighted",
           "flatcone4_star", "openbook3_spine")
FINE_NET_CONFIGS = ("openbook3_spine", "flatcone4_star")
FINE_NET_EPS = 0.1           # 95 directions on both direction spaces
CONE_ALPHA = 3.0 * math.pi   # circumference of the bundled flat cone
BOOK_PAGES = 3
COVER_N_MAX = 14             # finest scale 2^-14: 154k cone directions
FIELD_DRAWS = 100_000
FIELD_N = 1000

# Measures the grid certificate refuses (exit 3) on every seed; they stay
# in mean-certify and count as failed until the solver handles them.
KNOWN_FAILURES = {
    "cone_off_apex": {
        "space": {"kind": "flat_cone", "circumference": CONE_ALPHA},
        "atoms": [{"point": [1.0, 0.0], "weight": 0.6},
                  {"point": [1.0, 1.0], "weight": 0.4}],
    },
    "euclidean3_four": {
        "space": {"kind": "euclidean", "dim": 3},
        "atoms": [{"point": [1.0, 0.0, 0.0], "weight": 0.25},
                  {"point": [0.0, 1.0, 0.0], "weight": 0.25},
                  {"point": [0.0, 0.0, 1.0], "weight": 0.25},
                  {"point": [-1.0, -1.0, 0.5], "weight": 0.25}],
    },
}


@dataclass
class Result:
    returncode: int
    stdout: str
    stderr: str


@dataclass
class Op:
    """One CLI invocation; ``check`` returns the problems with its output."""

    name: str
    argv: list
    ok_codes: tuple
    check: Callable[[Result], list]


def _write(path: Path, obj: dict) -> str:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _clt_op(name: str, config: dict, seed: int, work: Path) -> Op:
    path = _write(work / f"{name}.json", config)
    out = work / f"out-{name}"

    def check(res: Result) -> list:
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        verdict = _last_json(res.stdout)["passed"]
        # exit 2 is the documented verdict of a statistical gate that
        # rejected at this seed; it is a result, not a refusal
        if verdict != report["passed"] or res.returncode != (0 if verdict else 2):
            return [f"exit {res.returncode} disagrees with verdict {verdict}"]
        return oracle.clt_problems(config, report)

    return Op(name, ["clt", "--config", path, "--seed", str(seed), "--out", str(out)],
              (0, 2), check)


def _mean_op(name: str, measure: dict, work: Path) -> Op:
    path = _write(work / f"{name}.measure.json", measure)
    want = oracle.closed_form_mean(measure)

    def check(res: Result) -> list:
        return oracle.mean_problems(_last_json(res.stdout)["mean"]["coords"], want)

    return Op(name, ["mean", "--config", path], (0,), check)


def _cover_op(name: str, space: dict, base: list, length: float, pages: int,
              work: Path) -> Op:
    def check(res: Result) -> list:
        return oracle.cover_problems(_last_json(res.stdout), length, pages, COVER_N_MAX)

    return Op(name, ["cover", "--space", json.dumps(space), "--base", json.dumps(base),
                     "--n-max", str(COVER_N_MAX), "--out", str(work / f"out-{name}")],
              (0,), check)


def bundled(repo: Path, name: str) -> dict:
    return json.loads((repo / "configs" / f"{name}.json").read_text(encoding="utf-8"))


def build(workload: str, seed: int, repo: Path, work: Path) -> list[Op]:
    """The operations of one round; the same seed gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")

    def draw() -> int:
        return rng.randrange(2**31)

    if workload == "clt-bundled":
        return [_clt_op(n, bundled(repo, n), draw(), work) for n in BUNDLED]
    if workload == "clt-fine-net":
        ops = []
        for n in FINE_NET_CONFIGS:
            cfg = bundled(repo, n)
            cfg["net"] = {"epsilon": FINE_NET_EPS}
            cfg["tests"] = [t for t in cfg["tests"] if t != "modulus"]
            cfg.pop("modulus", None)
            ops.append(_clt_op(f"{n}_fine", cfg, draw(), work))
        ops.append(_cover_op("cover_cone_apex",
                             {"kind": "flat_cone", "circumference": CONE_ALPHA},
                             [0.0, 0.0], CONE_ALPHA, 0, work))
        spine_s = round(rng.uniform(-1.0, 1.0), 6)
        ops.append(_cover_op("cover_book_spine",
                             {"kind": "open_book", "pages": BOOK_PAGES},
                             [0, spine_s, 0.0], BOOK_PAGES * math.pi, BOOK_PAGES, work))
        return ops
    if workload == "mean-certify":
        # no seeded input: a seeded solver start makes the flat-cone star
        # refuse at some seeds (an exact-pi geodesic in the inductive mean)
        ops = [_mean_op(n, bundled(repo, f"{n}.measure"), work) for n in BUNDLED]
        return ops + [_mean_op(n, m, work) for n, m in KNOWN_FAILURES.items()]
    if workload == "field-draws":
        cfg = bundled(repo, "field_example")
        path = _write(work / "field.json", cfg)
        out = work / "out-field"

        def check(res: Result) -> list:
            return (oracle.gaussian_problems(cfg, out, FIELD_DRAWS)
                    + oracle.empirical_problems(cfg, out, FIELD_DRAWS, FIELD_N))

        return [Op("field_spider3", ["field", "--config", path, "--seed", str(draw()),
                                     "--out", str(out), "--draws", str(FIELD_DRAWS),
                                     "--empirical-n", str(FIELD_N)], (0,), check)]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("clt-bundled", "clt-fine-net", "mean-certify", "field-draws")
