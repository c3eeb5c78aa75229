"""The traced run: per-layer timings from direct calls into each module.

The tracer keeps spans (name, start, end, parent) and call counts in
memory.  It records them around the package's functions by rebinding
module and class attributes in this process only; nothing in ``src/``
changes.  Allocation peaks are taken with tracemalloc in separate calls,
because tracemalloc slows the Python-heavy code it watches.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import oracle
import workloads

TRACE_REPLICATES = 2000   # replicates of the traced fine-net experiment
TRACE_COVER_N_MAX = 12    # dyadic profile depth of the traced cover probe
MICRO_PAIRS = 1000        # point pairs per space in the geometry mix
MICRO_REPEATS = 7
RNG_CALLS = 2000


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()
            self.counts[name] += 1

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def patch(self, owner, attr: str, name: str):
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(self.wrap(raw.__func__, name)))
        else:
            setattr(owner, attr, self.wrap(raw, name))
        self._patched.append((owner, attr, raw))

    def unpatch(self):
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()

    def total(self, name: str, parent: str | None = None) -> float:
        """Summed duration of the spans called ``name`` (under ``parent``)."""
        return sum(end - start for n, start, end, p in self.spans
                   if n == name and (parent is None
                                     or (p is not None and self.spans[p][0] == parent)))

    def dump(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans]
        path.write_text(json.dumps({"spans": rows, "counts": dict(self.counts)}) + "\n",
                        encoding="utf-8")


def _targets(fl, hz, mz, rg):
    """(owner, attribute, span name) for every traced call into a layer."""
    sim = hz._FieldSimulator
    out = [
        (mz, "frechet_mean", "measures.frechet_mean"),
        (mz, "validate_localized", "measures.validate_localized"),
        (fl, "pairing_matrix", "fields.pairing_matrix"),
        (fl, "cov_matrix", "fields.cov_matrix"),
        (fl.GaussianFieldSampler, "build", "fields.gaussian_build"),
        (fl.GaussianFieldSampler, "draw_matrix", "fields.gaussian_draw"),
        (rg, "build_net", "regularity.build_net"),
        (rg, "dimension_constant", "regularity.dimension_constant"),
        (rg, "modulus_many", "regularity.modulus"),
        (hz, "run_clt_experiment", "harness.run_clt_experiment"),
        (hz, "substream", "rng.substream"),
        (sim, "field_rows", "harness.simulate"),
        (sim, "partial_sum_rows", "harness.partial_sums"),
    ]
    for test in ("cov", "ks", "mahalanobis", "moment", "increment", "martingale",
                 "modulus"):
        out.append((hz, f"_{test}_test", f"harness.test.{test}"))
    return out


def _median_us(fn, calls: int) -> float:
    """Median over repeats of the per-call time of ``fn`` (which makes ``calls`` calls)."""
    times = []
    for _ in range(MICRO_REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) / calls * 1e6


def _geometry_pairs(geo, rng: np.random.Generator) -> list:
    """A fixed mix of point pairs on all four spaces; a fifth of the points
    sit on the singular stratum (apex, spine)."""
    spaces = [geo.SpaceSpec.euclidean(2), geo.SpaceSpec.spider(3),
              geo.SpaceSpec.open_book(3), geo.SpaceSpec.flat_cone(workloads.CONE_ALPHA)]

    def point(sp):
        on_boundary = rng.random() < 0.2
        r = 0.0 if on_boundary else float(rng.uniform(0.05, 2.0))
        if sp.kind == "euclidean":
            return geo.Point.of(sp, rng.normal(size=2))
        if sp.kind == "spider":
            return geo.Point.of(sp, (int(rng.integers(3)), r))
        if sp.kind == "open_book":
            return geo.Point.of(sp, (int(rng.integers(3)), float(rng.normal()), r))
        return geo.Point.of(sp, (r, float(rng.uniform(0.0, sp.circumference))))

    return [(point(sp), point(sp)) for sp in spaces for _ in range(MICRO_PAIRS)]


def _geometry_micro(geo, pairs: list, rng: np.random.Generator) -> dict:
    """Per-call µs of the four geometry primitives over ``pairs``."""
    fracs = rng.random(len(pairs)).tolist()
    logs = [geo.log_map(p, q) for p, q in pairs]
    n = len(pairs)
    return {
        "geometry.distance_us": _median_us(
            lambda: [geo.distance(p, q) for p, q in pairs], n),
        "geometry.geodesic_point_us": _median_us(
            lambda: [geo.geodesic_point(p, q, t) for (p, q), t in zip(pairs, fracs)], n),
        "geometry.log_map_us": _median_us(
            lambda: [geo.log_map(p, q) for p, q in pairs], n),
        "geometry.exp_map_us": _median_us(
            lambda: [geo.exp_map(p, v) for (p, _q), v in zip(pairs, logs)], n),
    }


def _span_overhead_us(fn, pairs: list) -> float:
    """Traced minus untraced per-call time of ``fn``, from alternating
    repeats so that a change in machine speed cancels."""
    traced = Tracer().wrap(fn, "probe")
    diffs = []
    for _ in range(MICRO_REPEATS):
        start = time.perf_counter()
        for p, q in pairs:
            fn(p, q)
        mid = time.perf_counter()
        for p, q in pairs:
            traced(p, q)
        diffs.append((time.perf_counter() - mid) - (mid - start))
    return statistics.median(diffs) / len(pairs) * 1e6


def _alloc_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def run(seed: int, repo: Path, work: Path, trace_path: Path, threads: int, log) -> dict:
    """The layer suite; it is the same for every workload."""
    def bundled(name: str) -> dict:
        return workloads.bundled(repo, name)

    start = time.perf_counter()
    import stratclt.cli as cli
    import_s = time.perf_counter() - start
    from stratclt import fields as fl, geometry as geo, harness as hz
    from stratclt import measures as mz, regularity as rg, rng as srng

    rng = np.random.default_rng([seed, 7])
    metrics = {"cli.import_s": (import_s, "s")}
    checks = []  # one list of problems per checked operation

    # per-call microbenchmarks, untraced
    pairs = _geometry_pairs(geo, rng)
    for name, value in _geometry_micro(geo, pairs, rng).items():
        metrics[name] = (value, "us")
    metrics["rng.substream_us"] = (_median_us(
        lambda: [srng.substream(seed, 10, 0, rep) for rep in range(RNG_CALLS)],
        RNG_CALLS), "us")
    span_us = _span_overhead_us(geo.distance, pairs)

    tracer = Tracer()
    for owner, attr, name in _targets(fl, hz, mz, rg):
        tracer.patch(owner, attr, name)
    try:
        # measures: the bundled measure files, as mean-certify solves them
        grid_points = 0
        with tracer.span("measures.mean_certify"):
            for name in workloads.BUNDLED:
                raw = bundled(f"{name}.measure")
                diag = mz.frechet_mean(mz.DiscreteMeasure.from_json(raw)).to_json()
                grid_points += diag["certificate"]["grid_points"]
                checks.append(oracle.mean_problems(diag["mean"]["coords"],
                                                   oracle.closed_form_mean(raw)))
        for name in workloads.BUNDLED:
            raw = bundled(name)
            cfg = hz.config_from_json(raw, seed=seed)
            mz.validate_localized(cfg.measure, cfg.validation_config())

        # regularity: dyadic cover profiles at the cone apex and the spine
        net_size = 0
        for space, base, length, pages in (
                ({"kind": "flat_cone", "circumference": workloads.CONE_ALPHA}, [0.0, 0.0],
                 workloads.CONE_ALPHA, 0),
                ({"kind": "open_book", "pages": workloads.BOOK_PAGES},
                 [0, float(rng.uniform(-1, 1)), 0.0],
                 workloads.BOOK_PAGES * np.pi, workloads.BOOK_PAGES)):
            point = geo.Point.of(geo.SpaceSpec.from_json(space), base)
            profile = rg.dimension_constant(point, TRACE_COVER_N_MAX)
            checks.append(oracle.cover_problems(
                {"counts": list(profile.counts), "d_estimate": profile.d_estimate},
                length, pages, TRACE_COVER_N_MAX))
            net_size += len(rg.build_net(point, 2.0 ** -TRACE_COVER_N_MAX))

        # harness: the fine-net experiment with every test, one run
        cfg_json = bundled("openbook3_spine")
        cfg_json["net"] = {"epsilon": workloads.FINE_NET_EPS}
        cfg_json["replicates"] = TRACE_REPLICATES
        cfg = hz.config_from_json(cfg_json, seed=seed, threads=threads)
        report = hz.run_clt_experiment(cfg)
        report_json = report.to_json()
        checks.append(oracle.clt_problems(cfg_json, report_json))
        n = cfg.sample_sizes[0]
        increment_pairs = sum(len(t["increments"]["pairs"]) for t in report.per_n.values())

        # fields: Gaussian draws of the field-draws size
        field_cfg = bundled("field_example")
        measure = mz.DiscreteMeasure.from_json(field_cfg["measure"])
        base = geo.Point.of(measure.space, field_cfg["base"])
        net = geo.net_from_directions(base, hz._directions_from_spec(base, field_cfg["net"]))
        cov = fl.cov_matrix(measure, base, net)
        draws = fl.GaussianFieldSampler.build(cov).draw_matrix(
            srng.substream(seed, 20), workloads.FIELD_DRAWS)

        # cli: the writers cmd_field and cmd_clt call
        out, clt_out = work / "field-out", work / "clt-out"
        out.mkdir()
        clt_out.mkdir()
        with tracer.span("cli.write"):
            fl.write_fields_csv(out / "gaussian_draws.csv", net, draws)
            fl.write_cov_csv(out / "cov_matrix.csv", cov)
            cli._dump_json(clt_out / "report.json", report_json)
            cli._report_csvs(report, clt_out)
        output_bytes = sum(p.stat().st_size for d in (out, clt_out) for p in d.iterdir())
        checks.append(oracle.gaussian_problems(field_cfg, out, workloads.FIELD_DRAWS))
    finally:
        tracer.unpatch()

    # allocation peaks, in calls of their own
    star = mz.DiscreteMeasure.from_json(bundled("flatcone4_star.measure"))
    mean_alloc = _alloc_mb(lambda: mz.frechet_mean(star))
    book = hz.config_from_json(bundled("openbook3_spine"), seed=seed)
    spine = mz.validate_localized(book.measure, book.validation_config()).mean
    mod_net = rg.build_net(spine, book.modulus.epsilon)
    values = hz._FieldSimulator(book.measure, spine, mod_net).field_rows(
        seed, 12, 0, book.modulus.n, book.modulus.replicates, 1)
    radii = [2.0 ** -k for k in book.modulus.radii_log2]
    modulus_alloc = _alloc_mb(lambda: rg.modulus_many(values, mod_net, radii))

    simulate_s = tracer.total("harness.simulate", parent="harness.run_clt_experiment")
    t = tracer.total
    metrics.update({
        "cli.write_s": (t("cli.write"), "s"),
        "cli.output_bytes": (output_bytes, "bytes"),
        "measures.frechet_mean_s": (t("measures.frechet_mean", parent="measures.mean_certify"),
                                    "s"),
        "measures.frechet_mean_alloc_mb": (mean_alloc, "MB"),
        "measures.grid_points": (grid_points, "count"),
        "measures.validate_localized_s": (t("measures.validate_localized"), "s"),
        "fields.pairing_matrix_s": (t("fields.pairing_matrix"), "s"),
        "fields.cov_matrix_s": (t("fields.cov_matrix"), "s"),
        "fields.gaussian_draw_s": (t("fields.gaussian_build") + t("fields.gaussian_draw"), "s"),
        "regularity.build_net_s": (t("regularity.build_net"), "s"),
        "regularity.net_size": (net_size, "count"),
        "regularity.dimension_constant_s": (t("regularity.dimension_constant"), "s"),
        "regularity.modulus_s": (t("regularity.modulus"), "s"),
        "regularity.modulus_alloc_mb": (modulus_alloc, "MB"),
        "harness.simulate_s": (simulate_s, "s"),
        "harness.samples_per_s": (n * cfg.replicates / simulate_s, "1/s"),
    })
    for test, name in (("cov", "cov"), ("ks", "ks"), ("mahalanobis", "mahalanobis"),
                       ("moments", "moment"), ("increments", "increment"),
                       ("martingale", "martingale"), ("modulus", "modulus")):
        metrics[f"harness.test.{test}_s"] = (t(f"harness.test.{name}"), "s")
    metrics["harness.increment_pairs"] = (increment_pairs, "count")
    metrics["trace.span_overhead_us"] = (span_us, "us")
    metrics["trace.overhead_s"] = (span_us * len(tracer.spans) / 1e6, "s")
    metrics["trace.spans"] = (len(tracer.spans), "count")

    tracer.dump(trace_path)
    log(f"trace: {len(tracer.spans)} spans written to {trace_path}")
    failed = [c for c in checks if c]
    for problems in failed:
        log("  FAILED " + "; ".join(problems))
    return {"correct": not failed, "attempted": len(checks), "failed": len(failed),
            "metrics": metrics}
