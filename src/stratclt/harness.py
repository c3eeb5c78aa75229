"""Seeded Monte Carlo verification of tangent-field Gaussian limits.

For a localized discrete measure, the scaled empirical field on a net
is simulated from batched multinomial atom counts and compared against
the exactly computable tangent covariance: entrywise covariance error,
per-direction normal KS distances, a whitened chi-square statistic,
fourth-moment bounds with their explicit two-term constants, each net
pair's exact increment fourth moment against its bound, a partial-sum
martingale residual and head-increment cross-moment, and
modulus-of-continuity tables.

Each sample size draws all its replicates from the stream of (seed,
purpose, n index) and holds them as the k x R centred counts xi of the
k atoms: a field is G_n = xi tau for the centred pairings tau of the
net's one ``fields.CovMatrix``.  Every sum over atoms is the
fixed-order ``fields._fixed_product`` and every other sum a numpy
reduction along one contiguous row, never BLAS, so the reports are
bit-identical across runs, BLAS kernels and thread counts and block
sizes; the Mahalanobis statistic is whitened by Gram-Schmidt on those
same rules, with no LAPACK call.

Working set: the counts and one direction-major m x R array per sample
size, whose rows the KS and moment tests read; the increments are exact
from tau, w and n, so they draw no field and read no seed.  The
covariance and Mahalanobis statistics are formed in k dimensions, as
tau^T (xi^T xi / R) tau and as the norms of xi / sqrt(w) in an
orthonormal basis of the covariance's range; the martingale test keeps
its two count fields and forms blocks of directions from them, and the
modulus table is folded a block of replicates at a time as they are
formed from the counts.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import fields as fl
from . import geometry as geo
from . import measures as mz
from . import regularity as rg
from .covering import uniform_grid
from .directions import DirectionNet, net_from_directions
from .errors import ConfigError, DomainError, json_array, json_number, json_object
from .geometry import Point
from .measures import DiscreteMeasure
from .rng import substream

_PURPOSE_SAMPLES = 10
_PURPOSE_MARTINGALE = 11
_PURPOSE_MODULUS = 12

ALL_TESTS = ("cov", "ks", "mahalanobis", "moments", "increments", "martingale",
             "modulus")

_NORMALIZATION_NOTE = (
    "The CLT-scaled field is not itself a martingale in n: conditioning on the "
    "first n samples gives E[G_{n+k} | first n] = sqrt(n/(n+k)) * G_n. The "
    "partial sums S_n = sqrt(n) * G_n are the martingale, and the residual "
    "test below is run on them."
)


# ---------------------------------------------------------------------------
# Config


class _NumericSpec:
    """Base of the frozen spec dataclasses: each field takes the type of
    its default, a tuple default holds integers and is nonempty, a field
    named in ``_floors`` (each entry, for a tuple) is at least its floor
    and one named in ``_positive`` is above 0."""

    _floors = {}
    _positive = ()

    def __post_init__(self):
        for f in fields(self):
            name = f"{type(self).__name__}.{f.name}"
            value = getattr(self, f.name)
            if isinstance(f.default, tuple):
                value = tuple(json_number(x, name, int) for x in json_array(value, name))
                if not value:
                    raise ConfigError(f"{name} must be nonempty")
            else:
                value = json_number(value, name, type(f.default))
            floor = self._floors.get(f.name)
            entries = value if isinstance(value, tuple) else (value,)
            if floor is not None and not all(x >= floor for x in entries):
                raise ConfigError(f"{name} must be >= {floor}, got {value}")
            if f.name in self._positive and not value > 0:
                raise ConfigError(f"{name} must be > 0, got {value}")
            object.__setattr__(self, f.name, value)

    @classmethod
    def from_json(cls, obj, what: str):
        """The spec of the JSON object ``what``, whose keys are the fields."""
        return cls(**json_object(obj, what, optional=tuple(f.name for f in fields(cls))))


@dataclass(frozen=True)
class Thresholds(_NumericSpec):
    ks: float = 0.03
    mahalanobis_ks: float = 0.05
    cov_sup: float = 0.05
    zero_variance: float = 1e-10
    modulus_min_drop: float = 1.5
    _floors = {"zero_variance": 0.0}
    _positive = ("ks", "mahalanobis_ks", "cov_sup", "modulus_min_drop")


@dataclass(frozen=True)
class ModulusSpec(_NumericSpec):
    """The modulus table: fields of n samples on an epsilon-net and the
    radii 2^-m, m in ``radii_log2``.  Each m is at least -1, which keeps
    2.0 ** -m finite and refuses the radii of 4 or more.  Those hold every
    pair of directions but at a flat-cone apex, whose circle of directions
    of length alpha has the arc metric and diameter alpha / 2 (every other
    direction space has diameter at most pi): an apex with alpha > 8 could
    still use them.  epsilon is at least 2^-COVER_N_MAX, the finest net scale."""

    epsilon: float = 2.0 ** -8
    radii_log2: tuple = (2, 3, 4, 5, 6)
    n: int = 1000
    replicates: int = 500
    _floors = {"epsilon": 2.0 ** -rg.COVER_N_MAX, "n": 1, "replicates": 100,
               "radii_log2": -1}


@dataclass(frozen=True)
class MartingaleSpec(_NumericSpec):
    n: int = 1000
    k: int = 1000
    _floors = {"n": 1, "k": 1}


@dataclass(frozen=True)
class ExperimentConfig:
    measure: DiscreteMeasure
    sample_sizes: tuple
    replicates: int
    seed: int
    net: dict  # JSON net spec: {"epsilon": e} or explicit directions
    base: Point | None = None
    tests: tuple = ALL_TESTS
    thresholds: Thresholds = field(default_factory=Thresholds)
    martingale: MartingaleSpec = field(default_factory=MartingaleSpec)
    modulus: ModulusSpec = field(default_factory=ModulusSpec)

    def __post_init__(self):
        ns = tuple(json_number(n, "sample size", int) for n in self.sample_sizes)
        if not ns or ns[0] < 1 or any(b <= a for a, b in zip(ns, ns[1:])):
            raise ConfigError("sample sizes must be nonempty, positive and strictly increasing")
        if self.replicates < 100:
            raise ConfigError("statistical tests need at least 100 replicates")
        if self.seed < 0:
            raise ConfigError(f"the seed must be >= 0, got {self.seed}")
        unknown = [t for t in self.tests if t not in ALL_TESTS]
        if unknown:
            raise ConfigError(f"unknown tests: {unknown}")
        if not self.tests or len(set(self.tests)) < len(self.tests):
            raise ConfigError(f"tests must be nonempty and name each test once, "
                              f"got {list(self.tests)}")
        object.__setattr__(self, "sample_sizes", ns)

    def echo(self) -> dict:
        out = {
            "measure": self.measure.to_json(),
            "sample_sizes": list(self.sample_sizes),
            "replicates": self.replicates,
            "seed": self.seed,
            "tests": list(self.tests),
            "thresholds": asdict(self.thresholds),
            "martingale": asdict(self.martingale),
            "modulus": dict(asdict(self.modulus),
                            radii_log2=list(self.modulus.radii_log2)),
            "net": self.net,
        }
        if self.base is not None:
            out["base"] = self.base.to_coords()
        return out

    def validation_config(self) -> Point | None:
        """The base the config gives, None when the run takes the mean: the
        second argument of ``validate_localized`` (``perfbench/layers.py``
        calls it by this name)."""
        return self.base


_NET_DIRECTIONS = {"legs": geo.D_LEG, "signs": geo.D_SIGN, "angles": geo.D_ANGLE,
                   "page_angles": geo.D_PAGE_ANGLE, "vectors": geo.D_VECTOR}
_NET_KEYS = ("epsilon", *_NET_DIRECTIONS)


def _net_key(spec) -> str:
    """The one key of a JSON net spec: ``epsilon`` or a list of directions."""
    keys = [key for key in _NET_KEYS if key in json_object(spec, "net spec", optional=_NET_KEYS)]
    if not keys:
        raise ConfigError("net spec needs 'epsilon' or one of " + "/".join(_NET_DIRECTIONS))
    # the first known key picks the net; every other key is unknown to it
    json_object(spec, "net spec", required=keys[:1])
    return keys[0]


def _directions_from_spec(base: Point, spec: dict, key: str | None = None):
    """Explicit net directions from a net spec and its ``_net_key``, validated per base."""
    key = key or _net_key(spec)
    kind = _NET_DIRECTIONS[key]
    multi = kind in (geo.D_PAGE_ANGLE, geo.D_VECTOR)
    try:
        return [geo.Direction(base, kind, tuple(x) if multi else (x,))
                for x in json_array(spec[key], f"net {key}")]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed net {key}: {exc}") from exc


def resolve_net(base: Point, spec, key: str | None = None) -> DirectionNet:
    """The net a JSON net spec (and its ``_net_key``) asks for at base: the
    uniform net of resolution ``epsilon`` >= 2^-COVER_N_MAX, or the explicit directions."""
    key = key or _net_key(spec)
    if key == "epsilon":
        eps = json_number(spec["epsilon"], "net epsilon")
        if not eps >= 2.0 ** -rg.COVER_N_MAX:
            raise ConfigError(f"net epsilon must be >= 2^-{rg.COVER_N_MAX}, got {eps!r}")
        return rg.build_net(base, eps)
    return net_from_directions(base, _directions_from_spec(base, spec, key))


def measure_and_base(obj: dict) -> tuple[DiscreteMeasure, Point | None]:
    """The measure of a clt or field config, and its base or None."""
    measure = DiscreteMeasure.from_json(obj["measure"])
    base = obj.get("base")
    return measure, None if base is None else Point.of(measure.space, json_array(base, "base"))


def config_from_json(obj, seed: int, threads: int | None = None) -> ExperimentConfig:
    """Build an ExperimentConfig from its JSON form and seed; ``threads`` is ignored."""
    obj = json_object(obj, "experiment config",
                      required=("measure", "net", "sample_sizes", "replicates"),
                      optional=("base", "tests", "thresholds", "martingale", "modulus"))
    measure, base = measure_and_base(obj)
    net = obj["net"]
    ns = tuple(json_array(obj["sample_sizes"], "sample_sizes"))
    reps = json_number(obj["replicates"], "replicates", int)
    tests = tuple(json_array(obj.get("tests", ALL_TESTS), "tests"))
    th = Thresholds.from_json(obj.get("thresholds", {}), "thresholds")
    mart = MartingaleSpec.from_json(obj.get("martingale", {}), "martingale")
    mod = ModulusSpec.from_json(obj.get("modulus", {}), "modulus")
    if _net_key(net) == "epsilon":
        net = {"epsilon": json_number(net["epsilon"], "net epsilon")}
    return ExperimentConfig(measure=measure, sample_sizes=ns, replicates=reps,
                            seed=int(seed), net=net, base=base,
                            tests=tests, thresholds=th, martingale=mart, modulus=mod)


# ---------------------------------------------------------------------------
# Elementary statistics


_erf = np.frompyfunc(math.erf, 1, 1)
_erfc = np.frompyfunc(math.erfc, 1, 1)


def normal_cdf(x) -> np.ndarray:
    """Standard normal CDF, elementwise, as erfc(-x / sqrt 2) / 2.

    erfc keeps the lower tail that 1 + erf(x / sqrt 2) loses to
    cancellation.
    """
    z = -np.asarray(x, dtype=float) / math.sqrt(2.0)
    return 0.5 * _erfc(z).astype(float)


def chi2_cdf(dof: int, x) -> np.ndarray:
    """Chi-square CDF with integer ``dof`` >= 1, elementwise in ``x``.

    With y = x / 2 it is the Poisson sum 1 - e^-y sum_{j < dof/2} y^j / j!
    for even dof and erf(sqrt y) - e^-y sum_{j < (dof-1)/2}
    y^(j+1/2) / Gamma(j + 3/2) for odd dof; each term is
    exp(k log y - y - lgamma(k + 1)), so none under- or overflows.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape)
    pos = x > 0
    y = x[pos] / 2.0
    if dof % 2 == 0:
        head, k = 1.0, np.arange(dof // 2, dtype=float)
    else:
        head, k = _erf(np.sqrt(y)).astype(float), np.arange((dof - 1) // 2) + 0.5
    log_norm = np.array([math.lgamma(kk + 1.0) for kk in k])
    terms = np.exp(np.log(y)[:, None] * k - y[:, None] - log_norm)
    out[pos] = head - terms.sum(axis=1)
    return out


def ks_distance(samples, cdf) -> float:
    """One-sample Kolmogorov-Smirnov sup distance against a cdf callable."""
    arr = np.sort(np.asarray(samples, dtype=float))
    n = len(arr)
    if n < 1:
        raise DomainError("KS distance needs at least one sample")
    f = np.asarray(cdf(arr), dtype=float)
    hi = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    return float(np.max(np.maximum(np.abs(hi - f), np.abs(lo - f))))


# Abramowitz & Stegun 7.1.26: erfc(x) = t (a1 + t (a2 + ... + t a5)) e^(-x^2)
# with t = 1 / (1 + p x) for x >= 0, to within 1.5e-7
_AS_P = 0.3275911
_AS_A = (0.254829592, -0.284496736, 1.421413741, -1.453152027, 1.061405429)
# bracket half-width of the exact KS: above the rough CDF's error (at most
# 7.0e-8 measured on [-40, 40]) plus the rounding of either deviation
_KS_DELTA = 1e-6
# rows per block: the temporaries are about five 4 x R arrays
_KS_BLOCK = 4


def _rough_normal_cdf(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF to within 1e-7, vectorized (A&S 7.1.26), in
    three arrays of the shape of z."""
    x = np.abs(z)
    x /= math.sqrt(2.0)
    t = x * _AS_P
    t += 1.0
    np.divide(1.0, t, out=t)
    poly = t * _AS_A[-1]
    for a in reversed(_AS_A[:-1]):
        poly += a
        poly *= t
    x *= x
    np.negative(x, out=x)
    poly *= 0.5
    poly *= np.exp(x, out=x)
    return np.subtract(1.0, poly, out=poly, where=z >= 0.0)


def _normal_ks(values: np.ndarray, rows, sigma) -> np.ndarray:
    """KS distance of each row ``values[rows[c]]`` against
    N(0, sigma[c]^2), equal bit for bit to ``ks_distance`` with
    ``normal_cdf(x / sigma[c])``.

    The exact CDF is evaluated only where the maximum can be.  Each
    deviation d_i = max(|i/n - F(x_i)|, |F(x_i) - (i-1)/n|) is first
    taken with the rough CDF, which puts every rough deviation within
    delta of its exact one.  So the exact maximizer's rough deviation is
    at least D - delta, and every rough deviation is at most D + delta:
    the indices within 2 delta of the rough maximum always hold the
    exact maximizer, and the exact deviations, taken over them with the
    expressions of ``ks_distance``, have the same maximum D.
    """
    n = values.shape[1]
    above, below = np.arange(1, n + 1) / n, np.arange(n) / n
    out = np.zeros(len(rows))
    for lo in range(0, len(rows), _KS_BLOCK):
        sig = sigma[lo:lo + _KS_BLOCK]
        # a copy of the block's rows, each sorted
        srt = values[rows[lo:lo + _KS_BLOCK]]
        srt.sort(axis=1)
        rough = _rough_normal_cdf(srt / sig[:, None])
        dev = np.subtract(above, rough)
        np.abs(dev, out=dev)
        rough -= below
        np.maximum(dev, np.abs(rough, out=rough), out=dev)
        del rough
        c, at = np.nonzero(dev >= dev.max(axis=1, keepdims=True) - 2.0 * _KS_DELTA)
        f = normal_cdf(srt[c, at] / sig[c])
        d = np.maximum(np.abs((at + 1) / n - f), np.abs(at / n - f))
        np.maximum.at(out, lo + c, d)
    return out


def compare_covariance(empirical: np.ndarray, analytic) -> tuple[float, float]:
    """(sup entry error, relative Frobenius error) against the analytic kernel.

    When the analytic matrix vanishes the second component is the
    absolute Frobenius norm of the difference.
    """
    a = analytic.entries if hasattr(analytic, "entries") else np.asarray(analytic)
    e = np.asarray(empirical)
    if e.shape != a.shape:
        raise DomainError("covariance shapes do not match")
    diff = e - a
    sup = float(np.max(np.abs(diff))) if diff.size else 0.0
    # Frobenius norms by numpy's own sum, not BLAS
    denom = math.sqrt(float(np.sum(a * a)))
    fro = math.sqrt(float(np.sum(diff * diff)))
    return sup, fro / denom if denom > 0.0 else fro


# ---------------------------------------------------------------------------
# Replicate simulation (centred counts against the centred pairings)


class _CountField:
    """Replicate fields xi tau on a net, R x m, held as the centred counts
    xi = (c - n w) / scale of the R x k atom count matrix c: scale is
    sqrt(n) for G_n and 1 for the partial sums S_n (a division by 1 is
    exact).

    Blocks are formed on demand by ``fields._fixed_product``, so any block
    equals the same cells of the whole array bit for bit: a row slice
    ``field[lo:hi]`` gives replicate-major rows (``regularity.modulus_many``
    reads a field this way, and ``field[:]`` is the whole array) and
    ``columns(lo, hi)`` direction-major rows.
    """

    def __init__(self, cov: fl.CovMatrix, counts: np.ndarray, n: int, scale: float):
        # direction-major, k x R: row a is atom a's centred count per replicate
        self.xi = np.ascontiguousarray(counts.T, dtype=float)
        self.xi -= n * cov.weights[:, None]
        self.xi /= scale
        self.cov = cov
        self.shape = (counts.shape[0], cov.tau.shape[1])

    def __getitem__(self, rows: slice) -> np.ndarray:
        xi = self.xi[:, rows].T
        return fl._fixed_product(xi, self.cov.tau, np.empty((len(xi), self.shape[1])))

    def columns(self, lo: int, hi: int) -> np.ndarray:
        """The fields at net directions lo..hi - 1, one row per direction."""
        return fl._fixed_product(self.cov.tau.T[lo:hi], self.xi,
                                 np.empty((hi - lo, self.shape[0])))


class _FieldSimulator:
    """Simulates CLT-scaled empirical fields on a net for a discrete measure.

    A sample of size n from a discrete measure is summarized by its
    multinomial count vector c over the atoms, and the field values are
    xi tau with xi = (c - n w) / sqrt(n), identical to summing centred
    pairings sample by sample.  All replicates of one sample size are one
    multinomial draw from one substream.  ``cov`` is the net's one
    ``CovMatrix``, built once: the fields are formed from its tau, and
    the tests read P, w, m, tau and the kernel from it.
    """

    def __init__(self, measure: DiscreteMeasure, base: Point, net: DirectionNet):
        self.cov = fl.cov_matrix(measure, base, net)
        # renormalized so weights at the 1e-12 sum tolerance are accepted
        self.probs = self.cov.weights / self.cov.weights.sum()

    def field_rows(self, seed: int, purpose: int, n_index: int, n: int,
                   replicates: int, threads: int | None = None) -> _CountField:
        """G_n on the net for each replicate, held as its counts;
        ``threads`` is accepted and ignored."""
        counts = substream(seed, purpose, n_index).multinomial(n, self.probs,
                                                               size=replicates)
        return _CountField(self.cov, counts, n, math.sqrt(n))

    def partial_sum_rows(self, seed: int, n: int, k: int,
                         replicates: int) -> tuple[_CountField, _CountField]:
        """Rows of (S_n, S_{n+k} - S_n) from one sample of n + k per
        replicate, held as their counts.

        The draws are i.i.d., so the counts of the first n and of the next
        k are independent multinomials, drawn in that order from one
        substream.
        """
        rng = substream(seed, _PURPOSE_MARTINGALE)
        return tuple(_CountField(self.cov, rng.multinomial(m, self.probs, size=replicates),
                                 m, 1.0) for m in (n, k))


# ---------------------------------------------------------------------------
# Individual tests


def _cov_test(field: _CountField, cov: fl.CovMatrix, threshold: float) -> dict:
    """The empirical covariance of the rows xi tau, formed in k dimensions
    as tau^T (xi^T xi / R) tau from the second moments of the counts."""
    xi, tau = field.xi, cov.tau
    k, replicates = xi.shape
    gram = np.empty((k, k))
    for a in range(k):
        gram[a, a:] = gram[a:, a] = np.add.reduce(xi[a:] * xi[a], axis=1)
    gram /= replicates
    emp = fl._fixed_product(tau.T, fl._fixed_product(gram, tau, np.empty(tau.shape)),
                            np.empty((tau.shape[1], tau.shape[1])))
    sup, fro = compare_covariance(emp, cov)
    return {"sup_error": sup, "frobenius_rel": fro, "threshold": threshold,
            "passed": sup < threshold}


def _pair_scale(cov: fl.CovMatrix) -> float:
    """max|P|, the largest absolute pairing: a cut or slack times it does
    not move when the measure is scaled."""
    return float(np.abs(cov.pair).max(initial=0.0))


def _ks_test(values: np.ndarray, cov: fl.CovMatrix, threshold: float,
             zero_tol: float) -> dict:
    """Per-direction KS gates on the direction-major m x R ``values``.

    A direction whose variance is at most 1e-12 max|P|^2 is zero-variance
    and passes when its largest absolute value is at most zero_tol max|P|.
    Every variance is at most its second moment, so at most max|P|^2:
    both cuts are relative to the pairing scale.
    """
    diag = np.diag(cov.entries)
    scale = _pair_scale(cov)
    normal = np.flatnonzero(diag > 1e-12 * scale ** 2)
    ks = dict(zip(normal.tolist(),
                  _normal_ks(values, normal, np.sqrt(diag[normal])).tolist()))
    rows = []
    for j in range(len(values)):
        var = float(diag[j])
        if j not in ks:
            sup_abs = float(np.max(np.abs(values[j])))
            rows.append({"direction": j, "variance": var, "ks": None,
                         "max_abs": sup_abs, "passed": sup_abs <= zero_tol * scale})
            continue
        d = ks[j]
        rows.append({"direction": j, "variance": var, "ks": d, "max_abs": None,
                     "passed": d < threshold})
    return {"threshold": threshold, "directions": rows,
            "passed": all(r["passed"] for r in rows)}


def _whiten(field: _CountField, cov: fl.CovMatrix) -> np.ndarray:
    """The replicates eta Q, eta = xi / sqrt(w), in an orthonormal basis Q
    (k x dof) of the span of the columns of the Gram factor F, R x dof.

    Sigma = F^T F and a field is xi tau = eta F, so |eta Q|^2 is its
    Mahalanobis norm.  Q comes by pivoted modified Gram-Schmidt on the
    rows of F^T: each step takes the first row of largest residual norm
    and removes it from every row, until that norm^2 is at most 1e-10
    times the first pivot's.  Each sum runs along a contiguous row.
    """
    res = np.array(cov.gram_factor, order="C")
    norms = np.add.reduce(res * res, axis=1)
    q, cut = np.empty((0, res.shape[1])), 1e-10 * norms.max()
    while len(q) < res.shape[1] and norms.max() > cut:
        q = np.vstack([q, res[norms.argmax()] / np.sqrt(norms.max())])
        res -= np.add.reduce(res * q[-1], axis=1)[:, None] * q[-1]
        norms = np.add.reduce(res * res, axis=1)
    eta = field.xi / np.sqrt(cov.weights)[:, None]
    return fl._fixed_product(eta.T, q.T, np.empty((eta.shape[1], len(q))))


def _mahalanobis_test(field: _CountField, values: np.ndarray, cov: fl.CovMatrix,
                      threshold: float, zero_tol: float) -> dict:
    """KS distance of the whitened squared norms against chi-square(dof).

    When the covariance has rank k - 1 for k ``atoms``, the whitened
    squared norm |eta Q|^2 is all of |eta|^2, which is exactly Pearson's
    statistic sum_i (c_i - n w_i)^2 / (n w_i), so the gate then tests the
    multinomial counts rather than the geometry; ``pearson`` says so.
    With no axis left the field must vanish: its largest absolute value
    in ``values`` must be at most zero_tol max|P|.
    """
    white = _whiten(field, cov)
    dof, k = white.shape[1], len(cov.weights)
    result = {"dof": dof, "atoms": k, "pearson": dof == k - 1, "threshold": threshold}
    if dof == 0:
        sup_abs = float(np.max(np.abs(values))) if values.size else 0.0
        return {**result, "ks": None, "max_abs": sup_abs,
                "passed": sup_abs <= zero_tol * _pair_scale(cov)}
    stat = np.sum(white ** 2, axis=1)
    d = ks_distance(stat, lambda x: chi2_cdf(dof, x))
    return {**result, "ks": d, "max_abs": None, "passed": d < threshold}


def _exact_fourth(t: np.ndarray, w: np.ndarray, n: int) -> np.ndarray:
    """E G^4 for the n-sample CLT field with per-atom centred values t
    (atoms on the last axis): 3 (1 - 1/n) (E t^2)^2 + E t^4 / n, each
    expectation summed over the atoms in atom order."""
    t2 = t * t
    e2, e4 = (fl._fixed_product(x, w[:, None], np.empty((len(x), 1)))[:, 0]
              for x in (t2, t2 * t2))
    return 3.0 * (1.0 - 1.0 / n) * e2 * e2 + e4 / n


def _mc_fourth(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean of x^4 (squared twice, not pow) along each row and its standard error.

    x^4 goes into a new array, which is then overwritten by its squared
    deviations.  The ufunc sequence is the one ``mean`` and ``std(ddof=1)``
    run, with the mean reused inside the variance, so both results equal
    ``x4.mean(1)`` and ``x4.std(1, ddof=1) / sqrt(r)`` bit for bit.
    """
    r = x.shape[1]
    x4 = np.square(x)
    x4 *= x4
    mean = np.add.reduce(x4, axis=1, keepdims=True) / r
    x4 -= mean
    np.square(x4, out=x4)
    var = np.add.reduce(x4, axis=1) / (r - 1)
    return mean[:, 0], np.sqrt(var, out=var) / math.sqrt(r)


# elements of one block of direction-major rows in the moment and
# martingale tests: 256 KB, whatever R
_COLUMN_BLOCK = 2 ** 15


def _column_ranges(m: int, replicates: int) -> list:
    """(lo, hi) of each block of directions 0..m - 1 at R replicates."""
    step = max(1, _COLUMN_BLOCK // max(1, replicates))
    return [(lo, min(lo + step, m)) for lo in range(0, m, step)]


def _moment_test(values: np.ndarray, cov: fl.CovMatrix, n: int,
                 gamma2: float, gamma4: float) -> dict:
    """Fourth moments of each direction's row of the m x R ``values``,
    a block of rows at a time, against the exact value and the bound."""
    m, replicates = values.shape
    exact = _exact_fourth(cov.tau.T, cov.weights, n)
    bound = 3.0 * gamma2**2 + gamma4 / n
    mc4, se = np.empty(m), np.empty(m)
    for lo, hi in _column_ranges(m, replicates):
        mc4[lo:hi], se[lo:hi] = _mc_fourth(values[lo:hi])
    rows = [{
        "direction": j,
        "mc_fourth_moment": float(mc4[j]),
        "mc_se": float(se[j]),
        "exact_fourth_moment": float(exact[j]),
        "bound": float(bound),
        "ratio": float(mc4[j] / bound) if bound > 0 else 0.0,
        "exact_ok": bool(exact[j] <= bound * (1 + 1e-12) + 1e-300),
        "passed": bool(mc4[j] <= bound + 3.0 * se[j]),
    } for j in range(m)]
    return {"bound": float(bound), "directions": rows,
            "passed": all(r["passed"] and r["exact_ok"] for r in rows)}


# one row per net pair i < j, in the order (0, 1), (0, 2), ..., (m - 2, m - 1)
_PAIR_DTYPE = np.dtype([
    ("i", np.int64), ("j", np.int64), ("angular_distance", float), ("bound", float),
    ("exact_fourth_moment", float), ("ratio", float), ("passed", bool)])


def _increment_test(cov: fl.CovMatrix, n: int, gamma2: float, gamma4: float) -> dict:
    """The exact fourth moment of G_n(V_i) - G_n(V_j) against its bound
    for all net pairs i < j, as one structured array of ``_PAIR_DTYPE``
    rows under "pairs".

    A field is G_n = xi tau, so each pair's moment is ``_exact_fourth``
    of the column difference tau_i - tau_j, from tau, w and n alone: no
    field is drawn.  It is formed a row i at a time, against all j > i,
    and each pair's bound is the scalar formula in Python floats.
    """
    m = cov.tau.shape[1]
    iu, ju = np.triu_indices(m, 1)
    pairs = np.zeros(len(iu), dtype=_PAIR_DTYPE)
    pairs["i"], pairs["j"] = iu, ju
    dist = cov.net.pairwise_distances()[iu, ju]
    pairs["angular_distance"] = dist
    c2, c4 = 2.0 * (1.0 + gamma2), 8.0 * (1.0 + gamma4)
    bound = pairs["bound"]
    bound[:] = [2.0 * (c2 * d * d) ** 2 + c4 * d**4 / n for d in dist.tolist()]
    exact = pairs["exact_fourth_moment"]
    tau_t = cov.tau.T
    for i in range(m - 1):
        at = i * m - i * (i + 3) // 2 - 1  # pair (i, j) is row at + j
        exact[at + i + 1:at + m] = _exact_fourth(tau_t[i] - tau_t[i + 1:], cov.weights, n)
    np.divide(exact, bound, out=pairs["ratio"], where=bound > 0.0)
    pairs["passed"] = exact <= bound * (1 + 1e-12) + 1e-300
    return {"pairs": pairs, "passed": bool(pairs["passed"].all())}


def _increment_summary(result: dict) -> dict:
    """The increments result with its pairs folded into one bin per
    floor(log2 d): each bin's pair count, failed count, worst ratio and
    the first pair that attains it.  Pairs at d = 0 (repeated directions)
    get the bin with ``log2_distance`` None."""
    pairs = result["pairs"]
    dist, ratio = pairs["angular_distance"], pairs["ratio"]
    failed = ~pairs["passed"]
    pos = dist > 0.0
    log2 = np.frexp(dist)[1] - 1
    keys = ([] if pos.all() else [None]) + sorted(set(log2[pos].tolist()))
    bins = []
    for key in keys:
        sel = np.flatnonzero(~pos if key is None else pos & (log2 == key))
        worst = sel[np.argmax(ratio[sel])]
        bins.append({"log2_distance": key, "pairs": len(sel),
                     "failed": int(np.count_nonzero(failed[sel])),
                     "worst_ratio": float(ratio[worst]),
                     "worst_pair": [int(pairs["i"][worst]), int(pairs["j"][worst])]})
    return {"pairs": len(pairs), "bins": bins, "passed": result["passed"]}


def _martingale_rows(head: _CountField, incr: _CountField, cov: fl.CovMatrix,
                     n: int, k: int) -> list:
    """Per-direction residual mean(incr) and cross-moment mean(head * incr).

    For a martingale both vanish in expectation; with independent
    increments their standard errors are sqrt(k Sigma_jj / R) and
    sqrt(n k) Sigma_jj / sqrt(R), and each gate sits at four of them.
    Their rounding slacks, 1e-10 max|P| and 1e-10 max|P|^2, scale with
    the pairings as the KS cut does.  ``head`` and ``incr`` are read a
    block of directions at a time.
    """
    replicates, m = head.shape
    diag = np.maximum(np.diag(cov.entries), 0.0)
    residual, cross = np.empty(m), np.empty(m)
    for lo, hi in _column_ranges(m, replicates):
        h, t = head.columns(lo, hi), incr.columns(lo, hi)
        residual[lo:hi] = t.mean(axis=1)
        h *= t
        cross[lo:hi] = h.mean(axis=1)
    np.abs(residual, out=residual)
    np.abs(cross, out=cross)
    res_bound = 4.0 * np.sqrt(k * diag / replicates)
    cross_bound = 4.0 * math.sqrt(n * k) * diag / math.sqrt(replicates)
    scale = _pair_scale(cov)
    passed = ((residual <= res_bound + 1e-10 * scale)
              & (cross <= cross_bound + 1e-10 * scale ** 2))
    return [{"direction": j, "residual": float(residual[j]), "bound": float(res_bound[j]),
             "cross_moment": float(cross[j]), "cross_bound": float(cross_bound[j]),
             "passed": bool(passed[j])} for j in range(len(diag))]


def _martingale_test(sim: _FieldSimulator, seed: int, spec: MartingaleSpec,
                     replicates: int) -> dict:
    head, tail = sim.partial_sum_rows(seed, spec.n, spec.k, replicates)
    rows = _martingale_rows(head, tail, sim.cov, spec.n, spec.k)
    return {
        "n": spec.n, "k": spec.k, "replicates": replicates,
        "conditional_scaling_sqrt_n_over_n_plus_k":
            math.sqrt(spec.n / (spec.n + spec.k)),
        "normalization_note": _NORMALIZATION_NOTE,
        "directions": rows,
        "passed": all(r["passed"] for r in rows),
    }


def _check_modulus_net(base: Point, spec: ModulusSpec):
    """Refuse a modulus net that does not exist, or whose covering radius
    is above a quarter of the finest radius, before any field is drawn."""
    try:
        radius = uniform_grid(base, spec.epsilon)[1]
    except DomainError as exc:
        raise ConfigError("the modulus test needs a uniform net of directions, and the "
                          "sphere of directions at this base (euclidean dimension >= 3) "
                          "has none; remove 'modulus' from tests") from exc
    finest = 2.0 ** -max(spec.radii_log2)
    if radius > finest / 4.0:
        raise ConfigError(f"modulus net covering radius {radius:.3g} too coarse for "
                          f"modulus radius {finest:.3g}; it must be at most a quarter "
                          "of that radius")


# one row per radius and replicate, radius-major
_MODULUS_DTYPE = np.dtype([("radius", float), ("replicate", np.int64), ("w", float),
                           ("aggregate", float)])


def _modulus_test(measure: DiscreteMeasure, base: Point, seed: int,
                  spec: ModulusSpec, min_drop: float) -> dict:
    """The modulus w(G_n, r) of each replicate at each radius, as one
    structured array of ``_MODULUS_DTYPE`` rows under "table", and the
    truncated mean E[min(w, 1)] per radius with its standard error."""
    net = rg.build_net(base, spec.epsilon)
    sim = _FieldSimulator(measure, base, net)
    # formed a block of replicates at a time as the modulus folds them
    fields = sim.field_rows(seed, _PURPOSE_MODULUS, 0, spec.n, spec.replicates)
    radii = [2.0 ** (-m) for m in spec.radii_log2]
    w = rg.modulus_many(fields, net, radii)
    trunc = np.minimum(w, 1.0)
    agg = trunc.mean(axis=0)
    se = trunc.std(axis=0, ddof=1) / math.sqrt(spec.replicates)
    table = np.zeros(w.size, dtype=_MODULUS_DTYPE)
    table["radius"] = np.repeat(radii, spec.replicates)
    table["replicate"] = np.tile(np.arange(spec.replicates), len(radii))
    table["w"] = w.T.ravel()
    table["aggregate"] = np.repeat(agg, spec.replicates)
    monotone = True
    for c in range(1, len(agg)):
        if agg[c] > agg[c - 1] + 2.0 * (se[c] + se[c - 1]):
            monotone = False
    if agg[-1] > 0.0:
        drop = float(agg[0] / agg[-1])
        drop_ok = drop >= min_drop
    else:
        # zero at the finest radius: the drop is infinite (or the whole
        # table is zero, e.g. for a point mass); either way it passes
        drop = None
        drop_ok = True
    return {
        "net_size": len(net), "n": spec.n, "replicates": spec.replicates,
        "radii": [float(r) for r in radii],
        "aggregate": [float(a) for a in agg],
        "aggregate_se": [float(s) for s in se],
        "drop_ratio": drop,
        "monotone_within_error": bool(monotone),
        "passed": bool(monotone and drop_ok),
        "table": table,
    }


# ---------------------------------------------------------------------------
# Experiment driver

# One table per CSV of a report: (file, test, the key of the result's rows
# or None for one row from the result itself, columns).  "n" is the sample
# size of a per-n test and "descriptor" the net descriptor of the row's
# "direction"; every other column is a key of the row.
CSV_TABLES = (
    ("cov.csv", "cov", None,
     ("n", "sup_error", "frobenius_rel", "threshold", "passed")),
    ("ks.csv", "ks", "directions",
     ("n", "direction", "descriptor", "variance", "ks", "max_abs", "passed")),
    ("mahalanobis.csv", "mahalanobis", None,
     ("n", "dof", "ks", "max_abs", "passed")),
    ("moments.csv", "moments", "directions",
     ("n", "direction", "descriptor", "mc_fourth_moment", "mc_se",
      "exact_fourth_moment", "bound", "ratio", "exact_ok", "passed")),
    ("increments.csv", "increments", "pairs",
     ("n", "i", "j", "angular_distance", "exact_fourth_moment", "bound", "passed")),
    ("martingale.csv", "martingale", "directions",
     ("direction", "descriptor", "residual", "bound", "cross_moment",
      "cross_bound", "passed")),
    ("modulus.csv", "modulus", "table", ("radius", "replicate", "w", "aggregate")),
)


@dataclass(frozen=True, eq=False)
class CLTReport:
    config: dict
    config_hash: str
    seed: int
    base: Point
    net: DirectionNet
    analytic_cov: fl.CovMatrix
    localization: dict
    per_n: dict
    martingale: dict | None
    modulus: dict | None
    passed: bool

    def to_json(self) -> dict:
        # increments.csv holds every pair; the JSON keeps a per-bin summary
        per_n = {}
        for n, tests in self.per_n.items():
            if "increments" in tests:
                tests = dict(tests,
                             increments=_increment_summary(tests["increments"]))
            per_n[str(n)] = tests
        mod = None
        if self.modulus is not None:
            mod = {k: v for k, v in self.modulus.items() if k != "table"}
        return {
            "config": self.config,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "base": self.base.to_coords(),
            "net": self.net.descriptors(),
            "analytic_cov": [[float(x) for x in row] for row in self.analytic_cov.entries],
            "localization": self.localization,
            "per_n": per_n,
            "martingale": self.martingale,
            "modulus": mod,
            "passed": self.passed,
        }

    def tables(self) -> dict:
        """{file name: rows} for each of the ``CSV_TABLES`` with at least
        one row.  The rows are the header and then raw values, made as they
        are read."""
        desc = self.net.descriptors()
        out = {}
        for name, test, key, cols in CSV_TABLES:
            if test in ("martingale", "modulus"):
                single = getattr(self, test)
                results = [] if single is None else [(None, single)]
            else:
                results = [(n, t[test]) for n, t in self.per_n.items() if test in t]
            if any(len(result[key]) if key else 1 for _, result in results):
                out[name] = _table_rows(cols, key, results, desc)
        return out


# structured-array rows made into Python rows per block as a table is read
_CSV_BLOCK = 4096


def _table_rows(cols: tuple, key, results: list, desc: list):
    """The header ``cols`` and then the row of each (n, result) in turn:
    a dict row through one getter over its keys, with "n" put in front and
    "descriptor" added, or a block of structured-array rows at a time."""
    yield cols
    lead_n, named = cols[0] == "n", "descriptor" in cols
    names = [c for c in cols if c != "n"]
    get = operator.itemgetter(*names)
    for n, result in results:
        rows = result[key] if key else [result]
        if isinstance(rows, np.ndarray):
            for lo in range(0, len(rows), _CSV_BLOCK):
                for r in rows[lo:lo + _CSV_BLOCK][names].tolist():
                    yield (n, *r) if lead_n else r
            continue
        for r in rows:
            if named:
                r = dict(r, descriptor=desc[r["direction"]])
            yield (n, *get(r)) if lead_n else get(r)


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def run_clt_experiment(cfg: ExperimentConfig) -> CLTReport:
    """Run the configured tests and assemble a deterministic report."""
    localization = mz.validate_localized(cfg.measure, cfg.base)
    base = localization.base
    if "modulus" in cfg.tests:
        _check_modulus_net(base, cfg.modulus)
    (key,) = cfg.net  # config_from_json has read the spec's one key
    net = resolve_net(base, cfg.net, key)
    sim = _FieldSimulator(cfg.measure, base, net)
    cov = sim.cov
    gamma2 = cfg.measure.moment(base, 2)
    gamma4 = cfg.measure.moment(base, 4)
    th = cfg.thresholds

    per_n = {}
    all_passed = True
    for n_index, n in enumerate(cfg.sample_sizes):
        need_values = set(cfg.tests) & {"cov", "ks", "mahalanobis", "moments"}
        tests = {}
        if need_values:
            field = sim.field_rows(cfg.seed, _PURPOSE_SAMPLES, n_index, n,
                                   cfg.replicates)
            # the sample size's one field array, direction-major: m x R
            values = field.columns(0, len(net))
            if "cov" in cfg.tests:
                tests["cov"] = _cov_test(field, cov, th.cov_sup)
            if "ks" in cfg.tests:
                tests["ks"] = _ks_test(values, cov, th.ks, th.zero_variance)
            if "mahalanobis" in cfg.tests:
                tests["mahalanobis"] = _mahalanobis_test(field, values, cov,
                                                         th.mahalanobis_ks,
                                                         th.zero_variance)
            if "moments" in cfg.tests:
                tests["moments"] = _moment_test(values, cov, n, gamma2, gamma4)
            # freed before the next sample size's fields or the martingale's
            del field, values
        if "increments" in cfg.tests:
            tests["increments"] = _increment_test(cov, n, gamma2, gamma4)
        per_n[n] = tests
        all_passed = all_passed and all(t["passed"] for t in tests.values())

    martingale = None
    if "martingale" in cfg.tests:
        martingale = _martingale_test(sim, cfg.seed, cfg.martingale, cfg.replicates)
        all_passed = all_passed and martingale["passed"]

    modulus = None
    if "modulus" in cfg.tests:
        modulus = _modulus_test(cfg.measure, base, cfg.seed, cfg.modulus,
                                th.modulus_min_drop)
        all_passed = all_passed and modulus["passed"]

    cfg_echo = cfg.echo()
    return CLTReport(
        config=cfg_echo,
        config_hash=config_hash(cfg_echo),
        seed=cfg.seed,
        base=base,
        net=net,
        analytic_cov=cov,
        localization=localization.to_json(),
        per_n=per_n,
        martingale=martingale,
        modulus=modulus,
        passed=bool(all_passed),
    )
