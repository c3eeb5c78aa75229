"""Scalar and per-sample reference forms of the package's statistics.

No subcommand runs these: ``clt`` and ``field`` work on pairing matrices
and multinomial counts, ``mean`` on the exact cone maximum and ``cover``
on net coordinates.  The tests check those vectorized paths against the
one-direction, one-sample forms here.  Unlike ``oracles``, these call
the package's pairing and direction-space code.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from stratclt import geometry as geo
from stratclt.covering import uniform_grid
from stratclt.errors import DomainError, SpaceMismatchError
from stratclt.fields import pairing_matrix
from stratclt.geometry import Direction, DirectionNet, Point, TangentVector, zero_vector
from stratclt.measures import DiscreteMeasure, pushforward
from stratclt.regularity import build_net, modulus_many

# ---------------------------------------------------------------------------
# Tangent-cone geometry


def scale(v: TangentVector, t: float) -> TangentVector:
    """Homogeneous scaling on the tangent cone; only t >= 0 is defined."""
    t = float(t)
    if t < 0.0:
        raise DomainError("cone scaling requires t >= 0")
    if t == 0.0 or v.is_zero:
        return zero_vector(v.base)
    return TangentVector(v.base, v.direction, t * v.length)


def angular_distance(u: Direction, v: Direction) -> float:
    """Length metric on the space of directions at a common base point.

    On a flat-cone apex this is the arc metric of a circle of
    circumference alpha and may exceed pi.
    """
    if u.base != v.base:
        raise SpaceMismatchError("directions are based at different points")
    if u.kind != v.kind:
        raise SpaceMismatchError("incompatible direction descriptors")
    ds = geo.direction_space(u.base)
    return float(ds.cross(np.array([ds.to_coord(u)]), np.array([ds.to_coord(v)]))[0, 0])


def net_directions(net: DirectionNet) -> list[Direction]:
    """The ``Direction`` at each coordinate of a net: a label of a finite
    set, an angle, (page, theta) or the unit vector (cos c, sin c).  A
    uniform net's ``descriptors()`` must be these directions' ``describe()``,
    formed from the coordinates without making them."""
    ds, kind, out = net.space(), geo.direction_kind(net.base), []
    for c in net.coords():
        if isinstance(ds, geo.DiscreteDirections):
            data = (ds.labels[int(round(c))],)
        elif isinstance(ds, geo.SpineDirections):
            data = (int(round(c[0])), float(c[1]))
        elif kind == geo.D_ANGLE:
            data = (float(c),)
        else:
            data = (math.cos(c), math.sin(c))
        out.append(Direction(net.base, kind, data))
    return out


def angular_pairing(v: TangentVector, w: TangentVector) -> float:
    """<V,W> = |V||W| cos(angle), with the angle capped at pi."""
    if v.base != w.base:
        raise SpaceMismatchError("tangent vectors are based at different points")
    if v.is_zero or w.is_zero:
        return 0.0
    ang = min(angular_distance(v.direction, w.direction), math.pi)
    return v.length * w.length * math.cos(ang)


def conical_distance(v: TangentVector, w: TangentVector) -> float:
    """Cone metric sqrt(|V|^2 + |W|^2 - 2<V,W>) on the tangent cone,
    evaluated in development form for numerical stability."""
    if v.base != w.base:
        raise SpaceMismatchError("tangent vectors are based at different points")
    if v.is_zero or w.is_zero:
        return v.length + w.length
    ang = min(angular_distance(v.direction, w.direction), math.pi)
    return math.hypot(v.length - w.length * math.cos(ang),
                      w.length * math.sin(ang))


# ---------------------------------------------------------------------------
# Sampling, tangent mean and escape cone


def sample_indices(measure: DiscreteMeasure, stream: np.random.Generator,
                   n: int) -> np.ndarray:
    """n i.i.d. atom indices by inverse-CDF on the weights."""
    if n < 1:
        raise DomainError("sample size must be >= 1")
    cum = np.cumsum(measure.weights)
    cum[-1] = 1.0  # guard against cumulative rounding
    idx = np.searchsorted(cum, stream.random(n), side="right")
    return np.minimum(idx, len(cum) - 1)


def sample(measure: DiscreteMeasure, stream: np.random.Generator,
           n: int) -> list[Point]:
    """n i.i.d. draws from the measure; bit-reproducible per stream."""
    pts = measure.points
    return [pts[i] for i in sample_indices(measure, stream, n)]


def _require_unit(base: Point, *vs: TangentVector) -> np.ndarray:
    """Direction coordinates of unit tangent vectors at base, one row each."""
    for v in vs:
        if abs(v.length - 1.0) > 1e-9:
            raise DomainError("direction arguments must be unit tangent vectors")
        if v.base != base:
            raise SpaceMismatchError("tangent vector is based at a different point")
    ds = geo.direction_space(base)
    return np.array([ds.to_coord(v.direction) for v in vs])


def tangent_mean(measure: DiscreteMeasure, base: Point, v: TangentVector) -> float:
    """m(mu, V) = E<log x, V>; equals minus the directional derivative."""
    coords = _require_unit(base, v)
    logs = [x for x, _ in pushforward(measure, base).atoms]
    return float(measure.weights @ geo.pairings(base, logs, coords)[:, 0])


def escape_cone_contains(measure: DiscreteMeasure, base: Point,
                         v: TangentVector, tol: float = 1e-9) -> bool:
    """Whether unit v has vanishing derivative (within tol) at base.

    At a Fréchet mean the tangent mean value is never strictly positive;
    a positive value beyond tol is reported as evidence that base is not
    the mean (a warning, since the membership answer is still False).
    """
    mean_value = tangent_mean(measure, base, v)
    if mean_value > tol:
        warnings.warn(
            f"tangent mean value {mean_value:.3e} > 0: base is not a Fréchet "
            "mean of the measure",
            stacklevel=2,
        )
    return abs(mean_value) <= tol


# ---------------------------------------------------------------------------
# Covariance kernel and empirical fields

CLT_SCALING = "clt"  # 1/sqrt(n)
LLN_SCALING = "lln"  # 1/n


def tangent_cov(measure: DiscreteMeasure, base: Point, v: TangentVector,
                w: TangentVector) -> float:
    """Centered covariance kernel of the pairing field at (v, w)."""
    coords = _require_unit(base, v, w)
    logs = [x for x, _ in pushforward(measure, base).atoms]
    weights = measure.weights
    pair = geo.pairings(base, logs, coords)
    centered = pair - weights @ pair
    return float(weights @ (centered[:, 0] * centered[:, 1]))


def centered_pairing(x: Point, measure: DiscreteMeasure, base: Point,
                     v: TangentVector) -> float:
    """<log x, V> minus the tangent mean: one draw of the centered field."""
    coords = _require_unit(base, v)
    value = geo.pairings(base, [geo.log_map(base, x)], coords)[0, 0]
    return float(value - tangent_mean(measure, base, v))


@dataclass(frozen=True, eq=False)
class FieldOnNet:
    """Real values of one field realization on the directions of a net."""

    net: DirectionNet
    values: np.ndarray
    label: str

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (len(self.net),):
            raise DomainError("field values must match the net length")
        if not np.all(np.isfinite(vals)):
            raise DomainError("field values must be finite")
        object.__setattr__(self, "values", vals)


def empirical_field(samples: list[Point], measure: DiscreteMeasure, base: Point,
                    net: DirectionNet, scaling: str = CLT_SCALING) -> FieldOnNet:
    """Scaled sum of centered pairings over a realized sample list.

    ``clt`` scaling divides by sqrt(n), ``lln`` by n; the two differ by
    exactly sqrt(n) for the same samples.
    """
    n = len(samples)
    if n == 0:
        raise DomainError("empirical field needs at least one sample")
    if scaling not in (CLT_SCALING, LLN_SCALING):
        raise DomainError(f"unknown scaling {scaling!r}")
    mean_vec = measure.weights @ pairing_matrix(pushforward(measure, base), net)
    logs = [geo.log_map(base, x) for x in samples]
    sums = geo.pairings(base, logs, net.coords()).sum(axis=0) - n * mean_vec
    norm = 1.0 / math.sqrt(n) if scaling == CLT_SCALING else 1.0 / n
    label = f"empirical_{scaling}(n={n})"
    return FieldOnNet(net, norm * sums, label)


# ---------------------------------------------------------------------------
# Covering sandwich and Hölder slope


def covering_number_bounds(base: Point, eps: float) -> tuple[int, int]:
    """(lower, upper) sandwich for N(eps).

    The upper bound is the (eps/2)-net cardinality.  The lower bound is
    the size of the uniform net at scale 2 eps when its members are
    pairwise more than eps apart (each (eps/2)-ball then contains at most
    one of them), and 1 otherwise.  Neighbours in that net are twice its
    covering radius apart on circles and spines, and pi apart on the
    finite direction sets, whose covering radius is 0.
    """
    upper = len(build_net(base, eps))
    packed = build_net(base, 2.0 * eps).coords()
    radius = uniform_grid(base, 2.0 * eps)[1]
    separation = 2.0 * radius if radius > 0.0 else math.pi
    if len(packed) > 1 and separation <= eps:
        return 1, upper
    return len(packed), upper


def holder_estimate(values: np.ndarray, net: DirectionNet,
                    radii) -> tuple[float, float]:
    """Slope of log E[w(., r)] against log r, with the fit residual.

    The estimate describes how fast the expected modulus shrinks with
    the radius; no pass/fail threshold is attached.
    """
    radii = [float(r) for r in radii]
    if len(radii) < 4:
        raise DomainError("need at least 4 radii for a slope estimate")
    w = modulus_many(values, net, radii)
    means = w.mean(axis=0)
    if np.all(means == 0.0):
        raise DomainError("degenerate (all-zero) fields have no modulus slope")
    if np.any(means <= 0.0):
        raise DomainError("zero expected modulus at some radius; refine the net")
    x = np.log(radii)
    y = np.log(means)
    coeffs, residuals, *_ = np.polyfit(x, y, 1, full=True)
    resid = float(residuals[0]) if len(residuals) else 0.0
    return float(coeffs[0]), resid
