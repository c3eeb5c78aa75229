"""Discrete probability measures and their exact Fréchet means.

Measures are finitely supported, which makes every moment identity an
exact finite sum.  Each model space is a Euclidean cone over a cone
point o (the origin, the apex, or a spine point), so every point is
exp_o(tV) and

    F(exp_o(tV)) = W t^2 / 2 - t m(V) + E d(o, X)^2 / 2,

where W is the total weight and m(V) = E<log_o X, V> the tangent mean.
The mean is therefore exp_o(max(0, m*) V* / W) for the exact maximum
(m*, V*) of m over the directions at o.  One kernel, ``_cone_max``,
finds it for any signed masses: the weighted average, the leg rule on
spiders, the fold rule on open books and an arc-wise circle maximum on
flat cones.  On the atom coordinates it gives the mean; on the unit
charts of log X at the mean, the first-order certificate sup_V
E<log X, V> <= tol and the stickiness.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from . import geometry as geo
from .errors import (ConfigError, DomainError, NumericalConsistencyError, SpaceMismatchError,
                     json_array, json_number, reject_unknown_keys)
from .geometry import _TWO_PI, Point, SpaceSpec

_WEIGHT_TOL = 1e-12
# first-order certificate and stickiness tolerance; the mean reads only a
# peak within its rounding bound as 0 (``_positive_part``), never this
_TOL = 1e-9


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported probability measure on a model space."""

    space: SpaceSpec
    atoms: tuple  # of (Point, weight)

    def __post_init__(self):
        atoms = tuple((p, float(w)) for p, w in self.atoms)
        if not atoms:
            raise DomainError("a measure needs at least one atom")
        total = 0.0
        for p, w in atoms:
            if p.space != self.space:
                raise SpaceMismatchError("atom lives in a different space")
            if not w > 0.0:
                raise DomainError("atom weights must be strictly positive")
            total += w
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise DomainError(f"weights sum to {total!r}, expected 1 within {_WEIGHT_TOL}")
        object.__setattr__(self, "atoms", atoms)

    @property
    def points(self) -> list[Point]:
        return [p for p, _ in self.atoms]

    @property
    def weights(self):
        """The weights as a numpy array (numpy is loaded here, for the
        callers that work on arrays; the mean needs none)."""
        import numpy as np
        return np.array([w for _, w in self.atoms])

    def moment(self, base: Point, order: int) -> float:
        """Exact E d(base, x)^order."""
        return float(sum(w * geo.distance(base, p) ** order for p, w in self.atoms))

    def to_json(self) -> dict:
        return {
            "space": self.space.to_json(),
            "atoms": [{"point": p.to_coords(), "weight": w} for p, w in self.atoms],
        }

    @staticmethod
    def from_json(obj: dict) -> "DiscreteMeasure":
        try:
            reject_unknown_keys(obj, ("space", "atoms"), "measure")
            space = SpaceSpec.from_json(obj["space"])
            atoms = []
            for a in json_array(obj["atoms"], "measure atoms"):
                reject_unknown_keys(a, ("point", "weight"), "atom")
                atoms.append((Point.of(space, json_array(a["point"], "atom point")),
                              json_number(a["weight"], "atom weight")))
        except (KeyError, TypeError, IndexError) as exc:
            raise ConfigError(f"malformed measure file: {exc}") from exc
        return DiscreteMeasure(space, tuple(atoms))


@dataclass(frozen=True)
class TangentMeasure:
    """Pushforward of a measure to the tangent cone at a base point."""

    base: Point
    atoms: tuple  # of (TangentVector, weight)


def pushforward(measure: DiscreteMeasure, base: Point) -> TangentMeasure:
    """Atom-wise log map; weights carried over unchanged."""
    return TangentMeasure(base, tuple((geo.log_map(base, p), w) for p, w in measure.atoms))


def frechet_function(measure: DiscreteMeasure, p: Point) -> float:
    """Half the weighted mean squared distance to p."""
    if p.space != measure.space:
        raise SpaceMismatchError("evaluation point lives in a different space")
    return 0.5 * _dot([w for _, w in measure.atoms],
                      [geo.distance(p, x) ** 2 for x, _ in measure.atoms])


# ---------------------------------------------------------------------------
# Exact maximization of the tangent mean
#
# The kernels run on Python floats.  Every sum adds one rounded product at
# a time, in atom order (``_dot``), so the mean and its certificate are the
# same float expressions on every machine, whatever BLAS numpy would use.


def _dot(xs, ys) -> float:
    """sum_i xs_i ys_i over nonempty sequences, one rounded product added
    at a time in the order i = 0, 1, ..."""
    pairs = zip(xs, ys)
    x, y = next(pairs)
    total = x * y
    for x, y in pairs:
        total += x * y
    return total


def _argmax(values: list) -> int:
    """The first index of the largest value, as np.argmax picks it."""
    return max(range(len(values)), key=values.__getitem__)


def _breakpoints(alpha: float, angles) -> list[float]:
    """The sorted distinct angles_i +- pi mod alpha."""
    return sorted({(a + s) % alpha for a in angles for s in (math.pi, -math.pi)})


def _circle_max(alpha: float, angles, masses) -> tuple[float, float]:
    """Exact maximum and a maximizer of the tangent mean on a circle of
    directions of circumference alpha (the flat-cone apex).

    Between the breakpoints angles_i +- pi each term is either a cosine
    of theta minus a fixed lift of angles_i or the constant -masses_i, so
    the sum is A cos + B sin + C on each arc and peaks at an arc end or
    at atan2(B, A).  Masses below 1/2 are first scaled up by the power of
    two that puts the largest into [1/2, 1), which is exact, so the
    products of subnormal masses with the cosines do not underflow and tie.
    """
    angles = [float(a) % alpha for a in angles]
    exp = min(math.frexp(max(abs(float(m)) for m in masses))[1], 0)
    masses = [math.ldexp(m, -exp) for m in masses]
    breaks = _breakpoints(alpha, angles)
    ends = [*breaks, breaks[0] + alpha]
    cand = list(breaks)
    for lo, hi in zip(ends, ends[1:]):
        mid = 0.5 * (lo + hi)
        cos_row, sin_row = [], []
        for angle in angles:
            delta = (mid - angle) % alpha
            if delta > alpha / 2.0:
                delta -= alpha
            near = abs(delta) < math.pi
            cos_row.append(math.cos(mid - delta) if near else 0.0)
            sin_row.append(math.sin(mid - delta) if near else 0.0)
        peak = lo + (math.atan2(_dot(sin_row, masses), _dot(cos_row, masses)) - lo) % _TWO_PI
        if peak < hi:
            cand.append(peak)
    values = []
    for c in cand:
        gaps = [abs(c - angle) % alpha for angle in angles]
        values.append(_dot([math.cos(min(d, alpha - d, math.pi)) for d in gaps], masses))
    i = _argmax(values)
    return math.ldexp(values[i], exp), cand[i] % alpha


def _positive_part(value: float, masses, lengths, alpha: float = 0.0) -> float:
    """max(value, 0) for a float sum_i masses_i lengths_i c_i, read as 0 within
    its rounding bound; the c_i are +-1 or, for alpha > 0, cosines of angles
    mod alpha off by up to about 2 alpha eps."""
    eps = sys.float_info.epsilon * _dot([abs(m) for m in masses], [abs(x) for x in lengths])
    return value if value > (len(masses) + 2 + 2 * alpha) * eps else 0.0


def _cone_max(space: SpaceSpec, singular: bool, chart,
              masses) -> tuple[float, tuple, float | None]:
    """Exact sup over unit V of sum_i masses_i <v_i, V>, the chart of
    max(sup, 0) V* for a maximizer V* (``_positive_part`` of the length
    that leaves the cone point), and the sup over the directions that
    leave the stratum (None at smooth points, where none does).

    ``chart`` holds one sequence per chart coordinate of the tangent
    vectors v_i: (leg, r) at a spider apex, (page, s, t) at a spine point
    and (r, phi) at a flat-cone apex; at smooth points one per coordinate
    of the vectors themselves.  The masses may be signed.
    """
    if not singular:
        # the tangent cone is a vector space and the pairing a dot product
        peak = tuple(_dot(masses, x) for x in chart)
        return math.hypot(*peak), peak, None
    if space.kind == geo.SPIDER:
        # leg rule: leg l pairs to r_i on leg l and to -r_i off it
        legs, r = chart
        m = [_dot(masses, [x if i == leg else -x for i, x in zip(legs, r)])
             for leg in range(space.legs)]
        leg = _argmax(m)
        return m[leg], (leg, _positive_part(m[leg], masses, r)), m[leg]
    if space.kind == geo.OPEN_BOOK:
        # fold rule (Hotz et al. 2013): (page q, theta) pairs to
        # s_i cos(theta) + t_i sin(theta) on page q and s_i cos(theta) -
        # t_i sin(theta) off it, so the sup is |(S, tau_q)| or |S|
        pages, s, t = chart
        s_sum = _dot(masses, s)
        tau = [_dot(masses, [x if i == q else -x for i, x in zip(pages, t)])
               for q in range(space.pages)]
        q = _argmax(tau)
        sup = math.hypot(s_sum, tau[q]) if tau[q] > 0.0 else abs(s_sum)
        return sup, (q, s_sum, _positive_part(tau[q], masses, t)), tau[q]
    r, phi = chart
    sup, theta = _circle_max(space.circumference, phi, [m * x for m, x in zip(masses, r)])
    return sup, (_positive_part(sup, masses, r, space.circumference), theta), sup


def _unit_chart(space: SpaceSpec, singular: bool, data):
    """The ``_cone_max`` chart of unit directions, from their rows of
    ``Direction.data``: (leg) -> (leg, 1), (page, theta) -> (page,
    cos theta, sin theta), (phi) -> (1, phi), and vectors unchanged."""
    if not singular:
        return list(zip(*data))
    if space.kind == geo.SPIDER:
        return [d[0] for d in data], [1.0] * len(data)
    if space.kind == geo.OPEN_BOOK:
        return ([d[0] for d in data], [math.cos(d[1]) for d in data],
                [math.sin(d[1]) for d in data])
    return [1.0] * len(data), [d[0] for d in data]


def _closed_form_mean(measure: DiscreteMeasure) -> Point:
    """exp_o(max(0, m*) V* / W), with the atom coordinates as charts of log_o x."""
    sp = measure.space
    w = [w for _, w in measure.atoms]
    total = _dot(w, [1.0] * len(w))  # W, the weights added in atom order
    chart = list(zip(*(p.coords for p in measure.points)))
    _, peak, _ = _cone_max(sp, sp.kind != geo.EUCLIDEAN, chart, w)
    if sp.kind == geo.EUCLIDEAN:
        return Point(sp, tuple(x / total for x in peak))
    if sp.kind == geo.FLAT_CONE:  # (r, phi): the length scales, the angle stays
        return Point(sp, (peak[0] / total, peak[1]))
    # (leg, r) and (page, s, t): the index stays, the lengths scale
    return Point(sp, (peak[0], *(x / total for x in peak[1:])))


# ---------------------------------------------------------------------------
# Mean solver


@dataclass(frozen=True)
class FirstOrderCertificate:
    """sup over unit directions V of E<log X, V> at the returned point.

    The Fréchet function is convex, so a point is its minimizer exactly
    when every directional derivative -E<log X, V> is >= 0; the solve is
    accepted when the sup is at most ``tol``.
    """

    sup_tangent_mean: float
    tol: float = _TOL

    def to_json(self) -> dict:
        return {
            "kind": "first_order",
            "sup_tangent_mean": self.sup_tangent_mean,
            "tol": self.tol,
            "grid_points": 0,  # read by the benchmark's layer suite
        }


@dataclass(frozen=True)
class MeanDiagnostics:
    mean: Point
    frechet_value: float
    certificate: FirstOrderCertificate
    sticky: bool
    sticky_stratum: str | None = None
    min_outward_derivative: float | None = None

    def to_json(self) -> dict:
        return {
            "mean": {"space": self.mean.space.to_json(), "coords": self.mean.to_coords()},
            "frechet_value": self.frechet_value,
            "certificate": self.certificate.to_json(),
            "sticky": self.sticky,
            "sticky_stratum": self.sticky_stratum,
            "min_outward_derivative": self.min_outward_derivative,
        }


def _certify(measure: DiscreteMeasure,
             mean: Point) -> tuple[FirstOrderCertificate, float | None]:
    """The certificate at mean, and the sup of the tangent mean over the
    directions leaving its stratum: ``_cone_max`` on the unit charts of
    log x at mean, with masses w |log x|."""
    singular = geo.direction_kind(mean) in (geo.D_LEG, geo.D_PAGE_ANGLE, geo.D_ANGLE)
    logs = [(v, w) for v, w in pushforward(measure, mean).atoms if not v.is_zero]
    sup, outward = 0.0, (0.0 if singular else None)
    if logs:
        data = [v.direction.data for v, _ in logs]
        masses = [w * v.length for v, w in logs]
        sup, _, outward = _cone_max(mean.space, singular,
                                    _unit_chart(mean.space, singular, data), masses)
    if not sup <= _TOL:
        raise NumericalConsistencyError(
            f"first-order certificate failed at {mean.to_coords()}: "
            f"sup_V E<log X, V> = {sup:.3e} > {_TOL:g}"
        )
    return FirstOrderCertificate(sup), outward


def frechet_mean(measure: DiscreteMeasure) -> MeanDiagnostics:
    """Closed-form Fréchet mean with its first-order certificate.

    At a singular mean, ``min_outward_derivative`` is the least derivative
    of F along a direction leaving the stratum (along each page normal at
    a spine point); the mean is sticky when it is positive.
    """
    mean = _closed_form_mean(measure)
    cert, outward = _certify(measure, mean)
    min_out = None if outward is None else -outward
    sticky = min_out is not None and min_out > _TOL
    sid, _ = geo.stratum_of(mean)
    return MeanDiagnostics(mean, frechet_function(measure, mean), cert, sticky,
                           sid if sticky else None, min_out)


# ---------------------------------------------------------------------------
# Experiment base point


@dataclass(frozen=True)
class LocalizationReport:
    mean: Point | None
    base: Point
    certificate: FirstOrderCertificate | None

    def to_json(self) -> dict:
        return {
            "mean": None if self.mean is None else self.mean.to_coords(),
            "base": self.base.to_coords(),
            "certificate": None if self.certificate is None else self.certificate.to_json(),
        }


def validate_localized(measure: DiscreteMeasure, base: Point | None = None) -> LocalizationReport:
    """The base an experiment uses: ``base`` when given, else the mean and
    certificate of ``frechet_mean``.

    Every measure here is localized: in a CAT(0) space each pair of points
    is joined by one geodesic, so every atom has a unique log at any base.
    That, uniqueness of the mean and convexity of F are theorems and are
    not re-checked.
    """
    if base is not None:
        return LocalizationReport(None, base, None)
    diag = frechet_mean(measure)
    return LocalizationReport(diag.mean, diag.mean, diag.certificate)
