"""Discrete probability measures and their exact Fréchet means.

Measures are finitely supported, which makes every moment identity an
exact finite sum.  Every point is exp_o(tV) from a cone point o (the
origin, the apex or a spine point), and

    F(exp_o(tV)) = W t^2 / 2 - t m(V) + E d(o, X)^2 / 2,

where W is the total weight and m(V) = E<log_o X, V> the tangent mean,
so the mean is exp_o(max(0, m*) V* / W) for the exact maximum (m*, V*)
of m.  On R^a x Cone(Gamma) that maximum is one rule, ``_cone_max``, on
the split (s_i, r_i, g_i) of each vector: with S = sum_i m_i s_i and g*
the max over gamma in Gamma of sum_i m_i r_i cos(min(d(g_i, gamma), pi)),
it is hypot(|S|, max(g*, 0)) for a >= 1 and g* for a = 0.  On the atoms'
splits it gives the mean; on the unit logs at the mean, the first-order
certificate sup_V E<log X, V> <= tol and the stickiness.
"""

from __future__ import annotations

import math
import sys

from . import geometry as geo
from .errors import (DomainError, NumericalConsistencyError, SpaceMismatchError, json_array,
                     json_number, json_object)
from .geometry import _TWO_PI, Point, Record, SpaceSpec

_WEIGHT_TOL = 1e-12
# first-order certificate and stickiness tolerance; the mean reads only a
# peak within its rounding bound as 0 (``_positive_part``), never this
_TOL = 1e-9


class DiscreteMeasure(Record):
    """Finitely supported probability measure on a model space."""

    __slots__ = ("space", "atoms")  # atoms: a tuple of (Point, weight)

    def __init__(self, space: SpaceSpec, atoms: tuple):
        atoms = tuple((p, float(w)) for p, w in atoms)
        if not atoms:
            raise DomainError("a measure needs at least one atom")
        total = 0.0
        for p, w in atoms:
            if p.space != space:
                raise SpaceMismatchError("atom lives in a different space")
            if not w > 0.0:
                raise DomainError("atom weights must be strictly positive")
            total += w
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise DomainError(f"weights sum to {total!r}, expected 1 within {_WEIGHT_TOL}")
        self._fill(space, atoms)

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
        """Exact E d(base, x)^order by ``_dot``, else a NumericalConsistencyError."""
        try:
            powers = [geo.distance(base, p) ** order for p in self.points]
            if all(map(math.isfinite, powers)):
                return _dot([w for _, w in self.atoms], powers)
        except OverflowError:
            pass
        raise NumericalConsistencyError(f"E d(base, X)^{order} overflows the float range")

    def to_json(self) -> dict:
        return {
            "space": self.space.to_json(),
            "atoms": [{"point": p.to_coords(), "weight": w} for p, w in self.atoms],
        }

    @staticmethod
    def from_json(obj) -> "DiscreteMeasure":
        obj = json_object(obj, "measure", required=("space", "atoms"))
        space = SpaceSpec.from_json(obj["space"])
        atoms = [json_object(a, "atom", required=("point", "weight"))
                 for a in json_array(obj["atoms"], "measure atoms")]
        return DiscreteMeasure(space, tuple((Point.of(space, json_array(a["point"], "atom point")),
                                             json_number(a["weight"], "atom weight"))
                                            for a in atoms))


class TangentMeasure(Record):
    """Pushforward of a measure to the tangent cone at a base point."""

    __slots__ = ("base", "atoms")  # atoms: a tuple of (TangentVector, weight)

    def __init__(self, base: Point, atoms: tuple):
        self._fill(base, atoms)


def pushforward(measure: DiscreteMeasure, base: Point) -> TangentMeasure:
    """Atom-wise log map; weights carried over unchanged."""
    return TangentMeasure(base, tuple((geo.log_map(base, p), w) for p, w in measure.atoms))


def frechet_function(measure: DiscreteMeasure, p: Point) -> float:
    """Half the weighted mean squared distance to p."""
    if p.space != measure.space:
        raise SpaceMismatchError("evaluation point lives in a different space")
    return 0.5 * measure.moment(p, 2)


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
    the sum is A cos + B sin + C on each arc: highest at atan2(B, A) if
    that lies in the arc (at lo if A = B = 0), else at the end nearer it.
    The sum is C^1, so a breakpoint is a candidate only where the arcs on
    both sides are highest at it, and an end within rounding of a peak
    cannot win in its place.  Masses below 1/2 are first scaled up by the
    power of two that puts the largest into [1/2, 1), which is exact, so
    the products of subnormal masses with the cosines do not underflow.
    """
    angles = [float(a) % alpha for a in angles]
    exp = min(math.frexp(max(abs(float(m)) for m in masses))[1], 0)
    masses = [math.ldexp(m, -exp) for m in masses]
    breaks = _breakpoints(alpha, angles)
    ends = [*breaks, breaks[0] + alpha]
    cand, sides = [], []
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
        a, b = _dot(cos_row, masses), _dot(sin_row, masses)
        peak = lo if a == b == 0.0 else lo + (math.atan2(b, a) - lo) % _TWO_PI
        if peak <= hi:
            cand.append(peak)
        # the arc is highest inside (0), at hi (1) or at lo (-1)
        sides.append(0 if peak <= hi else 1 if peak - hi <= lo + _TWO_PI - peak else -1)
    cand += [b for i, b in enumerate(breaks) if sides[i - 1] == 1 and sides[i] == -1]
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


def _cone_max(space: SpaceSpec, chart, masses) -> tuple[float, tuple, float | None]:
    """Exact sup over unit V of sum_i masses_i <v_i, V> by the module's
    one rule, the split (S, rho, gamma) of max(sup, 0) V* for a maximizer
    V*, with rho the ``_positive_part`` of g*, and g*, the sup over the
    directions that leave the stratum (None at smooth points).

    ``chart`` holds the split (s_i, r_i, g_i) of each v_i, (v_i, 0.0,
    None) at a smooth point, and the masses may be signed.  g* is a max
    over Gamma, ``geometry.link``: over its legs or pages (the leg rule,
    and with S the fold rule of Hotz et al. 2013) or the circle maximum.
    """
    s, r, g = zip(*chart)
    peak = tuple(_dot(masses, x) for x in zip(*s))
    if g[0] is None:  # the tangent cone is a vector space
        return math.hypot(*peak), (peak, 0.0, None), None
    gamma = alpha = geo.link(space)
    if isinstance(gamma, tuple):
        # a finite Gamma: label pairs to r_i at g_i = label and to -r_i elsewhere
        tops = [_dot(masses, [x if i == label else -x for i, x in zip(g, r)]) for label in gamma]
        i = _argmax(tops)
        top, gamma, alpha = tops[i], gamma[i], 0.0
    else:
        top, gamma = _circle_max(alpha, g, [m * x for m, x in zip(masses, r)])
    sup = math.hypot(*peak, max(top, 0.0)) if peak else top
    return sup, (peak, _positive_part(top, masses, r, alpha), gamma), top


def _unit_chart(base: Point, data) -> list:
    """The ``_cone_max`` chart of unit directions at base, from their rows
    of ``Direction.data``: at a cone point the join point (g, *theta)
    becomes ((cos theta), sin theta or 1.0, g), elsewhere a unit vector
    or sign d becomes (d, 0.0, None)."""
    _, r, g = geo.split(base)
    if g is None or r != 0.0:
        return [(d, 0.0, None) for d in data]
    return [(tuple(map(math.cos, theta)), math.sin(theta[0]) if theta else 1.0, g)
            for g, *theta in data]


def _closed_form_mean(measure: DiscreteMeasure) -> Point:
    """exp_o(max(0, m*) V* / W), with the atoms' splits as the chart of log_o x."""
    w = [w for _, w in measure.atoms]
    total = _dot(w, [1.0] * len(w))  # W, the weights added in atom order
    _, (s, r, g), _ = _cone_max(measure.space, [geo.split(p) for p in measure.points], w)
    return geo.join(measure.space, tuple(x / total for x in s), r / total, g)


# ---------------------------------------------------------------------------
# Mean solver


class FirstOrderCertificate(Record):
    """sup over unit directions V of E<log X, V> at the returned point.

    The Fréchet function is convex, so a point is its minimizer exactly
    when every directional derivative -E<log X, V> is >= 0; the solve is
    accepted when the sup is at most ``tol``.
    """

    __slots__ = ("sup_tangent_mean", "tol")

    def __init__(self, sup_tangent_mean: float, tol: float = _TOL):
        self._fill(sup_tangent_mean, tol)

    def to_json(self) -> dict:
        return {
            "kind": "first_order",
            "sup_tangent_mean": self.sup_tangent_mean,
            "tol": self.tol,
            "grid_points": 0,  # read by the benchmark's layer suite
        }


class MeanDiagnostics(Record):
    __slots__ = ("mean", "frechet_value", "certificate", "sticky", "sticky_stratum",
                 "min_outward_derivative")

    def __init__(self, mean: Point, frechet_value: float, certificate: FirstOrderCertificate,
                 sticky: bool, sticky_stratum: str | None = None,
                 min_outward_derivative: float | None = None):
        self._fill(mean, frechet_value, certificate, sticky, sticky_stratum,
                   min_outward_derivative)

    def to_json(self) -> dict:
        return {
            "mean": {"space": self.mean.space.to_json(), "coords": self.mean.to_coords()},
            "frechet_value": self.frechet_value,
            "certificate": self.certificate.to_json(),
            "sticky": self.sticky,
            "sticky_stratum": self.sticky_stratum,
            "min_outward_derivative": self.min_outward_derivative,
        }


def _certify(measure: DiscreteMeasure, mean: Point) -> tuple[FirstOrderCertificate, float | None]:
    """The certificate at mean, and the sup of the tangent mean over the
    directions leaving its stratum: ``_cone_max`` on the unit charts of
    log x at mean, with masses w |log x|."""
    _, r, g = geo.split(mean)
    logs = [(v, w) for v, w in pushforward(measure, mean).atoms if not v.is_zero]
    sup, outward = 0.0, (0.0 if g is not None and r == 0.0 else None)
    if logs:
        chart = _unit_chart(mean, [v.direction.data for v, _ in logs])
        sup, _, outward = _cone_max(mean.space, chart, [w * v.length for v, w in logs])
    if not sup <= _TOL:
        raise NumericalConsistencyError(f"first-order certificate failed at {mean.to_coords()}: "
                                        f"sup_V E<log X, V> = {sup:.3e} > {_TOL:g}")
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


class LocalizationReport(Record):
    __slots__ = ("mean", "base", "certificate")

    def __init__(self, mean: Point | None, base: Point, certificate: FirstOrderCertificate | None):
        self._fill(mean, base, certificate)

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
