"""Independent oracles used to freeze expected values.

Nothing here calls the package's distance branching or pairing code:
the cone oracle minimizes over polygonal paths using only the local
flat metric, the book oracle minimizes over spine crossing points, and
the tangent-statistics oracles enumerate pairings from explicit angle
tables.  The net-statistics references at the end are the plain
all-pairs and per-pair forms of the package's blocked statistics; they
take net distances from the package, so they check the blocking and
vectorization, not the metric.
"""

import math

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from stratclt.directions import CircleDirections, DirectionNet, SpineDirections, direction_space
from stratclt.regularity import build_net


def cone_distance_oracle(alpha: float, p, q, segments: int = 60) -> float:
    """Min length over polygonal paths with free radii on both winding
    routes; through-apex shortcuts emerge from the optimization."""
    r1, a1 = p
    r2, a2 = q
    delta = abs(a1 - a2) % alpha
    best = math.inf
    for sweep in (delta, alpha - delta):
        step = sweep / segments
        c = math.cos(step)

        def length(radii, c=c):
            rr = np.concatenate([[r1], radii, [r2]])
            seg2 = rr[:-1] ** 2 + rr[1:] ** 2 - 2.0 * c * rr[:-1] * rr[1:]
            return float(np.sqrt(np.maximum(seg2, 0.0)).sum())

        x0 = np.linspace(r1, r2, segments + 1)[1:-1]
        res = minimize(length, x0, bounds=[(0.0, None)] * len(x0),
                       method="L-BFGS-B", options={"maxiter": 500})
        best = min(best, float(res.fun))
    return best


def book_cross_distance_oracle(s1, t1, s2, t2) -> float:
    """Min over spine crossing points of the two-segment path length."""

    def total(s):
        return math.hypot(s - s1, t1) + math.hypot(s2 - s, t2)

    lo, hi = min(s1, s2) - 1.0, max(s1, s2) + 1.0
    res = minimize_scalar(total, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12})
    return float(res.fun)


def comparison_median(a: float, b: float, c: float) -> float:
    """Median length to side a in the Euclidean triangle with sides a, b, c."""
    return 0.5 * math.sqrt(max(2.0 * b * b + 2.0 * c * c - a * a, 0.0))


def spider_pairing_table(k: int, atom_legs, atom_radii, net_legs) -> np.ndarray:
    """<log x_i, leg_j> from first principles: radius times cos(0 or pi)."""
    out = np.empty((len(atom_legs), len(net_legs)))
    for i, (leg, r) in enumerate(zip(atom_legs, atom_radii)):
        for j, nleg in enumerate(net_legs):
            out[i, j] = r * (1.0 if leg == nleg else math.cos(math.pi))
    return out


def enumeration_moments(pairings: np.ndarray, weights) -> dict:
    """Tangent mean/covariance/centered table by direct enumeration."""
    w = np.asarray(weights, dtype=float)
    mean = w @ pairings
    centered = pairings - mean
    cov = centered.T @ (w[:, None] * centered)
    return {"mean": mean, "centered": centered, "cov": cov}


# ---------------------------------------------------------------------------
# Fréchet-function grids and closed-form means
#
# Points are rows in the package's coordinate layout: euclidean [x...],
# spider [leg, r], open book [page, s, t], flat cone [r, phi].  Distances
# come from the flat pieces each space is glued from: one leg or page is
# a segment or half-plane, a path between two legs passes the apex, a
# path between two pages is straight once one page is unfolded across
# the spine, and the cone is a circle's worth of Euclidean wedges whose
# angle at the apex is capped at pi.


def sq_distances(space: dict, pts: np.ndarray, x) -> np.ndarray:
    """Squared distances from each row of pts to the point x."""
    kind = space["kind"]
    x = np.asarray(x, dtype=float)
    if kind == "euclidean":
        return ((pts - x) ** 2).sum(axis=1)
    if kind == "spider":
        same = pts[:, 0] == x[0]
        return np.where(same, pts[:, 1] - x[1], pts[:, 1] + x[1]) ** 2
    if kind == "open_book":
        same = pts[:, 0] == x[0]
        dt = np.where(same, pts[:, 2] - x[2], pts[:, 2] + x[2])
        return (pts[:, 1] - x[1]) ** 2 + dt ** 2
    alpha = float(space["circumference"])
    d = np.abs(pts[:, 1] - x[1]) % alpha
    ang = np.minimum(np.minimum(d, alpha - d), math.pi)
    # the law of cosines as (r - s)^2 + 4 r s sin^2(ang / 2): every term is
    # nonnegative, so nearly coincident points do not cancel to below zero
    r, s = pts[:, 0], x[0]
    return (r - s) ** 2 + 4.0 * r * s * np.sin(0.5 * ang) ** 2


def frechet_values(space: dict, atoms, pts: np.ndarray) -> np.ndarray:
    """F = E d(., X)^2 / 2 at each row of pts; atoms are (coords, weight)."""
    return 0.5 * sum(w * sq_distances(space, pts, x) for x, w in atoms)


def frechet_grid(space: dict, atoms, n: int) -> np.ndarray:
    """A grid of about n points per axis over every stratum chart that
    can hold the mean (the chart region spanned by the atoms)."""
    coords = np.array([x for x, _w in atoms], dtype=float)
    kind = space["kind"]
    if kind == "euclidean":
        axes = [np.linspace(lo - 0.1, hi + 0.1, n)
                for lo, hi in zip(coords.min(axis=0), coords.max(axis=0))]
        return np.stack([a.ravel() for a in np.meshgrid(*axes)], axis=1)
    if kind == "spider":
        r = np.linspace(0.0, coords[:, 1].max() + 0.1, n * n)
        return np.vstack([np.column_stack([np.full(len(r), leg), r])
                          for leg in range(space["legs"])])
    if kind == "open_book":
        s = np.linspace(coords[:, 1].min() - 0.1, coords[:, 1].max() + 0.1, n)
        t = np.linspace(0.0, coords[:, 2].max() + 0.1, n)
        ss, tt = (a.ravel() for a in np.meshgrid(s, t))
        return np.vstack([np.column_stack([np.full(len(ss), page), ss, tt])
                          for page in range(space["pages"])])
    alpha = float(space["circumference"])
    r = np.linspace(0.0, coords[:, 0].max() + 0.1, n)
    phi = np.linspace(0.0, alpha, 4 * n, endpoint=False)
    rr, pp = (a.ravel() for a in np.meshgrid(r, phi))
    return np.column_stack([rr, pp])


def _cone_tangent_mean(alpha: float, atoms, theta: np.ndarray) -> np.ndarray:
    """E<log_apex X, theta> for each direction theta at the apex."""
    out = np.zeros_like(theta)
    for (r, phi), w in atoms:
        d = np.abs(theta - phi) % alpha
        out += w * r * np.cos(np.minimum(np.minimum(d, alpha - d), math.pi))
    return out


def closed_form_mean(space: dict, atoms) -> list:
    """Weighted average, leg rule, fold rule, or the developed cone mean."""
    kind = space["kind"]
    total = sum(w for _x, w in atoms)
    if kind == "euclidean":
        return list(sum(w * np.asarray(x, float) for x, w in atoms) / total)
    if kind == "spider":
        for leg in range(space["legs"]):
            m = sum(w * r * (1.0 if l == leg else -1.0) for (l, r), w in atoms)
            if m > 0.0:
                return [leg, m / total]
        return [0, 0.0]
    if kind == "open_book":
        s_bar = sum(w * s for (_p, s, _t), w in atoms) / total
        for page in range(space["pages"]):
            tau = sum(w * t * (1.0 if p == page else -1.0) for (p, _s, t), w in atoms)
            if tau > 0.0:
                return [page, s_bar, tau / total]
        return [0, s_bar, 0.0]
    alpha = float(space["circumference"])
    theta = np.linspace(0.0, alpha, 100_001)
    m = _cone_tangent_mean(alpha, atoms, theta)
    if m.max() <= 0.0:
        return [0.0, 0.0]
    # develop the atoms within pi of the mean's direction psi into the
    # plane: psi is the direction of their weighted sum N, and the atoms
    # farther away pull the mean back through the apex by their mass
    psi = float(theta[np.argmax(m)])
    for _ in range(3):
        x = y = far = 0.0
        for (r, phi), w in atoms:
            d = (phi - psi) % alpha
            d = d - alpha if d > alpha / 2 else d
            if abs(d) < math.pi:
                x, y = x + w * r * math.cos(d), y + w * r * math.sin(d)
            else:
                far += w * r
        psi = (psi + math.atan2(y, x)) % alpha
    return [(math.hypot(x, y) - far) / total, psi]


# ---------------------------------------------------------------------------
# Net statistics in their plain forms


def refine_net(base, net: DirectionNet) -> DirectionNet:
    """Halve the mesh of a uniform net; the result contains the old net
    and has half its covering radius.

    A circle grid of m points becomes the grid of 2m, a spine grid of
    m steps per page (2 + pages (m - 1) directions) the grid of 2m, and
    a finite direction set stays as it is."""
    ds = direction_space(base)
    coords = net.coords()
    if isinstance(ds, CircleDirections):
        coords = ds._uniform(2 * len(coords))
    elif isinstance(ds, SpineDirections):
        coords = ds._uniform(2 * ((len(coords) - 2) // ds.pages + 1))
    return DirectionNet(base, coords)


def min_separation(ds, coords: np.ndarray) -> float:
    """Least distance between two distinct members of coords, from the
    full distance matrix."""
    dist = ds.cross(coords, coords)
    return float(dist[~np.eye(len(coords), dtype=bool)].min())


def packing_lower_bound(base, eps: float) -> int:
    """Lower bound on N(eps) by an all-pairs scan: the size of the uniform
    net at 2 eps if its members are more than eps apart, else of every
    other member if those are, else 1."""
    ds = direction_space(base)
    packed = build_net(base, 2.0 * eps).coords()
    for coords in (packed, packed[::2]):
        if len(coords) < 2 or min_separation(ds, coords) > eps:
            return len(coords)
    return 1


def net_is_valid(net: DirectionNet, eps: float) -> bool:
    """Exhaustive check against a candidate grid of resolution eps/4."""
    ds = direction_space(net.base)
    cand = build_net(net.base, eps / 4.0).coords()
    dmat = ds.cross(cand, net.coords())
    return bool(np.all(dmat.min(axis=1) <= eps))


def modulus_all_pairs(values: np.ndarray, net: DirectionNet, radii) -> np.ndarray:
    """w(h, r) from the full distance matrix and every index pair i < j."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    dmat = net.pairwise_distances()
    iu, ju = np.triu_indices(len(net), k=1)
    dvals = dmat[iu, ju]
    out = np.zeros((values.shape[0], len(radii)))
    for c, r in enumerate(radii):
        mask = dvals <= r
        if mask.any():
            out[:, c] = np.abs(values[:, iu[mask]] - values[:, ju[mask]]).max(axis=1)
    return out


def increment_pairs_loop(values: np.ndarray, cov, n: int, gamma2: float,
                         gamma4: float) -> list:
    """Increment fourth-moment rows by a Python loop over net pairs i < j,
    from the R x m ``values`` and the pairing matrix of ``cov``."""
    m = len(cov.net)
    dmat = cov.net.pairwise_distances()
    tau = cov.pair - cov.mean_vec
    w = cov.weights
    rows = []
    for i in range(m):
        for j in range(i + 1, m):
            d = float(dmat[i, j])
            bound = 2.0 * (2.0 * (1.0 + gamma2) * d * d) ** 2 \
                + 8.0 * (1.0 + gamma4) * d**4 / n
            delta = tau[:, i] - tau[:, j]
            e2 = float(w @ delta**2)
            e4 = float(w @ delta**4)
            exact = 3.0 * (1.0 - 1.0 / n) * e2 * e2 + e4 / n
            diffs4 = (values[:, i] - values[:, j]) ** 4
            mc = float(diffs4.mean())
            se = float(diffs4.std(ddof=1) / math.sqrt(values.shape[0]))
            rows.append({
                "i": i, "j": j, "angular_distance": d, "bound": bound,
                "exact_fourth_moment": exact, "mc_fourth_moment": mc,
                "mc_se": se, "ratio": mc / bound if bound > 0.0 else 0.0,
                "exact_ok": bool(exact <= bound * (1 + 1e-12) + 1e-300),
                "passed": bool(mc <= bound + 3.0 * se),
            })
    return rows
