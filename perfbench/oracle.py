"""Expected outputs computed apart from stratclt.

Nothing here imports the package.  Means come from the closed forms of
each model space, net directions from the uniform-grid definitions, and
pairings from plain dot products in a development of the tangent cone,
in the manner of ``tests/oracles.py``.  The checks return a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import math

import numpy as np

MEAN_TOL = 1e-6      # the grid certificate refines to ~1e-8
KERNEL_TOL = 1e-6    # pairings at a base that is off by ~1e-8
COUNT_TOL = 1e-6     # field rows are written with 17 significant digits
COV_SE_LIMIT = 6.0   # standard errors allowed for a Gaussian second moment


def _atoms(measure: dict):
    return [(a["point"], float(a["weight"])) for a in measure["atoms"]]


def _cone_gap(alpha: float, a: float, b: float) -> float:
    d = abs(a - b) % alpha
    return min(d, alpha - d)


# ---------------------------------------------------------------------------
# Closed-form Fréchet means


def _cone_tangent_mean_max(alpha: float, atoms) -> float:
    """sup over apex directions of E<log x, V>, by a dense scan."""
    theta = np.concatenate([np.linspace(0.0, alpha, 200_001),
                            [phi % alpha for (_r, phi), _w in atoms]])
    m = np.zeros_like(theta)
    for (r, phi), w in atoms:
        d = np.abs(theta - phi) % alpha
        m += w * r * np.cos(np.minimum(np.minimum(d, alpha - d), math.pi))
    return float(m.max())


def closed_form_mean(measure: dict) -> list:
    """Mean coordinates in the layout of the measure files."""
    space, atoms = measure["space"], _atoms(measure)
    kind = space["kind"]
    if kind == "euclidean":
        return [float(x) for x in sum(w * np.asarray(p, float) for p, w in atoms)]
    if kind == "spider":
        # leg rule: on leg l the chart coordinate is +r on l and -r elsewhere
        for leg in range(space["legs"]):
            m = sum(w * r * (1.0 if l == leg else -1.0) for (l, r), w in atoms)
            if m > 0.0:
                return [leg, m]
        return [0, 0.0]
    if kind == "open_book":
        # fold rule (Hotz et al. 2013): unfold the other pages to t < 0
        s_bar = sum(w * s for (_p, s, _t), w in atoms)
        for page in range(space["pages"]):
            tau = sum(w * t * (1.0 if p == page else -1.0) for (p, _s, t), w in atoms)
            if tau > 0.0:
                return [page, s_bar, tau]
        return [0, s_bar, 0.0]
    if kind == "flat_cone":
        alpha = float(space["circumference"])
        if _cone_tangent_mean_max(alpha, atoms) <= 1e-12:
            return [0.0, 0.0]  # apex criterion: m(mu, V) <= 0 for every V
        # weighted average in the wedge developed around the first atom
        phi0 = atoms[0][0][1]
        offsets = []
        for (r, phi), w in atoms:
            d = (phi - phi0) % alpha
            offsets.append((r, d if d <= alpha / 2 else d - alpha, w))
        spread = max(d for _r, d, _w in offsets) - min(d for _r, d, _w in offsets)
        if spread >= math.pi:
            raise ValueError("atoms do not fit in one developed wedge")
        x = sum(w * r * math.cos(d) for r, d, w in offsets)
        y = sum(w * r * math.sin(d) for r, d, w in offsets)
        return [math.hypot(x, y), (phi0 + math.atan2(y, x)) % alpha]
    raise ValueError(f"unknown space kind {kind!r}")


def mean_problems(got: list, want: list) -> list[str]:
    if len(got) != len(want):
        return [f"mean {got} has the wrong layout, expected {want}"]
    if any(abs(float(a) - float(b)) > MEAN_TOL for a, b in zip(got, want)):
        return [f"mean {got} differs from the closed form {want}"]
    return []


# ---------------------------------------------------------------------------
# Nets and pairing tables


def expected_net(space: dict, base: list, net_spec: dict) -> list[tuple]:
    """Directions of a configured net, as (kind, values...) tuples."""
    kind = space["kind"]
    if "legs" in net_spec:
        return [("leg", float(j)) for j in net_spec["legs"]]
    if "signs" in net_spec:
        return [("sign", float(s)) for s in net_spec["signs"]]
    if "vectors" in net_spec:
        out = []
        for v in net_spec["vectors"]:
            v = np.asarray(v, float)
            out.append(("vec",) + tuple(v / np.linalg.norm(v)))
        return out
    eps = float(net_spec["epsilon"])
    if kind == "flat_cone" and base[0] == 0.0:
        alpha = float(space["circumference"])
        m = math.ceil(alpha / eps)
        return [("angle", alpha * k / m) for k in range(m)]
    if kind == "open_book" and base[2] == 0.0:
        m = math.ceil(math.pi / eps)
        h = math.pi / m
        dirs = [("page", 0.0, 0.0), ("page", 0.0, math.pi)]
        for page in range(space["pages"]):
            dirs += [("page", float(page), h * k) for k in range(1, m)]
        return dirs
    raise ValueError("no uniform net oracle for this base")


def parse_descriptor(text: str) -> tuple:
    """'leg:1', 'sign:+1', 'vec:1,0', 'angle:0.5', 'page:0,theta:0.3'."""
    kind, _, rest = text.partition(":")
    if kind == "page":
        page, _, theta = rest.partition(",theta:")
        return ("page", float(page), float(theta))
    return (kind,) + tuple(float(x) for x in rest.split(","))


def net_problems(got: list[str], want: list[tuple]) -> list[str]:
    parsed = [parse_descriptor(d) for d in got]
    if len(parsed) != len(want):
        return [f"net has {len(parsed)} directions, expected {len(want)}"]
    for g, w in zip(parsed, want):
        if g[0] != w[0] or any(abs(a - b) > 1e-12 for a, b in zip(g[1:], w[1:])):
            return [f"net direction {g} differs from {w}"]
    return []


def pairing(space: dict, base: list, atom: list, direction: tuple) -> float:
    """<log_base atom, direction> from a development of the tangent cone."""
    kind = space["kind"]
    if kind == "euclidean":
        return float(np.dot(np.asarray(atom, float) - np.asarray(base, float),
                            direction[1:]))
    if kind == "spider":
        (leg, r), (leg0, r0) = atom, base
        if r0 == 0.0:  # apex: leg directions are pi apart
            return r * (1.0 if leg == direction[1] else -1.0)
        # leg interior: signed distance away from the apex along leg0
        delta = r - r0 if (leg == leg0 and r > 0.0) else -(r0 + r)
        return delta * direction[1]
    if kind == "open_book":
        page, s, t = atom
        if base[2] != 0.0:
            raise ValueError("open-book pairing oracle needs a spine base")
        _, q, theta = direction
        # a page other than the direction's is reflected below the spine
        sign = 1.0 if page == q else -1.0
        return (s - base[1]) * math.cos(theta) + sign * t * math.sin(theta)
    if kind == "flat_cone":
        r, phi = atom
        if base[0] != 0.0:
            raise ValueError("flat-cone pairing oracle needs the apex")
        gap = _cone_gap(float(space["circumference"]), phi, direction[1])
        return r * math.cos(min(gap, math.pi))
    raise ValueError(f"unknown space kind {kind!r}")


def pairing_table(measure: dict, base: list, directions: list) -> np.ndarray:
    space = measure["space"]
    return np.array([[pairing(space, base, p, d) for d in directions]
                     for p, _w in _atoms(measure)])


def kernel(measure: dict, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(tangent mean vector, covariance kernel) by enumeration."""
    w = np.array([wt for _p, wt in _atoms(measure)])
    mean = w @ table
    centered = table - mean
    return mean, centered.T @ (w[:, None] * centered)


def exact_fourth_moments(measure: dict, table: np.ndarray, n: int) -> np.ndarray:
    """E G_n(V)^4 for the CLT-scaled field of n samples, per direction."""
    w = np.array([wt for _p, wt in _atoms(measure)])
    tau = table - w @ table
    e2, e4 = w @ tau**2, w @ tau**4
    return 3.0 * (1.0 - 1.0 / n) * e2**2 + e4 / n


# ---------------------------------------------------------------------------
# Checks of command outputs


def clt_problems(config: dict, report: dict) -> list[str]:
    measure = config["measure"]
    space = measure["space"]
    base = closed_form_mean(measure)
    problems = mean_problems(report["base"], base)
    want_net = expected_net(space, base, config["net"])
    problems += net_problems(report["net"], want_net)
    if problems:
        return problems
    table = pairing_table(measure, base, want_net)
    _mean, cov = kernel(measure, table)
    err = float(np.max(np.abs(np.asarray(report["analytic_cov"]) - cov)))
    if err > KERNEL_TOL:
        problems.append(f"analytic_cov is off the enumerated kernel by {err:.3g}")
    for n, tests in report["per_n"].items():
        if "moments" not in tests:
            continue
        got = np.array([r["exact_fourth_moment"] for r in tests["moments"]["directions"]])
        want = exact_fourth_moments(measure, table, int(n))
        err = float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))
        if err > KERNEL_TOL:
            problems.append(f"exact fourth moments at n={n} are off by {err:.3g}")
    return problems


def read_csv_matrix(path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        header = next(csv.reader([fh.readline()]))
        values = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, values


def _field_kernel(config: dict):
    measure = config["measure"]
    directions = expected_net(measure["space"], config["base"], config["net"])
    table = pairing_table(measure, config["base"], directions)
    mean, cov = kernel(measure, table)
    return directions, table, mean, cov


def gaussian_problems(config: dict, outdir, draws: int) -> list[str]:
    """cov_matrix.csv is the enumerated kernel and the Gaussian draws'
    second moments lie within COV_SE_LIMIT standard errors of it."""
    directions, _table, _mean, cov = _field_kernel(config)
    header, cov_csv = read_csv_matrix(outdir / "cov_matrix.csv")
    problems = net_problems(header, directions)
    if np.max(np.abs(cov_csv - cov)) > KERNEL_TOL:
        problems.append("cov_matrix.csv differs from the enumerated kernel")
    header, g = read_csv_matrix(outdir / "gaussian_draws.csv")
    if g.shape != (draws, len(directions)):
        return problems + [f"gaussian_draws.csv has shape {g.shape}"]
    second = g.T @ g / draws
    se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / draws)
    worst = float(np.max(np.abs(second - cov) / np.maximum(se, 1e-300)))
    if worst > COV_SE_LIMIT:
        problems.append(f"Gaussian sample covariance is {worst:.2f} SE off the kernel")
    return problems


def empirical_problems(config: dict, outdir, draws: int, n: int) -> list[str]:
    """Each empirical row is (c @ P - n m) / sqrt(n) for a vector c of
    non-negative integer counts summing to n."""
    directions, table, mean, _cov = _field_kernel(config)
    _header, e = read_csv_matrix(outdir / "empirical_draws.csv")
    if e.shape != (draws, len(directions)):
        return [f"empirical_draws.csv has shape {e.shape}"]
    rhs = (e * math.sqrt(n) + n * mean).T
    counts, *_ = np.linalg.lstsq(table.T, rhs, rcond=None)
    resid = float(np.max(np.abs(table.T @ counts - rhs)))
    off = float(np.max(np.abs(counts - np.round(counts))))
    if resid > COUNT_TOL * n or off > COUNT_TOL * n:
        return [f"empirical rows are not count vectors (residual {resid:.3g},"
                f" off-lattice {off:.3g})"]
    counts = np.round(counts)
    if np.any(counts < 0) or np.any(counts.sum(axis=0) != n):
        return ["empirical count vectors are negative or do not sum to n"]
    return []


def cover_problems(summary: dict, length: float, pages: int, n_max: int) -> list[str]:
    """Dyadic counts N(2^-k), k = 1..n_max, of a direction space of total
    length L: a cover at radius eps/2 needs L/eps points less one per page
    (the poles are shared), and doubling a uniform net overshoots by at
    most a factor 2."""
    counts = summary["counts"]
    if len(counts) != n_max:
        return [f"{len(counts)} cover scales, expected {n_max}"]
    problems = []
    if any(b < a for a, b in zip(counts, counts[1:])):
        problems.append(f"cover counts decrease: {counts}")
    for k, c in enumerate(counts, start=1):
        lo, hi = length * 2**k - pages, 2.0 * length * 2**k + 2
        if not lo <= c <= hi:
            problems.append(f"N(2^-{k}) = {c} outside [{lo:.1f}, {hi:.1f}]")
    if abs(summary["d_estimate"] - 1.0) > 0.05:
        problems.append(f"growth exponent {summary['d_estimate']} is not ~1")
    return problems
