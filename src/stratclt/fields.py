"""Tangent fields on direction nets.

The central object is the pairing matrix P[i, j] = <log x_i, V_j>
between the k atoms of a pushed-forward measure and the m directions of
a net.  Because measures are finitely supported, everything else is a
small dense computation on P, held once in a ``CovMatrix``: the weights
w, the tangent mean m = w P, the centred pairings tau = P - 1 m^T, the
covariance Sigma = tau^T diag(w) tau and its Gram factor
F = diag(sqrt w) tau, so Sigma = F^T F is positive semidefinite by
construction.  A field of n samples is xi tau for the centred counts
xi = (c - n w) / sqrt n, and a Gaussian field is z F for k standard
normals z.

Every sum over atoms goes through ``_fixed_product``: the rounded
products are added one at a time in atom order, with no BLAS, so each
value is the same float expression whatever the block shape, the BLAS
kernel or its thread count.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .directions import DirectionNet, pairings
from .errors import FLOAT_FORMAT, SpaceMismatchError, open_output
from .geometry import Point
from .measures import DiscreteMeasure, TangentMeasure, pushforward


def pairing_matrix(tm: TangentMeasure, net: DirectionNet) -> np.ndarray:
    """P[i, j] = <log x_i, V_j> for atoms i and net directions j."""
    if net.base != tm.base:
        raise SpaceMismatchError("net and tangent measure have different bases")
    return pairings(tm.base, [v for v, _ in tm.atoms], net.coords())


# elements of the scratch chunk of ``_fixed_product``: 256 KB
_PRODUCT_CHUNK = 2 ** 15


def _fixed_product(lhs: np.ndarray, rhs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = lhs @ rhs, each cell summed over the inner index a = 0, 1, ...
    in that order, one rounded product added at a time.

    Every cell is the same float expression whatever the shape of
    ``out`` or the BLAS in use, so a block of the product equals the same
    cells of the whole product bit for bit, and so does a block of the
    transposed product ``rhs^T @ lhs^T``.  Rows of ``out`` go a chunk of
    ``_PRODUCT_CHUNK`` elements at a time through one scratch chunk.
    """
    step = max(1, _PRODUCT_CHUNK // max(1, out.shape[1]))
    tmp = np.empty((min(step, len(out)), out.shape[1]))
    for lo in range(0, len(out), step):
        o = out[lo:lo + step]
        t = tmp[:len(o)]
        np.multiply(lhs[lo:lo + step, :1], rhs[0], out=o)
        for a in range(1, lhs.shape[1]):
            np.multiply(lhs[lo:lo + step, a:a + 1], rhs[a], out=t)
            o += t
    return out


# ---------------------------------------------------------------------------
# Covariance matrices and Gaussian fields


@dataclass(frozen=True, eq=False)
class CovMatrix:
    """The tangent field of a k-atom measure on a net of m directions.

    ``weights`` w, ``pair`` P (k x m), ``mean_vec`` m = w P, ``tau``
    = P - 1 m^T and ``gram_factor``, the m x k matrix F^T with
    F = diag(sqrt w) tau.  ``entries``, the kernel Sigma = tau^T diag(w) tau
    (symmetrized), is formed on first use: a field simulated on a fine
    net for its modulus never needs the m x m matrix.
    """

    net: DirectionNet
    weights: np.ndarray
    pair: np.ndarray
    mean_vec: np.ndarray
    tau: np.ndarray
    gram_factor: np.ndarray

    @cached_property
    def entries(self) -> np.ndarray:
        m = self.tau.shape[1]
        cov = _fixed_product(self.tau.T, self.weights[:, None] * self.tau, np.empty((m, m)))
        return 0.5 * (cov + cov.T)


def cov_matrix(measure: DiscreteMeasure, base: Point, net: DirectionNet) -> CovMatrix:
    """The tangent field of ``measure`` at ``base`` on ``net``.

    Its kernel is a Gram matrix, so it needs no positive-semidefiniteness
    check; it may be exactly singular (on a spider net the all-ones
    vector is a null direction).
    """
    pair = pairing_matrix(pushforward(measure, base), net)
    w = measure.weights
    mean_vec = _fixed_product(w[None], pair, np.empty((1, pair.shape[1])))[0]
    tau = pair - mean_vec
    gram = (np.sqrt(w)[:, None] * tau).T
    return CovMatrix(net, w, pair, mean_vec, tau, gram)


@dataclass(frozen=True, eq=False)
class GaussianFieldSampler:
    """Centered Gaussian field on a net with the covariance of ``cov``.

    Each draw is z F for k standard normals z, through the Gram factor
    F^T of the covariance, one column per atom.  Unlike an
    eigendecomposition it takes no square roots of rounding-noise
    eigenvalues, and the draws do not move with the last bit of an entry.
    """

    cov: CovMatrix

    @staticmethod
    def build(cov: CovMatrix) -> "GaussianFieldSampler":
        return GaussianFieldSampler(cov)

    def draw_matrix(self, stream: np.random.Generator, draws: int) -> np.ndarray:
        factor = self.cov.gram_factor
        z = stream.standard_normal((draws, factor.shape[1]))
        return _fixed_product(z, factor.T, np.empty((draws, factor.shape[0])))


# ---------------------------------------------------------------------------
# CSV export (``errors.FLOAT_FORMAT``, the one cell format)

_CSV_BLOCK_ROWS = 4096


def _row_blocks(values: np.ndarray):
    """The CSV text of the rows, one string per block of rows, each
    formatted by one ``%``."""
    row_fmt = ",".join([FLOAT_FORMAT] * values.shape[1]) + "\n"
    for start in range(0, len(values), _CSV_BLOCK_ROWS):
        blk = values[start:start + _CSV_BLOCK_ROWS]
        yield (row_fmt * len(blk)) % tuple(blk.ravel().tolist())


def _write_matrix_csv(path, header, blocks):
    # descriptors such as 'vec:1,0' contain commas, so csv writes the header;
    # numbers need no quoting and come as strings, a block of rows at a time
    with open_output(path, newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        fh.writelines(blocks)


def write_fields_csv(path, net: DirectionNet, values: np.ndarray):
    """One field per row, in the order given."""
    _write_matrix_csv(path, net.descriptors(), _row_blocks(np.atleast_2d(values)))


def write_empirical_fields_csv(path, cov: CovMatrix, xi: np.ndarray):
    """The bytes of write_fields_csv for the fields xi tau of the k x R
    centred counts ``xi``, one field per column of xi, in that order.

    A field of n samples is xi tau for the centred counts
    xi = (c - n w) / sqrt n of a multinomial count vector c, so its rows
    lie on the count lattice and repeat.  Equal counts give bit-equal
    rows, each the one fixed-order product of its counts, so a stable
    sort groups the replicates by their counts, in draw order within a
    group.  A group's row is formed and formatted in the block of its
    first replicate and its line dropped after the block of its last, so
    a row that does not repeat is held no longer than a block.
    """
    rows = xi.shape[1]
    order = np.lexsort(xi)
    starts = np.ones(rows + 1, dtype=bool)  # starts[i]: order[i] opens a group
    # neighbours in the sort are compared a block at a time, with no k x R copy
    for lo in range(1, rows, _CSV_BLOCK_ROWS):
        at = order[lo - 1:lo + _CSV_BLOCK_ROWS]
        starts[lo:lo + len(at) - 1] = (xi[:, at[1:]] != xi[:, at[:-1]]).any(axis=0)
    first, last = order[starts[:-1]], order[starts[1:]]
    group = np.empty(rows, dtype=np.intp)
    group[order] = np.cumsum(starts[:-1]) - 1
    lines = np.empty(len(first), dtype=object)

    def blocks():
        for start in range(0, rows, _CSV_BLOCK_ROWS):
            stop = start + _CSV_BLOCK_ROWS
            new = np.flatnonzero((first >= start) & (first < stop))
            values = _fixed_product(xi[:, first[new]].T, cov.tau,
                                    np.empty((len(new), cov.tau.shape[1])))
            text = "".join(_row_blocks(values))
            lines[new] = np.array(text.split("\n")[:-1], dtype=object)
            yield "\n".join(lines[group[start:stop]].tolist()) + "\n"
            lines[(last >= start) & (last < stop)] = None

    _write_matrix_csv(path, cov.net.descriptors(), blocks())


def write_cov_csv(path, cov: CovMatrix):
    _write_matrix_csv(path, cov.net.descriptors(), _row_blocks(cov.entries))
