"""Dense reference routes for the differential tests.

The package reads every range, kernel, sum and ascent from the per-block
record of an operator. The routes here work on bare n x n arrays instead,
by ``np.linalg.svd`` of the matrix, of its powers or of stacked bases, so
the tests can check the package against them. Bases are plain arrays of
orthonormal columns, and every sum is cut at an explicit tolerance.
"""

import numpy as np

from orlicz_wct.subspace import _ascent, _dense_spectra, _ranks
from orlicz_wct.wct import BlockWalk


def _count_above(s, tol):
    """The singular values s above tol times the largest (above tol if 0)."""
    top = float(np.max(s, initial=0.0))
    return int(np.sum(s > (tol * top if top > 0 else tol)))


def range_null(matrix, tol):
    """Orthonormal range and kernel columns of a matrix, cut at tol times
    its 2-norm: one SVD."""
    u, s, vh = np.linalg.svd(np.asarray(matrix, dtype=float))
    rank = _count_above(s, tol)
    return u[:, :rank].copy(), vh[rank:].T.copy()


def sum_dim(a, b, tol):
    """dim(span a + span b) for orthonormal columns a and b."""
    cols = np.hstack([a, b])
    if cols.shape[1] == 0:
        return 0
    return _count_above(np.linalg.svd(cols, full_matrices=False)[1], tol)


def meet_dim(a, b, tol):
    """dim(span a & span b) = dim a + dim b - dim(a + b)."""
    return a.shape[1] + b.shape[1] - sum_dim(a, b, tol)


def dense_ascent(matrix, k_max=8, tol=1e-8):
    """Smallest k with rank(A^k) = rank(A^(k+1)), or None past k_max, for a
    bare matrix: the ranks of its powers, factored on its core (the route of
    ``powers_well_conditioned``), at the thresholds of the structure pass."""
    return _ascent(np.shape(matrix)[0], _ranks(_dense_spectra(matrix), tol), k_max)


def pairing_adjoint(matrix, weights):
    """Adjoint with respect to the bilinear pairing sum f_i g_i mu_i."""
    matrix = np.asarray(matrix, dtype=float)
    weights = np.asarray(weights, dtype=float)
    return (matrix.T * weights[None, :]) / weights[:, None]


def power_walk(t, a_ns=(), b_ns=(), t_ns=()):
    """The results of ``BlockWalk(t, a_ns, b_ns, t_ns)`` as n x n arrays in
    atom order, with exact zeros off the blocks."""
    walk = BlockWalk(t, a_ns, b_ns, t_ns)
    return tuple(
        {k: walk.unpack(x) for k, x in d.items()} for d in (walk.a, walk.b, walk.t)
    )
