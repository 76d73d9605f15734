"""Dense and per-instance reference routes for the differential tests.

The package reads every range, kernel, sum and ascent from the per-block
record of an operator. The routes here work on bare n x n arrays instead,
by ``np.linalg.svd`` of the matrix, of its powers or of stacked bases, so
the tests can check the package against them. Bases are plain arrays of
orthonormal columns, and every sum is cut at an explicit tolerance. The
package also reads many operators, or many powers, in one array pass; the
loops here take one operator and one power at a time.
"""

import itertools

import numpy as np

from orlicz_wct.condexp import cond_exp
from orlicz_wct.measure import ess_sup, support
from orlicz_wct.subspace import _BAND, _ascent, _dense_spectra, _noise_floor
from orlicz_wct.wct import BlockWalk
from orlicz_wct.young import generalized_inverse


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


def power_threshold(sing: np.ndarray, base_norm: float, k: int, tol: float) -> float:
    """Rank threshold for the k-th power of a matrix with 2-norm base_norm.

    Relative to the realized largest singular value, but never below the
    float-noise floor of computing the power, so kernel detection stays
    stable whether iterates grow or decay.
    """
    realized = float(np.max(sing, initial=0.0))
    return max(tol * realized, _noise_floor(base_norm, k))


def thresholded(spectra, tol: float):
    """(k, spectrum, rank threshold) of A^k for k = 1, 2, ..., from the
    singular values of each power, one power at a time; every threshold
    takes its base norm from the first power."""
    for k, s in enumerate(spectra, 1):
        if k == 1:
            base = float(np.max(s, initial=0.0))
        yield k, s, power_threshold(s, base, k, tol)


def power_ranks(spectra, tol: float):
    """rank(A^k) for k = 1, 2, ...: the singular values above each power's
    threshold."""
    return (int(np.sum(s > thr)) for _, s, thr in thresholded(spectra, tol))


def dense_ascent(matrix, k_max=8, tol=1e-8):
    """Smallest k with rank(A^k) = rank(A^(k+1)), or None past k_max, for a
    bare matrix: the ranks of its powers, factored on its core (the route of
    ``powers_well_conditioned``), at the thresholds of the structure pass."""
    return _ascent(np.shape(matrix)[0], power_ranks(_dense_spectra(matrix), tol), k_max)


def pairing_adjoint(matrix, weights):
    """Adjoint with respect to the bilinear pairing sum f_i g_i mu_i."""
    matrix = np.asarray(matrix, dtype=float)
    weights = np.asarray(weights, dtype=float)
    return (matrix.T * weights[None, :]) / weights[:, None]


def power_walk(t, a_ns=(), b_ns=(), t_ns=()):
    """The results of ``BlockWalk(t.block_layout, a_ns, b_ns, t_ns)`` as
    n x n arrays in atom order, with exact zeros off the blocks."""
    walk = BlockWalk(t.block_layout, a_ns, b_ns, t_ns)
    return tuple(
        {k: walk.unpack(x) for k, x in d.items()} for d in (walk.a, walk.b, walk.t)
    )


def well_conditioned_loop(spectra, k_max, symbol):
    """The rule of ``powers_well_conditioned``, one power at a time, on the
    (k, spectrum, rank threshold) of the powers k = 1, 2, ... (as
    ``thresholded`` yields them); it stops at the first power in the
    band."""
    thresholds = []
    retained_min_sq = None
    for k, s, thr in itertools.islice(spectra, k_max):
        thresholds.append(thr)
        if thr > 0 and np.any((s > thr / _BAND) & (s <= thr * _BAND)):
            return False
        if k == 2:
            above = s[s > thr]
            retained_min_sq = float(above.min()) if above.size else None
    if symbol is not None:
        h = np.asarray(symbol, dtype=float)
        h_top = float(np.max(np.abs(h), initial=0.0))
        supp = np.abs(h) > 1e-12 * (1.0 + h_top)
        if supp.any() and retained_min_sq is not None:
            h_min = float(np.min(np.abs(h[supp])))
            for k in range(3, k_max + 1):
                floor = h_min ** (k - 2) * retained_min_sq
                if floor <= _BAND * thresholds[k - 1]:
                    return False
    return True


def power_bounded_loop(t, phi, n_max):
    """The contraction criterion (support, whether |h| < 1 on it), sup|h|
    and, for a power law c|x|^p with p > 1, the exact norms of T^1..T^n_max
    of one operator (None for other gauges): conditional expectations per
    atom, support sets, and one maximum over the live atoms per power."""
    psi = phi.conjugate
    sw = generalized_inverse(phi, cond_exp(t.e, phi(np.abs(t.w))))
    su = generalized_inverse(psi, cond_exp(t.e, psi(np.abs(t.u))))
    crit = sorted(support(sw, 1e-10) & support(su, 1e-10))
    holds = all(abs(t.h[i]) < 1.0 for i in crit)
    norms = None
    if phi._power is not None and phi._power[1] > 1:
        p = phi._power[1]
        q = p / (p - 1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            block = (
                cond_exp(t.e, np.abs(t.w) ** p) ** (1.0 / p)
                * cond_exp(t.e, np.abs(t.u) ** q) ** (1.0 / q)
            )
            live = block > 0
            block, h = block[live], np.abs(t.h[live])
            norms, hpow = [], np.ones_like(h)
            for _ in range(n_max):
                norms.append(float(np.max(hpow * block, initial=0.0)))
                hpow = hpow * h
    return crit, holds, ess_sup(t.h), norms
