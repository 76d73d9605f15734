"""Rank-revealing subspace computations and the structure-theorem checks.

A structure pass factors each distinct matrix once per SVD mode. One walk of
the sequential powers M, M^2, ... factors M^k with singular vectors for
k <= 4 and by singular values after that; each gives the rank of M^k (so the
chains, the ascent and the descent) and, for k <= 4, its range and kernel
bases at the same cut. h*T and I - T get one full SVD each, I - T and its
adjoint one singular-value scan each. Sums and intersections inside the pass
are rank counts: singular values of stacked bases, and dim(a & b) = dim a +
dim b - dim(a + b). Power chains use thresholds tied to the realized largest
singular value of each power with a noise floor that scales like the base
norm to the k-th power, so kernel detection stays stable whether iterates
grow or decay. "Dense" statements are read as subspace equality with the
whole space, the only faithful finite-dimensional interpretation.
Orthogonal-complement arguments are realized through the bilinear pairing
sum f_i g_i mu_i and its adjoint, because the ambient space is generally not
a Hilbert space; every claim that uses an adjoint records that choice.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass

import numpy as np

from .claims import ClaimResult, make_claim
from .measure import support
from .orlicz import OrliczContext
from .wct import (
    WctOperator,
    b_n_operator,
    cesaro_mean,
    contraction_criterion,
    matrix_of,
    pairing_adjoint,
)
from .young import complementary

__all__ = [
    "SubspaceBasis",
    "null_space",
    "range_space",
    "ascent_of",
    "descent_of",
    "subspace_sum",
    "subspace_intersection",
    "verify_structure_theorems",
]

DEFAULT_RANK_TOL = 1e-8


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal columns spanning a subspace, plus the rank tolerance used."""

    vectors: np.ndarray
    tol: float

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=float)
        if v.ndim != 2:
            raise ValueError("vectors must be a 2-d array of columns")
        object.__setattr__(self, "vectors", v)
        if v.shape[1] > v.shape[0]:
            raise ValueError("dimension exceeds the ambient atom count")
        if v.shape[1] > 0:
            gram = v.T @ v
            if np.max(np.abs(gram - np.eye(v.shape[1]))) > 1e-10:
                raise ValueError("vectors must be orthonormal")

    @property
    def ambient(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def _svd_once():
    """np.linalg.svd that factors each input of a structure pass (powers,
    h*T, I - T, stacked bases) once per mode. A repeat, keyed by a digest of
    the input's bytes, gets the arrays of the first call, which callers must
    not write to."""
    memo = {}

    def svd(a, full_matrices=True, compute_uv=True):
        a = np.ascontiguousarray(a, dtype=float)
        digest = hashlib.sha1(a, usedforsecurity=False).digest()
        key = (digest, a.shape, full_matrices, compute_uv)
        if key not in memo:
            memo[key] = np.linalg.svd(a, full_matrices, compute_uv)
        return memo[key]

    return svd


def _split(u: np.ndarray, vh: np.ndarray, rank: int):
    """Range and null-space columns of a matrix with SVD (u, ., vh)."""
    return u[:, :rank], vh[rank:].T


def _range_and_null(matrix: np.ndarray, tol: float, svd):
    """Range and null-space bases, cut at tol times the 2-norm."""
    if tol <= 0:
        raise ValueError("tol must be > 0")
    matrix = np.asarray(matrix, dtype=float)
    smax = float(svd(matrix, compute_uv=False)[0]) if matrix.size else 0.0
    u, s, vh = svd(matrix)
    rank = int(np.sum(s > (tol * smax if smax > 0 else tol)))
    return tuple(SubspaceBasis(c.copy(), tol) for c in _split(u, vh, rank))


def null_space(matrix: np.ndarray, tol: float = DEFAULT_RANK_TOL) -> SubspaceBasis:
    """Orthonormal basis of the numerical kernel at relative tolerance tol."""
    return _range_and_null(matrix, tol, np.linalg.svd)[1]


def range_space(matrix: np.ndarray, tol: float = DEFAULT_RANK_TOL) -> SubspaceBasis:
    """Orthonormal basis of the column space at relative tolerance tol."""
    return _range_and_null(matrix, tol, np.linalg.svd)[0]


_NOISE_COEFF = 1e-11


def _power_threshold(sing: np.ndarray, base_norm: float, k: int, tol: float) -> float:
    """Rank threshold for the k-th power of a matrix with 2-norm base_norm.

    Relative to the realized largest singular value, but never below the
    float-noise floor of computing the power (which scales like base^k), so
    kernel detection stays stable whether iterates grow or decay.
    """
    realized = float(sing[0]) if sing.size else 0.0
    floor = _NOISE_COEFF * base_norm**k if base_norm > 0 else 0.0
    return max(tol * realized, floor)


def _power_spectra(matrix: np.ndarray, tol: float, svd, n_full: int = 0):
    """(k, singular values, rank threshold, u, vh) of matrix^k for k = 1, 2,
    ..., formed by sequential multiplication from matrix itself. Powers up to
    n_full are factored with their singular vectors, later ones by singular
    values alone (u and vh are None); every threshold takes its base norm
    from the first power."""
    power = matrix
    for k in itertools.count(1):
        factors = svd(power, compute_uv=k <= n_full)
        u, s, vh = factors if k <= n_full else (None, factors, None)
        if k == 1:
            base = float(s[0])
        yield k, s, _power_threshold(s, base, k, tol), u, vh
        power = power @ matrix


def _rank_scan(
    matrix: np.ndarray, tol: float, svd, k_min: int = 0, k_max: int = 8, n_full: int = 0
) -> tuple[list[int], int | None, dict]:
    """Ranks of matrix^k for k = 0, 1, ... at power-scaled thresholds, the
    first k <= k_max with rank(M^k) = rank(M^(k+1)), or None, and the range
    and null-space columns of M^k at the same cut for k = 1, ..., n_full.

    The scan always reaches max(k_min, n_full), then goes on, at most to
    k_max + 1, only until that k is found.
    """
    matrix = np.asarray(matrix, dtype=float)
    ranks, stable, bases = [matrix.shape[0]], None, {}
    for k, s, thr, u, vh in _power_spectra(matrix, tol, svd, n_full):
        ranks.append(int(np.sum(s > thr)))
        if u is not None:
            bases[k] = _split(u, vh, ranks[-1])
        if stable is None and k <= k_max + 1 and ranks[-1] == ranks[-2]:
            stable = k - 1
        if k >= max(k_min, n_full) and (stable is not None or k > k_max):
            return ranks, stable, bases


# a singular value within this factor of its rank threshold is unclassifiable
_BAND = 30.0


def powers_well_conditioned(
    matrix: np.ndarray,
    k_max: int = 8,
    tol: float = DEFAULT_RANK_TOL,
    symbol=None,
) -> bool:
    """False when the rank of some power cannot be classified with confidence.

    Two tests. Locally, no singular value of any power may sit within a
    factor ``_BAND`` = 30 of its rank threshold. Structurally (when the block
    ``symbol`` h of the operator is supplied): powers beyond the square are
    the square rescaled by h, so the smallest genuine singular value of the
    k-th power is at least min|h on S(h)|^(k-2) times the smallest retained
    singular value of the square; that floor must clear each threshold by
    ``_BAND``. The second test catches tiny-but-nonzero symbol entries whose
    k-th powers would sink below the cut while looking confidently zero.
    Random suites re-draw flagged instances.
    """
    matrix = np.asarray(matrix, dtype=float)
    thresholds = []
    retained_min_sq = None
    spectra = _power_spectra(matrix, tol, np.linalg.svd)
    for k, s, thr, _, _ in itertools.islice(spectra, k_max):
        thresholds.append(thr)
        if thr > 0 and np.any((s > thr / _BAND) & (s <= thr * _BAND)):
            return False
        if k == 2:
            above = s[s > thr]
            retained_min_sq = float(above[-1]) if above.size else None
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


def ascent_of(matrix: np.ndarray, k_max: int = 8, tol: float = DEFAULT_RANK_TOL):
    """Smallest k with dim null(M^k) = dim null(M^(k+1)); None past k_max.

    Dimension equality decides subspace equality because the kernel chain is
    nested; the scan stops at the first stabilization, so only the powers up
    to that point are ever formed.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    return _rank_scan(matrix, tol, np.linalg.svd, 0, k_max)[1]


def descent_of(matrix: np.ndarray, k_max: int = 8, tol: float = DEFAULT_RANK_TOL):
    """Smallest k with dim range(M^k) = dim range(M^(k+1)); None past k_max.

    Rank-nullity makes the kernel and range chains stabilize together on a
    square matrix, so this is the ascent scan.
    """
    return ascent_of(matrix, k_max, tol)


def _sum_rank(s: np.ndarray, tol: float) -> int:
    """Dimension of a subspace sum from the singular values s of the stacked
    orthonormal bases: the count above tol times the largest (tol if 0)."""
    return int(np.sum(s > (tol * s[0] if s[0] > 0 else tol)))


def subspace_sum(a: SubspaceBasis, b: SubspaceBasis) -> SubspaceBasis:
    """Orthonormal basis of span(a) + span(b) at the coarser tolerance."""
    if a.ambient != b.ambient:
        raise ValueError("dimension mismatch")
    tol = max(a.tol, b.tol)
    cols = np.hstack([a.vectors, b.vectors])
    if cols.shape[1] == 0:
        return SubspaceBasis(cols, tol)
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    return SubspaceBasis(u[:, : _sum_rank(s, tol)].copy(), tol)


def subspace_intersection(a: SubspaceBasis, b: SubspaceBasis) -> SubspaceBasis:
    """Basis of span(a) meet span(b), sized so that the dimension identity
    dim(a&b) = dim a + dim b - dim(a+b) holds exactly at tolerance."""
    tol = max(a.tol, b.tol)
    target = a.dim + b.dim - subspace_sum(a, b).dim
    if target <= 0:
        return SubspaceBasis(np.zeros((a.ambient, 0)), tol)
    u, _, _ = np.linalg.svd(a.vectors.T @ b.vectors)
    q, _ = np.linalg.qr(a.vectors @ u[:, :target])
    return SubspaceBasis(q[:, :target], tol)


def _decreasing_to_zero(residuals: list[float], floor: float) -> bool:
    """True when a sequence of residuals behaves like C/n along doubling n."""
    if residuals[-1] <= floor:
        return True
    return all(
        later <= 0.62 * earlier + floor
        for earlier, later in zip(residuals, residuals[1:])
    )


# descent hypothesis: |h| >= _DELTA on the support of h
_DELTA = 1e-10
# random probe functions and the least horizon of the ergodic rows
_N_PROBES = 100
_N_CESARO = 200


def verify_structure_theorems(
    t: WctOperator,
    ctx: OrliczContext,
    tol: float = DEFAULT_RANK_TOL,
    seed: int = 0,
    criterion: tuple[list[int], bool] | None = None,
) -> list[ClaimResult]:
    """One pass/fail row per structural claim, each under its own hypothesis.

    Claims about I - T and density use the bilinear pairing adjoint; rows
    report "not_checked" when their hypothesis fails, never an error. The
    rows come in registry order and carry an empty fingerprint. A caller
    that already holds ``contraction_criterion(t, ctx.phi, psi)`` for the
    conjugate psi passes it as ``criterion``; otherwise the pass computes it.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    if criterion is None:
        criterion = contraction_criterion(t, ctx.phi, complementary(ctx.phi))
    return list(_structure_rows(t, tol, seed, criterion[1]))


def _structure_rows(t: WctOperator, tol: float, seed: int, criterion_holds: bool):
    m = matrix_of(t)
    n = t.space.n_atoms

    # every factorization below is formed once per input and mode; one walk
    # of sequential powers gives the chains to k = 6, the ascent (also the
    # descent, by rank-nullity) and the range and kernel of M^k, k <= 4
    svd = _svd_once()
    ranks, ascent, powers = _rank_scan(m, tol, svd, 6, n_full=4)
    ranks = ranks[:7]
    null_dims = [n - r for r in ranks]

    # ascent and the kernel chain
    yield make_claim(
        "ascent_bound",
        "none",
        ascent is not None and ascent <= 2,
        detail=f"ascent={ascent}, kernel dims {null_dims}",
    )
    yield make_claim(
        "null_chain_stabilization",
        "none",
        all(null_dims[2] == null_dims[2 + j] for j in range(1, 5)),
        detail=f"kernel dims {null_dims}",
    )

    # descent under "symbol bounded away from zero on its support"
    h_supp = sorted(support(t.h, 1e-12))
    bounded_away = (not h_supp) or min(abs(t.h[i]) for i in h_supp) >= _DELTA
    hyp_b = "met" if bounded_away else "not_met"
    if bounded_away:
        yield make_claim(
            "descent_bound",
            hyp_b,
            ascent is not None and ascent <= 2,
            detail=f"descent={ascent}, range dims {ranks}, delta={_DELTA:g}",
        )
        yield make_claim(
            "range_chain_stabilization",
            hyp_b,
            all(ranks[2 + j] == ranks[2] for j in range(1, 5)),
            detail=f"range dims {ranks}",
        )
    else:
        for cid in ("descent_bound", "range_chain_stabilization"):
            yield make_claim(cid, hyp_b, None)

    # sums and intersections enter only through their dimensions: a sum's is
    # a rank count of the stacked bases, an intersection's follows from
    # dim(a & b) = dim a + dim b - dim(a + b)
    def sum_dim(a: np.ndarray, b: np.ndarray) -> int:
        cols = np.hstack([a, b])
        return _sum_rank(svd(cols, compute_uv=False), tol) if cols.shape[1] else 0

    def meet_dim(a: np.ndarray, b: np.ndarray) -> int:
        return max(0, a.shape[1] + b.shape[1] - sum_dim(a, b))

    r2, null2 = powers[2]
    dims = [meet_dim(r2, powers[k][1]) for k in range(1, 5)]
    worst = float(max(dims))
    yield make_claim(
        "range_square_null_intersection", "none", worst == 0, residual=worst
    )
    ok = None
    if bounded_away:
        ok = all(sum_dim(powers[k][0], null2) == n for k in range(1, 5))
    yield make_claim("range_plus_null_square", hyp_b, ok)

    # the symbol-weighted operator is the square in closed form, so its rank
    # cut uses the power-2 noise floor of the first power's norm
    u, s, vh = svd(t.h[:, None] * m)
    cut = _power_threshold(s, float(svd(m)[1][0]), 2, tol)
    rs, ns = _split(u, vh, int(np.sum(s > cut)))
    yield make_claim("symbol_operator_decomposition", "none", sum_dim(rs, ns) == n)

    # claims under the strict contraction criterion
    hyp_c = "met" if criterion_holds else "not_met"
    imt = np.eye(n) - m
    if criterion_holds:
        a1 = _rank_scan(imt, tol, svd)[1]
        ok = a1 is not None and a1 <= 1
        yield make_claim("one_minus_t_ascent", hyp_c, ok, detail=f"ascent={a1}")
        adj = pairing_adjoint(imt, t.space.weights)
        a2 = _rank_scan(adj, tol, svd)[1]
        yield make_claim(
            "one_minus_t_adjoint_ascent",
            hyp_c,
            a2 is not None and a2 <= 1,
            detail=f"ascent={a2} (bilinear pairing adjoint)",
        )
    else:
        for cid in ("one_minus_t_ascent", "one_minus_t_adjoint_ascent"):
            yield make_claim(cid, hyp_c, None)

    # dense sum surrogate: equality with the whole space
    sum2 = sum_dim(r2, null2)
    yield make_claim(
        "square_sum_dense",
        "none",
        sum2 == n and dims[1] == 0,
        detail=f"dim sum={sum2}, dim intersection={dims[1]} "
        "(density read as equality in finite dimensions)",
    )

    if not criterion_holds:
        for cid in (
            "one_minus_t_direct_sum",
            "ergodic_invertibility",
            "ergodic_bn_convergence",
            "ergodic_cesaro_limit",
        ):
            yield make_claim(cid, hyp_c, None)
        return
    rng_imt, nul_imt = _range_and_null(imt, tol, svd)
    yield make_claim(
        "one_minus_t_direct_sum",
        hyp_c,
        rng_imt.dim + nul_imt.dim == n
        and meet_dim(rng_imt.vectors, nul_imt.vectors) == 0,
        detail=f"dims {rng_imt.dim}+{nul_imt.dim} of {n}",
    )

    # ergodic chain
    s_imt = svd(imt, compute_uv=False)
    full_rank = bool(s_imt[-1] > tol * s_imt[0]) if s_imt[0] > 0 else False
    # independent route: a linear solve either reproduces the right-hand
    # side or it does not
    probe = np.random.default_rng(seed ^ 0x5EED).uniform(-1.0, 1.0, n)
    try:
        sol = np.linalg.solve(imt, probe)
        invertible = bool(
            np.max(np.abs(imt @ sol - probe)) <= 1e-6 * (1.0 + np.max(np.abs(probe)))
        )
    except np.linalg.LinAlgError:
        invertible = False
    yield make_claim(
        "ergodic_invertibility",
        hyp_c,
        invertible == full_rank,
        residual=float(s_imt[-1] / s_imt[0]) if s_imt[0] > 0 else 0.0,
        detail=f"solve route invertible={invertible}, "
        f"full range at tolerance={full_rank}",
    )
    rng = np.random.default_rng(seed)
    fs = rng.uniform(-1.0, 1.0, (n, _N_PROBES))
    # the 1/n regime starts past the mixing time of the symbol, so the
    # checkpoint horizon stretches when |h| approaches 1
    h_top = float(np.max(np.abs(t.h), initial=0.0))
    n_eff = int(min(1e5, max(_N_CESARO, 40.0 / max(1e-4, 1.0 - min(h_top, 1.0)))))
    horizons = (n_eff // 4, n_eff // 2, n_eff)
    if invertible:
        target = np.linalg.solve(imt, fs)
        res = [
            float(np.max(np.abs(b_n_operator(t, k) @ fs - target)))
            for k in horizons
        ]
        scale = float(np.max(np.abs(target)))
        yield make_claim(
            "ergodic_bn_convergence",
            hyp_c,
            _decreasing_to_zero(res, 1e-12 * (1.0 + scale)),
            residual=res[-1],
            detail=f"sup residuals at n={n_eff // 4},{n_eff // 2},{n_eff}: {res}",
        )
    else:
        yield make_claim(
            "ergodic_bn_convergence", hyp_c, None, detail="I - T numerically singular"
        )
    # Cesaro limit: project onto null(I - T) along range(I - T)
    basis = np.hstack([rng_imt.vectors, nul_imt.vectors])
    ok = False
    residual = None
    if basis.shape[1] == n:
        coeff = np.linalg.solve(basis, fs)
        limit = nul_imt.vectors @ coeff[rng_imt.dim :]
        inv_res = float(np.max(np.abs(m @ limit - limit), initial=0.0))
        res = [
            float(np.max(np.abs(cesaro_mean(t, k) @ fs - limit)))
            for k in horizons
        ]
        scale = float(np.max(np.abs(fs)))
        ok = inv_res <= tol and _decreasing_to_zero(res, 1e-12 * (1.0 + scale))
        residual = inv_res
    yield make_claim(
        "ergodic_cesaro_limit",
        hyp_c,
        ok,
        residual=residual,
        detail="limit taken as the projection onto null(I-T) along range(I-T)",
    )
