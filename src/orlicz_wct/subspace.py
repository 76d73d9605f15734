"""Rank-revealing subspace computations and the structure-theorem checks.

A structure pass factors each distinct matrix once per SVD mode: one
singular-value scan over the sequential powers of a matrix gives its 2-norm,
the ranks of its powers, its ascent and its descent, and one full SVD gives
both its range and its null space. The operator's dense matrix is its cached
read-only array. Power chains use thresholds tied to the realized largest
singular value of each power with a noise floor that scales like the base
norm to the k-th power, so kernel detection stays stable whether iterates
grow or decay. "Dense" statements are read as subspace equality with the
whole space, the only faithful finite-dimensional interpretation.
Orthogonal-complement arguments are realized through the bilinear pairing
sum f_i g_i mu_i and its adjoint, because the ambient space is generally not
a Hilbert space; every claim that uses an adjoint records that choice.
"""

from __future__ import annotations

import functools
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
    criterion_support,
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
    """np.linalg.svd that factors each input once per mode. A repeat, keyed
    by a digest of the input's bytes, gets the arrays of the first call,
    which callers must not write to."""
    memo = {}

    def svd(a, full_matrices=True, compute_uv=True):
        a = np.ascontiguousarray(a, dtype=float)
        digest = hashlib.sha1(a, usedforsecurity=False).digest()
        key = (digest, a.shape, full_matrices, compute_uv)
        if key not in memo:
            memo[key] = np.linalg.svd(a, full_matrices, compute_uv)
        return memo[key]

    return svd


def _bases(matrix: np.ndarray, tol: float, svd, cut):
    """Range and null-space bases of matrix from one SVD; the singular values
    s above cut(s) make up the rank."""
    u, s, vh = svd(matrix)
    rank = int(np.sum(s > cut(s)))
    return (
        SubspaceBasis(u[:, :rank].copy(), tol),
        SubspaceBasis(vh[rank:].T.copy(), tol),
    )


def _range_and_null(matrix: np.ndarray, tol: float, svd):
    """Range and null-space bases, cut at tol times the 2-norm."""
    if tol <= 0:
        raise ValueError("tol must be > 0")
    matrix = np.asarray(matrix, dtype=float)
    smax = float(svd(matrix, compute_uv=False)[0]) if matrix.size else 0.0
    return _bases(matrix, tol, svd, lambda s: tol * smax if smax > 0 else tol)


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


def _power_spectra(matrix: np.ndarray, tol: float, svd):
    """(k, singular values, rank threshold) of matrix^k for k = 1, 2, ...,
    formed by sequential multiplication."""
    smax = float(svd(matrix, compute_uv=False)[0])
    power = np.eye(matrix.shape[0])
    for k in itertools.count(1):
        power = power @ matrix
        s = svd(power, compute_uv=False)
        yield k, s, _power_threshold(s, smax, k, tol)


def _rank_scan(
    matrix: np.ndarray, tol: float, svd, k_min: int = 0, k_max: int = 8
) -> tuple[list[int], int | None]:
    """Ranks of matrix^k for k = 0, 1, ... at power-scaled thresholds, and the
    first k <= k_max with rank(M^k) = rank(M^(k+1)), or None.

    The scan always reaches k_min, then goes on, at most to k_max + 1, only
    until that k is found.
    """
    matrix = np.asarray(matrix, dtype=float)
    ranks, stable = [matrix.shape[0]], None
    for k, s, thr in _power_spectra(matrix, tol, svd):
        ranks.append(int(np.sum(s > thr)))
        if stable is None and k <= k_max + 1 and ranks[-1] == ranks[-2]:
            stable = k - 1
        if k >= k_min and (stable is not None or k > k_max):
            return ranks, stable


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
    spectra = _power_spectra(matrix, tol, _svd_once())
    for k, s, thr in itertools.islice(spectra, k_max):
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
    return _rank_scan(matrix, tol, _svd_once(), 0, k_max)[1]


def descent_of(matrix: np.ndarray, k_max: int = 8, tol: float = DEFAULT_RANK_TOL):
    """Smallest k with dim range(M^k) = dim range(M^(k+1)); None past k_max.

    Rank-nullity makes the kernel and range chains stabilize together on a
    square matrix, so this is the ascent scan.
    """
    return ascent_of(matrix, k_max, tol)


def subspace_sum(a: SubspaceBasis, b: SubspaceBasis) -> SubspaceBasis:
    """Orthonormal basis of span(a) + span(b) at the coarser tolerance."""
    return _sum(a, b, np.linalg.svd)


def _sum(a: SubspaceBasis, b: SubspaceBasis, svd) -> SubspaceBasis:
    if a.ambient != b.ambient:
        raise ValueError("dimension mismatch")
    tol = max(a.tol, b.tol)
    cols = np.hstack([a.vectors, b.vectors])
    if cols.shape[1] == 0:
        return SubspaceBasis(cols, tol)
    u, s, _ = svd(cols, full_matrices=False)
    thr = tol * s[0] if s[0] > 0 else tol
    rank = int(np.sum(s > thr))
    return SubspaceBasis(u[:, :rank].copy(), tol)


def subspace_intersection(a: SubspaceBasis, b: SubspaceBasis) -> SubspaceBasis:
    """Basis of span(a) meet span(b), sized so that the dimension identity
    dim(a&b) = dim a + dim b - dim(a+b) holds exactly at tolerance."""
    return _intersection(a, b, np.linalg.svd)


def _intersection(a: SubspaceBasis, b: SubspaceBasis, svd) -> SubspaceBasis:
    if a.ambient != b.ambient:
        raise ValueError("dimension mismatch")
    tol = max(a.tol, b.tol)
    target = a.dim + b.dim - _sum(a, b, svd).dim
    if target <= 0:
        return SubspaceBasis(np.zeros((a.ambient, 0)), tol)
    u, s, _ = svd(a.vectors.T @ b.vectors)
    directions = a.vectors @ u[:, :target]
    q, _ = np.linalg.qr(directions)
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
    fingerprint: dict | None = None,
) -> list[ClaimResult]:
    """One pass/fail row per structural claim, each under its own hypothesis.

    Claims about I - T and density use the bilinear pairing adjoint; rows
    report "not_checked" when their hypothesis fails, never an error.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    fp = dict(fingerprint or {})
    m = matrix_of(t)
    n = t.space.n_atoms
    rows: list[ClaimResult] = []

    def claim(cid: str, hyp: str, ok: bool, **extra):
        rows.append(make_claim(cid, hyp, "pass" if ok else "fail", fp=fp, **extra))

    def skip(hyp: str, *cids: str, **extra):
        rows.extend(make_claim(c, hyp, "not_checked", fp=fp, **extra) for c in cids)

    # every factorization below is formed once per input and mode; one scan
    # gives the chains to k = 6 and the ascent, which is also the descent by
    # rank-nullity
    svd = _svd_once()
    ranks, ascent = _rank_scan(m, tol, svd, 6)
    ranks = ranks[:7]
    null_dims = [n - r for r in ranks]
    smax = float(svd(m, compute_uv=False)[0])

    # ascent and the kernel chain
    claim(
        "ascent_bound",
        "none",
        ascent is not None and ascent <= 2,
        detail=f"ascent={ascent}, kernel dims {null_dims}",
    )
    claim(
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
        claim(
            "descent_bound",
            hyp_b,
            ascent is not None and ascent <= 2,
            detail=f"descent={ascent}, range dims {ranks}, delta={_DELTA:g}",
        )
        claim(
            "range_chain_stabilization",
            hyp_b,
            all(ranks[2 + j] == ranks[2] for j in range(1, 5)),
            detail=f"range dims {ranks}",
        )
    else:
        skip(hyp_b, "descent_bound", "range_chain_stabilization")

    # intersections and sums
    def bases(a: np.ndarray, k: int) -> tuple[SubspaceBasis, SubspaceBasis]:
        # range and kernel of a at the rank cut of the k-th power of m
        return _bases(a, tol, svd, lambda s: _power_threshold(s, smax, k, tol))

    power_bases = functools.cache(lambda k: bases(np.linalg.matrix_power(m, k), k))
    r2, null2 = power_bases(2)
    sum2 = _sum(r2, null2, svd)
    int2 = _intersection(r2, null2, svd)
    dims = [
        (int2 if k == 2 else _intersection(r2, power_bases(k)[1], svd)).dim
        for k in range(1, 5)
    ]
    worst = float(max(dims))
    claim("range_square_null_intersection", "none", worst == 0, residual=worst)
    if bounded_away:
        sums = [
            sum2 if k == 2 else _sum(power_bases(k)[0], null2, svd) for k in range(1, 5)
        ]
        claim("range_plus_null_square", hyp_b, all(b.dim == n for b in sums))
    else:
        skip(hyp_b, "range_plus_null_square")

    # the symbol-weighted operator is the square in closed form, so its rank
    # cut uses the power-2 noise floor
    rs, ns = bases(t.h[:, None] * m, 2)
    claim("symbol_operator_decomposition", "none", _sum(rs, ns, svd).dim == n)

    # claims under the strict contraction criterion
    psi = complementary(ctx.phi)
    crit = criterion_support(t, ctx.phi, psi)
    criterion_holds = all(abs(t.h[i]) < 1.0 for i in sorted(crit))
    hyp_c = "met" if criterion_holds else "not_met"
    imt = np.eye(n) - m
    if criterion_holds:
        a1 = _rank_scan(imt, tol, svd)[1]
        ok = a1 is not None and a1 <= 1
        claim("one_minus_t_ascent", hyp_c, ok, detail=f"ascent={a1}")
        adj = pairing_adjoint(imt, t.space.weights)
        a2 = _rank_scan(adj, tol, svd)[1]
        claim(
            "one_minus_t_adjoint_ascent",
            hyp_c,
            a2 is not None and a2 <= 1,
            detail=f"ascent={a2} (bilinear pairing adjoint)",
        )
    else:
        skip(hyp_c, "one_minus_t_ascent", "one_minus_t_adjoint_ascent")

    # dense sum surrogate: equality with the whole space
    claim(
        "square_sum_dense",
        "none",
        sum2.dim == n and int2.dim == 0,
        detail=f"dim sum={sum2.dim}, dim intersection={int2.dim} "
        "(density read as equality in finite dimensions)",
    )

    if not criterion_holds:
        skip(
            hyp_c,
            "one_minus_t_direct_sum",
            "ergodic_invertibility",
            "ergodic_bn_convergence",
            "ergodic_cesaro_limit",
        )
        return rows
    rng_imt, nul_imt = _range_and_null(imt, tol, svd)
    claim(
        "one_minus_t_direct_sum",
        hyp_c,
        rng_imt.dim + nul_imt.dim == n
        and _intersection(rng_imt, nul_imt, svd).dim == 0,
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
    claim(
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
            float(np.max(np.abs(b_n_operator(t, k, "closed_form") @ fs - target)))
            for k in horizons
        ]
        scale = float(np.max(np.abs(target)))
        claim(
            "ergodic_bn_convergence",
            hyp_c,
            _decreasing_to_zero(res, 1e-12 * (1.0 + scale)),
            residual=res[-1],
            detail=f"sup residuals at n={n_eff // 4},{n_eff // 2},{n_eff}: {res}",
        )
    else:
        skip(hyp_c, "ergodic_bn_convergence", detail="I - T numerically singular")
    # Cesaro limit: project onto null(I - T) along range(I - T)
    basis = np.hstack([rng_imt.vectors, nul_imt.vectors])
    ok = False
    residual = None
    if basis.shape[1] == n:
        coeff = np.linalg.solve(basis, fs)
        limit = nul_imt.vectors @ coeff[rng_imt.dim :]
        inv_res = float(np.max(np.abs(m @ limit - limit), initial=0.0))
        res = [
            float(np.max(np.abs(cesaro_mean(t, k, "closed_form") @ fs - limit)))
            for k in horizons
        ]
        scale = float(np.max(np.abs(fs)))
        ok = inv_res <= tol and _decreasing_to_zero(res, 1e-12 * (1.0 + scale))
        residual = inv_res
    claim(
        "ergodic_cesaro_limit",
        hyp_c,
        ok,
        residual=residual,
        detail="limit taken as the projection onto null(I-T) along range(I-T)",
    )
    return rows
