"""Rank-revealing subspace computations and the structure-theorem checks.

Null spaces and ranges come out of one SVD per matrix. Power chains use
thresholds tied to the realized largest singular value of each power with a
noise floor that scales like the base norm to the k-th power, so kernel
detection stays stable whether iterates grow or decay. "Dense" statements
are read as subspace equality with the whole space, the only faithful
finite-dimensional interpretation. Orthogonal-complement arguments are
realized through the bilinear pairing sum f_i g_i mu_i and its adjoint,
because the ambient space is generally not a Hilbert space; every claim
that uses an adjoint records that choice.
"""

from __future__ import annotations

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

    def contains(self, vec, tol: float = 1e-8) -> bool:
        vec = np.asarray(vec, dtype=float)
        resid = vec - self.vectors @ (self.vectors.T @ vec)
        return float(np.linalg.norm(resid)) <= tol * (1.0 + np.linalg.norm(vec))


def _split_svd(matrix: np.ndarray, abs_tol: float):
    u, s, vh = np.linalg.svd(np.asarray(matrix, dtype=float))
    rank = int(np.sum(s > abs_tol))
    return u, s, vh, rank


def _abs_tol(matrix: np.ndarray, tol: float) -> float:
    smax = float(np.linalg.norm(matrix, 2)) if matrix.size else 0.0
    return tol * smax if smax > 0 else tol


def null_space(matrix: np.ndarray, tol: float = DEFAULT_RANK_TOL) -> SubspaceBasis:
    """Orthonormal basis of the numerical kernel at relative tolerance tol."""
    if tol <= 0:
        raise ValueError("tol must be > 0")
    matrix = np.asarray(matrix, dtype=float)
    _, s, vh, rank = _split_svd(matrix, _abs_tol(matrix, tol))
    return SubspaceBasis(vh[rank:].T.copy(), tol)


def range_space(matrix: np.ndarray, tol: float = DEFAULT_RANK_TOL) -> SubspaceBasis:
    """Orthonormal basis of the column space at relative tolerance tol."""
    if tol <= 0:
        raise ValueError("tol must be > 0")
    matrix = np.asarray(matrix, dtype=float)
    u, s, vh, rank = _split_svd(matrix, _abs_tol(matrix, tol))
    return SubspaceBasis(u[:, :rank].copy(), tol)


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


def _power_ranks(matrix: np.ndarray, k_max: int, tol: float) -> list[int]:
    """Ranks of matrix^k for k = 0..k_max at power-scaled thresholds."""
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    smax = float(np.linalg.norm(matrix, 2))
    ranks = [n]
    power = np.eye(n)
    for k in range(1, k_max + 1):
        power = power @ matrix
        s = np.linalg.svd(power, compute_uv=False)
        thr = _power_threshold(s, smax, k, tol)
        ranks.append(int(np.sum(s > thr)))
    return ranks


def powers_well_conditioned(
    matrix: np.ndarray,
    k_max: int = 8,
    tol: float = DEFAULT_RANK_TOL,
    band: float = 30.0,
    symbol=None,
) -> bool:
    """False when the rank of some power cannot be classified with confidence.

    Two tests. Locally, no singular value of any power may sit within a
    factor ``band`` of its rank threshold. Structurally (when the block
    ``symbol`` h of the operator is supplied): powers beyond the square are
    the square rescaled by h, so the smallest genuine singular value of the
    k-th power is at least min|h on S(h)|^(k-2) times the smallest retained
    singular value of the square; that floor must clear each threshold by
    ``band``. The second test catches tiny-but-nonzero symbol entries whose
    k-th powers would sink below the cut while looking confidently zero.
    Random suites re-draw flagged instances.
    """
    matrix = np.asarray(matrix, dtype=float)
    smax = float(np.linalg.norm(matrix, 2))
    thresholds = []
    retained_min_sq = None
    power = np.eye(matrix.shape[0])
    for k in range(1, k_max + 1):
        power = power @ matrix
        s = np.linalg.svd(power, compute_uv=False)
        thr = _power_threshold(s, smax, k, tol)
        thresholds.append(thr)
        if thr > 0 and np.any((s > thr / band) & (s <= thr * band)):
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
                if floor <= band * thresholds[k - 1]:
                    return False
    return True


def _first_stable_rank(matrix: np.ndarray, k_max: int, tol: float):
    """First k with rank(M^k) = rank(M^(k+1)); stops as soon as it stabilizes."""
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    smax = float(np.linalg.norm(matrix, 2))
    prev = n
    power = np.eye(n)
    for k in range(1, k_max + 2):
        power = power @ matrix
        s = np.linalg.svd(power, compute_uv=False)
        rank = int(np.sum(s > _power_threshold(s, smax, k, tol)))
        if rank == prev:
            return k - 1
        prev = rank
    return None


def ascent_of(matrix: np.ndarray, k_max: int = 8, tol: float = DEFAULT_RANK_TOL):
    """Smallest k with dim null(M^k) = dim null(M^(k+1)); None past k_max.

    Dimension equality decides subspace equality because the kernel chain is
    nested; the scan stops at the first stabilization, so only the powers up
    to that point are ever formed.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    return _first_stable_rank(matrix, k_max, tol)


def descent_of(matrix: np.ndarray, k_max: int = 8, tol: float = DEFAULT_RANK_TOL):
    """Smallest k with dim range(M^k) = dim range(M^(k+1)); None past k_max.

    Rank-nullity makes the kernel and range chains stabilize together on a
    square matrix, so this shares the ascent scan.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    return _first_stable_rank(matrix, k_max, tol)


def subspace_sum(a: SubspaceBasis, b: SubspaceBasis) -> SubspaceBasis:
    """Orthonormal basis of span(a) + span(b) at the coarser tolerance."""
    if a.ambient != b.ambient:
        raise ValueError("dimension mismatch")
    tol = max(a.tol, b.tol)
    cols = np.hstack([a.vectors, b.vectors])
    if cols.shape[1] == 0:
        return SubspaceBasis(cols, tol)
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    thr = tol * s[0] if s[0] > 0 else tol
    rank = int(np.sum(s > thr))
    return SubspaceBasis(u[:, :rank].copy(), tol)


def subspace_intersection(a: SubspaceBasis, b: SubspaceBasis) -> SubspaceBasis:
    """Basis of span(a) meet span(b), sized so that the dimension identity
    dim(a&b) = dim a + dim b - dim(a+b) holds exactly at tolerance."""
    if a.ambient != b.ambient:
        raise ValueError("dimension mismatch")
    tol = max(a.tol, b.tol)
    target = a.dim + b.dim - subspace_sum(a, b).dim
    if target <= 0:
        return SubspaceBasis(np.zeros((a.ambient, 0)), tol)
    u, s, _ = np.linalg.svd(a.vectors.T @ b.vectors)
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


def verify_structure_theorems(
    t: WctOperator,
    ctx: OrliczContext,
    tol: float = DEFAULT_RANK_TOL,
    seed: int = 0,
    n_random: int = 100,
    n_cesaro: int = 200,
    delta: float = 1e-10,
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

    ranks = _power_ranks(m, 6, tol)
    null_dims = [n - r for r in ranks]

    # ascent and the kernel chain
    ascent = ascent_of(m, 8, tol)
    ok = ascent is not None and ascent <= 2
    rows.append(
        make_claim(
            "ascent_bound",
            "none",
            "pass" if ok else "fail",
            detail=f"ascent={ascent}, kernel dims {null_dims}",
            fp=fp,
        )
    )
    chain_ok = all(null_dims[2] == null_dims[2 + j] for j in range(1, 5))
    rows.append(
        make_claim(
            "null_chain_stabilization",
            "none",
            "pass" if chain_ok else "fail",
            detail=f"kernel dims {null_dims}",
            fp=fp,
        )
    )

    # descent under "symbol bounded away from zero on its support"
    h_supp = sorted(support(t.h, 1e-12))
    bounded_away = (not h_supp) or min(abs(t.h[i]) for i in h_supp) >= delta
    hyp_b = "met" if bounded_away else "not_met"
    if bounded_away:
        descent = descent_of(m, 8, tol)
        ok = descent is not None and descent <= 2
        rows.append(
            make_claim(
                "descent_bound",
                hyp_b,
                "pass" if ok else "fail",
                detail=f"descent={descent}, range dims {ranks}, delta={delta:g}",
                fp=fp,
            )
        )
        range_ok = all(ranks[2 + j] == ranks[2] for j in range(1, 5))
        rows.append(
            make_claim(
                "range_chain_stabilization",
                hyp_b,
                "pass" if range_ok else "fail",
                detail=f"range dims {ranks}",
                fp=fp,
            )
        )
    else:
        rows.append(make_claim("descent_bound", hyp_b, "not_checked", fp=fp))
        rows.append(
            make_claim("range_chain_stabilization", hyp_b, "not_checked", fp=fp)
        )

    # intersections and sums
    smax = float(np.linalg.norm(m, 2))

    def power_bases(k: int) -> tuple[SubspaceBasis, SubspaceBasis]:
        power = np.linalg.matrix_power(m, k)
        u, s, vh = np.linalg.svd(power)
        thr = _power_threshold(s, smax, k, tol)
        rank = int(np.sum(s > thr))
        return (
            SubspaceBasis(u[:, :rank].copy(), tol),
            SubspaceBasis(vh[rank:].T.copy(), tol),
        )

    r2, null2 = power_bases(2)
    inter_ok = True
    worst = 0
    for mm in range(1, 5):
        _, null_m = power_bases(mm)
        d = subspace_intersection(r2, null_m).dim
        worst = max(worst, d)
        inter_ok = inter_ok and d == 0
    rows.append(
        make_claim(
            "range_square_null_intersection",
            "none",
            "pass" if inter_ok else "fail",
            residual=float(worst),
            fp=fp,
        )
    )

    if bounded_away:
        sum_ok = True
        for nn in range(1, 5):
            rng_n, _ = power_bases(nn)
            sum_ok = sum_ok and subspace_sum(rng_n, null2).dim == n
        rows.append(
            make_claim(
                "range_plus_null_square",
                hyp_b,
                "pass" if sum_ok else "fail",
                fp=fp,
            )
        )
    else:
        rows.append(make_claim("range_plus_null_square", hyp_b, "not_checked", fp=fp))

    # the symbol-weighted operator is the square in closed form, so its rank
    # cut uses the power-2 noise floor
    mh = t.h[:, None] * m
    u_mh, s_mh, vh_mh = np.linalg.svd(mh)
    thr_mh = _power_threshold(s_mh, smax, 2, tol)
    rank_mh = int(np.sum(s_mh > thr_mh))
    rs = SubspaceBasis(u_mh[:, :rank_mh].copy(), tol)
    ns = SubspaceBasis(vh_mh[rank_mh:].T.copy(), tol)
    ok = subspace_sum(rs, ns).dim == n
    rows.append(
        make_claim(
            "symbol_operator_decomposition",
            "none",
            "pass" if ok else "fail",
            fp=fp,
        )
    )

    # claims under the strict contraction criterion
    psi = complementary(ctx.phi)
    crit = criterion_support(t, ctx.phi, psi)
    criterion_holds = all(abs(t.h[i]) < 1.0 for i in sorted(crit))
    hyp_c = "met" if criterion_holds else "not_met"
    eye = np.eye(n)
    imt = eye - m
    adj = pairing_adjoint(imt, t.space.weights)
    if criterion_holds:
        a1 = ascent_of(imt, 8, tol)
        rows.append(
            make_claim(
                "one_minus_t_ascent",
                hyp_c,
                "pass" if a1 is not None and a1 <= 1 else "fail",
                detail=f"ascent={a1}",
                fp=fp,
            )
        )
        a2 = ascent_of(adj, 8, tol)
        rows.append(
            make_claim(
                "one_minus_t_adjoint_ascent",
                hyp_c,
                "pass" if a2 is not None and a2 <= 1 else "fail",
                detail=f"ascent={a2} (bilinear pairing adjoint)",
                fp=fp,
            )
        )
    else:
        rows.append(make_claim("one_minus_t_ascent", hyp_c, "not_checked", fp=fp))
        rows.append(
            make_claim("one_minus_t_adjoint_ascent", hyp_c, "not_checked", fp=fp)
        )

    # dense sum surrogate: equality with the whole space
    d_sum = subspace_sum(r2, null2).dim
    d_int = subspace_intersection(r2, null2).dim
    ok = d_sum == n and d_int == 0
    rows.append(
        make_claim(
            "square_sum_dense",
            "none",
            "pass" if ok else "fail",
            detail=f"dim sum={d_sum}, dim intersection={d_int} "
            "(density read as equality in finite dimensions)",
            fp=fp,
        )
    )

    if criterion_holds:
        rng_imt = range_space(imt, tol)
        nul_imt = null_space(imt, tol)
        ok = (
            rng_imt.dim + nul_imt.dim == n
            and subspace_intersection(rng_imt, nul_imt).dim == 0
        )
        rows.append(
            make_claim(
                "one_minus_t_direct_sum",
                hyp_c,
                "pass" if ok else "fail",
                detail=f"dims {rng_imt.dim}+{nul_imt.dim} of {n}",
                fp=fp,
            )
        )
    else:
        rows.append(make_claim("one_minus_t_direct_sum", hyp_c, "not_checked", fp=fp))

    # ergodic chain
    if criterion_holds:
        s_imt = np.linalg.svd(imt, compute_uv=False)
        full_rank = bool(s_imt[-1] > tol * s_imt[0]) if s_imt[0] > 0 else False
        # independent route: a linear solve either reproduces the right-hand
        # side or it does not
        probe = np.random.default_rng(seed ^ 0x5EED).uniform(-1.0, 1.0, n)
        try:
            sol = np.linalg.solve(imt, probe)
            solve_ok = bool(
                np.max(np.abs(imt @ sol - probe)) <= 1e-6 * (1.0 + np.max(np.abs(probe)))
            )
        except np.linalg.LinAlgError:
            solve_ok = False
        invertible = solve_ok
        rows.append(
            make_claim(
                "ergodic_invertibility",
                hyp_c,
                "pass" if invertible == full_rank else "fail",
                residual=float(s_imt[-1] / s_imt[0]) if s_imt[0] > 0 else 0.0,
                detail=f"solve route invertible={invertible}, "
                f"full range at tolerance={full_rank}",
                fp=fp,
            )
        )
        rng = np.random.default_rng(seed)
        fs = rng.uniform(-1.0, 1.0, (n, n_random))
        # the 1/n regime starts past the mixing time of the symbol, so the
        # checkpoint horizon stretches when |h| approaches 1
        h_top = float(np.max(np.abs(t.h), initial=0.0))
        n_eff = int(min(1e5, max(n_cesaro, 40.0 / max(1e-4, 1.0 - min(h_top, 1.0)))))
        if invertible:
            target = np.linalg.solve(imt, fs)
            res = []
            for k in (n_eff // 4, n_eff // 2, n_eff):
                bn = b_n_operator(t, k, "closed_form")
                res.append(float(np.max(np.abs(bn @ fs - target))))
            scale = float(np.max(np.abs(target)))
            ok = _decreasing_to_zero(res, 1e-12 * (1.0 + scale))
            rows.append(
                make_claim(
                    "ergodic_bn_convergence",
                    hyp_c,
                    "pass" if ok else "fail",
                    residual=res[-1],
                    detail=f"sup residuals at n={n_eff // 4},{n_eff // 2},{n_eff}: {res}",
                    fp=fp,
                )
            )
        else:
            rows.append(
                make_claim(
                    "ergodic_bn_convergence",
                    hyp_c,
                    "not_checked",
                    detail="I - T numerically singular",
                    fp=fp,
                )
            )
        # Cesaro limit: project onto null(I - T) along range(I - T)
        rng_imt = range_space(imt, tol)
        nul_imt = null_space(imt, tol)
        basis = np.hstack([rng_imt.vectors, nul_imt.vectors])
        ok = False
        residual = None
        if basis.shape[1] == n:
            coeff = np.linalg.solve(basis, fs)
            limit = nul_imt.vectors @ coeff[rng_imt.dim :]
            inv_res = float(np.max(np.abs(m @ limit - limit), initial=0.0))
            res = []
            for k in (n_eff // 4, n_eff // 2, n_eff):
                an = cesaro_mean(t, k, "closed_form")
                res.append(float(np.max(np.abs(an @ fs - limit))))
            scale = float(np.max(np.abs(fs)))
            ok = inv_res <= tol and _decreasing_to_zero(res, 1e-12 * (1.0 + scale))
            residual = inv_res
        rows.append(
            make_claim(
                "ergodic_cesaro_limit",
                hyp_c,
                "pass" if ok else "fail",
                residual=residual,
                detail="limit taken as the projection onto null(I-T) along "
                "range(I-T)",
                fp=fp,
            )
        )
    else:
        for cid in ("ergodic_invertibility", "ergodic_bn_convergence", "ergodic_cesaro_limit"):
            rows.append(make_claim(cid, hyp_c, "not_checked", fp=fp))

    return rows
