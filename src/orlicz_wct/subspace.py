"""Rank-revealing subspace computations and the structure-theorem checks.

T has rank r at most its block count, so the structure pass works in its
range. One dense SVD of M = matrix_of(T), cut at the rounding level n*eps*s0,
gives Q = orth([U_r, V_r]) with d <= 2r columns and the d x d core
C = Q^T M Q; the other n - d directions lie in the kernel of every power of
M, and I - T and its pairing adjoint compress alike (a matrix under 32 atoms
or with 2r >= n is its own core). Every power spectrum, rank chain, range and
kernel basis, sum and intersection of the pass is taken on the core, with the
trivial directions added analytically; every I - T row reads the one split
of the first power of I - T's core. Sums are rank counts of stacked bases,
and dim(a & b) = dim a + dim b - dim(a + b). Power chains use thresholds tied
to the realized largest singular value of each power with a noise floor that
scales like the base norm to the k-th power, so kernel detection stays
stable whether iterates grow or decay. "Dense" statements are read as
subspace equality with the whole space, the only faithful
finite-dimensional interpretation.
Orthogonal-complement arguments are realized through the bilinear pairing
sum f_i g_i mu_i and its adjoint, because the ambient space is generally not
a Hilbert space; every claim that uses an adjoint records that choice.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .claims import ClaimResult, make_claim
from .measure import support
from .orlicz import OrliczContext
from .wct import (
    _CORE_MIN_ATOMS,
    WctOperator,
    b_n_operator,
    block_spectrum,
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


def _relative_cut(top: float, tol: float) -> float:
    """tol times the largest singular value top, or tol when top is 0."""
    return tol * top if top > 0 else tol


def _range_and_null(matrix: np.ndarray, tol: float):
    """Range and null-space bases, cut at tol times the 2-norm."""
    if tol <= 0:
        raise ValueError("tol must be > 0")
    u, s, vh = np.linalg.svd(np.asarray(matrix, dtype=float))
    rank = _sum_rank(s, tol)
    return tuple(SubspaceBasis(c.copy(), tol) for c in (u[:, :rank], vh[rank:].T))


def null_space(matrix: np.ndarray, tol: float = DEFAULT_RANK_TOL) -> SubspaceBasis:
    """Orthonormal basis of the numerical kernel at relative tolerance tol."""
    return _range_and_null(matrix, tol)[1]


def range_space(matrix: np.ndarray, tol: float = DEFAULT_RANK_TOL) -> SubspaceBasis:
    """Orthonormal basis of the column space at relative tolerance tol."""
    return _range_and_null(matrix, tol)[0]


_NOISE_COEFF = 1e-11


def _power_threshold(sing: np.ndarray, base_norm: float, k: int, tol: float) -> float:
    """Rank threshold for the k-th power of a matrix with 2-norm base_norm.

    Relative to the realized largest singular value, but never below the
    float-noise floor of computing the power (which scales like base^k), so
    kernel detection stays stable whether iterates grow or decay.
    """
    realized = float(np.max(sing, initial=0.0))
    floor = _NOISE_COEFF * base_norm**k if base_norm > 0 else 0.0
    return max(tol * realized, floor)


def _sum_rank(s: np.ndarray, tol: float) -> int:
    """The count of singular values s above tol times the largest (tol if 0):
    a matrix's rank, or a subspace sum's dimension from its stacked bases."""
    return int(np.sum(s > _relative_cut(float(np.max(s, initial=0.0)), tol)))


@dataclass(frozen=True)
class _Core:
    """A = Q c Q^T + alpha (I - Q Q^T) on n atoms, for a d x d core c and n x d
    orthonormal q (None when c is A itself). The k-th power is
    Q c^k Q^T + alpha^k (I - Q Q^T), so its spectrum is that of c^k plus
    n - d trivial values |alpha|^k. ``first`` is the SVD of c when the caller
    already holds it.

    A subspace is a pair (columns in the coordinates of Q, whether the n - d
    trivial directions belong to it)."""

    c: np.ndarray
    alpha: float
    n: int
    q: np.ndarray | None = None
    first: tuple | None = None

    @property
    def trivial(self) -> int:
        return self.n - self.c.shape[0]

    def split(self, spectrum: np.ndarray, u: np.ndarray, vh: np.ndarray, k: int, cut):
        """Range and kernel of A^k at cut, from its spectrum and the SVD
        (u, ., vh) of c^k."""
        on = bool(abs(self.alpha) ** k > cut)
        rank = int(np.sum(spectrum > cut)) - self.trivial * on
        return (u[:, :rank], on), (vh[rank:].T, not on)

    def dim(self, sub) -> int:
        return sub[0].shape[1] + self.trivial * sub[1]

    def sum_dim(self, a, b, tol: float) -> int:
        """dim(a + b) by the rank of the stacked bases at tol; the trivial
        directions of both stack to [I, I], whose nonzero singular values are
        sqrt(2)."""
        cols = np.hstack([a[0], b[0]])
        s = np.linalg.svd(cols, compute_uv=False) if cols.size else np.zeros(0)
        ones = np.full(self.trivial * (a[1] or b[1]), np.sqrt(a[1] + b[1]))
        return _sum_rank(np.concatenate([s, ones]), tol)


def _compress(a: np.ndarray, alpha: float, q: np.ndarray | None, first=None) -> _Core:
    """The core c = q^T a q of a = alpha*I + x y^T (up to rounding) for q the
    thin-QR factor of [x, y]. Without q, a is its own core and ``first``, its
    SVD when the caller holds it, seeds the power walk."""
    if q is None:
        return _Core(a, alpha, a.shape[0], None, first)
    return _Core(q.T @ a @ q, alpha, a.shape[0], q)


def _core_of(matrix: np.ndarray):
    """The core of a matrix, and the leading vectors U_r and V_r of its one
    dense SVD: the r singular values above the rounding cut n*eps*s0 (at
    least one). A matrix of fewer than _CORE_MIN_ATOMS rows is its own core,
    with no SVD taken here (U_r and V_r are None), and so is one with
    2r >= n."""
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    if n < _CORE_MIN_ATOMS:
        return _Core(matrix, 0.0, n), None, None
    u, s, vh = factors = np.linalg.svd(matrix)
    r = max(1, int(np.sum(s > n * np.finfo(float).eps * s[0])))
    ur, vr = u[:, :r], vh[:r].T
    q = None if 2 * r >= n else np.linalg.qr(np.hstack([ur, vr]))[0]
    return _compress(matrix, 0.0, q, factors), ur, vr


def _power_spectra(core: _Core, tol: float, n_full: int = 0):
    """(k, spectrum, rank threshold, u, vh) of A^k for k = 1, 2, ..., formed
    by sequential multiplication of the core. Powers up to n_full are
    factored with their singular vectors (u and vh of c^k), later ones by
    singular values alone (u and vh are None); every threshold takes its base
    norm from the first power. A power equal to the one before reuses its
    factors, since every later power equals it too."""
    power, last = core.c, None
    for k in itertools.count(1):
        if k == 1 and core.first is not None:
            u, s, vh = core.first
        elif last is None or not (power == last).all():
            factors = np.linalg.svd(power, compute_uv=k <= n_full)
            u, s, vh = factors if k <= n_full else (None, factors, None)
        if k > n_full:
            u = vh = None
        spectrum = np.concatenate([s, np.full(core.trivial, abs(core.alpha) ** k)])
        if k == 1:
            base = float(np.max(spectrum, initial=0.0))
        yield k, spectrum, _power_threshold(spectrum, base, k, tol), u, vh
        last, power = power, power @ core.c


def _rank_scan(
    core: _Core, tol: float, k_min: int = 0, k_max: int = 8, n_full: int = 0
) -> tuple[list[int], int | None, dict]:
    """Ranks of A^k for k = 0, 1, ... at power-scaled thresholds, the first
    k <= k_max with rank(A^k) = rank(A^(k+1)), or None, and for k = 1, ...,
    n_full the (spectrum, threshold, u, vh) of A^k.

    The scan always reaches max(k_min, n_full), then goes on, at most to
    k_max + 1, only until that k is found.
    """
    ranks, stable, factors = [core.n], None, {}
    for k, s, thr, u, vh in _power_spectra(core, tol, n_full):
        ranks.append(int(np.sum(s > thr)))
        if u is not None:
            factors[k] = (s, thr, u, vh)
        if stable is None and k <= k_max + 1 and ranks[-1] == ranks[-2]:
            stable = k - 1
        if k >= max(k_min, n_full) and (stable is not None or k > k_max):
            return ranks, stable, factors


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
    The spectra here are the dense ones, by SVD;
    ``block_powers_well_conditioned`` applies the same rule to the block
    spectrum of an operator.
    """
    spectra = _power_spectra(_core_of(matrix)[0], tol)
    triples = ((k, s, thr) for k, s, thr, _, _ in spectra)
    return _well_conditioned(triples, k_max, symbol)


def block_powers_well_conditioned(
    t: WctOperator, k_max: int = 8, tol: float = DEFAULT_RANK_TOL
) -> bool:
    """``powers_well_conditioned(matrix_of(t), k_max, tol, symbol=t.h)``
    with no SVD: the nonzero singular values of T^k are sigma_B |h_B|^(k-1)
    (``block_spectrum``), and the zeros it leaves out never meet a band or a
    floor. Random suites re-draw the instances it flags."""
    sigma, h_block = block_spectrum(t)

    def spectra():
        for k in itertools.count(1):
            s = sigma * np.abs(h_block) ** (k - 1)
            if k == 1:
                base = float(np.max(s, initial=0.0))
            yield k, s, _power_threshold(s, base, k, tol)

    return _well_conditioned(spectra(), k_max, t.h)


def _well_conditioned(spectra, k_max: int, symbol) -> bool:
    """The rule of ``powers_well_conditioned`` on the (k, spectrum, rank
    threshold) of the powers k = 1, 2, ..., k_max."""
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


def ascent_of(matrix: np.ndarray, k_max: int = 8, tol: float = DEFAULT_RANK_TOL):
    """Smallest k with dim null(M^k) = dim null(M^(k+1)); None past k_max.

    Dimension equality decides subspace equality because the kernel chain is
    nested; the scan stops at the first stabilization, so only the powers up
    to that point are ever formed.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    return _rank_scan(_core_of(matrix)[0], tol, 0, k_max)[1]


def descent_of(matrix: np.ndarray, k_max: int = 8, tol: float = DEFAULT_RANK_TOL):
    """Smallest k with dim range(M^k) = dim range(M^(k+1)); None past k_max.

    Rank-nullity makes the kernel and range chains stabilize together on a
    square matrix, so this is the ascent scan.
    """
    return ascent_of(matrix, k_max, tol)


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

    # one walk of sequential powers of the core of M gives the chains to
    # k = 6, the ascent (also the descent, by rank-nullity) and the range and
    # kernel of M^k, k <= 4
    core, ur, vr = _core_of(m)
    ranks, ascent, factors = _rank_scan(core, tol, 6, n_full=4)
    ranks = ranks[:7]
    null_dims = [n - r for r in ranks]
    powers = {k: core.split(s, u, vh, k, thr) for k, (s, thr, u, vh) in factors.items()}

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
    # dim(a & b) = dim a + dim b - dim(a + b). Powers that share singular
    # vectors (a rank-one M) stack equal bases, which are factored once.
    sums = {}

    def sum_dim(a, b) -> int:
        key = (a[0].tobytes(), a[1], b[0].tobytes(), b[1])
        if key not in sums:
            sums[key] = core.sum_dim(a, b, tol)
        return sums[key]

    r2, null2 = powers[2]
    dims = [
        core.dim(r2) + core.dim(powers[k][1]) - sum_dim(r2, powers[k][1])
        for k in range(1, 5)
    ]
    worst = float(max(dims))
    yield make_claim(
        "range_square_null_intersection", "none", worst == 0, residual=worst
    )
    ok = None
    if bounded_away:
        ok = all(sum_dim(powers[k][0], null2) == n for k in range(1, 5))
    yield make_claim("range_plus_null_square", hyp_b, ok)

    # h*T = T^2 in closed form (h is constant on blocks), so its range and
    # kernel at the power-2 cut are those of M^2
    sum2 = sum_dim(r2, null2)
    yield make_claim("symbol_operator_decomposition", "none", sum2 == n)

    # claims under the strict contraction criterion; the first power of
    # I - T's core is its one factorization
    hyp_c = "met" if criterion_holds else "not_met"
    if criterion_holds:
        imt = np.eye(n) - m
        imt_core = _compress(imt, 1.0, core.q)
        _, a1, first = _rank_scan(imt_core, tol, n_full=1)
        ok = a1 is not None and a1 <= 1
        yield make_claim("one_minus_t_ascent", hyp_c, ok, detail=f"ascent={a1}")
        # an I - T that is its own pairing adjoint shares its scan; the
        # adjoint is compressed exactly when M is
        w = t.space.weights
        adj = pairing_adjoint(imt, w)
        a2 = a1
        if not np.array_equal(adj, imt):
            q = core.q
            if q is not None:
                q = np.linalg.qr(np.hstack([vr / w[:, None], ur * w[:, None]]))[0]
            a2 = _rank_scan(_compress(adj, 1.0, q), tol)[1]
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
    s1, _, u1, vh1 = first[1]
    top = float(np.max(s1))
    rng_imt, nul_imt = imt_core.split(s1, u1, vh1, 1, _relative_cut(top, tol))
    dim_r, dim_n = imt_core.dim(rng_imt), imt_core.dim(nul_imt)
    yield make_claim(
        "one_minus_t_direct_sum",
        hyp_c,
        dim_r + dim_n == n and imt_core.sum_dim(rng_imt, nul_imt, tol) == n,
        detail=f"dims {dim_r}+{dim_n} of {n}",
    )

    # ergodic chain: full range when the split leaves no kernel
    full_rank = dim_n == 0
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
        residual=float(np.min(s1)) / top if top > 0 else 0.0,
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
    # Cesaro limit: project onto null(I - T) along range(I - T) in the core's
    # coordinates, then lift; the trivial part (I - QQ^T) f joins the kernel
    # when the cut reaches the trivial value 1
    (r_c, _), (n_c, trivial_null) = rng_imt, nul_imt
    q = imt_core.q
    f_c = fs if q is None else q.T @ fs
    limit = n_c @ np.linalg.solve(np.hstack([r_c, n_c]), f_c)[r_c.shape[1] :]
    if q is not None:
        limit = q @ limit + (fs - q @ f_c if trivial_null else 0.0)
    inv_res = float(np.max(np.abs(m @ limit - limit), initial=0.0))
    res = [float(np.max(np.abs(cesaro_mean(t, k) @ fs - limit))) for k in horizons]
    scale = float(np.max(np.abs(fs)))
    yield make_claim(
        "ergodic_cesaro_limit",
        hyp_c,
        inv_res <= tol and _decreasing_to_zero(res, 1e-12 * (1.0 + scale)),
        residual=inv_res,
        detail="limit taken as the projection onto null(I-T) along range(I-T)",
    )
