"""The structure-theorem checks, read from the per-block spectrum.

On a partition T is the direct sum of rank-one blocks
T_B = w_B (u mu)_B^T / mu(B), so every range, kernel, sum and intersection
of the structure pass is a per-block fact, read from the operator's
``BlockRecord``. With (u mu)'_B the part of (u mu)_B orthogonal to w_B, in
the basis (w_B/||w_B||, (u mu)'_B/||(u mu)'_B||) T_B is the 2 x 2 core
[[h_B, rho_B], [0, 0]] with rho_B = ||w_B|| ||(u mu)'_B|| / mu(B); a
one-atom block's core is [h_B], and every other direction is trivial,
with value 0 for T and 1 for I - T. The pass reads the rank chains of T
from sigma_B |h_B|^(k-1), the sums of ranges and kernels from the
closed-form singular values of their stacked bases, and the chains of
I - T and its pairing adjoint, the I - T split and the Cesaro projection
from one stacked SVD of 2 x 2 cores. Sums count the singular values of
stacked orthonormal bases above tol times the largest, and
dim(a & b) = dim a + dim b - dim(a + b). Power chains use thresholds tied
to the realized largest singular value of each power with a noise floor that
scales like the base norm to the k-th power, so kernel detection stays
stable whether iterates grow or decay. ``ascent_of`` takes an operator and
reads the same chain, with the same overflow cut. The ergodic rows check the
split by solves and products on the operator's ``BlockLayout``. Only
``powers_well_conditioned`` keeps a dense route, for bare matrices: one SVD
of M compresses it to a core of at most 2r dimensions for r = rank M.
"Dense" statements are read as subspace equality with the whole space, the
only faithful finite-dimensional interpretation.
Orthogonal-complement arguments are realized through the bilinear pairing
sum f_i g_i mu_i and its adjoint, because the ambient space is generally not
a Hilbert space; every claim that uses an adjoint records that choice.
"""

from __future__ import annotations

import itertools

import numpy as np

from .claims import ClaimResult, make_claim, overflow_claim
from .measure import support
from .wct import (
    WctOperator,
    BlockRecord,
    _block_frame,
    b_n_operator,
    cesaro_mean,
    contraction_criterion,
)
from .young import YoungFunction

__all__ = [
    "ascent_of",
    "verify_structure_theorems",
]

DEFAULT_RANK_TOL = 1e-8


def _relative_cut(top: float, tol: float) -> float:
    """tol times the largest singular value top, or tol when top is 0."""
    return tol * top if top > 0 else tol


_NOISE_COEFF = 1e-11


def _power_threshold(sing: np.ndarray, base_norm: float, k: int, tol: float) -> float:
    """Rank threshold for the k-th power of a matrix with 2-norm base_norm.

    Relative to the realized largest singular value, but never below the
    float-noise floor of computing the power (which scales like base^k), so
    kernel detection stays stable whether iterates grow or decay.
    """
    realized = float(np.max(sing, initial=0.0))
    try:
        floor = _NOISE_COEFF * base_norm**k if base_norm > 0 else 0.0
    except OverflowError:  # base_norm**k is beyond the float range
        floor = np.inf
    return max(tol * realized, floor)


def _sum_rank(s: np.ndarray, tol: float) -> int:
    """The count of singular values s above tol times the largest (tol if 0):
    a matrix's rank, or a subspace sum's dimension from its stacked bases."""
    return int(np.sum(s > _relative_cut(float(np.max(s, initial=0.0)), tol)))


def _thresholded(spectra, tol: float):
    """(k, spectrum, rank threshold) of A^k for k = 1, 2, ..., from the
    singular values of each power; every threshold takes its base norm from
    the first power."""
    for k, s in enumerate(spectra, 1):
        if k == 1:
            base = float(np.max(s, initial=0.0))
        yield k, s, _power_threshold(s, base, k, tol)


def _dense_spectra(matrix: np.ndarray):
    """The nonzero singular values of M^k, k = 1, 2, ..., for a bare matrix.
    One SVD of M, cut at the rounding level n*eps*s0 (at least one value),
    gives Q = orth([U_r, V_r]); M^k = Q c^k Q^T with the core c = Q^T M Q, so
    each power's values are those of the next sequential power of c."""
    matrix = np.asarray(matrix, dtype=float)
    u, s, vh = np.linalg.svd(matrix)
    r = max(1, int(np.sum(s > matrix.shape[0] * np.finfo(float).eps * s[0])))
    q = np.linalg.qr(np.hstack([u[:, :r], vh[:r].T]))[0]
    core = power = q.T @ matrix @ q
    while True:
        yield np.linalg.svd(power, compute_uv=False)
        power = power @ core


def _block_spectra(rec: BlockRecord, count: int) -> list[np.ndarray]:
    """The nonzero singular values of T^k, k = 1..count: sigma_B |h_B|^(k-1)
    per block, from the operator's ``BlockRecord``, with no SVD; a power
    that overflows holds inf."""
    with np.errstate(over="ignore"):
        return [rec.sigma * np.abs(rec.h) ** k for k in range(count)]


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
    return _well_conditioned(_thresholded(_dense_spectra(matrix), tol), k_max, symbol)


def block_powers_well_conditioned(
    t: WctOperator, k_max: int = 8, tol: float = DEFAULT_RANK_TOL
) -> bool:
    """``powers_well_conditioned(matrix_of(t), k_max, tol, symbol=t.h)``
    with no SVD: the nonzero singular values of T^k are sigma_B |h_B|^(k-1)
    (``WctOperator.block_record``), and the zeros it leaves out never meet a
    band or a floor. Random suites re-draw the instances it flags."""
    spectra = _block_spectra(t.block_record, k_max)
    return _well_conditioned(_thresholded(spectra, tol), k_max, t.h)


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


def _ranks(spectra, tol: float):
    """rank(A^k) for k = 1, 2, ...: the singular values above each power's
    threshold."""
    return (int(np.sum(s > thr)) for _, s, thr in _thresholded(spectra, tol))


def _rank_chain(rec: BlockRecord, count: int, tol: float):
    """(live, reached) for T^k, k = 1..count: per power, the blocks with
    sigma_B |h_B|^(k-1) above its threshold, and the count of leading powers
    with a finite spectrum and threshold, past which nothing is checked."""
    chain = list(_thresholded(_block_spectra(rec, count), tol))
    finite = [np.isfinite(thr) and np.isfinite(s).all() for _, s, thr in chain]
    return [s > thr for _, s, thr in chain], (finite + [False]).index(False)


def _ascent(n: int, ranks, k_max: int):
    """The first k <= k_max with rank(A^k) = rank(A^(k+1)), or None, from
    rank(A^0) = n and the ranks of A^1, A^2, ..., read only as far as needed."""
    for k, rank in enumerate(ranks):
        if rank == n:
            return k
        if k == k_max:
            return None
        n = rank


def ascent_of(t: WctOperator, k_max: int = 8, tol: float = DEFAULT_RANK_TOL):
    """Smallest k with dim null(T^k) = dim null(T^(k+1)); None past k_max.

    The powers have the block spectrum (the chain of the structure pass).
    Dimension equality decides subspace equality because the kernel chain
    is nested, and by rank-nullity the range chain stabilizes at the same
    k, so this is also the descent. OverflowError when one of the powers
    1..k_max+1 that the chain reads overflowed.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    live, reached = _rank_chain(t.block_record, k_max + 1, tol)
    if reached <= k_max:
        raise OverflowError(f"power {reached + 1} of the operator overflowed")
    return _ascent(t.space.n_atoms, (int(np.sum(on)) for on in live), k_max)


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
    phi: YoungFunction,
    tol: float = DEFAULT_RANK_TOL,
    seed: int = 0,
    criterion: tuple[list[int], bool] | None = None,
) -> list[ClaimResult]:
    """One pass/fail row per structural claim, each under its own hypothesis.

    Claims about I - T and density use the bilinear pairing adjoint; rows
    report "not_checked" when their hypothesis fails, never an error. The
    rows come in registry order and carry an empty fingerprint. The gauge
    phi enters only through the criterion: a caller that already holds
    ``contraction_criterion(t, phi)`` passes it as ``criterion``; otherwise
    the pass computes it.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    if criterion is None:
        criterion = contraction_criterion(t, phi)
    return list(_structure_rows(t, tol, seed, criterion[1]))


def _structure_rows(t: WctOperator, tol: float, seed: int, criterion_holds: bool):
    n = t.space.n_atoms
    rec = t.block_record
    sigma, h_block, rho, pair = rec.sigma, rec.h, rec.rho, rec.sizes > 1

    # the live counts for k <= 9 give the chains to k = 6 and the ascent
    # (also the descent, by rank-nullity), as in ascent_of
    live, reached = _rank_chain(rec, 9, tol)
    ranks = [n] + [int(np.sum(on)) for on in live]
    ascent = _ascent(n, ranks[1:], 8)
    ranks = ranks[:7]
    null_dims = [n - r for r in ranks]

    def claim(cid: str, hyp: str, k: int, ok, **kwargs):
        """The row of a claim that reads powers 1..k of T."""
        if ok is not None and k > reached:
            return overflow_claim(cid, hyp)
        return make_claim(cid, hyp, ok, **kwargs)

    # ascent and the kernel chain
    yield claim(
        "ascent_bound",
        "none",
        9,
        ascent is not None and ascent <= 2,
        detail=f"ascent={ascent}, kernel dims {null_dims}",
    )
    yield claim(
        "null_chain_stabilization",
        "none",
        6,
        all(null_dims[2] == null_dims[2 + j] for j in range(1, 5)),
        detail=f"kernel dims {null_dims}",
    )

    # descent under "symbol bounded away from zero on its support"
    h_supp = sorted(support(t.h, 1e-12))
    bounded_away = (not h_supp) or min(abs(t.h[i]) for i in h_supp) >= _DELTA
    hyp_b = "met" if bounded_away else "not_met"
    if bounded_away:
        yield claim(
            "descent_bound",
            hyp_b,
            9,
            ascent is not None and ascent <= 2,
            detail=f"descent={ascent}, range dims {ranks}, delta={_DELTA:g}",
        )
        yield claim(
            "range_chain_stabilization",
            hyp_b,
            6,
            all(ranks[2 + j] == ranks[2] for j in range(1, 5)),
            detail=f"range dims {ranks}",
        )
    else:
        for cid in ("descent_bound", "range_chain_stabilization"):
            yield make_claim(cid, hyp_b, None)

    # sums and intersections enter only through their dimensions: a sum's
    # counts the singular values of the stacked bases above tol times the
    # largest, and dim(a & b) = dim a + dim b - dim(a + b). Where T^i is live
    # on a block R(T^i) is span(e1), and N(T^j) is the whole block, or
    # (u mu)_B^perp where T^j is live. Stacked, span(e1) and (u mu)_B^perp
    # have sqrt(1 +- rho_B/sigma_B) and n_B - 2 ones (the small value as
    # (|h_B|/sigma_B)/sqrt(1 + rho_B/sigma_B), free of cancellation),
    # span(e1) and the block sqrt(2), 0 and n_B - 1 ones (a zero never
    # counts), and any other stack is orthonormal: all ones
    cos, sin = (
        np.divide(v, sigma, out=np.zeros_like(sigma), where=sigma > 0)
        for v in (rho, np.abs(h_block))
    )
    root = np.sqrt(1.0 + cos)

    def sum_dim(i: int, j: int) -> int:
        r, k = live[i - 1], live[j - 1]
        both, inside = r & k & pair, r & ~k
        ones = n + ranks[i] - ranks[j] - 2 * int(np.sum(both) + np.sum(inside))
        values = [root[both], sin[both] / root[both], np.full(np.sum(inside), 2**0.5)]
        return _sum_rank(np.concatenate(values + [np.ones(ones)]), tol)

    dims = [ranks[2] + null_dims[k] - sum_dim(2, k) for k in range(1, 5)]
    worst = float(max(dims))
    yield claim(
        "range_square_null_intersection", "none", 4, worst == 0, residual=worst
    )
    ok = None
    if bounded_away:
        ok = all(sum_dim(k, 2) == n for k in range(1, 5))
    yield claim("range_plus_null_square", hyp_b, 4, ok)

    # h*T = T^2 in closed form (h is constant on blocks), so its range and
    # kernel at the power-2 cut are those of T^2
    sum2 = sum_dim(2, 2)
    yield claim("symbol_operator_decomposition", "none", 2, sum2 == n)

    # claims under the strict contraction criterion. (I - T_B)^k is the core
    # [[(1-h_B)^k, -gamma_k rho_B], [0, 1]] with gamma_k = sum_{i<k} (1-h_B)^i,
    # and the pairing adjoint u E(w .) has rho'_B from u_B and (w mu)_B in
    # place of rho_B; one stacked SVD factors powers 1-9 of both
    hyp_c = "met" if criterion_holds else "not_met"
    if criterion_holds:
        rho_adj = _block_frame(t.e, t.h, t.u, t.w * t.space.weights).rho
        p = (1.0 - h_block)[:, None] ** np.arange(10)
        cores = np.zeros((2, sigma.size, 9, 2, 2))
        cores[..., 0, 0] = p[:, 1:]
        gamma = np.cumsum(p[:, :-1], axis=1)
        cores[..., 0, 1] = -gamma * np.stack([rho, rho_adj])[..., None]
        cores[..., 1, 1] = pair[:, None]
        u, s, vh = np.linalg.svd(cores)
        trivial = np.ones(n - int(np.sum(np.minimum(rec.sizes, 2))))

        def spectra(op: int):
            for k in range(9):
                yield np.concatenate([s[op, :, k, 0], s[op, pair, k, 1], trivial])

        a1, a2 = (_ascent(n, _ranks(spectra(op), tol), 8) for op in (0, 1))
        ok = a1 is not None and a1 <= 1
        yield make_claim("one_minus_t_ascent", hyp_c, ok, detail=f"ascent={a1}")
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
    yield claim(
        "square_sum_dense",
        "none",
        2,
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
    # the split of I - T at its cut: a block's slot is in the range while
    # its singular value clears the cut, else in the kernel, and the trivial
    # directions join the kernel once the cut reaches 1. A mixed block has
    # range span(u1) and kernel span(v2), which stack to sqrt(1 +- |u1.v2|)
    s1 = next(spectra(0))
    top = float(np.max(s1))
    cut = _relative_cut(top, tol)
    above = s[0, :, 0] > cut
    trivial_null = float(cut >= 1.0)
    dim_r = int(np.sum(above[:, 0]) + np.sum(above[pair, 1]) + trivial.size * (cut < 1))
    mixed = pair & above[:, 0] & ~above[:, 1]
    u1, v2 = u[0, :, 0, :, 0], vh[0, :, 0, 1]
    cos1 = np.abs(np.sum(u1 * v2, axis=1))[mixed]
    det = u1[:, 0] * v2[:, 1] - u1[:, 1] * v2[:, 0]
    stacked = [np.sqrt(1.0 + cos1), np.abs(det[mixed]) / np.sqrt(1.0 + cos1)]
    stacked.append(np.ones(n - 2 * cos1.size))
    yield make_claim(
        "one_minus_t_direct_sum",
        hyp_c,
        _sum_rank(np.concatenate(stacked), tol) == n,
        detail=f"dims {dim_r}+{n - dim_r} of {n}",
    )

    # ergodic chain: full range when the split leaves no kernel
    full_rank = dim_r == n
    # independent route: a linear solve either reproduces the right-hand
    # side or it does not; solves and products go block by block
    layout = t.block_layout
    imt = layout.eye - layout.m
    probe = np.random.default_rng(seed ^ 0x5EED).uniform(-1.0, 1.0, n)
    try:
        gap = np.max(np.abs(layout.apply(imt, layout.solve(imt, probe)) - probe))
        invertible = bool(gap <= 1e-6 * (1.0 + np.max(np.abs(probe))))
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

    def sup_gap(x, want):
        """max |x @ fs - want| for a packed x."""
        return float(np.max(np.abs(layout.apply(x, fs) - want)))

    if invertible:
        target = layout.solve(imt, fs)
        res = [sup_gap(b_n_operator(layout, k), target) for k in horizons]
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
    # Cesaro limit: project each block's core coordinates onto N(I - T)
    # along R(I - T) (nothing, everything, or onto v2 along u1 on a mixed
    # block), lift through (e1, e2), and add the trivial part of f when it
    # is in the kernel
    proj = np.where(~above[:, 0, None, None], np.eye(2), 0.0)
    along = np.stack([-u1[:, 1], u1[:, 0]], axis=1)[mixed] / det[mixed, None]
    proj[mixed] = v2[mixed, :, None] * along[:, None, :]
    frame = np.stack([rec.e1, rec.e2], axis=1)
    cols = 2 * _N_PROBES
    bins = (rec.labels[:, None] * cols + np.arange(cols)).ravel()
    coords = frame[:, :, None] * fs[:, None, :]
    coords = np.bincount(bins, coords.ravel(), minlength=sigma.size * cols)
    coords = (proj - trivial_null * np.eye(2)) @ coords.reshape(-1, 2, _N_PROBES)
    limit = np.einsum("ij,ijk->ik", frame, coords[rec.labels]) + trivial_null * fs
    inv_res = float(np.max(np.abs(layout.apply(layout.m, limit) - limit), initial=0.0))
    res = [sup_gap(cesaro_mean(layout, k), limit) for k in horizons]
    scale = float(np.max(np.abs(fs)))
    yield make_claim(
        "ergodic_cesaro_limit",
        hyp_c,
        inv_res <= tol and _decreasing_to_zero(res, 1e-12 * (1.0 + scale)),
        residual=inv_res,
        detail="limit taken as the projection onto null(I-T) along range(I-T)",
    )
