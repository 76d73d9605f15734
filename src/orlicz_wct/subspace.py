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
I - T and its pairing adjoint from the closed-form singular values of
their 2 x 2 triangular cores; the I - T split and the Cesaro projection
take the vectors of its first power's cores, from one stacked SVD. Sums
count the singular values of stacked orthonormal bases above tol times
the largest, and dim(a & b) = dim a + dim b - dim(a + b). Power chains
use thresholds tied to the realized largest singular value of each power
with a noise floor that scales like the base norm to the k-th power, so
kernel detection stays stable whether iterates grow or decay.
``ascent_of`` takes an operator and reads the same chain, with the same
overflow cut. The ergodic rows check the split by solves and products on
the table's ``BlockLayout``.

The pass is a batch: ``verify_structure_theorems`` takes one operator, or
an ``OperatorTable`` of many, and runs over the table's block record and
layout; every per-operator quantity is a max, min or count over the
operator's own segment of the table's arrays, so each operator's rows equal
its rows alone, and the table form returns them as one ``ClaimColumn`` per
claim. ``ascent_of`` reads the same stacked chain for one
operator. Only ``powers_well_conditioned`` keeps a dense route, for bare
matrices: one SVD of M compresses it to a core of at most 2r dimensions for
r = rank M. "Dense" statements are read as subspace equality with the whole
space, the only faithful finite-dimensional interpretation.
Orthogonal-complement arguments are realized through the bilinear pairing
sum f_i g_i mu_i and its adjoint, because the ambient space is generally not
a Hilbert space; every claim that uses an adjoint records that choice.
"""

from __future__ import annotations

import itertools

import numpy as np

from .claims import OVERFLOW_DETAIL, ClaimColumn
from .wct import (
    BlockRecord,
    OperatorTable,
    WctOperator,
    _block_frame,
    _power_sums,
    contraction_criterion,
)
from .young import YoungFunction

__all__ = [
    "ascent_of",
    "verify_structure_theorems",
]

DEFAULT_RANK_TOL = 1e-8

_NOISE_COEFF = 1e-11


def _power(x: float, k: int) -> float:
    """x**k for a float x, inf beyond the float range."""
    try:
        return x**k
    except OverflowError:
        return np.inf


def _noise_floor(base_norm: float, k: int) -> float:
    """The float-noise floor of computing the k-th power of a matrix with
    2-norm base_norm, which scales like base_norm^k (inf beyond the float
    range, 0 for a norm that is not positive)."""
    return _NOISE_COEFF * _power(base_norm, k) if base_norm > 0 else 0.0


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
    h = np.abs(rec.h)
    with np.errstate(over="ignore"):
        return [rec.sigma * h**k for k in range(count)]


def _triangular_values(a, b, c) -> np.ndarray:
    """The singular values of [[a, b], [0, c]], larger first along a new
    last axis, in closed form (Demmel and Kahan): sigma_1 is the mean of
    hypot(a + c, b) and hypot(a - c, b), and sigma_2 = |a c| / sigma_1, 0
    for the zero matrix."""
    with np.errstate(over="ignore", invalid="ignore"):
        top = np.hypot(a + c, b) / 2 + np.hypot(a - c, b) / 2
        low = np.divide(np.abs(a * c), top, out=np.zeros_like(top), where=top > 0)
    return np.stack([top, low], axis=-1)


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
    spectra = np.array(list(itertools.islice(_dense_spectra(matrix), k_max)))
    return _well_conditioned(spectra, tol, symbol)


def block_powers_well_conditioned(
    t: WctOperator, k_max: int = 8, tol: float = DEFAULT_RANK_TOL
) -> bool:
    """``powers_well_conditioned(matrix_of(t), k_max, tol, symbol=t.h)``
    with no SVD: the nonzero singular values of T^k are sigma_B |h_B|^(k-1)
    (``WctOperator.block_record``), and the zeros it leaves out never meet a
    band or a floor. A batch of one of ``records_well_conditioned``."""
    one, tol = np.zeros(1, dtype=int), np.array([tol])
    return bool(records_well_conditioned(t.block_record, one, k_max, tol)[0])


def records_well_conditioned(rec: BlockRecord, starts, k_max: int, tol) -> np.ndarray:
    """Whether the powers 1..k_max of each operator of a block record that
    holds the blocks of many, one after another from ``starts``, are well
    conditioned at its rank tolerance ``tol``: the rule of
    ``powers_well_conditioned`` on each operator's block spectrum and
    symbol, read as reductions over its segment. Random suites re-draw the
    instances it flags."""
    spectra = np.array(_block_spectra(rec, k_max))
    return _conditioned(spectra, starts, tol, np.abs(rec.h), starts)


def _well_conditioned(spectra, tol: float, symbol) -> bool:
    """The rule of ``powers_well_conditioned`` on the singular values of the
    powers 1..k_max of one operator, one row each (``_conditioned`` on one
    segment)."""
    spectra = np.asarray(spectra, dtype=float)
    one = np.zeros(1, dtype=int)
    h = None if symbol is None else np.abs(np.asarray(symbol, dtype=float))
    return bool(_conditioned(spectra, one, np.array([tol]), h, one)[0])


def _conditioned(spectra, starts, tol, h, h_starts) -> np.ndarray:
    """The rule of ``powers_well_conditioned`` for several operators at once.

    ``spectra`` (power, value) holds the singular values of the powers
    1..k_max, one segment of values per operator from ``starts``, and
    ``h`` the absolute symbol, one segment per operator from ``h_starts``
    (or None). A power's threshold is that of ``_chain``. An operator is
    flagged when one of its values lies within the factor ``_BAND`` of its
    power's threshold, or, from the third power on, when min|h on S(h)|^(k-2)
    times its smallest value above the square's threshold does not clear
    the k-th threshold by ``_BAND``; S(h) is where |h| exceeds 1e-12 times
    1 + max|h|. Scalar powers are C's pow, which an array power is not.
    """
    k_max = spectra.shape[0]
    if not k_max:
        return np.ones(starts.size, dtype=bool)
    thr = _thresholds(spectra, starts, tol)
    owner = _owners(starts, spectra.shape[-1])
    at = thr[:, owner]
    # a zero threshold has an empty band
    band = (spectra > at / _BAND) & (spectra <= at * _BAND)
    ok = ~np.logical_or.reduceat(band.any(axis=0), starts)
    if h is None or k_max < 3:
        return ok
    above = np.where(spectra[1] > at[1], spectra[1], np.inf)
    above = np.minimum.reduceat(above, starts)
    top = _owner_max(h, h_starts)[_owners(h_starts, h.size)]
    supp = h > 1e-12 * (1.0 + top)
    h_min = np.minimum.reduceat(np.where(supp, h, np.inf), h_starts)
    # an operator with no value above the square's threshold, or a symbol
    # that vanishes, has no floor to check
    check = np.flatnonzero(ok & (np.maximum(above, h_min) < np.inf))
    if check.size:
        mins = h_min[check].tolist()
        low = np.array([[_power(x, k - 2) for x in mins] for k in range(3, k_max + 1)])
        ok[check] = ~np.any(low * above[check] <= _BAND * thr[2:, check], axis=0)
    return ok


def _ascent(n: int, ranks, k_max: int):
    """The first k <= k_max with rank(A^k) = rank(A^(k+1)), or None, from
    rank(A^0) = n and the ranks of A^1, A^2, ..., read only as far as needed."""
    for k, rank in enumerate(ranks):
        if rank == n:
            return k
        if k == k_max:
            return None
        n = rank


def _owner_sum(x, starts) -> np.ndarray:
    """The count (or integer sum) of x over each owner's segment of the
    last axis."""
    return np.add.reduceat(x, starts, axis=-1, dtype=int)


def _owner_max(x, starts) -> np.ndarray:
    """The largest x over each owner's segment of the last axis; NaN for a
    segment that holds a NaN."""
    return np.maximum.reduceat(x, starts, axis=-1)


def _owners(starts, size: int) -> np.ndarray:
    """The owner of each of ``size`` entries, one segment per owner from
    ``starts``."""
    return np.searchsorted(starts, np.arange(size), side="right") - 1


def _thresholds(spectra, starts, tol, ones=0) -> np.ndarray:
    """The rank threshold per power and operator for ``spectra`` (...,
    power, value), one segment per operator from ``starts``: tol (per
    operator) times the power's largest value, at least its noise floor,
    whose base is the first power's largest value; with ``ones`` further
    values 1 per operator. The floors are C's pow, one scalar each, where
    numpy's power puts one within a factor 2 of tol times the largest
    value, or off the finite floats; elsewhere the floor is below it."""
    top = _owner_max(spectra, starts)
    top = np.where(ones > 0, np.maximum(top, 1.0), top)
    thr = tol * top
    base = np.broadcast_to(top[..., :1, :], top.shape)
    k = np.broadcast_to(np.arange(1, top.shape[-2] + 1)[:, None], top.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        near = ~(np.where(base > 0, _NOISE_COEFF * base**k, 0.0) <= thr / 2)
    if near.any():
        floor = map(_noise_floor, base[near].tolist(), k[near].tolist())
        thr[near] = np.maximum(thr[near], list(floor))
    return thr


def _chain(spectra, starts, tol, ones=0):
    """The rank chains of the powers A^1, A^2, ... of several operators.

    ``spectra`` (..., power, value) holds the singular values of each power,
    one segment of the last axis per operator from ``starts`` (zeros there
    count nowhere), and each operator has ``ones`` further values 1; the
    thresholds are those of ``_thresholds``, with per-operator ``tol``.
    Returns whether each value clears its threshold, the rank per power and
    operator, and per operator the count of leading powers with a finite
    threshold, past which nothing is checked: a threshold is finite exactly
    when its spectrum is, as the largest value, which it reads, is inf or
    NaN as soon as one value is.
    """
    thr = _thresholds(spectra, starts, tol, ones)
    live = spectra > thr[..., _owners(starts, spectra.shape[-1])]
    ranks = _owner_sum(live, starts) + ones * (thr < 1.0)
    return live, ranks, np.cumprod(np.isfinite(thr), axis=-2).sum(axis=-2)


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
    spectra = np.array(_block_spectra(t.block_record, k_max + 1))
    _, ranks, reached = _chain(spectra, np.zeros(1, dtype=int), np.array([tol]))
    reached = int(reached[0])
    if reached <= k_max:
        raise OverflowError(f"power {reached + 1} of the operator overflowed")
    return _ascent(t.space.n_atoms, ranks[:, 0].tolist(), k_max)


# descent hypothesis: |h| >= _DELTA on the support of h
_DELTA = 1e-10
# random probe functions and the least horizon of the ergodic rows
_N_PROBES = 100
_N_CESARO = 200
# the most atoms whose probe columns the ergodic rows hold at once, unless
# one operator has more
_PROBE_ATOMS = 64
_CRITERION_CLAIMS = (
    "one_minus_t_ascent",
    "one_minus_t_adjoint_ascent",
    "one_minus_t_direct_sum",
    "ergodic_invertibility",
    "ergodic_bn_convergence",
    "ergodic_cesaro_limit",
)


def verify_structure_theorems(
    t,
    phi: YoungFunction | None,
    tol=DEFAULT_RANK_TOL,
    seed=0,
    criterion=None,
):
    """One pass/fail row per structural claim, each under its own hypothesis.

    Claims about I - T and density use the bilinear pairing adjoint; rows
    report "not_checked" when their hypothesis fails, never an error. The
    rows come in registry order and carry an empty fingerprint. The gauge
    phi enters only through the criterion: a caller that already holds
    ``contraction_criterion(t, phi)`` passes it as ``criterion``; otherwise
    the pass reads it from the operator, where it is decided once.

    The table form takes an ``OperatorTable`` (phi None), a rank tolerance
    and a sampling seed per row, and whether the criterion holds per row
    (None: the table's ``criterion``), and returns one ``ClaimColumn`` per
    claim from one pass over the table. Every array of the pass grows with
    the number of rows, so a verify call cuts its suite into tables of a
    bounded number of atoms, its rows ordered by atom count.
    """
    if isinstance(t, WctOperator):
        holds = (criterion or contraction_criterion(t, phi))[1]
        tab = OperatorTable.of([t])
        columns = verify_structure_theorems(tab, None, [tol], [seed], [holds])
        return [column.row(0) for column in columns]
    tol = np.broadcast_to(np.asarray(tol, dtype=float), t.n.shape)
    if np.any(tol <= 0):
        raise ValueError("tol must be > 0")
    holds = t.criterion[1] if criterion is None else np.asarray(criterion, dtype=bool)
    return _structure_columns(t, tol, np.broadcast_to(seed, t.n.shape), holds)


def _structure_columns(tab, tol, seeds, holds) -> list[ClaimColumn]:
    """The columns of every row of a table, with its rank tolerance,
    sampling seed and whether the contraction criterion holds, in one
    stacked pass."""
    rec, starts, owner, n = tab.record, tab.starts, tab.block_owner, tab.n
    sigma, h_block, pair = rec.sigma, rec.h, rec.sizes > 1

    # the live counts for k <= 9 give the chains to k = 6 and the ascent
    # (also the descent, by rank-nullity), as in ascent_of
    live, ranks, reached = _chain(np.array(_block_spectra(rec, 9)), starts, tol)
    ranks = np.vstack([n, ranks])

    # sums and intersections enter only through their dimensions: a sum's
    # counts the singular values of the stacked bases above tol times the
    # largest, and dim(a & b) = dim a + dim b - dim(a + b). Where T^i is live
    # on a block R(T^i) is span(e1), and N(T^j) is the whole block, or
    # (u mu)_B^perp where T^j is live. Stacked, span(e1) and (u mu)_B^perp
    # have sqrt(1 +- rho_B/sigma_B) and n_B - 2 ones (the small value as
    # (|h_B|/sigma_B)/sqrt(1 + rho_B/sigma_B), free of cancellation),
    # span(e1) and the block sqrt(2), 0 and n_B - 1 ones (a zero never
    # counts), and any other stack is orthonormal: all ones. The sums of
    # R(T^2) with N(T^k) and of R(T^k) with N(T^2), k = 1..4, at once
    with np.errstate(over="ignore", invalid="ignore"):
        cos, sin = (
            np.divide(v, sigma, out=np.zeros_like(sigma), where=sigma > 0)
            for v in (rec.rho, np.abs(h_block))
        )
    root = np.sqrt(1.0 + cos)
    small = sin / root
    i, j = np.array([2, 2, 2, 2, 1, 3, 4]), np.array([1, 2, 3, 4, 2, 2, 2])
    both, inside = live[i - 1] & live[j - 1] & pair, live[i - 1] & ~live[j - 1]
    n_both, n_inside = _owner_sum(both, starts), _owner_sum(inside, starts)
    ones = n + ranks[i] - ranks[j] - 2 * (n_both + n_inside)
    top = _owner_max(np.where(both, np.maximum(root, small), 0.0), starts)
    top = np.maximum(top, np.where(n_inside > 0, 2**0.5, 0.0))
    top = np.maximum(top, np.where(ones > 0, 1.0, 0.0))
    cut = np.where(top > 0, tol * top, tol)
    sums = n_inside * (2**0.5 > cut) + ones * (1.0 > cut)
    for value in (root, small):
        sums += _owner_sum(both & (value > cut[:, owner]), starts)

    # descent under "symbol bounded away from zero on its support"
    weak = (np.abs(h_block) > 1e-12) & ~(np.abs(h_block) >= _DELTA)
    bounded_away = _owner_sum(weak, starts) == 0

    ascent = _ascents(ranks)
    ascent_ok = (ascent >= 0) & (ascent <= 2)
    ranks = ranks[:7]
    null_dims = n - ranks
    dims = ranks[2] + null_dims[1:5] - sums[:4]
    worst = dims.max(axis=0).astype(float)
    sum2 = sums[1]
    hyp_b = np.where(bounded_away, 1, 2).astype(np.int8)
    stable = (ranks[3:7] == ranks[2]).all(axis=0)

    def kernel(k):
        return null_dims[:, k].tolist()

    def column(cid, hyp, powers, ok, gated=False, **kwargs):
        """The column of a claim that reads powers 1..powers of T: not
        checked where one of them overflowed, and, when gated, with no
        detail where the symbol is not bounded away from zero."""
        out = ClaimColumn(cid, hyp, ok, **kwargs)
        out.unchecked(reached < powers, OVERFLOW_DETAIL)
        return out.unchecked(~bounded_away) if gated else out

    # the rows under the criterion read I - T, which overflowed where T's own
    # spectrum did: they are not checked there, and the rest take one pass
    criterion = _criterion_columns(tab, tol, seeds, holds, holds & (reached > 0))
    return [
        column(
            "ascent_bound", "none", 9, ascent_ok,
            detail=lambda k: f"ascent={_found(ascent, k)}, kernel dims {kernel(k)}",
        ),
        column(
            "null_chain_stabilization", "none", 6, stable,
            detail=lambda k: f"kernel dims {kernel(k)}",
        ),
        column(
            "descent_bound", hyp_b, 9, ascent_ok, gated=True,
            detail=lambda k: f"descent={_found(ascent, k)}, range dims "
            f"{ranks[:, k].tolist()}, delta={_DELTA:g}",
        ),
        column(
            "range_chain_stabilization", hyp_b, 6, stable, gated=True,
            detail=lambda k: f"range dims {ranks[:, k].tolist()}",
        ),
        column("range_square_null_intersection", "none", 4, worst == 0, residual=worst),
        column(
            "range_plus_null_square", hyp_b, 4, (sums[[4, 1, 5, 6]] == n).all(axis=0),
            gated=True,
        ),
        # h*T = T^2 in closed form (h is constant on blocks), so its range
        # and kernel at the power-2 cut are those of T^2
        column("symbol_operator_decomposition", "none", 2, sum2 == n),
        *criterion[:2],
        # dense sum surrogate: equality with the whole space
        column(
            "square_sum_dense", "none", 2, (sum2 == n) & (dims[1] == 0),
            detail=lambda k: f"dim sum={sum2[k]}, dim intersection={dims[1, k]} "
            "(density read as equality in finite dimensions)",
        ),
        *criterion[2:],
    ]


def _criterion_columns(tab, tol, seeds, holds, met) -> list[ClaimColumn]:
    """The columns of ``_CRITERION_CLAIMS``: read on the rows ``met``, whose
    criterion holds and whose powers are finite (``_criterion_facts``),
    overflow rows where a power overflowed, not_met rows elsewhere."""
    rows = np.flatnonzero(met)
    f = {}
    if rows.size:
        met_tab = tab if rows.size == met.size else tab.take(rows)
        f = _criterion_facts(met_tab, tol[rows], seeds[rows])

    def spread(name, *width):
        """The fact on every row of the table, 0 off the rows met."""
        if rows.size == met.size:
            return np.asarray(f[name], dtype=float)
        out = np.zeros((met.size, *width))
        out[rows] = f[name] if rows.size else 0.0
        return out

    a1, a2, split, dim_r, inv, low, top, horizon, inv_res = (
        spread(name) for name in
        ("a1", "a2", "split", "dim_r", "invertible", "low", "top", "n_eff", "inv_res")
    )
    bn, ces, inv, n = spread("bn_res", 3), spread("ces_res", 3), inv > 0, tab.n
    full_rank = dim_r == n
    floor_bn = 1e-12 * (1.0 + spread("scale_bn"))
    floor_ces = 1e-12 * (1.0 + spread("scale_ces"))
    met_hyp = np.where(holds, 1, 2).astype(np.int8)
    columns = [
        ClaimColumn(
            "one_minus_t_ascent", met_hyp, (a1 >= 0) & (a1 <= 1),
            detail=lambda k: f"ascent={_found(a1, k)}",
        ),
        ClaimColumn(
            "one_minus_t_adjoint_ascent", met_hyp, (a2 >= 0) & (a2 <= 1),
            detail=lambda k: f"ascent={_found(a2, k)} (bilinear pairing adjoint)",
        ),
        ClaimColumn(
            "one_minus_t_direct_sum", met_hyp, split == n,
            detail=lambda k: f"dims {int(dim_r[k])}+{n[k] - int(dim_r[k])} of {n[k]}",
        ),
        ClaimColumn(
            "ergodic_invertibility", met_hyp, inv == full_rank,
            residual=np.divide(low, top, out=np.zeros_like(low), where=top > 0),
            detail=lambda k: f"solve route invertible={bool(inv[k])}, "
            f"full range at tolerance={bool(full_rank[k])}",
        ),
        ClaimColumn(
            "ergodic_bn_convergence", met_hyp, _decreasing_to_zero(bn, floor_bn),
            residual=bn[:, -1],
            detail=lambda k: "sup residuals at n={},{},{}: {}".format(
                *(int(horizon[k]) // d for d in (4, 2, 1)), bn[k].tolist()
            ),
        ).unchecked(met & ~inv, "I - T numerically singular"),
        ClaimColumn(
            "ergodic_cesaro_limit", met_hyp,
            (inv_res <= tol) & _decreasing_to_zero(ces, floor_ces),
            residual=inv_res,
            detail="limit taken as the projection onto null(I-T) along range(I-T)",
        ),
    ]
    for out in columns:
        out.unchecked(holds & ~met, OVERFLOW_DETAIL).unchecked(~holds)
    return columns


def _ascents(ranks) -> np.ndarray:
    """Per operator ``_ascent`` with k_max 8, -1 for None, from the ranks
    of A^0..A^9, one row per power."""
    same = ranks[1:] == ranks[:-1]
    return np.where(same.any(axis=0), same.argmax(axis=0), -1)


def _found(ascents: np.ndarray, k: int):
    """The ascent of row k, or None where none was found (-1)."""
    return None if ascents[k] < 0 else int(ascents[k])


def _decreasing_to_zero(residuals: np.ndarray, floor: np.ndarray) -> np.ndarray:
    """Per row of residuals along doubling n: whether they behave like C/n,
    the last within floor or each at most 0.62 times the one before, plus
    floor."""
    steps = residuals[:, 1:] <= 0.62 * residuals[:, :-1] + floor[:, None]
    return (residuals[:, -1] <= floor) | steps.all(axis=1)


def _criterion_facts(tab, tol, seeds) -> dict:
    """The facts under the strict contraction criterion of each row of a
    table, whose criterion holds and whose powers are finite.

    (I - T_B)^k is the core [[(1-h_B)^k, -gamma_k rho_B], [0, 1]] with
    gamma_k = sum_{i<k} (1-h_B)^i, and the pairing adjoint u E(w .) has
    rho'_B from u_B and (w mu)_B in place of rho_B. The rank chains of
    powers 1-9 of both read the closed-form values of these cores
    (``_triangular_values``); only the cores of I - T itself, whose vectors
    and values the split, the invertibility residual and the Cesaro
    projection read, take one stacked SVD, for every block of every row.
    The ergodic rows take one solve of I - T per run of rows of at most
    _PROBE_ATOMS atoms, for the probe columns, which also decides
    invertibility; its products and solves read the run's part of the
    table's layout, one stack per size of block, few where the rows go by
    atom count. Where a block is singular, each row of its run is taken
    alone. The closed forms' sums of every horizon come from one
    ``_power_sums``.
    """
    rec, starts, owner, n = tab.record, tab.starts, tab.block_owner, tab.n
    sigma, h_block, pair = rec.sigma, rec.h, rec.sizes > 1
    y = tab.w * tab.weights
    rho_adj = _block_frame(rec.labels, tab.masses, h_block[rec.labels], tab.u, y).rho
    # per power k = 1..9 and block the core [[a, b], [0, c]] of I - T and of
    # the adjoint
    p = ((1.0 - h_block)[:, None] ** np.arange(10)).T
    a, c = p[1:], pair.astype(float)
    b = -np.cumsum(p[:-1], axis=0) * np.stack([rec.rho, rho_adj])[:, None]
    # only power 1 of I - T needs its vectors, and values to the last bit
    core = np.stack([a[0], b[0, 0], np.zeros_like(c), c], axis=1)
    u, s1, vh = np.linalg.svd(core.reshape(-1, 2, 2))
    trivial = n - _owner_sum(np.minimum(rec.sizes, 2), starts)
    # the spectra of I - T and the adjoint, per block the values of its
    # core, the second a 0 (which counts nowhere) on a one-atom block
    values = _triangular_values(a, b, c)
    values[0, 0] = np.where(pair[:, None] | (np.arange(2) == 0), s1, 0.0)
    ascents = _chain(values.reshape(2, 9, -1), 2 * starts, tol, trivial)[1]

    # the split of I - T at its cut: a block's slot is in the range while
    # its singular value clears the cut, else in the kernel, and the trivial
    # directions join the kernel once the cut reaches 1. A mixed block has
    # range span(u1) and kernel span(v2), which stack to sqrt(1 +- |u1.v2|)
    top = _owner_max(values[0, 0].ravel(), 2 * starts)
    top = np.where(trivial > 0, np.maximum(top, 1.0), top)
    low = np.minimum(s1[:, 0], np.where(pair, s1[:, 1], np.inf))
    low = np.minimum.reduceat(low, starts)
    low = np.where(trivial > 0, np.minimum(low, 1.0), low)
    cut = np.where(top > 0, tol * top, tol)
    above = s1 > cut[owner, None]
    trivial_null = (cut >= 1.0).astype(float)
    dim_r = _owner_sum(above[:, 0], starts) + _owner_sum(above[:, 1] & pair, starts)
    dim_r += trivial * (cut < 1)
    mixed = pair & above[:, 0] & ~above[:, 1]
    u1, v2 = u[:, :, 0], vh[:, 1]
    root = np.sqrt(1.0 + np.abs(np.sum(u1 * v2, axis=1)))
    det = u1[:, 0] * v2[:, 1] - u1[:, 1] * v2[:, 0]
    small = np.abs(det) / root
    n_mixed = _owner_sum(mixed, starts)
    top2 = _owner_max(np.where(mixed, np.maximum(root, small), 0.0), starts)
    top2 = np.maximum(top2, np.where(n > 2 * n_mixed, 1.0, 0.0))
    cut2 = np.where(top2 > 0, tol * top2, tol)
    split = (n - 2 * n_mixed) * (1.0 > cut2)
    for value in (root, small):
        split += _owner_sum(mixed & (value > cut2[owner]), starts)

    # ergodic chain: full range when the split leaves no kernel. The probe
    # columns hold a row per atom, so solves and products go over runs of
    # rows of at most _PROBE_ATOMS atoms in all (or one row), each on the
    # table's layout or its part for the run, and each array is let go, or
    # overwritten, once read
    chunks, first, atoms = [], 0, 0
    for o, size in enumerate(n.tolist()):
        if atoms + size > _PROBE_ATOMS and o > first:
            chunks.append(range(first, o))
            first, atoms = o, 0
        atoms += size
    chunks.append(range(first, n.size))
    atom_starts, atom_owner = tab.atom_starts, tab.atom_owner
    atom_bounds = np.append(atom_starts, n.sum())
    block_bounds = np.append(starts, sigma.size)

    def owner_max(x, c):
        """max |x| over the atoms (and columns) of each row of the run c; x
        is overwritten."""
        x = np.abs(x, out=x)
        x = x.max(axis=1) if x.ndim > 1 else x
        return np.maximum.reduceat(x, atom_starts[c] - atom_starts[c.start])

    # the 1/n regime starts past the mixing time of the symbol, so the
    # checkpoint horizon stretches when |h| approaches 1
    n_eff = np.array([
        int(min(1e5, max(_N_CESARO, 40.0 / max(1e-4, 1.0 - min(h_top, 1.0)))))
        for h_top in _owner_max(np.abs(h_block), starts).tolist()
    ])
    horizons = np.stack([n_eff // 4, n_eff // 2, n_eff], axis=1)

    # per horizon k and atom the closed forms' sums of its h_B: w_n over
    # k - 2 weighted terms and v_n over k - 1 terms, from one _power_sums
    k_atoms = horizons.T[:, atom_owner].astype(float)
    counts = np.hstack([horizons - 2, horizons - 1])[owner]
    sums = _power_sums(h_block, counts, np.arange(6) < 3).T[:, rec.labels]
    w_n, v_n = sums[:3], sums[3:]

    # Cesaro limit: project each block's core coordinates onto N(I - T)
    # along R(I - T) (nothing, everything, or onto v2 along u1 on a mixed
    # block), lift through (e1, e2), and add the trivial part of f when it
    # is in the kernel
    proj = np.where(~above[:, 0, None, None], np.eye(2), 0.0)
    along = np.stack([-u1[:, 1], u1[:, 0]], axis=1)[mixed] / det[mixed, None]
    proj[mixed] = v2[mixed, :, None] * along[:, None, :]
    proj = proj - trivial_null[owner, None, None] * np.eye(2)
    frame = np.stack([rec.e1, rec.e2], axis=1)
    cols = 2 * _N_PROBES
    invertible = np.zeros(n.size, dtype=bool)
    bn_res, ces_res = np.zeros((n.size, 3)), np.zeros((n.size, 3))
    scale_bn, inv_res, scale_ces = np.zeros(n.size), np.zeros(n.size), np.zeros(n.size)
    while chunks:
        c = chunks.pop(0)
        a = slice(atom_bounds[c.start], atom_bounds[c.stop])
        b = slice(block_bounds[c.start], block_bounds[c.stop])
        # a run of every row reads the table's own layout, which the walks
        # share, and another run its part of it
        layout = tab.layout if len(c) == n.size else tab.layout.part(c, a, b)
        imt = layout.eye - layout.m
        fs = np.concatenate([
            np.random.default_rng(seeds[o]).uniform(-1.0, 1.0, (n[o], _N_PROBES))
            for o in c
        ])
        scale = owner_max(np.abs(fs), c)

        def sup_gaps(packed, want):
            """max |x @ fs - want| per row for each packed x."""
            gaps = []
            for x in packed:
                image = layout.apply(x, fs)
                gaps.append(owner_max(np.subtract(image, want, out=image), c))
            return np.array(gaps).T

        # independent route: the solve for the probes either reproduces them
        # or it does not. A run with a singular block is split into runs of
        # one row, and a row whose own solve fails is not invertible
        try:
            target = layout.solve(imt, fs)
        except np.linalg.LinAlgError:
            if len(c) > 1:
                chunks[:0] = [range(o, o + 1) for o in c]
                continue
            target = None
        if target is not None:
            image = layout.apply(imt, target)
            on = owner_max(np.subtract(image, fs, out=image), c) <= 1e-6 * (1.0 + scale)
            del image
            invertible[c.start : c.stop] = on
            if on.any():
                target[~on[atom_owner[a] - c.start]] = 0.0
                bn = [
                    (layout.rows(w[a]) * layout.m + (layout.rows(k[a]) - 1.0) * layout.eye)
                    / layout.rows(k[a])
                    for k, w in zip(k_atoms, w_n)
                ]
                bn_res[c.start : c.stop] = sup_gaps(bn, target)
                scale_bn[c.start : c.stop] = owner_max(target, c)
            del target
        labels = rec.labels[a] - b.start
        coords = np.bincount(
            (labels[:, None] * cols + np.arange(cols)).ravel(),
            (frame[a, :, None] * fs[:, None, :]).ravel(),
            minlength=(b.stop - b.start) * cols,
        )
        coords = proj[b] @ coords.reshape(-1, 2, _N_PROBES)
        limit = np.einsum("ij,ijk->ik", frame[a], coords[labels])
        del coords
        limit += trivial_null[atom_owner[a], None] * fs
        image = layout.apply(layout.m, limit)
        inv_res[c.start : c.stop] = owner_max(np.subtract(image, limit, out=image), c)
        del image
        cesaro = [
            (layout.eye + layout.rows(v[a]) * layout.m) / layout.rows(k[a])
            for k, v in zip(k_atoms, v_n)
        ]
        ces_res[c.start : c.stop] = sup_gaps(cesaro, limit)
        scale_ces[c.start : c.stop] = scale

    a1, a2 = (_ascents(np.vstack([n, ranks])) for ranks in ascents)
    return {
        "a1": a1, "a2": a2, "split": split, "dim_r": dim_r,
        "invertible": invertible, "low": low, "top": top, "n_eff": n_eff,
        "bn_res": bn_res, "scale_bn": scale_bn, "inv_res": inv_res,
        "ces_res": ces_res, "scale_ces": scale_ces,
    }
