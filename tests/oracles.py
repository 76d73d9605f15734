"""Dense and per-instance reference routes for the differential tests.

The package reads every range, kernel, sum and ascent from the per-block
record of an operator. The routes here work on bare n x n arrays instead,
by ``np.linalg.svd`` of the matrix, of its powers or of stacked bases, so
the tests can check the package against them. Bases are plain arrays of
orthonormal columns, and every sum is cut at an explicit tolerance. The
package also reads many operators, or many powers, in one array pass; the
loops here take one operator and one power at a time. Likewise the law
suite draws its trials in one call and checks each law on all of them at
once, where the loop here draws and checks one trial at a time. Random
suites draw their instances in rounds, as arrays, with one filter per
round over the stacked draws; the loop here draws one instance at a time,
building its objects as it goes, and filters each draw alone. A verify
call folds each claim's rows on all its instances as arrays; the merge
here takes one row object at a time.
"""

import itertools

import numpy as np

from orlicz_wct.claims import ClaimResult
from orlicz_wct.condexp import CondExp, LawResult, cond_exp
from orlicz_wct.harness import (
    _ATTEMPTS,
    _YOUNG_FACTORIES,
    _YOUNG_ROTATION,
    ScenarioError,
)
from orlicz_wct.measure import FiniteMeasureSpace, Partition, ess_sup, support
from orlicz_wct.orlicz import (
    OrliczContext,
    _bisected_norms,
    _row_modulars,
    luxemburg_norm,
)
from orlicz_wct.subspace import (
    _BAND,
    _ascent,
    _block_spectra,
    _dense_spectra,
    _noise_floor,
)
from orlicz_wct.wct import BlockWalk, WctOperator
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


def law_draw(rng, n):
    """One trial's f of the law suite: n uniforms on (-3, 3), then n more
    draws that zero about a tenth of them; magnitudes below 1e-2 round to
    exact zeros too."""
    f = rng.uniform(-3.0, 3.0, n)
    f[rng.random(n) < 0.1] = 0.0
    f[np.abs(f) < 1e-2] = 0.0
    return f


def law_columns_loop(e, trials, seed):
    """(f, g) of the law suite as (n_atoms, trials) columns, drawn one
    trial at a time: f, then g's block values."""
    rng = np.random.default_rng(seed)
    f = np.empty((e.space.n_atoms, trials))
    g_blocks = np.empty((e.partition.n_blocks, trials))
    for t in range(trials):
        f[:, t] = law_draw(rng, e.space.n_atoms)
        g_blocks[:, t] = rng.uniform(-3.0, 3.0, e.partition.n_blocks)
    return f, g_blocks[e._labels]


def laws_by_trial(e, phi, trials, tol, seed):
    """The law suite as one loop over the trials, each drawing f and then
    g's block values."""
    rng = np.random.default_rng(seed)
    n = e.space.n_atoms
    ctx = OrliczContext(e.space, phi)
    names = (
        "condexp_product_pullout",
        "condexp_jensen",
        "condexp_positivity",
        "condexp_support_monotone",
        "condexp_support_transfer",
        "condexp_norm_contraction",
    )
    results = {name: LawResult(True, 0.0) for name in names}
    if phi.a_phi > 0:
        results["condexp_support_transfer"] = LawResult(
            None, 0.0, note="requires a gauge vanishing only at zero"
        )

    def fail(name, residual, **ce):
        if results[name].passed:
            results[name] = LawResult(
                False, float(residual), {k: np.asarray(v).tolist() for k, v in ce.items()}
            )

    def bump(name, residual):
        res = results[name]
        if res.passed:
            res.max_residual = max(res.max_residual, float(residual))

    for _ in range(trials):
        f = law_draw(rng, n)
        g_blocks = rng.uniform(-3.0, 3.0, e.partition.n_blocks)
        g = np.empty(n)
        for val, idx in zip(g_blocks, e.partition.index_arrays):
            g[idx] = val

        r = float(np.max(np.abs(cond_exp(e, f * g) - cond_exp(e, f) * g)))
        bump("condexp_product_pullout", r)
        if r > tol:
            fail("condexp_product_pullout", r, f=f, g=g)

        ef = cond_exp(e, f)
        with np.errstate(invalid="ignore"):
            gap = phi(ef) - cond_exp(e, phi(f))
        r = float(np.max(gap[np.isfinite(gap)], initial=-np.inf))
        bump("condexp_jensen", max(r, 0.0))
        if r > tol:
            fail("condexp_jensen", r, f=f)

        fa = np.abs(f)
        efa = cond_exp(e, fa)
        bump("condexp_positivity", max(float(-np.min(efa, initial=0.0)), 0.0))
        if np.min(efa) < -tol:
            fail("condexp_positivity", -np.min(efa), f=fa)

        if not support(fa, 1e-10) <= support(efa, 1e-10):
            fail("condexp_support_monotone", 1.0, f=fa)

        if results["condexp_support_transfer"].passed is not None:
            if support(efa, 1e-10) != support(cond_exp(e, phi(fa)), 1e-10):
                fail("condexp_support_transfer", 1.0, f=fa)

        n_f = luxemburg_norm(ctx, f)
        n_ef = luxemburg_norm(ctx, ef)
        bump("condexp_norm_contraction", max(n_ef - n_f, 0.0))
        if n_ef > n_f + tol:
            fail("condexp_norm_contraction", n_ef - n_f, f=f)
    return results


def power_law_norms_whole(ctx, cols):
    """Luxemburg norms of the columns under a power law c|x|^p, with every
    ulp check on the whole array: the closed form k, then k raised by an
    ulp wherever modular(f/k) <= 1 fails, re-checking all rows each time,
    and bisection for rows still over after 16 ulps; zero columns map to 0."""
    cols = np.asarray(cols, dtype=float)
    out = np.zeros(cols.shape[1])
    sup = np.max(np.abs(cols), axis=0)
    active = sup > 0.0
    rows, sup = np.ascontiguousarray(cols[:, active].T), sup[active]
    p = ctx.phi._power[1]
    k = sup * _row_modulars(ctx, rows / sup[:, None]) ** (1.0 / p)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        over = ~(_row_modulars(ctx, rows / k[:, None]) <= 1.0)
        for _ in range(16):
            if not over.any():
                break
            k[over] = np.nextafter(k[over], np.inf)
            over = ~(_row_modulars(ctx, rows / k[:, None]) <= 1.0)
    if over.any():
        k[over] = _bisected_norms(ctx, rows[over], sup[over])
    out[active] = k
    return out


def random_draw_loop(seed, n_atoms, n_blocks, profile):
    """(u, w, operator, rotation entry) of one random draw, built object by
    object: the partition from the chunks of a permutation, the expectation
    from it, and the per-block rescaling and orthogonalization one block at
    a time."""
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.5, 2.0, n_atoms)
    perm = rng.permutation(n_atoms)
    if n_blocks > 1:
        cuts = np.sort(rng.choice(np.arange(1, n_atoms), n_blocks - 1, replace=False))
    else:
        cuts = np.asarray([], dtype=int)
    blocks = tuple(tuple(sorted(chunk.tolist())) for chunk in np.split(perm, cuts))
    partition = Partition(blocks, n_atoms)
    e = CondExp(FiniteMeasureSpace.from_weights(weights), partition)
    entry = _YOUNG_ROTATION[int(rng.integers(len(_YOUNG_ROTATION)))]

    def sprinkle_zeros(vec, frac=0.15):
        vec[rng.random(vec.size) < frac] = 0.0
        return vec

    if profile == "generic":
        u = sprinkle_zeros(rng.uniform(-2.0, 2.0, n_atoms))
        w = sprinkle_zeros(rng.uniform(-2.0, 2.0, n_atoms))
    elif profile == "nilpotent_h":
        u = rng.uniform(0.5, 2.0, n_atoms) * rng.choice([-1.0, 1.0], n_atoms)
        w = rng.uniform(-2.0, 2.0, n_atoms)
        for idx in partition.index_arrays:
            if idx.size == 1:
                w[idx] = 0.0
                continue
            uu, mass = u[idx], weights[idx]
            coeff = (mass * uu * w[idx]).sum() / (mass * uu * uu).sum()
            w[idx] = w[idx] - coeff * uu
    elif profile in ("contracting_h", "expanding_h"):
        u = rng.uniform(0.5, 2.0, n_atoms)
        w = rng.uniform(0.5, 2.0, n_atoms)
        h = e(u * w)
        lo, hi = (0.2, 0.9) if profile == "contracting_h" else (1.1, 1.5)
        for idx in partition.index_arrays:
            target = rng.uniform(lo, hi)
            w[idx] *= target / h[idx[0]]
    else:  # sparse_support
        u = sprinkle_zeros(rng.uniform(-2.0, 2.0, n_atoms))
        w = rng.uniform(-2.0, 2.0, n_atoms)
        keep = rng.choice(n_atoms, size=max(1, n_atoms // 4), replace=False)
        mask = np.zeros(n_atoms, dtype=bool)
        mask[keep] = True
        w[~mask] = 0.0
    return u, w, WctOperator(u, w, e), entry


def well_conditioned_draw_loop(seed, n_atoms, n_blocks, profile, tol):
    """(accepted seed, u, w, operator, gauge) of the first draw from seed
    whose block spectrum passes ``well_conditioned_loop`` at powers 1..7,
    drawing seed + 7919 j for j = 0, 1, ... one at a time; ScenarioError
    past _ATTEMPTS draws."""
    for j in range(_ATTEMPTS):
        u, w, t, entry = random_draw_loop(seed + 7919 * j, n_atoms, n_blocks, profile)
        spectra = thresholded(iter(_block_spectra(t.block_record, 7)), tol)
        if well_conditioned_loop(spectra, 7, t.h):
            return seed + 7919 * j, u, w, t, _YOUNG_FACTORIES[entry[0]](entry[1])
    raise ScenarioError(
        f"no well-conditioned instance within {_ATTEMPTS} draws from seed "
        f"{seed} at rank tolerance {tol:g}"
    )


def merge_claims(rows: list[ClaimResult]) -> ClaimResult:
    """Aggregate per-instance results for one claim id into a single row,
    one row object at a time: the oracle of ``claims.fold_claims``, which
    folds the same rows held as arrays.

    The merged row fails when any contributing row with a met hypothesis
    failed; its fingerprint points at the first failing instance, and its
    residual is the worst one seen. Its hypothesis is met when some row was
    checked or had its hypothesis met.
    """
    if not rows:
        raise ValueError("cannot merge an empty claim list")
    first = rows[0]
    if any(r.claim_id != first.claim_id for r in rows):
        raise ValueError("merge_claims requires a single claim id")
    checked = [r for r in rows if r.status != "not_checked"]
    failed = [r for r in rows if r.status == "fail"]
    residuals = [r.residual for r in checked if r.residual is not None]
    if failed:
        status, fingerprint = "fail", failed[0].fingerprint
        detail = failed[0].detail
    elif checked:
        status, fingerprint = "pass", first.fingerprint
        detail = checked[0].detail if len(rows) == 1 else None
    else:
        status, fingerprint = "not_checked", first.fingerprint
        detail = first.detail if len(rows) == 1 else None
    hypothesis = first.hypothesis
    if hypothesis != "none":
        # a row can be not_checked with its hypothesis met (an overflow)
        met = checked or any(r.hypothesis == "met" for r in rows)
        hypothesis = "met" if met else "not_met"
    n_checked = len(checked)
    note = f"checked on {n_checked} of {len(rows)} instances"
    return ClaimResult(
        claim_id=first.claim_id,
        anchor=first.anchor,
        hypothesis=hypothesis,
        status=status,
        residual=max(residuals) if residuals else None,
        detail=detail if detail else note,
        fingerprint=fingerprint,
    )
