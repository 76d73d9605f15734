"""Conditional expectation with respect to a partition, its laws, and the
empirical constant of the conditional Hoelder-type inequality.

On a partition sigma-algebra over atoms the expectation is block averaging;
it is the unique block-measurable function with the same block integrals,
so no density machinery is needed. ``CondExp`` labels every atom with its
block once; ``cond_exp`` then gets all block sums of a vector or of (n, m)
columns in one reduction and spreads the averages back through the labels,
with no loop over blocks. The law suite stacks its trials as columns, so
each law is one batched check rather than one check per trial. The
Hoelder-type constant is that of a gauge phi and its conjugate
``phi.conjugate``: the pair comes from one gauge, so it cannot mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .measure import FiniteMeasureSpace, Partition, block_masses
from .orlicz import OrliczContext, luxemburg_norms
from .young import YoungFunction, generalized_inverse

__all__ = [
    "CondExp",
    "cond_exp",
    "check_condexp_laws",
    "CondExpLawReport",
    "LawResult",
    "gch_constant_report",
]


@dataclass(frozen=True)
class CondExp:
    """Block-averaging projection attached to a space and a partition.

    Construction takes the atom -> block labels of the partition and fixes
    the block masses, so no call loops over blocks.
    """

    space: FiniteMeasureSpace
    partition: Partition

    def __post_init__(self):
        partition = self.partition
        if partition.n_atoms != self.space.n_atoms:
            raise ValueError("partition and space disagree on the atom count")
        masses = block_masses(self.space.weights, partition.labels, partition.n_blocks)
        object.__setattr__(self, "_labels", partition.labels)
        object.__setattr__(self, "_block_masses", masses)

    @cached_property
    def _block_weights(self) -> np.ndarray:
        """(blocks x atoms) matrix whose row b holds mu_j on block b's atoms.

        Built on the first call with columns, so vector-only users never
        hold it: kept alive from construction, its 64 KB at 256 atoms raised
        the wide256 benchmark's peak RSS by 10 MB in some checkouts.
        """
        blocks = np.arange(self._block_masses.size)
        return np.where(self._labels == blocks[:, None], self.space.weights, 0.0)

    @property
    def matrix(self) -> np.ndarray:
        """Dense matrix of the projection; row i holds mu_j/mass on i's block."""
        labels = self._labels
        quotients = self.space.weights / self._block_masses[labels]
        return np.where(labels[:, None] == labels, quotients, 0.0)

    def __call__(self, f):
        return cond_exp(self, f)


def cond_exp(e: CondExp, f) -> np.ndarray:
    """Blockwise weighted average; accepts (n,) vectors or (n, m) columns.

    Finite columns get every block sum from one product with the block
    weight matrix. A vector, and columns holding an infinite or NaN entry
    (which the product would spread to every block through 0 * inf), sum
    each block's own entries with one ``bincount`` over (block, column)
    bins.
    """
    f = np.asarray(f, dtype=float)
    n = e.space.n_atoms
    if f.shape[0] != n:
        raise ValueError("function length does not match the space")
    cols = f.reshape(n, -1)
    k, m = e._block_masses.size, cols.shape[1]
    if m > 1 and np.isfinite(cols).all():
        sums = e._block_weights @ cols
    else:
        bins = (e._labels[:, None] * m + np.arange(m)).ravel()
        weighted = (e.space.weights[:, None] * cols).ravel()
        sums = np.bincount(bins, weighted, minlength=k * m).reshape(k, m)
    return (sums / e._block_masses[:, None])[e._labels].reshape(f.shape)


@dataclass
class LawResult:
    passed: bool | None  # None when the law's own hypothesis is not met
    max_residual: float
    counterexample: dict | None = None
    note: str | None = None


@dataclass
class CondExpLawReport:
    laws: dict[str, LawResult]
    trials: int
    seed: int


def _trial_columns(e: CondExp, trials: int, seed: int):
    """(f, g) as (n_atoms, trials) columns of the doubles a loop over the
    trials draws, in its order (f's n uniforms on (-3, 3), n zero-mask values,
    g's k block values), C-contiguous as it fills them, for the same sums."""
    n, k = e.space.n_atoms, e.partition.n_blocks
    u = np.random.default_rng(seed).random((trials, 2 * n + k))
    f = np.ascontiguousarray((-3.0 + 6.0 * u[:, :n]).T)
    # exact zeros exercise the supports; magnitudes below 1e-2 round to zero,
    # as near-threshold values are a float artifact for the support laws
    f[(u[:, n : 2 * n] < 0.1).T | (np.abs(f) < 1e-2)] = 0.0
    g = np.ascontiguousarray((-3.0 + 6.0 * u[:, 2 * n :]).T)[e._labels]
    return f, g


def check_condexp_laws(
    e: CondExp,
    phi: YoungFunction,
    trials: int,
    tol: float = 1e-9,
    seed: int = 0,
) -> CondExpLawReport:
    """Exercise the algebraic laws of the expectation on random draws.

    The support-transfer law compares supports of E(f) and E(phi(f)); it is
    only a theorem for nonnegative f and gauges vanishing exactly at zero,
    so it is skipped when ``phi.a_phi > 0``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    f, g = _trial_columns(e, trials, seed)
    results = {}

    def settle(name, residuals, failed, **ce):
        # as a loop over the trials would: a failing law keeps its first
        # failing trial's residual and counterexample, a passing one the
        # largest residual (at least 0.0)
        hit = np.flatnonzero(failed)
        if hit.size:
            t = hit[0]
            cols = {key: col[:, t].tolist() for key, col in ce.items()}
            results[name] = LawResult(False, float(residuals[t]), cols)
        else:
            results[name] = LawResult(True, max(0.0, float(np.max(residuals))))

    ef = cond_exp(e, f)
    # the norms first, and g dropped after its one law: with fewer (n, trials)
    # arrays alive at once the batch's peak memory stays small
    ctx = OrliczContext(e.space, phi)
    n_f = luxemburg_norms(ctx, f)
    n_ef = luxemburg_norms(ctx, ef)
    r = np.max(np.abs(cond_exp(e, f * g) - ef * g), axis=0)
    settle("condexp_product_pullout", r, r > tol, f=f, g=g)
    del g

    fa = np.abs(f)
    efa = cond_exp(e, fa)
    ephi = cond_exp(e, phi(fa))  # phi(f) is phi(|f|)
    with np.errstate(invalid="ignore"):  # inf - inf where phi is infinite
        gap = phi(ef) - ephi
    r = np.max(np.where(np.isfinite(gap), gap, -np.inf), axis=0)
    settle("condexp_jensen", r, r > tol, f=f)

    r = -np.min(efa, axis=0)
    settle("condexp_positivity", r, r > tol, f=fa)

    def supp(x):
        return np.abs(x) > 1e-10

    failed = np.any(supp(fa) & ~supp(efa), axis=0)
    settle("condexp_support_monotone", failed * 1.0, failed, f=fa)

    if phi.a_phi > 0:
        results["condexp_support_transfer"] = LawResult(
            None, 0.0, note="requires a gauge vanishing only at zero"
        )
    else:
        failed = np.any(supp(efa) != supp(ephi), axis=0)
        settle("condexp_support_transfer", failed * 1.0, failed, f=fa)

    settle("condexp_norm_contraction", n_ef - n_f, n_ef > n_f + tol, f=f)

    return CondExpLawReport(laws=results, trials=trials, seed=seed)


def _gch_ratios(e, phi, f, g):
    """Per-atom ratio of E|fg| to the product of inverted averaged gauges of
    phi and its conjugate psi.

    Accepts single functions or (n, m) columns of paired samples; atoms with
    denominators below 1e-12 (or infinite) contribute nothing.
    """
    num = cond_exp(e, np.abs(f * g))
    psi = phi.conjugate
    den1 = generalized_inverse(phi, cond_exp(e, phi(np.abs(f))))
    den2 = generalized_inverse(psi, cond_exp(e, psi(np.abs(g))))
    with np.errstate(invalid="ignore", divide="ignore"):
        den = den1 * den2  # 0 * inf is NaN and fails the test below
        ratios = np.where(den > 1e-12, num / den, 0.0)
    return np.where(np.isfinite(ratios), ratios, 0.0)


def gch_constant_report(
    e: CondExp, phi: YoungFunction, samples: int, seed: int = 0
) -> tuple[float, dict]:
    """Empirical lower bound for the conditional Hoelder constant of phi
    and ``phi.conjugate``.

    Maximizes the per-atom ratio over sampled pairs, then runs one sweep of
    coordinate ascent from the best pair (batched zooming line searches).
    Returns the constant and the worst pair found; the value is a sampled
    lower bound, never a certificate.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    n = e.space.n_atoms
    fs = rng.uniform(-3.0, 3.0, (n, samples))
    fs[rng.random((n, samples)) < 0.1] = 0.0
    gs = rng.uniform(-3.0, 3.0, (n, samples))
    gs[rng.random((n, samples)) < 0.1] = 0.0
    per_pair = _gch_ratios(e, phi, fs, gs).max(axis=0)
    k = int(np.argmax(per_pair))
    best = float(per_pair[k])
    f, g = fs[:, k].copy(), gs[:, k].copy()

    for vec, fixed, vec_is_f in ((f, g, True), (g, f, False)):
        for i in range(n):
            original = vec[i]
            lo, hi = -3.0, 3.0
            best_c, best_v = original, -np.inf
            for _ in range(3):
                cand = np.linspace(lo, hi, 17)
                cols = np.repeat(vec[:, None], cand.size, axis=1)
                cols[i, :] = cand
                fixed_cols = np.repeat(fixed[:, None], cand.size, axis=1)
                pair = (cols, fixed_cols) if vec_is_f else (fixed_cols, cols)
                vals = _gch_ratios(e, phi, *pair).max(axis=0)
                j = int(np.argmax(vals))
                if vals[j] > best_v:
                    best_v, best_c = float(vals[j]), float(cand[j])
                lo = float(cand[max(j - 1, 0)])
                hi = float(cand[min(j + 1, cand.size - 1)])
            if best_v > best:
                best = best_v
                vec[i] = best_c
            else:
                vec[i] = original
    detail = {
        "constant": best,
        "worst_f": f.tolist(),
        "worst_g": g.tolist(),
        "samples": samples,
        "seed": seed,
        "label": "empirical lower bound",
    }
    return best, detail

