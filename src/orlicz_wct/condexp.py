"""Conditional expectation with respect to a partition, its laws, and the
empirical constant of the conditional Hoelder-type inequality.

On a partition sigma-algebra over atoms the expectation is block averaging;
it is the unique block-measurable function with the same block integrals,
so no density machinery is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measure import FiniteMeasureSpace, Partition, support
from .orlicz import OrliczContext, luxemburg_norm
from .young import YoungFunction, _conjugate_eval, generalized_inverse

__all__ = [
    "CondExp",
    "cond_exp",
    "check_condexp_laws",
    "CondExpLawReport",
    "LawResult",
    "estimate_gch_constant",
    "gch_constant_report",
]


@dataclass(frozen=True)
class CondExp:
    """Block-averaging projection attached to a space and a partition."""

    space: FiniteMeasureSpace
    partition: Partition

    def __post_init__(self):
        if self.partition.n_atoms != self.space.n_atoms:
            raise ValueError("partition and space disagree on the atom count")
        masses = tuple(
            float(self.space.weights[idx].sum())
            for idx in self.partition.index_arrays
        )
        object.__setattr__(self, "_block_masses", masses)

    @property
    def matrix(self) -> np.ndarray:
        """Dense matrix of the projection; row i holds mu_j/mass on i's block."""
        n = self.space.n_atoms
        out = np.zeros((n, n))
        for idx, mass in zip(self.partition.index_arrays, self._block_masses):
            out[np.ix_(idx, idx)] = self.space.weights[idx][None, :] / mass
        return out

    def __call__(self, f):
        return cond_exp(self, f)


def cond_exp(e: CondExp, f) -> np.ndarray:
    """Blockwise weighted average; accepts (n,) vectors or (n, m) columns."""
    f = np.asarray(f, dtype=float)
    if f.shape[0] != e.space.n_atoms:
        raise ValueError("function length does not match the space")
    out = np.empty_like(f)
    w = e.space.weights
    for idx, mass in zip(e.partition.index_arrays, e._block_masses):
        avg = (w[idx] @ f[idx]) / mass
        out[idx] = avg
    return out


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


def _draw(rng: np.random.Generator, n: int) -> np.ndarray:
    # magnitudes below 1e-2 round to exact zeros: near-threshold values are a
    # float artifact for the support laws, and exact zeros are what exercise
    # supports in the first place
    f = rng.uniform(-3.0, 3.0, n)
    f[rng.random(n) < 0.1] = 0.0
    f[np.abs(f) < 1e-2] = 0.0
    return f


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
        res = results[name]
        if res.passed:
            results[name] = LawResult(
                False, float(residual), {k: np.asarray(v).tolist() for k, v in ce.items()}
            )

    def bump(name, residual):
        res = results[name]
        if res.passed:
            res.max_residual = max(res.max_residual, float(residual))

    for _ in range(trials):
        f = _draw(rng, n)
        g_blocks = rng.uniform(-3.0, 3.0, e.partition.n_blocks)
        g = np.empty(n)
        for val, idx in zip(g_blocks, e.partition.index_arrays):
            g[idx] = val

        lhs = cond_exp(e, f * g)
        rhs = cond_exp(e, f) * g
        r = float(np.max(np.abs(lhs - rhs)))
        bump("condexp_product_pullout", r)
        if r > tol:
            fail("condexp_product_pullout", r, f=f, g=g)

        ef = cond_exp(e, f)
        phi_ef, e_phi_f = phi(ef), cond_exp(e, phi(f))
        with np.errstate(invalid="ignore"):  # inf - inf where phi is infinite
            gap = phi_ef - e_phi_f
        gap = gap[np.isfinite(gap)]
        r = float(np.max(gap, initial=-np.inf))
        bump("condexp_jensen", max(r, 0.0))
        if r > tol:
            fail("condexp_jensen", r, f=f)

        fa = np.abs(f)
        efa = cond_exp(e, fa)
        r = float(-np.min(efa, initial=0.0))
        bump("condexp_positivity", max(r, 0.0))
        if np.min(efa) < -tol:
            fail("condexp_positivity", -np.min(efa), f=fa)

        if not support(fa, 1e-10) <= support(efa, 1e-10):
            fail("condexp_support_monotone", 1.0, f=fa)

        if results["condexp_support_transfer"].passed is not None:
            s1 = support(efa, 1e-10)
            s2 = support(cond_exp(e, phi(fa)), 1e-10)
            if s1 != s2:
                fail("condexp_support_transfer", 1.0, f=fa)

        n_f = luxemburg_norm(ctx, f)
        n_ef = luxemburg_norm(ctx, ef)
        bump("condexp_norm_contraction", max(n_ef - n_f, 0.0))
        if n_ef > n_f + tol:
            fail("condexp_norm_contraction", n_ef - n_f, f=f)

    return CondExpLawReport(laws=results, trials=trials, seed=seed)


def _audit_conjugate_pair(phi: YoungFunction, psi: YoungFunction) -> None:
    """Reject a psi that is not the complementary function of phi.

    Two grid audits: Young's inequality must hold, and psi must agree with a
    numerically maximized conjugate of phi (the inequality alone would
    accept any dominating gauge). The maximization runs here rather than
    through ``complementary``, so exact conjugates meet an independent route.
    Where raising the search cap moves the numeric value, the maximizer lies
    in the far tail (or the conjugate is infinite) and the value is only a
    lower bound for psi.
    """
    xs = np.logspace(-2, 2, 25)
    x, y = np.meshgrid(xs, xs)
    lhs = x * y
    rhs = phi(x) + psi(y)
    if np.any(lhs > rhs + 1e-8 * (1.0 + lhs)):
        raise ValueError("psi is not complementary to phi: Young audit failed")
    ref = _conjugate_eval(phi, xs, grid_max=1e9, grid_n=129)
    wide = _conjugate_eval(phi, xs, grid_max=1e12, grid_n=129)
    settled = np.abs(wide - ref) <= 1e-9 * (1.0 + np.abs(ref))
    vals_psi = psi(xs)
    if np.any(settled & ~np.isfinite(vals_psi)):
        raise ValueError("psi is not complementary to phi: finiteness mismatch")
    slack = 1e-5 * (1.0 + np.abs(ref))
    if np.any(vals_psi < ref - slack) or np.any(settled & (vals_psi > ref + slack)):
        raise ValueError("psi is not complementary to phi: conjugate audit failed")


def _gch_ratios(e, phi, psi, f, g):
    """Per-atom ratio of E|fg| to the product of inverted averaged gauges.

    Accepts single functions or (n, m) columns of paired samples; atoms with
    denominators below 1e-12 (or infinite) contribute nothing.
    """
    num = cond_exp(e, np.abs(f * g))
    den1 = generalized_inverse(phi, cond_exp(e, phi(np.abs(f))))
    den2 = generalized_inverse(psi, cond_exp(e, psi(np.abs(g))))
    with np.errstate(invalid="ignore", divide="ignore"):
        den = den1 * den2  # 0 * inf is NaN and fails the test below
        ratios = np.where(den > 1e-12, num / den, 0.0)
    return np.where(np.isfinite(ratios), ratios, 0.0)


def gch_constant_report(
    e: CondExp,
    phi: YoungFunction,
    psi: YoungFunction,
    samples: int,
    seed: int = 0,
) -> tuple[float, dict]:
    """Empirical lower bound for the conditional Hoelder constant.

    Maximizes the per-atom ratio over sampled pairs, then runs one sweep of
    coordinate ascent from the best pair (batched zooming line searches).
    Returns the constant and the worst pair found; the value is a sampled
    lower bound, never a certificate.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    _audit_conjugate_pair(phi, psi)
    rng = np.random.default_rng(seed)
    n = e.space.n_atoms
    fs = rng.uniform(-3.0, 3.0, (n, samples))
    fs[rng.random((n, samples)) < 0.1] = 0.0
    gs = rng.uniform(-3.0, 3.0, (n, samples))
    gs[rng.random((n, samples)) < 0.1] = 0.0
    per_pair = _gch_ratios(e, phi, psi, fs, gs).max(axis=0)
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
                vals = _gch_ratios(e, phi, psi, *pair).max(axis=0)
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


def estimate_gch_constant(
    e: CondExp,
    phi: YoungFunction,
    psi: YoungFunction,
    samples: int,
    seed: int = 0,
) -> float:
    value, _ = gch_constant_report(e, phi, psi, samples, seed)
    return value
