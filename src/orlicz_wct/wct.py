"""Weighted conditional operators f -> w * E(u * f): matrices, iterates,
Cesaro means, norm bounds, and power-boundedness diagnostics.

Every closed form below factors through the cached symbol h = E(u*w): the
n-th power multiplies the operator by h^(n-1), and the Cesaro data are
geometric sums in h, accumulated with numpy in blocks of a fixed number of
powers, so that their memory does not grow with n. The direct Cesaro and
remainder routes share one walk I, T, T^2, ... of sequential products, which
serves every requested n at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .condexp import CondExp, cond_exp
from .measure import ess_sup, support
from .orlicz import OrliczContext, luxemburg_norms
from .young import YoungFunction, generalized_inverse

__all__ = [
    "WctOperator",
    "apply",
    "matrix_of",
    "iterate",
    "cesaro_mean",
    "b_n_operator",
    "bound_constant",
    "power_bounded_report",
    "PowerBoundedReport",
    "pairing_adjoint",
]

_MODES = ("direct", "closed_form")


@dataclass(frozen=True)
class WctOperator:
    """The operator f -> w * E(u * f) with cached symbol h = E(u * w).

    The dense matrix is built once, here, and stored read-only; ``matrix_of``
    hands out that one array.
    """

    u: np.ndarray
    w: np.ndarray
    e: CondExp

    def __post_init__(self):
        u = self.e.space.function(self.u)
        w = self.e.space.function(self.w)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "h", cond_exp(self.e, u * w))
        m = (w[:, None] * self.e.matrix) * u[None, :]
        m.flags.writeable = False
        object.__setattr__(self, "_matrix", m)

    @property
    def space(self):
        return self.e.space

    def __call__(self, f):
        return apply(self, f)


def apply(t: WctOperator, f) -> np.ndarray:
    """w * E(u * f); accepts (n,) vectors or (n, m) columns."""
    f = np.asarray(f, dtype=float)
    uf = t.u[:, None] * f if f.ndim == 2 else t.u * f
    ef = cond_exp(t.e, uf)
    return t.w[:, None] * ef if f.ndim == 2 else t.w * ef


def matrix_of(t: WctOperator) -> np.ndarray:
    """Dense matrix whose columns are the images of atom indicators.

    The operator's cached read-only array: the same object on every call.
    """
    return t._matrix


def _check_mode(mode: str):
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")


def iterate(t: WctOperator, n: int, mode: str = "closed_form") -> np.ndarray:
    """Matrix of the n-th power, by repeated multiplication or via the symbol."""
    _check_mode(mode)
    if n < 1:
        raise ValueError("n must be >= 1")
    m = matrix_of(t)
    if mode == "direct":
        return np.linalg.matrix_power(m, n)
    return (t.h ** (n - 1))[:, None] * m


def _direct_sums(t: WctOperator, a_ns=(), b_ns=()) -> tuple[dict, dict]:
    """A_n for each n in a_ns and B_n for each n in b_ns, by one walk.

    The walk forms P_0 = I, P_(k+1) = P_k @ M once, up to the largest power
    any result needs. A_n sums P_0, ..., P_(n-1) onto zeros; B_n adds
    (n-1-k) P_k onto (n-1) I for k = 1, ..., n-2. Each result gets the
    additions of its own per-n loop in the same order, so it equals that
    loop bit for bit.
    """
    m = matrix_of(t)
    eye = np.eye(t.space.n_atoms)
    top = max([n - 1 for n in a_ns] + [n - 2 for n in b_ns])
    total = np.zeros_like(eye)
    b_acc = {n: (n - 1) * eye for n in b_ns}
    a_out = {}
    power = eye
    for k in range(top + 1):
        if k:
            power = power @ m
            for n, acc in b_acc.items():
                if k <= n - 2:
                    acc += (n - 1 - k) * power
        total += power
        if k + 1 in a_ns:
            a_out[k + 1] = total / (k + 1)
    return a_out, {n: acc / n for n, acc in b_acc.items()}


_BLOCK = 512


def _power_sum(h: np.ndarray, n_terms: int, weighted: bool) -> np.ndarray:
    """sum of c_j h^j over j < n_terms, c_j = n_terms - j if weighted else 1.

    h^j is the running product 1 * h * ... * h, and the terms are added onto
    zeros in order of j, so the result equals that loop bit for bit. The
    terms are formed _BLOCK powers at a time, carrying the next power and
    the partial sum from block to block, so memory does not grow with n_terms.
    """
    total = np.zeros_like(h)
    hpow = np.ones_like(h)
    for start in range(0, n_terms, _BLOCK):
        size = min(_BLOCK, n_terms - start)
        terms = np.repeat(hpow[:, None], size, axis=1)
        # a product that h maps to itself (0, inf, or a subnormal that
        # rounds back) stays put; multiplying it again only costs time, as
        # subnormal products are slow, so only the moving rows are multiplied
        moving = hpow * h != hpow
        rows = slice(None) if moving.all() else moving
        terms[rows, 1:] = h[rows, None]
        terms[rows] = np.multiply.accumulate(terms[rows], axis=1)
        hpow = terms[:, -1] * h
        if weighted:
            terms *= np.arange(n_terms - start, n_terms - start - size, -1.0)
        terms[:, 0] = total + terms[:, 0]
        total = np.add.accumulate(terms, axis=1)[:, -1]
    return total


def cesaro_mean(t: WctOperator, n: int, mode: str = "closed_form") -> np.ndarray:
    """(I + T + ... + T^(n-1)) / n.

    Direct: one walk of sequential products (``_direct_sums``). Closed form:
    (I + diag(v_n) T) / n with v_n = sum h^i over i < n-1, accumulated by
    ``_power_sum``.
    """
    _check_mode(mode)
    if n < 1:
        raise ValueError("n must be >= 1")
    if mode == "direct":
        return _direct_sums(t, a_ns=(n,))[0][n]
    eye = np.eye(t.space.n_atoms)
    if n == 1:
        return eye
    v_n = _power_sum(t.h, n - 1, weighted=False)
    return (eye + v_n[:, None] * matrix_of(t)) / n


def b_n_operator(t: WctOperator, n: int, mode: str = "closed_form") -> np.ndarray:
    """(T^(n-2) + 2 T^(n-3) + ... + (n-2) T + (n-1) I) / n for n >= 2.

    Direct: one walk of sequential products (``_direct_sums``). Closed form:
    (diag(w_n) T + (n-1) I)/n with w_n = sum over i of (n-i-1) h^(i-1),
    i from 1 to n-2, accumulated by ``_power_sum``.
    """
    _check_mode(mode)
    if n < 2:
        raise ValueError("n must be >= 2")
    if mode == "direct":
        return _direct_sums(t, b_ns=(n,))[1][n]
    w_n = _power_sum(t.h, n - 2, weighted=True)
    return (w_n[:, None] * matrix_of(t) + (n - 1) * np.eye(t.space.n_atoms)) / n


def bound_constant(
    t: WctOperator, phi: YoungFunction, psi: YoungFunction, c_gch: float
) -> float:
    """C * M with M = ess sup of |w| * psi_inv(E(psi(|u|))).

    Contract: N_phi(T f) <= C * M * N_phi(f) whenever c_gch bounds the
    conditional Hoelder constant for this expectation and pair.
    """
    if c_gch <= 0:
        raise ValueError("c_gch must be > 0")
    weight = generalized_inverse(psi, cond_exp(t.e, psi(np.abs(t.u))))
    m_const = ess_sup(t.w * weight)
    return c_gch * m_const


def pairing_adjoint(matrix: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Adjoint with respect to the bilinear pairing sum f_i g_i mu_i."""
    matrix = np.asarray(matrix, dtype=float)
    weights = np.asarray(weights, dtype=float)
    return (matrix.T * weights[None, :]) / weights[:, None]


def criterion_support(
    t: WctOperator, phi: YoungFunction, psi: YoungFunction, eps: float = 1e-10
) -> set[int]:
    """Atoms in S(phi_inv(E(phi|w|))) intersected with S(psi_inv(E(psi|u|)))."""
    sw = generalized_inverse(phi, cond_exp(t.e, phi(np.abs(t.w))))
    su = generalized_inverse(psi, cond_exp(t.e, psi(np.abs(t.u))))
    return support(sw, eps) & support(su, eps)


@dataclass
class PowerBoundedReport:
    criterion_holds: bool
    sup_norm_estimate: float
    h_sup: float
    norm_estimates: list[float]
    criterion_support: list[int]
    horizon_bounded: bool
    horizon_equivalence_ok: bool
    n_max: int
    samples: int
    seed: int
    note: str = (
        "the symbol norm sequence is read as sup norms of symbol powers; "
        "norm estimates use one shared sample set across all powers"
    )


def power_bounded_report(
    t: WctOperator,
    phi: YoungFunction,
    psi: YoungFunction,
    n_max: int,
    samples: int = 64,
    seed: int = 0,
) -> PowerBoundedReport:
    """Strict-contraction criterion plus horizon norm estimates.

    The criterion asks |h| < 1 on the joint support of the inverted averaged
    gauges of |w| and |u|. Norm estimates for all powers share one sample set
    so that the horizon comparison inherits the pointwise domination
    |T^n f| <= ||h||_inf^(n-1) |T f| without estimator noise.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    crit = criterion_support(t, phi, psi)
    crit_idx = sorted(crit)
    criterion_holds = all(abs(t.h[i]) < 1.0 for i in crit_idx)
    h_sup = ess_sup(t.h)

    rng = np.random.default_rng(seed)
    n = t.space.n_atoms
    cols = np.hstack([np.eye(n), rng.uniform(-1.0, 1.0, (n, samples))])
    ctx = OrliczContext(t.space, phi)
    base = luxemburg_norms(ctx, cols)
    keep = base > 0
    cols, base = cols[:, keep], base[keep]
    m = matrix_of(t)
    images = []
    image = cols
    for _ in range(n_max):
        image = m @ image
        images.append(image)
    stacked_norms = luxemburg_norms(ctx, np.hstack(images)).reshape(n_max, -1)
    estimates = [float(v) for v in np.max(stacked_norms / base[None, :], axis=1)]
    sup_norm = max(estimates)

    hpow_sup = [h_sup**k for k in range(1, n_max + 1)]
    horizon_bounded = max(hpow_sup) <= 1.0 + 1e-9
    horizon_equivalence_ok = horizon_bounded == (h_sup <= 1.0 + 1e-12)

    return PowerBoundedReport(
        criterion_holds=bool(criterion_holds),
        sup_norm_estimate=sup_norm,
        h_sup=h_sup,
        norm_estimates=estimates,
        criterion_support=crit_idx,
        horizon_bounded=bool(horizon_bounded),
        horizon_equivalence_ok=bool(horizon_equivalence_ok),
        n_max=n_max,
        samples=samples,
        seed=seed,
    )

