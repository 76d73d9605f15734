"""Weighted conditional operators f -> w * E(u * f): matrices, iterates,
Cesaro means, norm bounds, and power-boundedness diagnostics.

Every closed form below factors through the cached symbol h = E(u*w): the
n-th power multiplies the operator by h^(n-1), and the Cesaro data are
geometric sums in h.
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


def cesaro_mean(t: WctOperator, n: int, mode: str = "closed_form") -> np.ndarray:
    """(I + T + ... + T^(n-1)) / n; the closed form uses v_n = sum h^i, i < n-1."""
    _check_mode(mode)
    if n < 1:
        raise ValueError("n must be >= 1")
    dim = t.space.n_atoms
    eye = np.eye(dim)
    if mode == "direct":
        acc = np.zeros((dim, dim))
        power = eye
        m = matrix_of(t)
        for _ in range(n):
            acc += power
            power = power @ m
        return acc / n
    if n == 1:
        return eye
    v_n = np.zeros(dim)
    hpow = np.ones(dim)
    for _ in range(n - 1):
        v_n += hpow
        hpow *= t.h
    return (eye + v_n[:, None] * matrix_of(t)) / n


def b_n_operator(t: WctOperator, n: int, mode: str = "closed_form") -> np.ndarray:
    """(T^(n-2) + 2 T^(n-3) + ... + (n-2) T + (n-1) I) / n for n >= 2.

    Closed form: (diag(w_n) T + (n-1) I)/n with w_n = sum over i of
    (n-i-1) h^(i-1), i from 1 to n-2.
    """
    _check_mode(mode)
    if n < 2:
        raise ValueError("n must be >= 2")
    dim = t.space.n_atoms
    eye = np.eye(dim)
    if mode == "direct":
        m = matrix_of(t)
        acc = (n - 1) * eye
        power = eye
        for k in range(1, n - 1):
            power = power @ m
            acc += (n - 1 - k) * power
        return acc / n
    w_n = np.zeros(dim)
    hpow = np.ones(dim)
    for i in range(1, n - 1):
        w_n += (n - i - 1) * hpow
        hpow *= t.h
    return (w_n[:, None] * matrix_of(t) + (n - 1) * eye) / n


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

