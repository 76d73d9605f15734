"""Weighted conditional operators f -> w * E(u * f): matrices, iterates,
Cesaro means, norm bounds, and power-boundedness diagnostics.

Every closed form below factors through the cached symbol h = E(u*w): the
n-th power multiplies the operator by h^(n-1), and the Cesaro data are
geometric sums in h, accumulated with numpy in blocks of a fixed number of
powers, so that their memory does not grow with n. The one direct route is
``power_walk``: a single walk I, T, T^2, ... of sequential products that
serves T^n, A_n and B_n for every requested n at once, and against which the
closed forms are checked. ``contraction_criterion`` alone decides the strict
contraction criterion |h| < 1 on the criterion support.

On a power law phi = c|x|^p with p > 1 the operator norms are exact: each
block piece T_B = (w 1_B)(u mu 1_B)^T / mu(B) has rank one, the pieces have
disjoint supports and the Luxemburg norm is c^(1/p) times the L^p(mu) norm,
so ||T^n|| = max_B |h_B|^(n-1) (E_B|w|^p)^(1/p) (E_B|u|^q)^(1/q) with
q = p/(p-1) (``exact_norm_powers``). ``power_bounded_report`` samples norm
ratios only for the other gauges.
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
    "power_walk",
    "bound_constant",
    "contraction_criterion",
    "exact_norm_powers",
    "power_bounded_report",
    "PowerBoundedReport",
    "pairing_adjoint",
]

# absolute threshold of the criterion support: an atom is in it when both
# inverted averaged gauges exceed this value there
_SUPPORT_EPS = 1e-10


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


def iterate(t: WctOperator, n: int) -> np.ndarray:
    """Matrix of the n-th power in closed form: diag(h^(n-1)) times T."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (t.h ** (n - 1))[:, None] * matrix_of(t)


def power_walk(
    t: WctOperator, a_ns=(), b_ns=(), t_ns=()
) -> tuple[dict, dict, dict]:
    """A_n for n in a_ns, B_n for n in b_ns and T^n for n in t_ns, by one walk.

    The walk forms P_0 = I, P_(k+1) = P_k @ M once, up to the largest power
    any result needs; T^n is P_n. A_n sums P_0, ..., P_(n-1) onto zeros;
    B_n adds (n-1-k) P_k onto (n-1) I for k = 1, ..., n-2. Each result gets
    the products and additions of its own per-n loop in the same order, so
    it equals that loop bit for bit.
    """
    if min(a_ns, default=1) < 1 or min(t_ns, default=1) < 1:
        raise ValueError("A_n and T^n need n >= 1")
    if min(b_ns, default=2) < 2:
        raise ValueError("B_n needs n >= 2")
    m = matrix_of(t)
    eye = np.eye(t.space.n_atoms)
    top = max([n - 1 for n in a_ns] + [n - 2 for n in b_ns] + list(t_ns))
    total = np.zeros_like(eye)
    b_acc = {n: (n - 1) * eye for n in b_ns}
    a_out, t_out = {}, {}
    power = eye
    for k in range(top + 1):
        if k:
            power = power @ m
            for n, acc in b_acc.items():
                if k <= n - 2:
                    acc += (n - 1 - k) * power
            if k in t_ns:
                t_out[k] = power
        total += power
        if k + 1 in a_ns:
            a_out[k + 1] = total / (k + 1)
    return a_out, {n: acc / n for n, acc in b_acc.items()}, t_out


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


def cesaro_mean(t: WctOperator, n: int) -> np.ndarray:
    """(I + T + ... + T^(n-1)) / n in closed form: (I + diag(v_n) T) / n with
    v_n = sum h^i over i < n-1, accumulated by ``_power_sum``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    eye = np.eye(t.space.n_atoms)
    if n == 1:
        return eye
    v_n = _power_sum(t.h, n - 1, weighted=False)
    return (eye + v_n[:, None] * matrix_of(t)) / n


def b_n_operator(t: WctOperator, n: int) -> np.ndarray:
    """(T^(n-2) + 2 T^(n-3) + ... + (n-2) T + (n-1) I) / n for n >= 2, in
    closed form: (diag(w_n) T + (n-1) I)/n with w_n = sum over i of
    (n-i-1) h^(i-1), i from 1 to n-2, accumulated by ``_power_sum``."""
    if n < 2:
        raise ValueError("n must be >= 2")
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


def contraction_criterion(
    t: WctOperator, phi: YoungFunction, psi: YoungFunction
) -> tuple[list[int], bool]:
    """The criterion support and whether the strict contraction criterion
    |h| < 1 holds on it.

    The support is the sorted list of atoms in S(phi_inv(E(phi|w|)))
    intersected with S(psi_inv(E(psi|u|))).
    """
    sw = generalized_inverse(phi, cond_exp(t.e, phi(np.abs(t.w))))
    su = generalized_inverse(psi, cond_exp(t.e, psi(np.abs(t.u))))
    crit = sorted(support(sw, _SUPPORT_EPS) & support(su, _SUPPORT_EPS))
    return crit, all(abs(t.h[i]) < 1.0 for i in crit)


def exact_norm_powers(
    t: WctOperator, phi: YoungFunction, n_max: int
) -> list[float] | None:
    """[||T^n|| on L^phi for n = 1..n_max] when phi = c|x|^p with p > 1,
    and None for every other gauge.

    The norm of the block piece T_B is the L^p norm of w 1_B times the L^q
    norm of u 1_B / mu(B), which is (E_B|w|^p)^(1/p) (E_B|u|^q)^(1/q): the
    powers of mu(B) cancel, and so does c. T^n is h^(n-1) T, and the pieces
    have disjoint supports, so ||T^n|| is the largest |h_B|^(n-1) times the
    norm of T_B. Two conditional expectations give every block norm.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if phi._power is None or phi._power[1] <= 1:
        return None
    p = phi._power[1]
    q = p / (p - 1.0)
    block = (
        cond_exp(t.e, np.abs(t.w) ** p) ** (1.0 / p)
        * cond_exp(t.e, np.abs(t.u) ** q) ** (1.0 / q)
    )
    # only blocks with a nonzero piece count: elsewhere h = 0 as well, and
    # an overflowing |h|^(n-1) must not meet a zero norm
    live = block > 0
    if not live.any():
        return [0.0] * n_max
    block, h = block[live], np.abs(t.h[live])
    norms, hpow = [], np.ones_like(h)
    with np.errstate(over="ignore"):
        for _ in range(n_max):
            norms.append(float(np.max(hpow * block)))
            hpow = hpow * h
    return norms


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
    exact: bool
    note: str = (
        "the symbol norm sequence is read as sup norms of symbol powers; "
        "norm estimates are exact block norms for power-law gauges and "
        "otherwise use one shared sample set across all powers"
    )


def power_bounded_report(
    t: WctOperator,
    phi: YoungFunction,
    psi: YoungFunction,
    n_max: int,
    samples: int = 64,
    seed: int = 0,
    criterion: tuple[list[int], bool] | None = None,
) -> PowerBoundedReport:
    """Strict-contraction criterion plus horizon norms of the powers.

    The criterion asks |h| < 1 on the joint support of the inverted averaged
    gauges of |w| and |u|; a caller that already holds
    ``contraction_criterion(t, phi, psi)`` passes it as ``criterion``. The
    norms are ``exact_norm_powers`` wherever that is not None (then
    ``exact`` is set and ``samples`` and ``seed`` go unused). Other gauges
    get sampled lower estimates: all powers share one sample set, so the
    horizon comparison inherits the pointwise domination
    |T^n f| <= ||h||_inf^(n-1) |T f| without estimator noise.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    if criterion is None:
        criterion = contraction_criterion(t, phi, psi)
    crit_idx, criterion_holds = criterion
    h_sup = ess_sup(t.h)

    estimates = exact_norm_powers(t, phi, n_max)
    exact = estimates is not None
    if not exact:
        estimates = _sampled_norm_powers(t, phi, n_max, samples, seed)
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
        exact=exact,
    )


def _sampled_norm_powers(
    t: WctOperator, phi: YoungFunction, n_max: int, samples: int, seed: int
) -> list[float]:
    """Largest N(T^n f)/N(f), n = 1..n_max, over the atom indicators and
    ``samples`` uniform draws: lower estimates of the operator norms."""
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
    return [float(v) for v in np.max(stacked_norms / base[None, :], axis=1)]
