"""Modulars, Luxemburg norms, and Orlicz-space membership on atomic spaces.

Luxemburg norms of power laws phi(x) = c|x|^p are exact: the modular is
p-homogeneous, so N(f) = (c * sum |f_i|^p mu_i)^(1/p). It is computed in one
pass and rounded up an ulp at a time until modular(f/N) <= 1 holds in
floating point. Every other gauge bisects k -> modular(f/k) to a relative
tolerance ``tol``, which governs that route only. The bisection also serves
as the independent oracle for the exact route in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measure import FiniteMeasureSpace
from .young import YoungFunction

__all__ = [
    "OrliczContext",
    "modular",
    "luxemburg_norm",
    "luxemburg_norms",
    "in_orlicz_space",
]


@dataclass(frozen=True)
class OrliczContext:
    """A finite atomic space together with the Young function acting on it."""

    space: FiniteMeasureSpace
    phi: YoungFunction


def modular(ctx: OrliczContext, f) -> float:
    """sum of phi(f_i) * mu_i; +inf as soon as any term is +inf."""
    f = np.asarray(f, dtype=float)
    if f.shape != (ctx.space.n_atoms,):
        raise ValueError("function length does not match the space")
    return float(ctx.phi(f) @ ctx.space.weights)


def _row_modulars(ctx: OrliczContext, rows: np.ndarray) -> np.ndarray:
    """Modular of every row of a C-contiguous (m, n_atoms) array.

    Each row is summed by its own dot product, exactly as ``modular`` sums
    one function, so a bound checked here holds for ``modular`` bit for bit.
    """
    return (ctx.phi(rows)[:, None, :] @ ctx.space.weights[:, None])[:, 0, 0]


def _power_law_norms(
    ctx: OrliczContext, rows: np.ndarray, sup: np.ndarray, tol: float
) -> np.ndarray:
    """Exact norms for phi = c|x|^p, whose modular is p-homogeneous.

    N(f) = s * modular(f/s)^(1/p) for any s > 0; s = max|f| keeps the
    evaluation clear of overflow and underflow. A check pass then raises k
    by an ulp wherever rounding left modular(f/k) above 1 (or NaN, from a
    k that underflowed to 0). Rows still not at most 1 after 16 ulps are
    bisected instead; only weights near the ends of the float range, where
    the evaluator loses accuracy, get there.
    """
    p = ctx.phi._power[1]
    k = sup * _row_modulars(ctx, rows / sup[:, None]) ** (1.0 / p)
    over = ~(_row_modulars(ctx, rows / k[:, None]) <= 1.0)
    for _ in range(16):
        if not over.any():
            return k
        k[over] = np.nextafter(k[over], np.inf)
        over = ~(_row_modulars(ctx, rows / k[:, None]) <= 1.0)
    k[over] = _bisected_norms(ctx, rows[over], sup[over], tol)
    return k


def _bisected_norms(
    ctx: OrliczContext, rows: np.ndarray, sup: np.ndarray, tol: float
) -> np.ndarray:
    """Norms of nonzero rows by bisection on k -> modular(f/k)."""
    tiny = np.finfo(float).tiny
    hi = sup.copy()
    lo = np.maximum(1e-15 * sup, tiny)
    for _ in range(200):
        grow = _row_modulars(ctx, rows / hi[:, None]) > 1.0
        if not grow.any():
            break
        hi[grow] *= 2.0
    for _ in range(200):
        # never shrink into subnormals: a bracket floor of `tiny` already
        # certifies a norm of zero at working precision
        shrink = (_row_modulars(ctx, rows / lo[:, None]) <= 1.0) & (lo > tiny)
        if not shrink.any():
            break
        lo[shrink] *= 0.5
    for _ in range(200):
        if not np.any(hi - lo > tol * hi):
            break
        mid = 0.5 * (lo + hi)
        small = _row_modulars(ctx, rows / mid[:, None]) <= 1.0
        hi = np.where(small, mid, hi)
        lo = np.where(small, lo, mid)
    return hi


def luxemburg_norms(ctx: OrliczContext, cols, tol: float = 1e-10) -> np.ndarray:
    """Luxemburg norm of every column of an (n_atoms, m) array.

    Power laws phi = c|x|^p (``YoungFunction._power`` set) are exact: the
    norm is (c * sum |f_i|^p mu_i)^(1/p), computed in one pass and then
    raised by an ulp at a time until modular(f/k) <= 1 holds in floating
    point, so it sits within a few ulps of the true norm and ``tol`` does
    not apply. Every other gauge bisects the nonincreasing map
    k -> modular(f/k), bracketing until modular(f/k_hi) <= 1 <= modular(f/k_lo),
    then narrowing to relative tolerance ``tol``. Either way the returned k
    satisfies modular(f/k) <= 1, and zero columns map to 0.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    cols = np.asarray(cols, dtype=float)
    if cols.ndim != 2 or cols.shape[0] != ctx.space.n_atoms:
        raise ValueError("cols must have shape (n_atoms, m)")
    if not np.all(np.isfinite(cols)):
        raise ValueError("norms require finite-valued functions")
    out = np.zeros(cols.shape[1])
    sup = np.max(np.abs(cols), axis=0)
    active = sup > 0.0
    if not active.any():
        return out
    rows = np.ascontiguousarray(cols[:, active].T)
    route = _bisected_norms if ctx.phi._power is None else _power_law_norms
    out[active] = route(ctx, rows, sup[active], tol)
    return out


def luxemburg_norm(ctx: OrliczContext, f, tol: float = 1e-10) -> float:
    """N_phi(f) = inf{k > 0 : modular(f/k) <= 1}; 0 for the zero function."""
    f = np.asarray(f, dtype=float)
    return float(luxemburg_norms(ctx, f[:, None], tol)[0])


def in_orlicz_space(ctx: OrliczContext, f) -> bool:
    """Membership test; on finite atomic spaces this is plain finiteness.

    Some k > 0 always scales a finite-valued f below b_phi, and b_phi > 0 by
    construction, so the modular of k*f is finite.
    """
    f = np.asarray(f, dtype=float)
    return bool(np.all(np.isfinite(f)))
