"""Modulars and Luxemburg norms on atomic spaces.

Luxemburg norms of power laws phi(x) = c|x|^p are exact: the modular is
p-homogeneous, so N(f) = (c * sum |f_i|^p mu_i)^(1/p). It is computed in one
pass and rounded up an ulp at a time until modular(f/N) <= 1 holds in
floating point. Every other gauge bisects k -> modular(f/k) to the fixed
relative tolerance ``_BISECTION_TOL`` = 1e-10, which governs that route
only. The bisection also serves as the independent oracle for the exact
route in the tests.
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
]

# relative width at which the bisection route stops
_BISECTION_TOL = 1e-10


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
    ctx: OrliczContext, rows: np.ndarray, sup: np.ndarray
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
    # a k that underflowed to 0 gives inf or NaN here, which fails the check
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        over = ~(_row_modulars(ctx, rows / k[:, None]) <= 1.0)
        for _ in range(16):
            if not over.any():
                return k
            k[over] = np.nextafter(k[over], np.inf)
            over = ~(_row_modulars(ctx, rows / k[:, None]) <= 1.0)
    k[over] = _bisected_norms(ctx, rows[over], sup[over])
    return k


def _bisected_norms(
    ctx: OrliczContext, rows: np.ndarray, sup: np.ndarray
) -> np.ndarray:
    """Norms of nonzero rows by bisection on k -> modular(f/k).

    The bracket starts at max|f| and grows or shrinks by factors 2, 4, 16,
    ..., 2^2048, so it holds the norm within a dozen steps wherever it lies
    in the float range. Bisection on the geometric mean narrows it to
    hi/lo <= 2, then arithmetic bisection to relative width 1e-10.
    """
    big, least = np.finfo(float).max, np.finfo(float).smallest_subnormal

    def fits(k):
        # f/k overflows for tiny k, and the modular of an inf is inf
        with np.errstate(over="ignore", invalid="ignore"):
            return _row_modulars(ctx, rows / k[:, None]) <= 1.0

    lo, hi = sup.copy(), sup.copy()
    for j in range(12):
        grow, shrink = ~fits(hi) & (hi < big), fits(lo) & (lo > least)
        if not (grow.any() or shrink.any()):
            break
        with np.errstate(over="ignore", under="ignore"):
            lo[grow], hi[grow] = hi[grow], np.minimum(np.ldexp(hi[grow], 1 << j), big)
            hi[shrink] = lo[shrink]
            lo[shrink] = np.maximum(np.ldexp(lo[shrink], -(1 << j)), least)
    for _ in range(200):
        if not np.any(hi - lo > _BISECTION_TOL * hi):
            break
        geometric = np.sqrt(lo) * np.sqrt(hi)
        mid = np.where(hi / 2.0 > lo, geometric, lo + 0.5 * (hi - lo))
        small = fits(mid)
        hi, lo = np.where(small, mid, hi), np.where(small, lo, mid)
    return hi


def luxemburg_norms(ctx: OrliczContext, cols) -> np.ndarray:
    """Luxemburg norm of every column of an (n_atoms, m) array.

    Power laws phi = c|x|^p (``YoungFunction._power`` set) are exact: the
    norm is (c * sum |f_i|^p mu_i)^(1/p), computed in one pass and then
    raised by an ulp at a time until modular(f/k) <= 1 holds in floating
    point, so it sits within a few ulps of the true norm. Every other gauge
    bisects the nonincreasing map k -> modular(f/k), bracketing until
    modular(f/k_hi) <= 1 <= modular(f/k_lo), then narrowing to relative
    tolerance 1e-10. Either way the returned k satisfies modular(f/k) <= 1,
    and zero columns map to 0.
    """
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
    out[active] = route(ctx, rows, sup[active])
    return out


def luxemburg_norm(ctx: OrliczContext, f) -> float:
    """N_phi(f) = inf{k > 0 : modular(f/k) <= 1}; 0 for the zero function."""
    f = np.asarray(f, dtype=float)
    return float(luxemburg_norms(ctx, f[:, None])[0])

