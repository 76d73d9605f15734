"""Young functions: catalog, conjugation, generalized inverses, growth checks.

A Young function here is an even convex evaluator with phi(0) = 0 that may
take the value +inf beyond ``b_phi``. Evaluation is vectorized over numpy
arrays.

Power laws phi(x) = c|x|^p (``power_scaled`` is c = 1/p, ``power_plain`` is
c = 1) are exact: their generalized inverse is (y/c)^(1/p) and, for p > 1,
their conjugate is again a power law c'|y|^q with q = p/(p-1), whose inverse
is exact too. Every other gauge (``exp_type``, ``deadzone``, ``capped``,
p = 1 powers, user-built evaluators) is numeric: its conjugate maximizes
x*|y| - phi(x), which is concave in x for fixed y, and its inverse bisects.
The numeric routes also serve as independent oracles for the exact ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "YoungFunction",
    "power_scaled",
    "power_plain",
    "exp_type",
    "deadzone",
    "capped",
    "complementary",
    "generalized_inverse",
    "check_growth_condition",
    "GrowthReport",
]

_BRACKET_CAP = 1e15


class YoungFunction:
    """Even convex gauge with phi(0) = 0, audited on a grid at construction.

    ``inverse_hint``, when set, computes the generalized inverse directly;
    power laws use it for their closed form, and numeric conjugates to avoid
    bisecting over their own maximizer. ``_power`` is the pair (c, p) of a
    power law phi(x) = c|x|^p, set by the factories and None otherwise.
    """

    def __init__(self, kind, params, fn, a_phi=0.0, b_phi=np.inf, inverse_hint=None):
        self.kind = str(kind)
        self.params = tuple(float(p) for p in params)
        self._fn = fn
        self.a_phi = float(a_phi)
        self.b_phi = float(b_phi)
        self._inverse_hint = inverse_hint
        self._power = None
        if not self.b_phi > 0:
            raise ValueError("b_phi must be > 0")
        if self.a_phi < 0:
            raise ValueError("a_phi must be >= 0")
        self._audit()

    def __call__(self, x):
        x = np.abs(np.asarray(x, dtype=float))
        scalar = x.ndim == 0
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.asarray(self._fn(np.atleast_1d(x)), dtype=float)
        if scalar:
            return float(out[0])
        return out

    def __repr__(self):
        inner = ", ".join(repr(p) for p in self.params)
        return f"YoungFunction({self.kind}{', ' + inner if inner else ''})"

    def _audit(self):
        top = min(self.b_phi, 1e3)
        xs = np.linspace(0.0, top, 65)
        vals = self(xs)
        if vals[0] != 0.0:
            raise ValueError("not a Young function: phi(0) must be 0")
        finite = np.isfinite(vals)
        if np.any(np.diff(vals[finite]) < -1e-12 * (1.0 + np.abs(vals[finite][:-1]))):
            raise ValueError("not a Young function: evaluator must be nondecreasing")
        # midpoint convexity on the finite part of the uniform grid
        v = vals[finite]
        if v.size >= 3:
            mid_excess = v[1:-1] - 0.5 * (v[:-2] + v[2:])
            if np.any(mid_excess > 1e-9 * (1.0 + np.abs(v[1:-1]))):
                raise ValueError("not a Young function: evaluator must be convex")
        # evenness is structural (evaluation uses |x|); check a_phi and b_phi
        if self.a_phi > 0:
            if self(self.a_phi * (1.0 - 1e-6)) != 0.0:
                raise ValueError("a_phi inconsistent: phi positive below a_phi")
            if not self(self.a_phi * (1.0 + 1e-3)) > 0.0:
                raise ValueError("a_phi inconsistent: phi zero above a_phi")
        if np.isfinite(self.b_phi):
            if not np.isinf(self(self.b_phi * (1.0 + 1e-6))):
                raise ValueError("b_phi inconsistent: phi finite beyond b_phi")
            at_b = self(self.b_phi)
            if np.isfinite(at_b):
                near = self(self.b_phi * (1.0 - 1e-6))
                if abs(at_b - near) > 1e-3 * (1.0 + abs(at_b)):
                    raise ValueError("b_phi inconsistent: not left-continuous")


def _power_law(kind: str, params, c: float, p: float, fn) -> YoungFunction:
    """The gauge c|x|^p evaluated by ``fn``, with its exact inverse attached.

    Each caller passes its own ``fn`` so the evaluator keeps that factory's
    rounding (``x**p / p`` and ``(1/p) * x**p`` differ in the last bits).
    """
    phi = YoungFunction(kind, params, fn, inverse_hint=lambda y: (y / c) ** (1.0 / p))
    phi._power = (c, p)
    return phi


def power_scaled(p: float) -> YoungFunction:
    """phi(x) = |x|^p / p for p >= 1."""
    if p < 1:
        raise ValueError("power_scaled requires p >= 1")
    return _power_law("power_scaled", (p,), 1.0 / p, p, lambda x: x**p / p)


def power_plain(p: float) -> YoungFunction:
    """phi(x) = |x|^p for p >= 1."""
    if p < 1:
        raise ValueError("power_plain requires p >= 1")
    return _power_law("power_plain", (p,), 1.0, p, lambda x: x**p)


def exp_type() -> YoungFunction:
    """phi(x) = exp(|x|) - |x| - 1."""
    return YoungFunction("exp_type", (), lambda x: np.expm1(x) - x)


def deadzone() -> YoungFunction:
    """phi(x) = max(0, |x| - 1); vanishes on [0, 1]."""
    return YoungFunction("deadzone", (), lambda x: np.maximum(0.0, x - 1.0), a_phi=1.0)


def capped() -> YoungFunction:
    """phi(x) = x^2 on |x| <= 1 and +inf beyond."""
    return YoungFunction(
        "capped", (), lambda x: np.where(x > 1.0, np.inf, x * x), b_phi=1.0
    )


def _conjugate_eval(phi: YoungFunction, y, grid_max: float, grid_n: int, xtol=1e-10):
    """max over x in [0, min(b_phi, grid_max)] of x*|y| - phi(x).

    Grid seeding brackets the maximizer of the concave objective; ternary
    search refines the bracket to ``xtol``.
    """
    y = np.abs(np.asarray(y, dtype=float))
    shape = y.shape
    y = np.atleast_1d(y).ravel()
    cap = min(phi.b_phi, grid_max)
    seeds = np.concatenate(
        [[0.0], np.logspace(-8, np.log10(cap), grid_n - 1)]
    )
    with np.errstate(invalid="ignore"):
        obj = seeds[:, None] * y[None, :] - phi(seeds)[:, None]
    obj = np.where(np.isnan(obj), -np.inf, obj)
    best = np.argmax(obj, axis=0)
    lo = seeds[np.maximum(best - 1, 0)]
    hi = seeds[np.minimum(best + 1, seeds.size - 1)]
    for _ in range(300):
        width = hi - lo
        if np.all(width <= xtol * (1.0 + hi)):
            break
        m1 = lo + width / 3.0
        m2 = hi - width / 3.0
        f1 = m1 * y - phi(m1)
        f2 = m2 * y - phi(m2)
        take = f1 < f2
        lo = np.where(take, m1, lo)
        hi = np.where(take, hi, m2)
    x = 0.5 * (lo + hi)
    val = np.maximum(x * y - phi(x), 0.0)
    return val.reshape(shape) if shape else float(val[0])


def _conjugate_inverse(phi: YoungFunction, t, grid_max: float, grid_n: int, a_conj: float):
    """Generalized inverse of the conjugate of phi, via the slope identity.

    For psi(y) = sup{xy - phi(x)}, membership psi(y) > t unwinds to
    y > inf over x of (t + phi(x))/x, so the inverse is that infimum. The
    slope objective is unimodal for convex phi, so one ternary search per t
    replaces a bisection whose every probe would re-maximize the conjugate.
    """
    t = np.asarray(t, dtype=float)
    shape = t.shape
    t = np.atleast_1d(t).ravel().astype(float)
    cap = min(phi.b_phi, grid_max)
    seeds = np.logspace(-8, np.log10(cap), grid_n)
    with np.errstate(invalid="ignore", divide="ignore"):
        obj = (t[None, :] + phi(seeds)[:, None]) / seeds[:, None]
    obj = np.where(np.isnan(obj), np.inf, obj)
    best = np.argmin(obj, axis=0)
    lo = seeds[np.maximum(best - 1, 0)]
    hi = seeds[np.minimum(best + 1, seeds.size - 1)]
    for _ in range(300):
        width = hi - lo
        if np.all(width <= 1e-10 * (1.0 + hi)):
            break
        m1 = lo + width / 3.0
        m2 = hi - width / 3.0
        with np.errstate(invalid="ignore"):
            f1 = (t + phi(m1)) / m1
            f2 = (t + phi(m2)) / m2
        take = f1 > f2
        lo = np.where(take, m1, lo)
        hi = np.where(take, hi, m2)
    x = 0.5 * (lo + hi)
    with np.errstate(invalid="ignore"):
        val = np.minimum((t + phi(x)) / x, np.min(obj, axis=0))
    val = np.where(t == 0.0, a_conj, val)
    val = np.where(np.isinf(t), np.inf, val)
    return val.reshape(shape) if shape else val


def _first_positive(fn, cap: float) -> float:
    """inf{x > 0 : fn(x) > 0}, located by grid scan plus bisection."""
    xs = np.logspace(-9, np.log10(min(cap, 1e3)), 200)
    vals = fn(xs)
    pos = np.flatnonzero(vals > 0.0)
    if pos.size == 0:
        return float(xs[-1])
    i = pos[0]
    if i == 0:
        return 0.0
    lo, hi = xs[i - 1], xs[i]
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if fn(np.asarray([mid]))[0] > 0.0:
            hi = mid
        else:
            lo = mid
    return float(hi)


def complementary(
    phi: YoungFunction, grid_max: float = 1e9, grid_n: int = 129
) -> YoungFunction:
    """Conjugate in the sense of Young: psi(y) = sup{x|y| - phi(x) : x >= 0}.

    Power laws c|x|^p with p > 1 conjugate exactly to c'|y|^q with
    q = p/(p-1) and c' = (p-1)/p * (c*p)^(-1/(p-1)); ``power_scaled(p)``
    gives ``power_scaled(q)`` and ``power_plain(p)`` gives
    (p-1) p^(-q) |y|^q. Both carry their exact inverse. Everything else,
    p = 1 included, gets a numeric conjugate whose maximization is capped at
    ``grid_max`` (an approximation only in the far tail).
    """
    if grid_max <= 0:
        raise ValueError("grid_max must be positive")
    if grid_n < 100:
        raise ValueError("grid_n must be at least 100")
    if phi._power is not None and phi._power[1] > 1:
        c, p = phi._power
        q = p / (p - 1.0)
        if phi.kind == "power_scaled":
            return power_scaled(q)
        c_q = (p - 1.0) / p * (c * p) ** (-1.0 / (p - 1.0))
        return _power_law("power_law", (c_q, q), c_q, q, lambda y: c_q * y**q)

    def fn(x):
        return _conjugate_eval(phi, x, grid_max, grid_n)

    a = _first_positive(lambda xs: _conjugate_eval(phi, xs, grid_max, grid_n), np.inf)
    if a < 1e-8:
        a = 0.0
    return YoungFunction(
        "numeric_conjugate",
        (grid_max, grid_n),
        fn,
        a_phi=a,
        inverse_hint=lambda t: _conjugate_inverse(phi, t, grid_max, grid_n, a),
    )


def generalized_inverse(phi: YoungFunction, y, tol: float = 1e-10):
    """inf{x >= 0 : phi(x) > y}; +inf inputs map to +inf.

    Gauges with an inverse hint (power laws and their conjugates exactly,
    numeric conjugates through their slope identity) answer through it, and
    ``tol`` does not apply. Every other gauge bisects its nondecreasing
    evaluator to ``tol`` and returns +inf when phi never exceeds y within
    the bracket cap. Accepts scalars or arrays.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    y = np.asarray(y, dtype=float)
    scalar = y.ndim == 0
    y = np.atleast_1d(y).astype(float).copy()
    if np.any(y < 0):
        raise ValueError("y must be >= 0")
    if phi._inverse_hint is not None:
        res = np.asarray(phi._inverse_hint(y), dtype=float)
        return float(res.ravel()[0]) if scalar else res
    res = np.full(y.shape, np.inf)
    todo = np.isfinite(y)
    if not todo.any():
        return float(res[0]) if scalar else res
    hi = np.ones(y.shape)
    for _ in range(64):
        need = todo & (phi(hi) <= y) & (hi <= _BRACKET_CAP)
        if not need.any():
            break
        hi[need] *= 2.0
    solved = todo & (phi(hi) > y)
    lo = np.zeros(y.shape)
    span = float(np.max(hi[solved], initial=1.0))
    iters = min(200, int(np.ceil(np.log2(max(span / tol, 2.0)))) + 2)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        pred = phi(mid) > y
        hi = np.where(solved & pred, mid, hi)
        lo = np.where(solved & ~pred, mid, lo)
    # the lower bracket end satisfies phi(lo) <= y, so the defining
    # composition inequality phi(inv(y)) <= y survives jumps of phi
    res[solved] = lo[solved]
    return float(res[0]) if scalar else res


@dataclass(frozen=True)
class GrowthReport:
    """Grid-certified finding for a growth condition or inequality.

    ``witness_constant`` is the extremal constant observed on the grid; the
    grid travels with the report so a failure can be replayed. Nothing here
    is an asymptotic statement.
    """

    kind: str
    holds_on_grid: bool
    witness_constant: float | None
    counterexample: tuple | None
    grid: np.ndarray


_GROWTH_KINDS = ("delta2", "delta_prime", "nabla_prime", "young_ineq", "inverse_product")


def check_growth_condition(
    kind: str,
    phi: YoungFunction,
    psi: YoungFunction | None = None,
    x0: float = 0.0,
    grid=None,
    tol: float = 1e-8,
) -> GrowthReport:
    """Audit a doubling/product growth condition or a conjugate inequality.

    ``delta2``: K = max phi(2x)/phi(x);   ``delta_prime``: c with
    phi(xy) <= c phi(x) phi(y);   ``nabla_prime``: smallest grid b with
    phi(bxy) >= phi(x) phi(y);   ``young_ineq``: xy <= phi(x)+psi(y);
    ``inverse_product``: x < phi_inv(x) psi_inv(x) <= 2x.
    """
    if kind not in _GROWTH_KINDS:
        raise ValueError(f"unknown growth condition kind: {kind!r}")
    if grid is None:
        grid = np.logspace(-3, 3, 61)
    grid = np.asarray(grid, dtype=float)
    pts = grid[grid >= x0]

    if kind == "delta2":
        v1 = phi(pts)
        v2 = phi(2.0 * pts)
        ratio = np.full(pts.shape, np.nan)
        ok = v1 > 0
        with np.errstate(invalid="ignore"):
            ratio[ok] = v2[ok] / v1[ok]
        bad = (~ok) & (v2 > 0)
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            return GrowthReport(kind, False, float("inf"), (float(pts[i]),), grid)
        k_const = float(np.nanmax(ratio)) if np.any(ok) else 0.0
        return GrowthReport(kind, bool(np.isfinite(k_const)), k_const, None, grid)

    if kind in ("delta_prime", "nabla_prime"):
        x, y = np.meshgrid(pts, pts)
        pxy = phi(x * y)
        px, py = phi(x), phi(y)
        prod = px * py
        if kind == "delta_prime":
            ok = prod > 0
            with np.errstate(invalid="ignore", divide="ignore"):
                ratio = np.where(ok, pxy / np.where(ok, prod, 1.0), np.nan)
            if np.any(ok & np.isinf(pxy)):
                i, j = np.argwhere(ok & np.isinf(pxy))[0]
                return GrowthReport(
                    kind, False, float("inf"), (float(x[i, j]), float(y[i, j])), grid
                )
            c = float(np.nanmax(ratio)) if np.any(ok) else 0.0
            return GrowthReport(kind, bool(np.isfinite(c)), c, None, grid)
        # nabla_prime: search the smallest b on a log grid that works everywhere
        for b in np.logspace(-3, 3, 61):
            lhs = phi(b * x * y)
            if np.all(lhs >= prod * (1.0 - 1e-12)):
                return GrowthReport(kind, True, float(b), None, grid)
        return GrowthReport(kind, False, None, None, grid)

    if psi is None:
        raise ValueError(f"psi is required for kind {kind!r}")

    if kind == "young_ineq":
        x, y = np.meshgrid(pts, pts)
        lhs = x * y
        rhs = phi(x) + psi(y)
        viol = lhs > rhs + tol * (1.0 + lhs)
        if viol.any():
            i, j = np.argwhere(viol)[0]
            return GrowthReport(
                kind, False, None, (float(x[i, j]), float(y[i, j])), grid
            )
        return GrowthReport(kind, True, None, None, grid)

    # inverse_product
    pinv = generalized_inverse(phi, pts, tol=1e-12)
    qinv = generalized_inverse(psi, pts, tol=1e-12)
    prod = pinv * qinv
    lower_bad = prod <= pts * (1.0 - tol)
    upper_bad = prod > 2.0 * pts * (1.0 + tol)
    viol = lower_bad | upper_bad
    if viol.any():
        i = int(np.flatnonzero(viol)[0])
        return GrowthReport(kind, False, None, (float(pts[i]), float(prod[i])), grid)
    ratio = float(np.max(prod / pts)) if pts.size else None
    return GrowthReport(kind, True, ratio, None, grid)
