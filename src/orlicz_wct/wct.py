"""Weighted conditional operators f -> w * E(u * f): matrices, iterates,
Cesaro means, norm bounds, and power-boundedness diagnostics.

Every closed form below factors through the cached symbol h = E(u*w): the
n-th power multiplies the operator by h^(n-1), and the Cesaro data are
geometric sums in h, accumulated with numpy in blocks of a fixed number of
powers, so that their memory does not grow with n. The one direct route is
``BlockWalk``: a single walk I, T, T^2, ... of sequential products that
serves T^n, A_n and B_n for every requested n at once, and against which the
closed forms are checked (``BlockWalk.unpack`` returns its results as n x n
arrays). The matrix is block diagonal in the partition's atom order, and so
is everything the walk, the closed forms and the solves with I - T produce,
so they are held packed on a ``BlockLayout``, from _CORE_MIN_ATOMS = 32
atoms on as the partition's blocks, and every product and solve is taken
block by block, at a cost of sum n_B^3 in place of n^3. Its ``direct_sum``
stacks the layouts of any number of operators, so that one walk and one
pass of each closed form serve them all, and ``owner_max`` reads a
max-entry residual of each. ``contraction_criterion`` alone decides the
strict contraction criterion |h| < 1 on the criterion support. It and
``bound_constant`` read a gauge phi together with its conjugate psi, and
take phi alone: psi is ``phi.conjugate``, built once.

The same block structure gives the singular values of every power in closed
form: T^k has sigma_B |h_B|^(k-1) on each block and zeros elsewhere, read
from the operator's one ``BlockRecord`` (``WctOperator.block_record``).

On a power law phi = c|x|^p with p > 1 the operator norms are exact: each
block piece T_B = (w 1_B)(u mu 1_B)^T / mu(B) has rank one, the pieces have
disjoint supports and the Luxemburg norm is c^(1/p) times the L^p(mu) norm,
so ||T^n|| = max_B |h_B|^(n-1) (E_B|w|^p)^(1/p) (E_B|u|^q)^(1/q) with
q = p/(p-1) (``exact_norm_powers``). ``power_bounded_report`` samples norm
ratios only for the other gauges.
"""

from __future__ import annotations

import functools
import itertools
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
    "BlockLayout",
    "BlockWalk",
    "BlockRecord",
    "bound_constant",
    "contraction_criterion",
    "exact_norm_powers",
    "power_bounded_report",
    "PowerBoundedReport",
]

# absolute threshold of the criterion support: an atom is in it when both
# inverted averaged gauges exceed this value there
_SUPPORT_EPS = 1e-10
# below this many atoms one dense product costs less than a loop over the
# partition's blocks: the power walk stays dense there
_CORE_MIN_ATOMS = 32


@dataclass(frozen=True)
class WctOperator:
    """The operator f -> w * E(u * f) with cached symbol h = E(u * w).

    The block record, the block layout and the read-only dense matrix that
    ``matrix_of`` hands out are each built on first use and then shared.
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

    @property
    def space(self):
        return self.e.space

    @functools.cached_property
    def block_record(self) -> BlockRecord:
        """The ``BlockRecord`` of T, built on first use and then shared."""
        e = self.e
        return _block_frame(
            e._labels, e._block_masses, self.h, self.w, self.u * self.space.weights
        )

    @functools.cached_property
    def block_layout(self) -> BlockLayout:
        """The ``BlockLayout`` of T, built on first use and then shared."""
        return BlockLayout(self)

    @functools.cached_property
    def _matrix(self) -> np.ndarray:
        m = (self.w[:, None] * self.e.matrix) * self.u[None, :]
        m.flags.writeable = False
        return m

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


def _closed_form_terms(t):
    """I, M, the spreading of an atom vector over the rows of M, and the
    symbol per atom, per partition block and each atom's block, that the
    closed forms combine: n x n arrays for an operator, or packed for every
    operator of a ``BlockLayout``'s direct sum."""
    if isinstance(t, BlockLayout):
        return t.eye, t.m, t.rows, t.h, t.block_h, t.labels
    rec = t.block_record
    eye = np.eye(t.space.n_atoms)
    return eye, matrix_of(t), lambda v: v[:, None], t.h, rec.h, rec.labels


def iterate(t, n: int) -> np.ndarray:
    """Matrix of the n-th power in closed form: diag(h^(n-1)) times T, for
    an operator, or packed for a ``BlockLayout`` (such as a ``BlockWalk``)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _, m, rows, h, _, _ = _closed_form_terms(t)
    return rows(h ** (n - 1)) * m


class BlockLayout:
    """The diagonal blocks of an operator T's partition, or of a direct sum
    T_0 + T_1 + ... of operators (``direct_sum``), and arithmetic on them.

    M = matrix_of(t) vanishes off the blocks, and so do I, every power, A_n,
    B_n, (I - T)^(-1) and their sums and products: each is held packed, one
    flat array of its diagonal blocks, row by row, the blocks ordered by
    size. ``m`` (formed entry by entry, with the bits of the dense product)
    and ``eye`` are M and I so packed; ``unpack`` gives n x n arrays.
    ``matmul`` multiplies packed matrices; ``apply`` takes x @ f and
    ``solve`` solves x y = f (LinAlgError on a singular block) for f of shape
    (n,) or (n, m). Each takes one stack per run of equal-size blocks, at a
    cost of sum n_B^3 in place of n^3; below _CORE_MIN_ATOMS atoms the one
    block is the whole matrix. ``rows`` spreads an atom vector over the rows.
    ``h``, ``block_h`` and ``labels`` are the symbol per atom and per block
    of the partition, and the block of each atom, which the closed forms
    read. A direct sum acts on the atoms of T_0, then on those of T_1, and
    so on; each block records the operator that owns it, and ``owner_max``
    reduces a packed array to one value per operator.
    """

    def __init__(self, t: WctOperator):
        n = self.n = t.space.n_atoms
        blocks = sorted(t.e.partition.index_arrays, key=len)
        blocks = [np.arange(n)] if n < _CORE_MIN_ATOMS else blocks
        # (packed entries, atoms, count, size) of each run of equal-size
        # blocks, and the operator that owns each of its blocks
        self._runs, self._owners, stop = [], [], 0
        for size, same in itertools.groupby(blocks, key=len):
            atoms = np.concatenate(list(same))
            entries = slice(stop, stop + atoms.size * size)
            self._runs.append((entries, atoms, atoms.size // size, size))
            self._owners.append(np.zeros(atoms.size // size, dtype=int))
            stop = entries.stop
        self.n_operators = 1
        self._rows, cols = self._entry_atoms()
        rec = t.block_record
        self.h, self.block_h, self.labels = t.h, rec.h, rec.labels
        quotients = t.space.weights / t.e._block_masses[self.labels]
        same_block = self.labels[self._rows] == self.labels[cols]
        quotients = np.where(same_block, quotients[cols], 0.0)
        self.m = (t.w[self._rows] * quotients) * t.u[cols]
        self.eye = (self._rows == cols).astype(float)

    @classmethod
    def direct_sum(cls, layouts) -> BlockLayout:
        """The layout of the direct sum of the layouts' operators, in order
        (the one layout itself when there is one). Each block keeps its
        packed entries, so the sum's M has the bits of each layout's M."""
        layouts = tuple(layouts)
        if len(layouts) == 1:
            return layouts[0]

        def starts(sizes):
            return list(itertools.accumulate(sizes, initial=0))

        atom0 = starts(x.n for x in layouts)
        owner0 = starts(x.n_operators for x in layouts)
        entry0 = starts(x.m.size for x in layouts)
        def block_size(piece):
            return piece[1][3]

        # (layout, run, owners) of every run of every layout, by block size
        pieces = sorted(
            (
                (k, run, owners)
                for k, x in enumerate(layouts)
                for run, owners in zip(x._runs, x._owners)
            ),
            key=block_size,
        )
        out = cls.__new__(cls)
        out._runs, out._owners, order, stop = [], [], [], 0
        for size, same in itertools.groupby(pieces, key=block_size):
            same = list(same)
            atoms = np.concatenate([run[1] + atom0[k] for k, run, _ in same])
            entries = slice(stop, stop + atoms.size * size)
            out._runs.append((entries, atoms, atoms.size // size, size))
            out._owners.append(np.concatenate([o + owner0[k] for k, _, o in same]))
            order += [
                np.arange(run[0].start + entry0[k], run[0].stop + entry0[k])
                for k, run, _ in same
            ]
            stop = entries.stop
        order = np.concatenate(order)
        out.n, out.n_operators = atom0[-1], owner0[-1]
        out._rows = np.concatenate([x._rows + a for x, a in zip(layouts, atom0)])[order]
        out.m = np.concatenate([x.m for x in layouts])[order]
        out.eye = np.concatenate([x.eye for x in layouts])[order]
        label0 = starts(x.block_h.size for x in layouts)
        out.labels = np.concatenate([x.labels + b for x, b in zip(layouts, label0)])
        out.h = np.concatenate([x.h for x in layouts])
        out.block_h = np.concatenate([x.block_h for x in layouts])
        return out

    @functools.cached_property
    def _owner_runs(self):
        """The packed entries in owner order (a slice when they already
        are, as for one operator) and where each owner's entries start."""
        owner = np.concatenate([
            owners.repeat(size * size)
            for owners, (_, _, _, size) in zip(self._owners, self._runs)
        ])
        grouped = bool(np.all(owner[:-1] <= owner[1:]))
        order = slice(None) if grouped else np.argsort(owner, kind="stable")
        return order, np.searchsorted(owner[order], np.arange(self.n_operators))

    def _entry_atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """The row atom and the column atom of every packed entry."""
        grids = [atoms.reshape(count, size) for _, atoms, count, size in self._runs]
        rows = [g[:, :, None].repeat(g.shape[1], axis=2).ravel() for g in grids]
        cols = [g[:, None, :].repeat(g.shape[1], axis=1).ravel() for g in grids]
        return np.concatenate(rows), np.concatenate(cols)

    def unpack(self, packed: np.ndarray) -> np.ndarray:
        """The n x n array in atom order, with exact zeros off the blocks."""
        rows, cols = self._entry_atoms()
        out = np.zeros(self.n * self.n)
        out[rows * self.n + cols] = packed
        return out.reshape(self.n, self.n)

    def rows(self, v: np.ndarray) -> np.ndarray:
        """v[i] at every packed entry of row i: diag(v) X is rows(v) * X."""
        return v[self._rows]

    def owner_max(self, x: np.ndarray) -> np.ndarray:
        """max |x| over the packed entries of each operator, in operator
        order; NaN for an operator with a NaN entry."""
        order, starts = self._owner_runs
        return np.maximum.reduceat(np.abs(x)[order], starts)

    def matmul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The packed product of packed x and y, one stack per block size."""
        out = np.empty_like(x)
        for entries, _, count, size in self._runs:
            shape = (count, size, size)
            np.matmul(
                x[entries].reshape(shape),
                y[entries].reshape(shape),
                out=out[entries].reshape(shape),
            )
        return out

    def apply(self, x: np.ndarray, f) -> np.ndarray:
        """x @ f for packed x."""
        return self._on_runs(np.matmul, x, f)

    def solve(self, x: np.ndarray, f) -> np.ndarray:
        """np.linalg.solve(x, f) for packed x."""
        return self._on_runs(np.linalg.solve, x, f)

    def _on_runs(self, op, x, f):
        f = np.asarray(f, dtype=float)
        out = np.empty_like(f)
        for entries, atoms, count, size in self._runs:
            stack, rhs = x[entries].reshape(count, size, size), f[atoms]
            out[atoms] = op(stack, rhs.reshape(count, size, -1)).reshape(rhs.shape)
        return out


class BlockWalk(BlockLayout):
    """A_n for n in a_ns, B_n for n in b_ns and T^n for n in t_ns, by one walk,
    packed on ``layout``, which it shares: for every operator of the layout's
    direct sum at once.

    The walk forms P_0 = I, P_(k+1) = P_k @ M once, up to the largest power
    any result needs; T^n is P_n. A_n sums P_0, ..., P_(n-1) onto zeros;
    B_n adds (n-1-k) P_k onto (n-1) I for k = 1, ..., n-2. Each result gets
    the products and additions of its own per-n loop, run on each block, in
    the same order, so it equals that loop bit for bit.
    """

    def __init__(self, layout: BlockLayout, a_ns=(), b_ns=(), t_ns=()):
        if min(a_ns, default=1) < 1 or min(t_ns, default=1) < 1:
            raise ValueError("A_n and T^n need n >= 1")
        if min(b_ns, default=2) < 2:
            raise ValueError("B_n needs n >= 2")
        vars(self).update(vars(layout))
        top = max([k - 1 for k in a_ns] + [k - 2 for k in b_ns] + list(t_ns))
        total = np.zeros_like(self.eye)
        b_acc = {k: (k - 1) * self.eye for k in b_ns}
        self.a, self.t = {}, {}
        power = self.eye
        for k in range(top + 1):
            if k:
                power = self.matmul(power, self.m)
                for j, acc in b_acc.items():
                    if k <= j - 2:
                        acc += (j - 1 - k) * power
                if k in t_ns:
                    self.t[k] = power
            total += power
            if k + 1 in a_ns:
                self.a[k + 1] = total / (k + 1)
        for k, acc in b_acc.items():
            acc /= k
        self.b = b_acc


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


def cesaro_mean(t, n: int) -> np.ndarray:
    """(I + T + ... + T^(n-1)) / n in closed form: (I + diag(v_n) T) / n with
    v_n = sum h^i over i < n-1, accumulated by ``_power_sum`` once per block
    (h is constant on blocks) and spread by the block labels; for an
    operator, or packed for a ``BlockLayout``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    eye, m, rows, _, block_h, labels = _closed_form_terms(t)
    if n == 1:
        return eye.copy()
    v_n = _power_sum(block_h, n - 1, weighted=False)[labels]
    return (eye + rows(v_n) * m) / n


def b_n_operator(t, n: int) -> np.ndarray:
    """(T^(n-2) + 2 T^(n-3) + ... + (n-2) T + (n-1) I) / n for n >= 2, in
    closed form: (diag(w_n) T + (n-1) I)/n with w_n = sum over i of
    (n-i-1) h^(i-1), i from 1 to n-2, accumulated by ``_power_sum`` once per
    block; for an operator, or packed for a ``BlockLayout``."""
    if n < 2:
        raise ValueError("n must be >= 2")
    eye, m, rows, _, block_h, labels = _closed_form_terms(t)
    w_n = _power_sum(block_h, n - 2, weighted=True)[labels]
    return (rows(w_n) * m + (n - 1) * eye) / n


@dataclass(frozen=True)
class BlockRecord:
    """Per-block facts of pieces x_B y_B^T / mu(B) with symbol h, as in
    T = sum_B w_B (u mu)_B^T / mu(B): per atom its block (``labels``) and the
    unit vectors e1 along x_B and e2 along y'_B, the part of y_B orthogonal
    to x_B (zero where a vector vanishes); per block its size, h_B,
    sigma_B = ||x_B|| ||y_B|| / mu(B) and rho_B = ||x_B|| ||y'_B|| / mu(B).
    In (e1, e2) the piece is [[h_B, rho_B], [0, 0]], or [h_B] on one atom,
    and T^k has the singular values sigma_B |h_B|^(k-1). Read-only.
    ``direct_sum`` stacks the records of any number of operators."""

    labels: np.ndarray
    sizes: np.ndarray
    h: np.ndarray
    sigma: np.ndarray
    rho: np.ndarray
    e1: np.ndarray
    e2: np.ndarray

    def __post_init__(self):
        for value in vars(self).values():
            value.flags.writeable = False

    @classmethod
    def direct_sum(cls, records) -> BlockRecord:
        """The record of the direct sum of the records' operators, in order
        (the one record itself when there is one): their blocks, then their
        atoms, one after another."""
        records = tuple(records)
        if len(records) == 1:
            return records[0]
        first = itertools.accumulate((r.sizes.size for r in records), initial=0)
        labels = np.concatenate([r.labels + b for r, b in zip(records, first)])
        return cls(labels, *(
            np.concatenate([getattr(r, name) for r in records])
            for name in ("sizes", "h", "sigma", "rho", "e1", "e2")
        ))


def _block_frame(labels, masses, h: np.ndarray, x: np.ndarray, y: np.ndarray):
    """The ``BlockRecord`` of x_B y_B^T / mu(B) with symbol h, for the block
    of each atom and the mass of each block. Each block is scaled by its
    largest entry, so no sum of squares underflows or overflows."""
    sums = functools.partial(np.bincount, labels, minlength=masses.size)

    def scaled(v):
        top = np.zeros(masses.size)
        np.maximum.at(top, labels, np.abs(v))
        return v / np.where(top > 0, top, 1.0)[labels], top

    (x, x_top), (y, y_top) = scaled(x), scaled(y)
    h_block, sizes = np.empty(masses.size), sums()
    h_block[labels] = h
    xx = sums(x * x)
    coef = sums(x * y) / np.where(xx > 0, xx, 1.0)
    yp = (y - coef[labels] * x) * (sizes > 1)[labels]
    xn, yn, pn = np.sqrt(xx), np.sqrt(sums(y * y)), np.sqrt(sums(yp * yp))
    e1, e2 = (v / np.where(vn > 0, vn, 1.0)[labels] for v, vn in ((x, xn), (yp, pn)))
    scale = x_top * xn * y_top / masses
    return BlockRecord(labels.view(), sizes, h_block, scale * yn, scale * pn, e1, e2)


def bound_constant(t: WctOperator, phi: YoungFunction, c_gch: float) -> float:
    """C * M with M = ess sup of |w| * psi_inv(E(psi(|u|))), psi = phi.conjugate.

    Contract: N_phi(T f) <= C * M * N_phi(f) whenever c_gch bounds the
    conditional Hoelder constant for this expectation, phi and psi. inf when
    the weight overflows.
    """
    if c_gch <= 0:
        raise ValueError("c_gch must be > 0")
    psi = phi.conjugate
    weight = generalized_inverse(psi, cond_exp(t.e, psi(np.abs(t.u))))
    # psi(|u|), and so the weight, may overflow to inf (inf * 0 is NaN): the
    # bound is then inf, which the callers read as an overflow
    with np.errstate(invalid="ignore"):
        values = t.w * weight
    if not np.isfinite(values).all():
        return np.inf
    return c_gch * ess_sup(values)


def contraction_criterion(t: WctOperator, phi: YoungFunction) -> tuple[list[int], bool]:
    """The criterion support and whether the strict contraction criterion
    |h| < 1 holds on it.

    The support is the sorted list of atoms in S(phi_inv(E(phi|w|)))
    intersected with S(psi_inv(E(psi|u|))), psi = phi.conjugate.
    """
    psi = phi.conjugate
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
    # |w|^p, and so a norm, may overflow to inf (inf * 0 is NaN): the
    # callers read a non-finite norm as an overflow
    with np.errstate(over="ignore", invalid="ignore"):
        block = (
            cond_exp(t.e, np.abs(t.w) ** p) ** (1.0 / p)
            * cond_exp(t.e, np.abs(t.u) ** q) ** (1.0 / q)
        )
        # only blocks with a nonzero piece count: elsewhere h = 0 as well,
        # and an overflowing |h|^(n-1) must not meet a zero norm
        live = block > 0
        if not live.any():
            return [0.0] * n_max
        block, h = block[live], np.abs(t.h[live])
        norms, hpow = [], np.ones_like(h)
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
    exact: bool


def power_bounded_report(
    t: WctOperator,
    phi: YoungFunction,
    n_max: int,
    samples: int = 64,
    seed: int = 0,
    criterion: tuple[list[int], bool] | None = None,
) -> PowerBoundedReport:
    """Strict-contraction criterion plus horizon norms of the powers.

    The criterion asks |h| < 1 on the joint support of the inverted averaged
    gauges of |w| and |u|; a caller that already holds
    ``contraction_criterion(t, phi)`` passes it as ``criterion``. The
    norms are ``exact_norm_powers`` wherever that is not None (then
    ``exact`` is set and ``samples`` and ``seed`` go unused). Other gauges
    get sampled lower estimates: all powers share one sample set, so the
    horizon comparison inherits the pointwise domination
    |T^n f| <= ||h||_inf^(n-1) |T f| without estimator noise.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    if criterion is None:
        criterion = contraction_criterion(t, phi)
    crit_idx, criterion_holds = criterion
    h_sup = ess_sup(t.h)

    estimates = exact_norm_powers(t, phi, n_max)
    exact = estimates is not None
    if not exact:
        estimates = _sampled_norm_powers(t, phi, n_max, samples, seed)
    sup_norm = max(estimates)

    with np.errstate(over="ignore"):
        hpow_sup = [np.float64(h_sup) ** k for k in range(1, n_max + 1)]
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
