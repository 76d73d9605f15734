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
block by block, at a cost of sum n_B^3 in place of n^3. An
``OperatorTable`` holds any number of operators one after another as
arrays, and its one layout packs all of them, so that one walk and one
pass of each closed form serve them all, and ``owner_max`` reads a
max-entry residual of each; an operator alone is a table of one row.
``contraction_criterion`` decides the strict contraction criterion |h| < 1
on the criterion support once per operator and gauge, and a table for all
its rows in one pass. It and ``bound_constant`` read a gauge phi with its
conjugate psi, and take phi alone: psi is ``phi.conjugate``, built once.

The same block structure gives the singular values of every power in closed
form: T^k has sigma_B |h_B|^(k-1) on each block and zeros elsewhere, read
from the operator's one ``BlockRecord`` (``WctOperator.block_record``).

On a power law phi = c|x|^p with p > 1 the operator norms are exact: each
block piece T_B = (w 1_B)(u mu 1_B)^T / mu(B) has rank one, the pieces have
disjoint supports and the Luxemburg norm is c^(1/p) times the L^p(mu) norm,
so ||T^n|| = max_B |h_B|^(n-1) (E_B|w|^p)^(1/p) (E_B|u|^q)^(1/q) with
q = p/(p-1) (``exact_norm_powers``). ``power_bounded_report`` samples norm
ratios only for the other gauges. Its table form reads the criterion, sup|h|
and the exact norms of every row of a table in one pass over its blocks.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .condexp import CondExp, cond_exp
from .measure import FiniteMeasureSpace, Partition, ess_sup
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

    The block record, the block layout, the read-only dense matrix that
    ``matrix_of`` hands out and the contraction criterion under each gauge
    are each built on first use and then shared.
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
        # contraction_criterion under each gauge decided so far, by gauge
        object.__setattr__(self, "_criteria", {})

    @property
    def space(self):
        return self.e.space

    @functools.cached_property
    def block_record(self) -> BlockRecord:
        """The ``BlockRecord`` of T (of its table of one row), built on first
        use and then shared."""
        return OperatorTable.of([self]).record

    @functools.cached_property
    def block_layout(self) -> BlockLayout:
        """The ``BlockLayout`` of T (of its table of one row), built on first
        use and then shared."""
        return OperatorTable.of([self]).layout

    @functools.cached_property
    def _matrix(self) -> np.ndarray:
        # an entry w_i u_j may overflow while h stays finite: the rows that
        # read it are not checked
        with np.errstate(over="ignore"):
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
    """The diagonal blocks of the operators of an ``OperatorTable``, T_0 +
    T_1 + ... acting on the atoms of T_0, then on those of T_1, and so on,
    and arithmetic on them.

    M = matrix_of(t) vanishes off the blocks, and so do I, every power, A_n,
    B_n, (I - T)^(-1) and their sums and products: each is held packed, one
    flat array of its diagonal blocks, row by row, the blocks ordered by
    size, then by operator and partition order. ``m`` (formed entry by
    entry, with the bits of the dense product) and ``eye`` are M and I so
    packed; ``unpack`` gives n x n arrays. ``matmul`` multiplies packed
    matrices; ``apply`` takes x @ f and ``solve`` solves x y = f
    (LinAlgError on a singular block) for f of shape (n,) or (n, m). Each
    takes one stack per run of equal-size blocks, at a cost of sum n_B^3 in
    place of n^3; an operator of fewer than _CORE_MIN_ATOMS atoms is one
    block, its whole matrix. ``rows`` spreads an atom vector over the rows.
    ``h``, ``block_h`` and ``labels`` are the symbol per atom and per block
    of the partitions, and the block of each atom, which the closed forms
    read. Each block records the operator that owns it, and ``owner_max``
    reduces a packed array to one value per operator. The layout is formed
    in one array pass over the table, whatever its number of operators.
    """

    def __init__(self, tab: OperatorTable):
        owner = tab.atom_owner
        # the block of each atom: its operator's first partition block where
        # the operator is one dense block, else its own partition block
        block = np.where(
            (tab.n < _CORE_MIN_ATOMS)[owner], tab.starts[owner], tab.labels
        )
        size = np.bincount(block, minlength=tab.masses.size)
        used = np.flatnonzero(size)
        order = used[np.argsort(size[used], kind="stable")]
        rank = np.empty(size.size, dtype=int)
        rank[order] = np.arange(order.size)
        atoms = np.argsort(rank[block], kind="stable")
        sizes, owners = size[order], tab.block_owner[order]
        bounds = [0, *(np.flatnonzero(np.diff(sizes)) + 1).tolist(), sizes.size]
        # (packed entries, atoms, count, size) of each run of equal-size
        # blocks, and the operator that owns each of its blocks
        self._runs, self._owners, stop, first = [], [], 0, 0
        for lo, hi in zip(bounds, bounds[1:]):
            width, count = int(sizes[lo]), hi - lo
            run = atoms[first : first + count * width]
            entries = slice(stop, stop + run.size * width)
            self._runs.append((entries, run, count, width))
            self._owners.append(owners[lo:hi])
            stop, first = entries.stop, first + run.size
        self.n, self.n_operators = tab.labels.size, tab.n.size
        self._rows, cols = self._entry_atoms()
        self.h, self.labels, self.block_h = tab.h, tab.labels, tab.block_h
        quotients = tab.weights / tab.masses[self.labels]
        same_block = self.labels[self._rows] == self.labels[cols]
        quotients = np.where(same_block, quotients[cols], 0.0)
        with np.errstate(over="ignore"):
            self.m = (tab.w[self._rows] * quotients) * tab.u[cols]
        self.eye = (self._rows == cols).astype(float)

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
    The record of an ``OperatorTable`` holds the blocks of every operator,
    one after another."""

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
    # a block whose entries overflow has sigma_B inf: its powers are not
    # checked
    with np.errstate(over="ignore"):
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
    with np.errstate(over="ignore", invalid="ignore"):
        values = t.w * weight
    if not np.isfinite(values).all():
        return np.inf
    return c_gch * ess_sup(values)


def _exact_p(phi: YoungFunction) -> float | None:
    """p of a power law c|x|^p with p > 1, whose conjugate is a power law
    too, both with closed-form inverses; None for every other gauge."""
    return phi._power[1] if phi._power is not None and phi._power[1] > 1 else None


def table_part(t: WctOperator) -> tuple:
    """The (weights, labels, masses, u, w, h) of t that its table row holds."""
    return t.space.weights, t.e._labels, t.e._block_masses, t.u, t.w, t.h


class OperatorTable:
    """Operators one after another, as arrays: per atom its block (numbered
    past the blocks of the operators before), weight, u, w and symbol h;
    per block its mass; per operator (row) its atoms ``n``, its blocks,
    where they start, and its gauge and ``WctOperator`` when given (parts:
    the ``table_part`` of each). ``average`` is E per block with the sums of
    ``cond_exp``, so every row keeps its own bits. ``record`` (the
    ``BlockRecord`` of all the blocks), ``layout`` (one packed
    ``BlockLayout``) and ``criterion`` are each formed in one array pass on
    first use. ``of`` makes the table of some operators, and ``take`` that
    of some rows.
    """

    def __init__(self, parts, phis=None, ops=None):
        weights, labels, masses, u, w, h = zip(*parts)
        self._index([x.size for x in weights], [x.size for x in masses])
        self.labels = np.concatenate(labels) + self.starts[self.atom_owner]
        self.weights, self.masses, self.u, self.w, self.h = (
            np.concatenate(v) for v in (weights, masses, u, w, h)
        )
        self.phis = phis
        self.ops = [None] * self.n.size if ops is None else list(ops)

    def _index(self, n, blocks) -> None:
        """The atoms and blocks of each row, where they start, and the row
        of each atom and of each block."""
        self.n, self.blocks = np.asarray(n, dtype=int), np.asarray(blocks, dtype=int)
        self.starts = np.cumsum(self.blocks) - self.blocks
        self.atom_starts = np.cumsum(self.n) - self.n
        self.atom_owner = np.repeat(np.arange(self.n.size), self.n)
        self.block_owner = np.repeat(np.arange(self.n.size), self.blocks)

    @classmethod
    def of(cls, ts, phis=None) -> OperatorTable:
        """The table of the operators ts, in order."""
        return cls([table_part(t) for t in ts], phis, ts)

    def take(self, rows) -> OperatorTable:
        """The table of the given rows (indices in increasing order, or a
        mask), with every array gathered: a record already formed is
        gathered too, not formed again."""
        keep = np.zeros(self.n.size, dtype=bool)
        keep[rows] = True
        atoms, blocks = keep[self.atom_owner], keep[self.block_owner]
        out = OperatorTable.__new__(OperatorTable)
        out._index(self.n[keep], self.blocks[keep])
        out.labels = (np.cumsum(blocks) - 1)[self.labels[atoms]]
        out.weights, out.u, out.w, out.h = (
            getattr(self, name)[atoms] for name in ("weights", "u", "w", "h")
        )
        out.masses = self.masses[blocks]
        index = np.flatnonzero(keep).tolist()
        out.phis = None if self.phis is None else [self.phis[i] for i in index]
        out.ops = [self.ops[i] for i in index]
        if "record" in vars(self):
            rec = self.record
            out.record = BlockRecord(
                out.labels, rec.sizes[blocks], rec.h[blocks], rec.sigma[blocks],
                rec.rho[blocks], rec.e1[atoms], rec.e2[atoms],
            )
        return out

    def average(self, f: np.ndarray) -> np.ndarray:
        sums = np.bincount(self.labels, self.weights * f, minlength=self.masses.size)
        return sums / self.masses

    def operator(self, k: int) -> WctOperator:
        """The operator of row k, built from its arrays if not given."""
        if self.ops[k] is None:
            row = self.take([k])
            partition = Partition.from_labels(row.labels, int(self.blocks[k]))
            e = CondExp(FiniteMeasureSpace(row.weights), partition)
            self.ops[k] = WctOperator(row.u, row.w, e)
        return self.ops[k]

    @functools.cached_property
    def record(self) -> BlockRecord:
        return _block_frame(
            self.labels, self.masses, self.h, self.w, self.u * self.weights
        )

    @functools.cached_property
    def layout(self) -> BlockLayout:
        return BlockLayout(self)

    @functools.cached_property
    def block_h(self) -> np.ndarray:
        """The symbol per block."""
        h = np.empty(self.masses.size)
        h[self.labels] = self.h
        return h

    def _gauge_groups(self):
        """(gauge, atoms, blocks) of each pass over the table (slices when
        there is one): the rows under one power-law gauge object with p > 1
        together, each other row alone, as a numeric inverse's bits depend
        on the whole array."""
        groups = {}
        for i, phi in enumerate(self.phis):
            groups.setdefault(phi if _exact_p(phi) else -1 - i, (phi, []))[1].append(i)
        if len(groups) == 1:
            return [(phi, slice(None), slice(None)) for phi, _ in groups.values()]
        out = []
        for phi, rows in groups.values():
            keep = np.zeros(self.n.size, dtype=bool)
            keep[rows] = True
            atoms = np.flatnonzero(keep[self.atom_owner])
            out.append((phi, atoms, np.flatnonzero(keep[self.block_owner])))
        return out

    @functools.cached_property
    def criterion(self) -> tuple[np.ndarray, np.ndarray]:
        """``contraction_criterion`` of every row under its gauge: whether
        each atom is in its operator's criterion support, and whether |h| < 1
        holds on it, per operator. The averaged gauges, and so the support,
        are constant on blocks."""
        groups = self._gauge_groups()
        fw, fu = np.empty(self.w.size), np.empty(self.u.size)
        for phi, atoms, _ in groups:
            fw[atoms] = phi(np.abs(self.w[atoms]))
            fu[atoms] = phi.conjugate(np.abs(self.u[atoms]))
        aw, au = self.average(fw), self.average(fu)
        sw, su = np.empty(aw.size), np.empty(au.size)
        for phi, _, blocks in groups:
            sw[blocks] = generalized_inverse(phi, aw[blocks])
            su[blocks] = generalized_inverse(phi.conjugate, au[blocks])
        inside = (np.abs(sw) > _SUPPORT_EPS) & (np.abs(su) > _SUPPORT_EPS)
        broken = inside & ~(np.abs(self.block_h) < 1.0)
        broken = np.logical_or.reduceat(broken, self.starts)
        return inside[self.labels], ~broken

    def exact_norms(self, n_max: int) -> np.ndarray:
        """``exact_norm_powers`` of every row, one row of n_max norms each;
        rows whose gauge is not a power law with p > 1 read 0."""
        pw, qu = np.zeros(self.w.size), np.zeros(self.u.size)
        exact = [
            (p, p / (p - 1.0), atoms, blocks)
            for phi, atoms, blocks in self._gauge_groups()
            if (p := _exact_p(phi))
        ]
        # |w|^p, and so a norm, may overflow to inf (inf * 0 is NaN): the
        # callers read a non-finite norm as an overflow
        with np.errstate(over="ignore", invalid="ignore"):
            for p, q, atoms, _ in exact:
                pw[atoms] = np.abs(self.w[atoms]) ** p
                qu[atoms] = np.abs(self.u[atoms]) ** q
            aw, au = self.average(pw), self.average(qu)
            block = np.zeros(aw.size)
            for p, q, _, blocks in exact:
                block[blocks] = aw[blocks] ** (1.0 / p) * au[blocks] ** (1.0 / q)
            # only blocks with a nonzero piece count: elsewhere h = 0 as
            # well, and an overflowing |h|^(n-1) must not meet a zero norm
            live = block > 0
            # |h_B|^(n-1) as the running product 1 * |h_B| * ... * |h_B|
            hpow = np.empty((n_max, block.size))
            hpow[0], hpow[1:] = 1.0, np.where(live, np.abs(self.block_h), 0.0)
            terms = np.multiply.accumulate(hpow, axis=0) * np.where(live, block, 0.0)
        return np.maximum.reduceat(terms, self.starts, axis=1).T


def contraction_criterion(t: WctOperator, phi: YoungFunction) -> tuple[list[int], bool]:
    """The criterion support and whether the strict contraction criterion
    |h| < 1 holds on it.

    The support is the sorted list of atoms in S(phi_inv(E(phi|w|)))
    intersected with S(psi_inv(E(psi|u|))), psi = phi.conjugate. Decided
    once per operator and gauge (``WctOperator``), here or by
    ``power_bounded_report``; a table of many operators decides all of its
    rows at once (``OperatorTable.criterion``).
    """
    if phi not in t._criteria:
        inside, holds = OperatorTable.of([t], [phi]).criterion
        t._criteria[phi] = np.flatnonzero(inside).tolist(), bool(holds[0])
    return t._criteria[phi]


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
    if _exact_p(phi) is None:
        return None
    return OperatorTable.of([t], [phi]).exact_norms(n_max)[0].tolist()


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
    t,
    phi: YoungFunction | None,
    n_max: int,
    samples: int = 64,
    seed=0,
):
    """Strict-contraction criterion plus horizon norms of the powers.

    The criterion asks |h| < 1 on the joint support of the inverted averaged
    gauges of |w| and |u| (``contraction_criterion``, which this call
    decides and records on the operator). The norms are
    ``exact_norm_powers`` wherever that is not None (then ``exact`` is set
    and ``samples`` and ``seed`` go unused). Other gauges get sampled lower
    estimates, NaN where sup|h| is not finite: all powers share one sample
    set, so the horizon comparison inherits the pointwise domination
    |T^n f| <= ||h||_inf^(n-1) |T f| without estimator noise.

    The table form takes an ``OperatorTable`` whose rows carry their gauges
    (phi None) and one sampling seed per row, and returns arrays: per row
    whether the criterion holds, per atom whether it is in its row's
    support, then per row sup|h|, the norms of T^1..T^n_max, whether they
    are exact, and whether max_k |h|^k over the horizon, as float64 powers,
    is at most 1 + 1e-9. The criterion, sup|h| and exact norms of every row
    come from one pass over the table, with the bits of each row alone;
    sampled norms are taken one operator at a time.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    if isinstance(t, WctOperator):
        holds, support, h_sup, norms, exact, bounded = power_bounded_report(
            OperatorTable.of([t], [phi]), None, n_max, samples, [seed]
        )
        t._criteria[phi] = np.flatnonzero(support).tolist(), bool(holds[0])
        norms, h_sup, bounded = norms[0].tolist(), float(h_sup[0]), bool(bounded[0])
        return PowerBoundedReport(
            bool(holds[0]), max(norms), h_sup, norms, t._criteria[phi][0], bounded,
            bounded == (h_sup <= 1.0 + 1e-12), n_max, bool(exact[0]),
        )
    support, holds = t.criterion
    h_sup = np.maximum.reduceat(np.abs(t.block_h), t.starts)
    norms = t.exact_norms(n_max)
    exact = np.array([_exact_p(phi) is not None for phi in t.phis])
    for k in np.flatnonzero(~exact).tolist():
        norms[k] = np.nan
        if np.isfinite(h_sup[k]):
            op = t.operator(k)
            norms[k] = _sampled_norm_powers(op, t.phis[k], n_max, samples, seed[k])
    # |h| <= 1 is its own largest power; past 1 + 1e-9 its first power is
    # over, and in between each power is read
    bounded = h_sup <= 1.0 + 1e-9
    with np.errstate(over="ignore"):
        for k in np.flatnonzero(bounded & (h_sup > 1.0)).tolist():
            powers = [np.float64(h_sup[k]) ** j for j in range(1, n_max + 1)]
            bounded[k] = max(powers) <= 1.0 + 1e-9
    return holds, support, h_sup, norms, exact, bounded


def _sampled_norm_powers(
    t: WctOperator, phi: YoungFunction, n_max: int, samples: int, seed: int
) -> list[float]:
    """Largest N(T^n f)/N(f), n = 1..n_max, over the atom indicators and
    ``samples`` uniform draws: lower estimates of the operator norms. A
    power with an image that is not finite (T's entries overflowed) has no
    estimate: NaN."""
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
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_max):
            image = m @ image
            images.append(image)
    images = np.hstack(images)
    finite = np.isfinite(images).all(axis=0)
    norms = np.full(images.shape[1], np.nan)
    norms[finite] = luxemburg_norms(ctx, images[:, finite])
    return [float(v) for v in np.max(norms.reshape(n_max, -1) / base, axis=1)]
