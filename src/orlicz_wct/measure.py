"""Finite atomic measure spaces, partitions, and atom-indexed functions.

Everything downstream works over a space made of finitely many atoms with
strictly positive weights. Functions are plain numpy vectors indexed by
atom; the space object validates lengths. Non-atomic remainders are ruled
out structurally: there is no way to build a space with one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FiniteMeasureSpace",
    "Partition",
    "block_masses",
    "support",
    "ess_sup",
]


@dataclass(frozen=True)
class FiniteMeasureSpace:
    """Ordered atoms with strictly positive weights; atom i is index i."""

    weights: np.ndarray

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", weights)
        if weights.ndim != 1 or weights.size == 0:
            raise ValueError("weights must be a non-empty one-dimensional array")
        if not np.all(np.isfinite(weights)) or np.any(weights <= 0.0):
            raise ValueError("atom weight must be > 0")

    @classmethod
    def from_weights(cls, weights) -> "FiniteMeasureSpace":
        return cls(weights)

    @property
    def n_atoms(self) -> int:
        return self.weights.size

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    def function(self, values) -> np.ndarray:
        """Validate an atom-indexed value list and return it as an array."""
        f = np.asarray(values, dtype=float)
        if f.shape != (self.n_atoms,):
            raise ValueError(
                f"function has shape {f.shape}, expected ({self.n_atoms},)"
            )
        return f


class Partition:
    """Nonempty, pairwise-disjoint blocks of atom indices covering a space.

    Held as ``labels``, the block of each atom (read-only); ``blocks``, the
    sorted index tuples of each block, and ``index_arrays``, the same as
    arrays, are built when first read. ``Partition(blocks, n_atoms)`` takes
    0-based integer indices and checks them on arrays, disjointness before
    index range, so that a repeated index is always reported as a
    disjointness violation; ``from_labels`` takes the labels themselves.
    Two partitions are equal when they label every atom alike.
    """

    def __init__(self, blocks, n_atoms: int):
        flat = [i for b in blocks for i in b]
        # int() would truncate 1.7 and parse "0"; neither is an index
        if not set(map(type, flat)) <= {int}:
            for i in flat:
                if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
                    raise ValueError(f"block index must be an integer, got {i!r}")
        sizes = [len(b) for b in blocks]
        if 0 in sizes:
            raise ValueError("blocks must be nonempty")
        try:
            index = np.array(flat, dtype=np.int64)
        except OverflowError:  # beyond int64: out of range unless repeated
            index = None
        if index is None:
            repeated = len(set(flat)) != len(flat)
        else:
            ordered = np.sort(index)
            repeated = bool(np.any(ordered[1:] == ordered[:-1]))
        if repeated:
            raise ValueError("blocks must be disjoint")
        if index is None or index.size and (index.min() < 0 or index.max() >= n_atoms):
            raise ValueError("block index out of range")
        if len(flat) != n_atoms:
            raise ValueError("blocks must cover every atom")
        labels = np.empty(n_atoms, dtype=int)
        labels[index] = np.repeat(np.arange(len(sizes)), sizes)
        self._hold(labels, len(sizes))

    @classmethod
    def from_labels(cls, labels, n_blocks: int) -> "Partition":
        """The partition whose block b holds the atoms labelled b, for
        integer labels in 0..n_blocks-1 that use each of them."""
        labels = np.array(labels)
        if labels.ndim != 1 or labels.dtype.kind not in "iu":
            raise ValueError("labels must be a one-dimensional integer array")
        if labels.size and (labels.min() < 0 or labels.max() >= n_blocks):
            raise ValueError("block index out of range")
        if np.count_nonzero(np.bincount(labels, minlength=n_blocks)) != n_blocks:
            raise ValueError("blocks must be nonempty")
        out = cls.__new__(cls)
        out._hold(labels.astype(int, copy=False), n_blocks)
        return out

    def _hold(self, labels: np.ndarray, n_blocks: int) -> None:
        labels.flags.writeable = False
        self.labels, self.n_atoms, self.n_blocks = labels, labels.size, n_blocks

    @classmethod
    def single_block(cls, n_atoms: int) -> "Partition":
        return cls.from_labels(np.zeros(n_atoms, dtype=int), 1)

    @classmethod
    def finest(cls, n_atoms: int) -> "Partition":
        return cls.from_labels(np.arange(n_atoms), n_atoms)

    @functools.cached_property
    def index_arrays(self) -> tuple[np.ndarray, ...]:
        order = np.argsort(self.labels, kind="stable")
        ends = np.cumsum(np.bincount(self.labels, minlength=self.n_blocks))[:-1]
        return tuple(np.split(order, ends))

    @functools.cached_property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(idx.tolist()) for idx in self.index_arrays)

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        same = self.n_atoms == other.n_atoms
        return same and np.array_equal(self.labels, other.labels)

    def __hash__(self):
        return hash((self.n_atoms, self.labels.tobytes()))

    def __repr__(self):
        return f"Partition(blocks={self.blocks!r}, n_atoms={self.n_atoms})"


def block_masses(weights: np.ndarray, labels: np.ndarray, n_blocks: int) -> np.ndarray:
    """The mass of each block, with the bits of ``weights[idx].sum()`` over
    its sorted atoms idx: a running sum (``bincount``) below 8 atoms, where
    numpy's sum is one too, and numpy's pairwise sum from 8 on."""
    masses = np.bincount(labels, weights, minlength=n_blocks)
    if labels.size >= 8:
        for b in np.flatnonzero(np.bincount(labels, minlength=n_blocks) >= 8).tolist():
            masses[b] = weights[labels == b].sum()
    return masses


def support(f, eps: float | None = None) -> set[int]:
    """Indices where |f| exceeds ``eps``.

    The default threshold is relative, 1e-10 * (1 + max|f|): the exact
    nonzero set is not meaningful in floating point.
    """
    f = np.asarray(f, dtype=float)
    if eps is None:
        top = float(np.max(np.abs(f), initial=0.0))
        if not np.isfinite(top):
            top = 0.0
        eps = 1e-10 * (1.0 + top)
    if eps < 0:
        raise ValueError("eps must be >= 0")
    return set(np.flatnonzero(np.abs(f) > eps).tolist())


def ess_sup(f) -> float:
    """Essential supremum of |f|; on atomic spaces this is plain max|f|."""
    f = np.asarray(f, dtype=float)
    if not np.all(np.isfinite(f)):
        raise ValueError("ess_sup requires finite values")
    return float(np.max(np.abs(f), initial=0.0))

