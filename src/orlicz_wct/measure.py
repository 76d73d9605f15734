"""Finite atomic measure spaces, partitions, and atom-indexed functions.

Everything downstream works over a space made of finitely many atoms with
strictly positive weights. Functions are plain numpy vectors indexed by
atom; the space object validates lengths. Non-atomic remainders are ruled
out structurally: there is no way to build a space with one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FiniteMeasureSpace",
    "Partition",
    "support",
    "ess_sup",
]


@dataclass(frozen=True)
class FiniteMeasureSpace:
    """Ordered atoms with strictly positive weights."""

    atom_ids: tuple[str, ...]
    weights: np.ndarray

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "atom_ids", tuple(self.atom_ids))
        if weights.ndim != 1 or weights.size == 0:
            raise ValueError("weights must be a non-empty one-dimensional array")
        if len(self.atom_ids) != weights.size:
            raise ValueError("atom_ids and weights must have the same length")
        if len(set(self.atom_ids)) != len(self.atom_ids):
            raise ValueError("atom_ids must be pairwise distinct")
        if not np.all(np.isfinite(weights)) or np.any(weights <= 0.0):
            raise ValueError("atom weight must be > 0")

    @classmethod
    def from_weights(cls, weights) -> "FiniteMeasureSpace":
        weights = np.asarray(weights, dtype=float)
        ids = tuple(f"a{i + 1}" for i in range(weights.size))
        return cls(ids, weights)

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


@dataclass(frozen=True)
class Partition:
    """Nonempty, pairwise-disjoint blocks of atom indices covering a space.

    Block indices are 0-based integers. Disjointness is checked before index
    range so that a repeated index is always reported as a disjointness
    violation.
    """

    blocks: tuple[tuple[int, ...], ...]
    n_atoms: int

    def __post_init__(self):
        for b in self.blocks:
            for i in b:
                # int() would truncate 1.7 and parse "0"; neither is an index
                if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
                    raise ValueError(f"block index must be an integer, got {i!r}")
        blocks = tuple(tuple(int(i) for i in b) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if any(len(b) == 0 for b in blocks):
            raise ValueError("blocks must be nonempty")
        flat = [i for b in blocks for i in b]
        if len(flat) != len(set(flat)):
            raise ValueError("blocks must be disjoint")
        if any(i < 0 or i >= self.n_atoms for i in flat):
            raise ValueError("block index out of range")
        if len(flat) != self.n_atoms:
            raise ValueError("blocks must cover every atom")
        object.__setattr__(
            self,
            "_index_arrays",
            tuple(np.asarray(sorted(b), dtype=int) for b in blocks),
        )

    @classmethod
    def single_block(cls, n_atoms: int) -> "Partition":
        return cls((tuple(range(n_atoms)),), n_atoms)

    @classmethod
    def finest(cls, n_atoms: int) -> "Partition":
        return cls(tuple((i,) for i in range(n_atoms)), n_atoms)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def index_arrays(self) -> tuple[np.ndarray, ...]:
        return self._index_arrays


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

