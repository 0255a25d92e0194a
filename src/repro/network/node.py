"""Node population and base-station representation.

A :class:`NodeArray` is a struct-of-arrays view of the whole sensor
population — positions, initial energies, identifiers — so geometric
queries vectorize.  Scalar :class:`Node` views exist for ergonomic
access in examples and tests but are never used on simulation hot
paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..kernels.base import euclidean

__all__ = ["Node", "BaseStation", "NodeArray"]


@dataclass(frozen=True)
class BaseStation:
    """The sink.  The paper places it at the cube centre (Fig. 1)."""

    position: tuple[float, float, float]

    @property
    def xyz(self) -> np.ndarray:
        return np.asarray(self.position, dtype=np.float64)


@dataclass(frozen=True)
class Node:
    """Scalar view of one sensor (for display/debug, not hot paths)."""

    node_id: int
    position: tuple[float, float, float]
    initial_energy: float

    @property
    def xyz(self) -> np.ndarray:
        return np.asarray(self.position, dtype=np.float64)


class NodeArray:
    """Immutable struct-of-arrays for N sensor nodes.

    The coordinates are held twice: as ``(N, 3)`` rows
    (:attr:`positions`) and as a ``(3, N)`` C-contiguous copy
    (:attr:`columns`), so a gather of many nodes reads three contiguous
    1-D columns instead of strided rows.  Both are read-only, and a
    mobility step builds a new array, so the copy never goes stale.  It
    is derived on first use and left out of pickles: a snapshot stores
    the rows alone, byte for byte as before.

    Parameters
    ----------
    positions:
        ``(N, 3)`` float array of node coordinates.
    initial_energy:
        Either a scalar (homogeneous network, paper §5.1) or an
        ``(N,)`` array (heterogeneous, §5.3 dataset experiment).
    """

    def __init__(self, positions: np.ndarray, initial_energy) -> None:
        positions = np.asarray(positions, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise ValueError("positions must have shape (N, 3)")
        if positions.shape[0] == 0:
            raise ValueError("need at least one node")
        energy = np.broadcast_to(
            np.asarray(initial_energy, dtype=np.float64), (positions.shape[0],)
        ).copy()
        if np.any(energy <= 0.0):
            raise ValueError("initial energies must be positive")
        self._positions = positions.copy()
        self._positions.flags.writeable = False
        self._energy = energy
        self._energy.flags.writeable = False

    #: The coordinate columns: derived on first use, never pickled.
    _columns: np.ndarray | None = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_columns", None)
        return state

    @property
    def n(self) -> int:
        return self._positions.shape[0]

    @property
    def positions(self) -> np.ndarray:
        """Read-only ``(N, 3)`` coordinate array."""
        return self._positions

    @property
    def columns(self) -> np.ndarray:
        """Read-only ``(3, N)`` C-contiguous coordinates: ``columns[a]``
        is axis ``a`` of every node (bitwise ``positions[:, a]``)."""
        if self._columns is None:
            cols = np.ascontiguousarray(self._positions.T)
            cols.flags.writeable = False
            self._columns = cols
        return self._columns

    @property
    def initial_energy(self) -> np.ndarray:
        """Read-only ``(N,)`` initial-energy array."""
        return self._energy

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> Node:
        if not -self.n <= i < self.n:
            raise IndexError(f"node index {i} out of range for {self.n} nodes")
        i = i % self.n
        return Node(
            node_id=i,
            position=tuple(self._positions[i]),
            initial_energy=float(self._energy[i]),
        )

    def __iter__(self):
        return (self[i] for i in range(self.n))

    def distances_to(self, point: np.ndarray) -> np.ndarray:
        """Euclidean distance from every node to ``point`` (shape (3,))."""
        point = np.asarray(point, dtype=np.float64)
        if point.shape != (3,):
            raise ValueError("point must have shape (3,)")
        return euclidean(point, self._positions)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NodeArray(n={self.n})"
