"""Vectorized geometric queries over the node population.

Distance evaluation is the single hottest primitive in the simulator:
every cluster-formation step, every Q backup, and every HELLO broadcast
range check reduces to "distances from a set of nodes to a set of
points".  This module centralizes those kernels so they are computed
once per round and shared (views, not copies — see the HPC guides).
"""

from __future__ import annotations

import sys

import numpy as np

from ..kernels.base import euclidean
from .node import BaseStation, NodeArray

__all__ = [
    "pairwise_distances",
    "distances_to_point",
    "Topology",
]


def pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix between row sets ``a`` (n,3) and ``b`` (m,3).

    Uses the expanded form ||a||^2 + ||b||^2 - 2 a.b so the dominant cost
    is one GEMM, with a clip guarding tiny negative round-off.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != 3 or b.shape[1] != 3:
        raise ValueError("inputs must have shape (n, 3) and (m, 3)")
    return _pairwise_distances(a, _sq_norms(a), b)


def _sq_norms(a: np.ndarray) -> np.ndarray:
    """Row squared norms ``||a_i||^2`` of a validated ``(n, 3)`` array."""
    return np.einsum("ij,ij->i", a, a)


def _pairwise_distances(a: np.ndarray, aa: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`pairwise_distances` without validation, given ``a``'s
    squared norms ``aa = _sq_norms(a)`` (a caller that measures one
    point set against many ``b`` computes them once)."""
    bb = _sq_norms(b)
    sq = aa[:, None] + bb[None, :] - 2.0 * (a @ b.T)
    np.maximum(sq, 0.0, out=sq)
    return np.sqrt(sq, out=sq)


def distances_to_point(points: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Distances from each row of ``points`` to a single ``target``."""
    points = np.asarray(points, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if target.shape != (3,):
        raise ValueError("target must have shape (3,)")
    return euclidean(target, points)


class Topology:
    """Precomputed geometry for one deployment.

    Caches the node->BS distance vector and lazily materializes the full
    node-node distance matrix only when a protocol actually needs it
    (k-means and FCM work on positions directly; QLEC only needs
    node->CH distances for the current CH set).
    """

    def __init__(self, nodes: NodeArray, bs: BaseStation) -> None:
        self.nodes = nodes
        self.bs = bs
        self._d_to_bs = distances_to_point(nodes.positions, bs.xyz)
        self._d_to_bs.flags.writeable = False
        self._full: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.nodes.n

    @property
    def d_to_bs(self) -> np.ndarray:
        """Read-only ``(N,)`` node -> base-station distances."""
        return self._d_to_bs

    @property
    def mean_d_to_bs(self) -> float:
        """Average node->BS distance; the paper (citing Bandyopadhyay &
        Coyle) approximates the CH->BS distance by this quantity."""
        return float(self._d_to_bs.mean())

    def __getstate__(self) -> dict:
        # The node->BS distances are derived from the positions; a
        # snapshot stores only the positions and recomputes them.
        state = self.__dict__.copy()
        del state["_d_to_bs"]
        return state

    def __setstate__(self, state: dict) -> None:
        # Interned keys, as pickle's default restore makes them (see
        # NetworkState.__setstate__), so a restored engine pickles to
        # the same bytes.
        self.__dict__.update((sys.intern(k), v) for k, v in state.items())
        self._d_to_bs = distances_to_point(self.nodes.positions, self.bs.xyz)
        self._d_to_bs.flags.writeable = False

    def full_matrix(self) -> np.ndarray:
        """Full ``(N, N)`` node-node distance matrix, computed once."""
        if self._full is None:
            p = self.nodes.positions
            self._full = pairwise_distances(p, p)
            self._full.flags.writeable = False
        return self._full

    def distances_to_subset(self, subset: np.ndarray) -> np.ndarray:
        """``(N, len(subset))`` distances from every node to the nodes in
        ``subset`` (e.g. the current cluster-head set)."""
        subset = np.asarray(subset)
        if subset.size == 0:
            return np.empty((self.n, 0), dtype=np.float64)
        if self._full is not None:
            return self._full[:, subset]
        p = self.nodes.positions
        return pairwise_distances(p, p[subset])

    def within_radius(self, center: int, radius: float) -> np.ndarray:
        """Indices of nodes within ``radius`` of node ``center``
        (excluding the center itself) — the HELLO broadcast footprint
        of Algorithm 2."""
        if radius < 0.0:
            raise ValueError("radius must be non-negative")
        d = self.distances_to_subset(np.asarray([center]))[:, 0]
        mask = d <= radius
        mask[center] = False
        return np.flatnonzero(mask)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Topology(n={self.n}, mean_d_to_bs={self.mean_d_to_bs:.2f})"
