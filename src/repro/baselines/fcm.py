"""Fuzzy C-Means clustering and the FCM-based baseline (Wang et al. [14]).

The paper compares against "a newly proposed FCM-based algorithm"
(Wang, Qin & Liu, WCNC 2018) which it summarizes as: FCM membership
clustering that "employs the concept of maximizing residual energy when
choosing cluster heads", a division of the WSN "into different
hierarchies based on the distance to the BS", and "a dynamic multi-hop
routing algorithm".  §5.2 attributes its packet losses to the fact that
"it takes multi-hops to transmit a packet to the BS under this model".

Reproduction:

* from-scratch fuzzy C-means (fuzzifier m, row-stochastic membership
  matrix U, alternating centroid/membership updates);
* per cluster, the head is the member maximizing *residual energy*
  (membership-weighted, so far-away high-energy nodes don't hijack a
  cluster);
* hierarchy levels: equal-width rings of distance-to-BS; a head at
  level L uplinks through the nearest head at a lower level (multi-hop
  chain toward the BS), paying per-hop energy and per-hop loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..network.topology import _pairwise_distances, _sq_norms
from ..routing.hierarchy import distance_levels, hierarchy_descent
from ..simulation.state import NetworkState
from .base import ClusteringProtocol, NearestHeadRelayMixin

__all__ = ["FCMResult", "fuzzy_c_means", "FCMProtocol"]


@dataclass(frozen=True)
class FCMResult:
    """Outcome of one fuzzy C-means run."""

    centroids: np.ndarray
    membership: np.ndarray  # (n, k), rows sum to 1
    objective: float
    iterations: int
    converged: bool

    def hard_labels(self) -> np.ndarray:
        return self.membership.argmax(axis=1)


def fuzzy_c_means(
    points: np.ndarray,
    k: int,
    m: float = 2.0,
    rng: np.random.Generator | int | None = None,
    max_iter: int = 200,
    tol: float = 1e-6,
) -> FCMResult:
    """Bezdek's fuzzy C-means.

    Minimizes ``J_m = sum_ij u_ij^m ||x_i - c_j||^2`` subject to
    row-stochastic memberships, by alternating the closed-form centroid
    and membership updates.

    Parameters
    ----------
    m:
        Fuzzifier, > 1 (2.0 is the standard choice).
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if points.ndim != 2 or n == 0 or points.shape[1] != 3:
        raise ValueError("points must be a non-empty (n, 3) array")
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n_points")
    if m <= 1.0:
        raise ValueError("fuzzifier m must exceed 1")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)

    # Random row-stochastic initial membership.
    u = gen.random((n, k)) + 1e-9
    u /= u.sum(axis=1, keepdims=True)

    exponent = 2.0 / (m - 1.0)
    pp = _sq_norms(points)
    centroids = np.zeros((k, points.shape[1]))
    it, converged = 0, False
    for it in range(1, max_iter + 1):
        um = u ** m
        centroids = (um.T @ points) / um.sum(axis=0)[:, None]
        d = _pairwise_distances(points, pp, centroids)
        d = np.maximum(d, 1e-12)
        # u_ij = d_ij^(-2/(m-1)) / sum_l d_il^(-2/(m-1)) — the O(nk)
        # form of the classical "1 / sum (d_ij/d_il)^e" update (the
        # ratio-tensor form is O(nk^2) memory and infeasible at the
        # 2896-node / k=272 dataset scale).
        u_new = d ** (-exponent)
        u_new /= u_new.sum(axis=1, keepdims=True)
        shift = float(np.abs(u_new - u).max())
        u = u_new
        if shift < tol:
            converged = True
            break
    if it == 0:  # max_iter < 1: no update ran
        return FCMResult(centroids, u, np.inf, max_iter, False)
    # The objective of the returned memberships, evaluated once.
    objective = float(((u ** m) * d ** 2).sum())
    return FCMResult(centroids, u, objective, it, converged)


class FCMProtocol(NearestHeadRelayMixin, ClusteringProtocol):
    """FCM-based hierarchical baseline (reproducing ref. [14])."""

    name = "fcm"

    def __init__(
        self,
        n_clusters: int | None = None,
        fuzzifier: float = 2.0,
        n_levels: int = 3,
    ) -> None:
        if n_levels < 1:
            raise ValueError("n_levels must be >= 1")
        self._n_clusters = n_clusters
        self.fuzzifier = fuzzifier
        self.n_levels = n_levels
        self.k: int | None = None
        self._labels: np.ndarray | None = None
        self._heads: np.ndarray | None = None

    def prepare(self, state: NetworkState) -> None:
        self.k = (
            self._n_clusters
            if self._n_clusters is not None
            else (state.config.n_clusters or max(1, round(np.sqrt(state.n))))
        )
        self._labels = None
        self._heads = None

    # ------------------------------------------------------------------
    def select_cluster_heads(self, state: NetworkState) -> np.ndarray:
        assert self.k is not None, "prepare() must run first"
        alive = state.alive_indices()
        if alive.size == 0:
            return np.empty(0, dtype=np.intp)
        k = min(self.k, alive.size)
        result = fuzzy_c_means(
            state.nodes.positions[alive], k, self.fuzzifier, rng=state.protocol_rng
        )
        labels = result.hard_labels()
        # Head selection: membership-weighted residual energy.  This is
        # the scheme's energy-maximizing rule; pure argmax-energy would
        # let a barely-member node head a distant cluster.
        residual = state.ledger.residual[alive]
        heads = []
        for j in range(k):
            mask = labels == j
            if not mask.any():
                continue
            score = result.membership[mask, j] * residual[mask]
            heads.append(int(alive[mask][score.argmax()]))
        self._heads = np.unique(np.asarray(heads, dtype=np.intp))
        return self._heads

    def choose_relay(
        self,
        state: NetworkState,
        node: int,
        heads: np.ndarray,
        queue_lengths: np.ndarray,
    ) -> int:
        # Members join the nearest head (hard assignment of the fuzzy
        # partition at the sensor level).
        d = state.distances_from(node, heads)
        return int(heads[d.argmin()])

    # ------------------------------------------------------------------
    def _levels(self, state: NetworkState, heads: np.ndarray) -> np.ndarray:
        """Equal-width distance-to-BS rings (delegates to the routing
        substrate's shared hierarchy primitive)."""
        return distance_levels(state, heads, self.n_levels)

    def uplink_path(
        self, state: NetworkState, head: int, heads: np.ndarray
    ) -> list[int]:
        """Greedy descent through the hierarchy via the shared routing
        primitive: hop to the nearest head in a strictly lower level,
        repeating until level 0 (whose heads talk to the BS directly).
        Bit-identical to the pre-substrate inline implementation."""
        heads = np.asarray(heads, dtype=np.intp)
        if heads.size <= 1:
            return []
        return hierarchy_descent(
            state, head, heads, self._levels(state, heads)
        )
