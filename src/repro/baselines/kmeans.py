"""From-scratch k-means clustering and the k-means baseline protocol.

The paper's Fig. 3 comparison includes "classic k-means clustering":
nodes are partitioned purely by geometry ("k-means clusters nodes based
on the distance between them"), the node nearest each centroid serves
as cluster head, and members always relay through their own (nearest)
head.  No energy awareness anywhere — which is exactly why it loses on
lifespan.

The clustering kernel is an independent, reusable implementation of
Lloyd's algorithm with k-means++ seeding (Definition 2 of the paper is
the k-means problem; Kanungo et al. [8] is the citation).  Fully
vectorized: the assignment step is one distance-matrix evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..network.topology import pairwise_distances
from ..simulation.state import NetworkState
from .base import ClusteringProtocol

__all__ = ["KMeansResult", "kmeans_plus_plus_init", "kmeans", "KMeansProtocol"]


@dataclass(frozen=True)
class KMeansResult:
    """Outcome of one Lloyd run."""

    centroids: np.ndarray
    labels: np.ndarray
    inertia: float
    iterations: int
    converged: bool


def kmeans_plus_plus_init(
    points: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding (D^2 sampling).

    Greatly reduces the chance Lloyd's converges to a poor local
    optimum; with a fixed generator the seeding is deterministic.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n_points")
    centroids = np.empty((k, points.shape[1]))
    first = int(rng.integers(n))
    centroids[0] = points[first]
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # All remaining points coincide with a centroid; any choice works.
            centroids[j:] = points[rng.integers(n, size=k - j)]
            break
        probs = d2 / total
        choice = int(rng.choice(n, p=probs))
        centroids[j] = points[choice]
        d2 = np.minimum(d2, ((points - centroids[j]) ** 2).sum(axis=1))
    return centroids


def kmeans(
    points: np.ndarray,
    k: int,
    rng: np.random.Generator | int | None = None,
    max_iter: int = 100,
    tol: float = 1e-6,
    init: np.ndarray | None = None,
) -> KMeansResult:
    """Lloyd's algorithm.

    Parameters
    ----------
    points:
        ``(n, d)`` data.
    k:
        Cluster count, ``1 <= k <= n``.
    init:
        Optional explicit initial centroids (overrides k-means++).
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValueError("points must be a non-empty (n, d) array")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    centroids = (
        np.asarray(init, dtype=np.float64).copy()
        if init is not None
        else kmeans_plus_plus_init(points, k, gen)
    )
    if centroids.shape != (k, points.shape[1]):
        raise ValueError("init must have shape (k, d)")

    labels = np.zeros(points.shape[0], dtype=np.intp)
    inertia = np.inf
    for it in range(1, max_iter + 1):
        # Assignment step (one vectorized distance evaluation).
        d2 = (
            (points ** 2).sum(axis=1)[:, None]
            + (centroids ** 2).sum(axis=1)[None, :]
            - 2.0 * points @ centroids.T
        )
        np.maximum(d2, 0.0, out=d2)
        labels = d2.argmin(axis=1)
        new_inertia = float(d2[np.arange(points.shape[0]), labels].sum())
        # Update step; empty clusters are reseeded to the farthest point.
        new_centroids = centroids.copy()
        for j in range(k):
            mask = labels == j
            if mask.any():
                new_centroids[j] = points[mask].mean(axis=0)
            else:
                far = int(d2.min(axis=1).argmax())
                new_centroids[j] = points[far]
        shift = float(np.abs(new_centroids - centroids).max())
        centroids = new_centroids
        if shift < tol:
            return KMeansResult(centroids, labels, new_inertia, it, True)
        inertia = new_inertia
    return KMeansResult(centroids, labels, inertia, max_iter, False)


class KMeansProtocol(ClusteringProtocol):
    """Classic k-means baseline: geometry only, no energy awareness.

    Parameters
    ----------
    recluster_every:
        ``None`` (default) reproduces the *classic static* scheme the
        paper compares against: clusters and heads are computed once at
        deployment and never rotated, so heads drain, die, and strand
        their members (who fall back to direct-BS uplinks — the
        energy-wasting behaviour clustering was meant to remove).  An
        integer re-runs Lloyd's over the alive population every that
        many rounds — a much stronger adaptive variant used in the
        ablation benches.
    """

    name = "kmeans"

    def __init__(
        self, n_clusters: int | None = None, recluster_every: int | None = None
    ) -> None:
        if recluster_every is not None and recluster_every < 1:
            raise ValueError("recluster_every must be >= 1 or None")
        self._n_clusters = n_clusters
        self.recluster_every = recluster_every
        self._cached_heads: np.ndarray | None = None
        self._home_head: np.ndarray | None = None
        self.k: int | None = None

    def prepare(self, state: NetworkState) -> None:
        self.k = (
            self._n_clusters
            if self._n_clusters is not None
            else (state.config.n_clusters or max(1, round(np.sqrt(state.n))))
        )
        self._cached_heads = None
        self._home_head = None

    def _cluster(self, state: NetworkState) -> np.ndarray:
        alive = state.alive_indices()
        if alive.size == 0:
            return np.empty(0, dtype=np.intp)
        k = min(self.k, alive.size)
        result = kmeans(state.nodes.positions[alive], k, rng=state.protocol_rng)
        # Head = the alive node nearest each centroid (a centroid is a
        # virtual point; some sensor must do the job).
        d = pairwise_distances(result.centroids, state.nodes.positions[alive])
        heads = np.unique(alive[d.argmin(axis=1)])
        # Fixed membership: every node joins its nearest head.
        d_all = pairwise_distances(
            state.nodes.positions, state.nodes.positions[heads]
        )
        self._home_head = heads[d_all.argmin(axis=1)]
        self._cached_heads = heads
        return heads

    def select_cluster_heads(self, state: NetworkState) -> np.ndarray:
        assert self.k is not None, "prepare() must run first"
        if self._cached_heads is None:
            return self._cluster(state)
        if (
            self.recluster_every is not None
            and state.round_index % self.recluster_every == 0
        ):
            return self._cluster(state)
        heads = self._cached_heads
        return heads[state.ledger.alive[heads]]

    def choose_relay(
        self,
        state: NetworkState,
        node: int,
        heads: np.ndarray,
        queue_lengths: np.ndarray,
    ) -> int:
        if self._home_head is not None:
            home = int(self._home_head[node])
            if state.ledger.is_alive(home) and home in heads:
                return home
            if self.recluster_every is None:
                # Static scheme: a stranded member has no cluster left
                # and must report to the BS directly.
                return state.bs_index
        d = state.distances_from(node, heads)
        return int(heads[d.argmin()])

    def choose_relays(
        self,
        state: NetworkState,
        senders: np.ndarray,
        heads: np.ndarray,
        queue_lengths: np.ndarray,
    ) -> np.ndarray:
        senders = np.asarray(senders, dtype=np.intp)
        heads = np.asarray(heads, dtype=np.intp)
        if self._home_head is None:
            return state.links.nearest_heads(senders, heads)
        # A home head serves when it is alive and still a head: one
        # O(N) scatter of ``heads`` (the election's, or the set recovery
        # masked), then one gather, instead of a set test per sender.
        serving = np.zeros_like(state.ledger.alive)
        serving[heads] = state.ledger.alive[heads]
        home = self._home_head[senders]
        home_ok = serving[home]
        # Static scheme strands members of dead heads at the BS;
        # adaptive reclustering reassigns them to the nearest head.
        fallback = (
            np.full(senders.size, state.bs_index, dtype=np.intp)
            if self.recluster_every is None
            else state.links.nearest_heads(senders, heads)
        )
        return np.where(home_ok, home, fallback)
