"""Protocol strategy interface.

Every clustering/routing algorithm in the comparison — QLEC, the
FCM-based scheme, k-means, LEACH, classic DEEC, direct transmission —
implements this interface.  The simulation engine owns time, energy,
traffic, and the channel; a protocol only answers two questions each
round:

1. *who are the cluster heads?*  (``select_cluster_heads``)
2. *which head should node i relay through right now?*  (``choose_relay``)

plus optional feedback hooks so learning protocols can observe ACKs
and end-of-round events.
"""

from __future__ import annotations

import abc

import numpy as np

from ..simulation.state import NetworkState

__all__ = ["ClusteringProtocol", "NearestHeadRelayMixin"]


class ClusteringProtocol(abc.ABC):
    """Abstract base for round-based clustering protocols.

    Subclasses must be stateless across *runs* (a fresh instance per
    simulation) but may keep per-run learning state (QLEC's V table,
    LEACH's rotation history, ...).
    """

    #: Human-readable name used in result tables.
    name: str = "abstract"

    def prepare(self, state: NetworkState) -> None:
        """Called once before round 0; allocate per-run state here."""

    @abc.abstractmethod
    def select_cluster_heads(self, state: NetworkState) -> np.ndarray:
        """Return the indices of this round's cluster heads.

        Must only return alive nodes.  May return an empty array, in
        which case the engine falls back to direct-to-BS transmission
        for every node that round.
        """

    @abc.abstractmethod
    def choose_relay(
        self,
        state: NetworkState,
        node: int,
        heads: np.ndarray,
        queue_lengths: np.ndarray,
    ) -> int:
        """Pick the relay for one packet from ``node``.

        Parameters
        ----------
        node:
            Source node index.
        heads:
            This round's cluster heads (non-empty).
        queue_lengths:
            Current backlog at each head, aligned with ``heads``
            (observable congestion signal).

        Returns
        -------
        int
            Either an element of ``heads`` or ``state.bs_index`` for a
            direct base-station uplink.
        """

    def choose_relays(
        self,
        state: NetworkState,
        senders: np.ndarray,
        heads: np.ndarray,
        queue_lengths: np.ndarray,
    ) -> np.ndarray:
        """Batched :meth:`choose_relay`: one relay target per sender.

        The engine's batched slot kernel calls this once per slot with
        every sender that has a head-of-line packet, in canonical
        (ascending index) order.  The default falls back to the scalar
        method sender by sender — semantically identical, and exactly
        what sequentially-coupled protocols (QELAR's hop-by-hop V
        updates) need.  Vectorizable protocols override it.

        ``queue_lengths`` is the backlog snapshot taken at the start of
        the slot, aligned with ``heads``.
        """
        senders = np.asarray(senders, dtype=np.intp)
        return np.fromiter(
            (
                self.choose_relay(state, int(node), heads, queue_lengths)
                for node in senders
            ),
            dtype=np.intp,
            count=senders.size,
        )

    def uplink_path(
        self, state: NetworkState, head: int, heads: np.ndarray
    ) -> list[int]:
        """Relay chain a head's aggregated uplink traverses before the
        base station.

        The default (and QLEC's, per Algorithm 1 line 14: heads
        "transmit processed data directly to BS") is the empty chain.
        Hierarchical schemes (the FCM baseline) return intermediate
        cluster heads, nearest-to-BS last.
        """
        return []

    # ------------------------------------------------------------------
    # optional feedback hooks
    # ------------------------------------------------------------------
    def on_transmissions(
        self,
        state: NetworkState,
        nodes: np.ndarray,
        targets: np.ndarray,
        successes: np.ndarray,
    ) -> None:
        """One slot's ACK feedback as a batch (canonical sender order)."""

    def on_round_end(self, state: NetworkState, heads: np.ndarray) -> None:
        """Called after the CH->BS uplink completes each round."""

    # ------------------------------------------------------------------
    def validate_heads(self, state: NetworkState, heads: np.ndarray) -> np.ndarray:
        """Utility: keep only alive, in-range, unique head indices."""
        heads = np.unique(np.asarray(heads, dtype=np.intp))
        if heads.size == 0:
            return heads
        if heads.min() < 0 or heads.max() >= state.n:
            raise ValueError("cluster-head index out of range")
        return heads[state.ledger.alive[heads]]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class NearestHeadRelayMixin:
    """Vectorized ``choose_relays`` for join-the-nearest-head protocols
    (LEACH, DEEC, HEED, TL-LEACH, FCM's member stage ...).

    Argmins each sender's row of the sender x head distance block (the
    round's link table holds every node's nearest head) — the same
    sqrt pipeline as :meth:`NetworkState.distances_from`, so ties
    resolve to the same head index as the scalar rule.
    """

    def choose_relays(
        self,
        state: NetworkState,
        senders: np.ndarray,
        heads: np.ndarray,
        queue_lengths: np.ndarray,
    ) -> np.ndarray:
        return state.links.nearest_heads(senders, np.asarray(heads, dtype=np.intp))
