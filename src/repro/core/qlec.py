"""The QLEC protocol (paper Algorithm 1): the primary contribution.

Two phases per round:

* **Cluster Head Selection** — improved DEEC (Algorithms 2-3) with the
  cluster count from Theorem 1 (or the configured override);
* **Data Transmission** — non-CH nodes route each packet through the
  Q-learning relay choice of Algorithm 4; at round end every head
  performs data fusion, uplinks to the BS, and refreshes its own V
  value (Algorithm 1, line 15).

The class is a :class:`~repro.baselines.base.ClusteringProtocol`
strategy; the simulation engine drives it.
"""

from __future__ import annotations

import numpy as np

from ..baselines.base import ClusteringProtocol
from ..rl.policies import Policy
from ..simulation.state import NetworkState
from .rewards import RewardModel
from .routing import QRouter
from .selection import ImprovedDEECSelector, SelectionConfig
from .theory import optimal_cluster_count_int

__all__ = ["QLECProtocol"]


class QLECProtocol(ClusteringProtocol):
    """QLEC: improved-DEEC head selection + Q-learning relay choice.

    Parameters
    ----------
    n_clusters:
        Cluster count k.  ``None`` (default) resolves, in order: the
        scenario config's ``n_clusters``, then Theorem 1's k_opt for
        the deployment.
    selection:
        Feature switches for the improved-DEEC selector (the ablation
        benchmarks disable pieces here).
    epsilon:
        Exploration rate for the router; the paper is greedy (0.0).
    learning_rate:
        When set, switches the router to sampled-TD backups
        (extension; ``None`` reproduces the paper's expected backup).
    policy:
        Explicit action-selection policy (overrides ``epsilon``); see
        :mod:`repro.rl.policies` for greedy / epsilon-greedy / softmax.
    """

    name = "qlec"

    def __init__(
        self,
        n_clusters: int | None = None,
        selection: SelectionConfig | None = None,
        epsilon: float = 0.0,
        learning_rate: float | None = None,
        policy: Policy | None = None,
    ) -> None:
        self._n_clusters = n_clusters
        self._selection_cfg = selection if selection is not None else SelectionConfig()
        self._epsilon = epsilon
        self._learning_rate = learning_rate
        self._policy = policy
        self.selector: ImprovedDEECSelector | None = None
        self.router: QRouter | None = None
        self.k: int | None = None

    # ------------------------------------------------------------------
    def resolve_k(self, state: NetworkState) -> int:
        if self._n_clusters is not None:
            return self._n_clusters
        if state.config.n_clusters is not None:
            return state.config.n_clusters
        return optimal_cluster_count_int(
            n_nodes=state.n,
            side=state.config.deployment.side,
            d_to_bs=state.topology.mean_d_to_bs,
            radio=state.config.radio,
        )

    def prepare(self, state: NetworkState) -> None:
        self.k = self.resolve_k(state)
        self.selector = ImprovedDEECSelector(self.k, self._selection_cfg)
        rewards = RewardModel(
            state.config.qlearning,
            state.radio,
            state.config.traffic.packet_bits,
            energy_scale=float(state.ledger.initial.mean()),
        )
        self.router = QRouter(
            state,
            rewards,
            state.config.qlearning,
            epsilon=self._epsilon,
            learning_rate=self._learning_rate,
            policy=self._policy,
        )

    # ------------------------------------------------------------------
    def select_cluster_heads(self, state: NetworkState) -> np.ndarray:
        assert self.selector is not None, "prepare() must run first"
        return self.selector.select(state).heads

    def choose_relay(
        self,
        state: NetworkState,
        node: int,
        heads: np.ndarray,
        queue_lengths: np.ndarray,
    ) -> int:
        # Congestion feedback reaches the router through the ACK-driven
        # link estimator (queue drops -> missing ACKs -> lower P), so
        # queue_lengths is deliberately unused: the paper's Algorithm 4
        # conditions only on P, V, energies, and distances.
        assert self.router is not None, "prepare() must run first"
        return self.router.choose(node, heads, rng=state.protocol_rng)

    def choose_relays(
        self,
        state: NetworkState,
        senders: np.ndarray,
        heads: np.ndarray,
        queue_lengths: np.ndarray,
    ) -> np.ndarray:
        """One slot's relay choices as a single Q-block evaluation;
        exact vectorization of the scalar loop (senders back up only
        their own V entries)."""
        assert self.router is not None, "prepare() must run first"
        return self.router.choose_many(senders, heads, rng=state.protocol_rng)

    def on_round_end(self, state: NetworkState, heads: np.ndarray) -> None:
        assert self.router is not None
        heads = np.asarray(heads, dtype=np.intp)
        self.router.ch_backup_many(heads[state.ledger.alive[heads]])
        self.router.drop_index()

    # ------------------------------------------------------------------
    @property
    def v_update_count(self) -> int:
        """Total V-entry updates so far (the X of the O(kX) bound)."""
        return 0 if self.router is None else self.router.v.update_count
