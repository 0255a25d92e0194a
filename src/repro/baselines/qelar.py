"""QELAR-style hop-by-hop Q-routing baseline (Hu & Fei 2010, ref. [6]).

QELAR is the Q-learning routing protocol the paper builds its reward
design on: *no clustering at all* — every node forwards packets to a
neighbour within radio range, learning per-neighbour values so routes
maximise residual energy and balance consumption while drifting toward
the sink.  The paper's Eq. (17)-(20) rewards are QELAR's, so the
implementation reuses :class:`~repro.core.rewards.RewardModel` with a
hop-by-hop action set.

Simplifications versus the original (documented deviations):

* neighbourhood = nodes within ``range_factor * d0`` (static per
  deployment snapshot; recomputed after mobility steps);
* greedy forwarding over Q with a progress guard: only neighbours
  strictly closer to the BS than the sender are candidates (QELAR's
  depth heuristic for underwater columns), with a direct-BS fallback
  when the BS itself is within range or no candidate remains;
* the V backup is the same expected-model update as QLEC's router,
  over the node's candidate set.

The engine runs it through the store-and-forward path (the protocol
sets ``hop_by_hop = True`` and never elects heads).
"""

from __future__ import annotations

import numpy as np

from ..core.rewards import RewardModel
from ..rl.qtable import VTable
from ..simulation.state import NetworkState
from .base import ClusteringProtocol

__all__ = ["QELARProtocol"]


class QELARProtocol(ClusteringProtocol):
    """Flat multi-hop Q-routing toward the base station."""

    name = "qelar"
    #: Engine switch: relay choices are neighbours, not cluster heads.
    hop_by_hop = True

    def __init__(self, range_factor: float = 1.2, max_candidates: int = 8) -> None:
        if range_factor <= 0.0:
            raise ValueError("range_factor must be positive")
        if max_candidates < 1:
            raise ValueError("max_candidates must be >= 1")
        self.range_factor = range_factor
        self.max_candidates = max_candidates
        self.rewards: RewardModel | None = None
        self.v: VTable | None = None
        self._radio_range: float = 0.0
        #: node -> candidate relay indices (progress-filtered).
        self._candidates: list[np.ndarray] | None = None
        #: The node array the candidates were built from (a reference,
        #: not an ``id()``, so a snapshot pickles no memory address).
        self._candidates_nodes = None

    # ------------------------------------------------------------------
    def prepare(self, state: NetworkState) -> None:
        self.rewards = RewardModel(
            state.config.qlearning,
            state.radio,
            state.config.traffic.packet_bits,
            energy_scale=float(state.ledger.initial.mean()),
        )
        self.v = VTable(state.n)
        self._radio_range = self.range_factor * state.radio.d0
        self._rebuild_neighbourhoods(state)

    def _rebuild_neighbourhoods(self, state: NetworkState) -> None:
        """Progress-filtered candidate sets from the current geometry."""
        d_bs = state.topology.d_to_bs
        full = state.topology.full_matrix()
        candidates: list[np.ndarray] = []
        for i in range(state.n):
            in_range = (full[i] <= self._radio_range) & (np.arange(state.n) != i)
            progress = d_bs < d_bs[i]  # strictly closer to the sink
            cand = np.flatnonzero(in_range & progress)
            if cand.size > self.max_candidates:
                order = np.argsort(full[i, cand])
                cand = cand[order[: self.max_candidates]]
            candidates.append(cand)
        self._candidates = candidates
        self._candidates_nodes = state.nodes

    def select_cluster_heads(self, state: NetworkState) -> np.ndarray:
        # Flat routing: no heads, ever.  Mobility may have replaced the
        # node array since the last round; refresh the neighbourhoods.
        if self._candidates_nodes is not state.nodes:
            self._rebuild_neighbourhoods(state)
        return np.empty(0, dtype=np.intp)

    # ------------------------------------------------------------------
    def choose_relay(
        self,
        state: NetworkState,
        node: int,
        heads: np.ndarray,
        queue_lengths: np.ndarray,
    ) -> int:
        assert self.v is not None and self.rewards is not None
        assert self._candidates is not None
        # Within sink range: deliver directly (the terminal hop).
        if state.topology.d_to_bs[node] <= self._radio_range:
            return state.bs_index
        cand = self._candidates[node]
        cand = cand[state.ledger.alive[cand]]
        if cand.size == 0:
            # Void region: last-resort long shot at the sink.
            return state.bs_index
        distances = state.distances_from(node, cand)
        p = state.link_estimator.estimates[node, cand]
        r_t = self.rewards.expected_reward(
            p,
            float(state.ledger.residual[node]),
            state.ledger.residual[cand],
            distances,
        )
        gamma = state.config.qlearning.gamma
        q = r_t + gamma * (
            p * self.v.get_many(cand) + (1.0 - p) * self.v[node]
        )
        self.v[node] = float(q.max())
        best = np.flatnonzero(q == q.max())
        pick = best[0] if best.size == 1 else state.protocol_rng.choice(best)
        return int(cand[pick])

    # ------------------------------------------------------------------
    def on_round_end(self, state: NetworkState, heads: np.ndarray) -> None:
        """Nodes within sink range back their value up from the BS —
        the terminal condition that anchors the whole V field."""
        assert self.v is not None and self.rewards is not None
        near = np.flatnonzero(
            (state.topology.d_to_bs <= self._radio_range) & state.ledger.alive
        )
        gamma = state.config.qlearning.gamma
        for i in near:
            d = float(state.topology.d_to_bs[i])
            p = state.link_estimator.get(int(i), state.bs_index)
            r_t = float(
                self.rewards.expected_reward(
                    p, float(state.ledger.residual[i]), 0.0, d
                )
            )
            self.v[int(i)] = r_t + gamma * (1.0 - p) * self.v[int(i)]
