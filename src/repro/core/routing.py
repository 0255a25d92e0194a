"""Q-learning packet routing (paper §4.2, Algorithm 4).

For each non-cluster-head node ``b_i`` the state space is
``S(b_i) = {b_i, h_BS} ∪ H`` and each action ``a_j`` forwards the
packet to head ``h_j`` (or directly to the BS).  Algorithm 4 is a
*model-based expected backup*: using the ACK-estimated link
probabilities ``P^{a_j}_{b_i h_j}`` the node computes, for every
action,

    Q*(b_i, a_j) = R_t + gamma * (P * V*(h_j) + (1 - P) * V*(b_i))

then updates ``V*(b_i) = max_j Q*`` and forwards to the argmax head.
Nodes never need to *take* an action to evaluate it — exactly the
paper's point about Q-learning with a known local model.

Cluster heads run the same backup for their single BS action at round
end (Algorithm 1, line 15); the BS penalty ``l`` of Eq. (19) does not
apply to heads, whose designated job is the BS uplink.

Two extensions beyond the paper are provided for the ablation study:
``epsilon``-greedy exploration, and a *sampled* TD backup
(``learning_rate`` is not None) replacing the expected one.
"""

from __future__ import annotations

import numpy as np

from ..config import QLearningConfig
from ..kernels.base import budget_rows
from ..rl.policies import EpsilonGreedyPolicy, GreedyPolicy, Policy
from ..rl.qtable import VTable
from ..simulation.state import NetworkState
from .rewards import RewardModel

__all__ = ["QRouter", "TILE_BYTES", "tile_rows"]

#: Bytes of one ``(rows, k+1)`` float64 plane of a relay-choice tile.
#: A tile's handful of live planes then fits a per-core L2 cache.
TILE_BYTES = 256 * 1024


def tile_rows(m: int, max_block_mb: float | None = None) -> int:
    """Sender rows per Q-block tile for ``m`` actions: a
    :data:`TILE_BYTES` plane, capped by the ``max_block_mb`` distance
    budget; at least 1."""
    rows = TILE_BYTES // (8 * m)
    if max_block_mb is not None:
        rows = min(rows, budget_rows(m, max_block_mb))
    return max(1, rows)


class QRouter:
    """Per-run routing brain shared by all nodes (the V "matrix").

    Parameters
    ----------
    state:
        The network this router observes (link estimates, residual
        energies, geometry).
    reward_model:
        Evaluator of Eqs. (16)-(20).
    qconfig:
        Discount and convergence parameters.
    epsilon:
        Exploration rate for relay choice; the paper's algorithm is
        purely greedy (epsilon = 0).
    learning_rate:
        When given, Q backups become sampled TD updates with this step
        size instead of full expected backups (ablation variant).
    """

    def __init__(
        self,
        state: NetworkState,
        reward_model: RewardModel,
        qconfig: QLearningConfig,
        epsilon: float = 0.0,
        learning_rate: float | None = None,
        policy: Policy | None = None,
    ) -> None:
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        if learning_rate is not None and not 0.0 < learning_rate <= 1.0:
            raise ValueError("learning_rate must lie in (0, 1]")
        self.state = state
        self.rewards = reward_model
        self.cfg = qconfig
        self.epsilon = epsilon
        self.learning_rate = learning_rate
        if policy is not None:
            self.policy: Policy = policy
        elif epsilon > 0.0:
            self.policy = EpsilonGreedyPolicy(epsilon)
        else:
            self.policy = GreedyPolicy()
        self.v = VTable(state.n)
        #: Kernel backend for the batched Q block (shared with every
        #: substrate of the state; bit-identical across backends).
        self.kernels = state.kernels
        #: Number of Q evaluations performed (the per-call k+1 of
        #: Lemma 3); together with ``v.update_count`` this measures X.
        self.q_evaluations = 0

    # ------------------------------------------------------------------
    def action_targets(self, heads: np.ndarray) -> np.ndarray:
        """The action set A(b_i): every head plus the direct-BS action."""
        heads = np.asarray(heads, dtype=np.intp)
        return np.concatenate([heads, [self.state.bs_index]])

    def q_values(self, node: int, heads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized Algorithm 4, line 1: Q*(b_i, a_j) for all actions.

        Returns ``(q, targets)`` where ``targets[j]`` is the relay
        reached by action j (the last entry is the base station).
        """
        st = self.state
        targets = self.action_targets(heads)
        distances = st.distances_from(node, targets)
        p = st.link_estimator.row(node)[targets]
        # Residual energy of each candidate; the BS is mains-powered —
        # its x(.) contribution is pinned to 0 so Eq. (19)'s penalty l
        # alone governs the direct-uplink tradeoff.
        is_bs = targets == st.bs_index
        e_dst = np.where(
            is_bs, 0.0, st.ledger.residual[np.where(is_bs, 0, targets)]
        )
        r_t = self.rewards.expected_reward(
            p, float(st.ledger.residual[node]), e_dst, distances, is_bs
        )
        v_targets = self.v.get_many(targets)
        q = r_t + self.cfg.gamma * (p * v_targets + (1.0 - p) * self.v[node])
        self.q_evaluations += q.size
        return q, targets

    # ------------------------------------------------------------------
    def choose(self, node: int, heads: np.ndarray,
               rng: np.random.Generator | None = None) -> int:
        """Algorithm 4: back up V(b_i) and return the chosen relay."""
        heads = np.asarray(heads, dtype=np.intp)
        if heads.size == 0:
            return self.state.bs_index
        q, targets = self.q_values(node, heads)
        v_new = float(q.max())
        if self.learning_rate is None:
            self.v[node] = v_new
        else:
            old = self.v[node]
            self.v[node] = old + self.learning_rate * (v_new - old)
        return int(targets[self.policy.select(q, rng)])

    def _q_block(
        self, nodes: np.ndarray, heads: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched Q block + fused row max on the kernel backend.

        Returns ``(q, v_new, targets)``.  Row i of ``q`` is bitwise
        identical to ``q_values(nodes[i], heads)[0]``: the distances,
        the transcendental cost ``y`` (the radio's ``d**4``) and the
        residual normalisations are computed by the same shared numpy
        code as the scalar path, and the backend's ``expected_q``
        combine preserves the reference's per-element expression tree
        exactly (see :mod:`repro.kernels.base`).

        The block is evaluated over sender tiles of :func:`tile_rows`
        rows, distance -> ``y`` -> ``expected_q`` -> row max per tile,
        so the working set stays cache-sized instead of streaming a
        dozen full ``(senders, k+1)`` temporaries through memory.
        Every element is an independent function of its row and
        column, so the tiling changes wall-clock and nothing else.
        """
        st = self.state
        targets = self.action_targets(heads)
        nodes = np.asarray(nodes, dtype=np.intp)
        n, m = nodes.size, targets.size
        k = m - 1  # targets[:k] are the heads, targets[k] the BS
        p = st.link_estimator.block(nodes, targets)
        is_bs = targets == st.bs_index
        e_dst = np.where(
            is_bs, 0.0, st.ledger.residual[np.where(is_bs, 0, targets)]
        )
        x_src = self.rewards.x(st.ledger.residual[nodes])
        x_dst = self.rewards.x(e_dst)
        v_targets = self.v.get_many(targets)
        v_self = self.v.get_many(nodes)
        src = st.nodes.positions[nodes]
        dst = st.nodes.positions[targets[:k]]
        d_bs = st.topology.d_to_bs[nodes]
        c = self.rewards.cfg
        q = np.empty((n, m), dtype=np.float64)
        v_new = np.empty(n, dtype=np.float64)
        rows = tile_rows(m, st.config.max_block_mb)
        for a in range(0, n, rows):
            b = min(a + rows, n)
            d = np.empty((b - a, m), dtype=np.float64)
            if k:
                d[:, :k] = self.kernels.distance_block(src[a:b], dst)
            d[:, k] = d_bs[a:b]
            q[a:b], v_new[a:b] = self.kernels.expected_q(
                p[a:b],
                self.rewards.y(d),
                x_src[a:b],
                x_dst,
                is_bs,
                v_targets,
                v_self[a:b],
                g=c.g,
                alpha1=c.alpha1,
                alpha2=c.alpha2,
                beta1=c.beta1,
                beta2=c.beta2,
                bs_penalty=c.bs_penalty,
                gamma=self.cfg.gamma,
            )
        self.q_evaluations += q.size
        return q, v_new, targets

    def q_values_many(
        self, nodes: np.ndarray, heads: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`q_values`: the ``(len(nodes), k+1)`` Q block.

        Row i is bitwise identical to ``q_values(nodes[i], heads)[0]``:
        every term is an elementwise op evaluated in the scalar path's
        order, so evaluating senders together (on any kernel backend)
        changes nothing but wall-clock.
        """
        q, _, targets = self._q_block(nodes, heads)
        return q, targets

    def choose_many(
        self,
        nodes: np.ndarray,
        heads: np.ndarray,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Batched Algorithm 4 over one slot's senders.

        Valid because senders are non-heads whose backups only write
        their *own* V entry: within a slot the updates are independent,
        so the batch equals the sequential sorted-order loop (the
        engine's canonical order) exactly — including the policy's
        tie-break draws, consumed in row order.
        """
        nodes = np.asarray(nodes, dtype=np.intp)
        heads = np.asarray(heads, dtype=np.intp)
        if heads.size == 0:
            return np.full(nodes.size, self.state.bs_index, dtype=np.intp)
        q, v_new, targets = self._q_block(nodes, heads)
        if self.learning_rate is None:
            self.v.set_many(nodes, v_new)
        else:
            old = self.v.get_many(nodes)
            self.v.set_many(nodes, old + self.learning_rate * (v_new - old))
        return targets[self.policy.select_batch(q, rng)]

    def ch_backup(self, head: int) -> None:
        """Algorithm 1, line 15: a head refreshes its V from the BS
        uplink action.

        No BS penalty applies (the uplink is the head's designated
        job), and the cost term prices the *compressed* per-packet
        share of the aggregate — the "processed data" the head actually
        transmits after fusion.
        """
        st = self.state
        d = st.distance(head, st.bs_index)
        p = st.link_estimator.get(head, st.bs_index)
        compressed = st.config.compression_ratio * st.config.traffic.packet_bits
        r_t = float(
            self.rewards.expected_reward(
                p, float(st.ledger.residual[head]), 0.0, d,
                is_bs=None, bits=compressed,
            )
        )
        q = r_t + self.cfg.gamma * (p * self.v[st.bs_index] + (1.0 - p) * self.v[head])
        self.v[head] = q
        self.q_evaluations += 1

    def ch_backup_many(self, heads: np.ndarray) -> None:
        """Batched :meth:`ch_backup` over one round's live heads.

        Heads write only their own V entries and read only the BS's
        (never another head's), so the batch equals the sequential loop
        exactly — every term is the same elementwise arithmetic.
        """
        heads = np.asarray(heads, dtype=np.intp)
        if heads.size == 0:
            return
        st = self.state
        d = st.topology.d_to_bs[heads]
        p = st.link_estimator.estimates[heads, st.bs_index]
        compressed = st.config.compression_ratio * st.config.traffic.packet_bits
        r_t = self.rewards.expected_reward(
            p, st.ledger.residual[heads], 0.0, d, is_bs=None, bits=compressed
        )
        q = r_t + self.cfg.gamma * (
            p * self.v[st.bs_index] + (1.0 - p) * self.v.get_many(heads)
        )
        self.v.set_many(heads, q)
        self.q_evaluations += heads.size

    # ------------------------------------------------------------------
    def relax(self, node_indices: np.ndarray, heads: np.ndarray) -> int:
        """Iterate expected backups over ``node_indices`` until the V
        table converges (paper §3.3: "update V values ... so that V can
        converge very fast").

        Returns the number of full sweeps used.  The total single-entry
        update count is available via ``self.v.update_count`` — the X of
        Lemma 3's O(kX) bound.
        """
        node_indices = np.asarray(node_indices, dtype=np.intp)
        heads = np.asarray(heads, dtype=np.intp)
        if node_indices.size == 0 or heads.size == 0:
            return 0
        for sweep in range(1, self.cfg.max_backups + 1):
            delta = 0.0
            for node in node_indices:
                q, _ = self.q_values(int(node), heads)
                v_new = float(q.max())
                delta = max(delta, abs(v_new - self.v[int(node)]))
                self.v[int(node)] = v_new
            if delta < self.cfg.tol:
                return sweep
        return self.cfg.max_backups
