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

Greedy relay choice over a large action set scores only the heads a
reward bound cannot rule out (:meth:`QRouter.choose_many`); the picks,
V updates and tie-break draws are those of the full Q block, bit for
bit (docs/kernels.md, "Exact candidate pruning").
"""

from __future__ import annotations

import numpy as np

from ..config import QLearningConfig
from ..kernels.base import budget_rows, euclidean_columns
from ..kernels.numpy_backend import expected_q_tree
from ..rl.policies import EpsilonGreedyPolicy, GreedyPolicy, Policy
from ..rl.qtable import VTable
from ..simulation.state import NetworkState
from .rewards import RewardModel

__all__ = ["HeadGrid", "PRUNE_MIN_ACTIONS", "QRouter", "TILE_BYTES", "tile_rows"]

#: Bytes of one ``(rows, k+1)`` float64 plane of a relay-choice tile.
#: A tile's handful of live planes then fits a per-core L2 cache.
TILE_BYTES = 256 * 1024

#: Smallest action set (heads plus the BS action) on which greedy relay
#: choice prunes candidates; smaller sets score the whole tiled block,
#: which is cheaper there.  Set at the measured crossover
#: (docs/kernels.md).
PRUNE_MIN_ACTIONS = 64

#: Rounding allowance of the pruning bound, relative to the magnitudes
#: of the terms of a row (2**-40, about 8000 units in the last place):
#: far above the error of the dozen correctly rounded ops behind one q.
BOUND_SLACK = 2.0**-40

#: Relative widening of every pruning radius; covers the few-ulp
#: rounding of distances, of ``RewardModel.max_distance`` and of the
#: triangle inequality.
RADIUS_MARGIN = 1.0 + 2.0**-30

#: Heads listed per grid cell (the nearest ones).  A query that would
#: read past the list takes every head; at one cell per head that is
#: rare (about 0.5% of senders on scale-1e5).
GRID_DEPTH = 32

#: Cells whose distances to every head are computed at once while
#: building the index: its temporaries stay a few hundred KiB instead
#: of growing with cells x heads, i.e. with k².
GRID_CHUNK = 64


def tile_rows(m: int, max_block_mb: float | None = None) -> int:
    """Sender rows per Q-block tile for ``m`` actions: a
    :data:`TILE_BYTES` plane, capped by the ``max_block_mb`` distance
    budget; at least 1."""
    rows = TILE_BYTES // (8 * m)
    if max_block_mb is not None:
        rows = min(rows, budget_rows(m, max_block_mb))
    return max(1, rows)


class HeadGrid:
    """Spatial index of one head set for candidate pruning.

    A uniform grid of about one cell per head covers the heads'
    bounding box, and each cell lists its :data:`GRID_DEPTH` nearest
    heads sorted by distance to the cell's centre.  By the triangle
    inequality, every head within ``r`` of a sender lies within
    ``r + s`` of the centre of the sender's cell, where ``s`` is the
    sender's distance to that centre.  This holds for any sender
    position, inside the box or not, so the index depends on the heads
    alone.  A query whose ball reaches past the end of a cell's list
    takes every head.
    """

    def __init__(self, heads: np.ndarray, columns: np.ndarray) -> None:
        """``columns``: the heads' ``(3, k)`` coordinate columns."""
        self.heads = heads.copy()
        self.columns = columns.copy()
        k = heads.size
        self.lo = columns.min(axis=1)
        span = columns.max(axis=1) - self.lo
        # About k cubic cells; an axis thinner than a cell gets one.
        spread = span > 0.0
        while spread.any():
            side = (np.prod(span[spread]) / k) ** (1.0 / spread.sum())
            thin = spread & (span < side)
            if not thin.any():
                break
            spread &= ~thin
        self.dims = np.ones(3, dtype=np.intp)
        if spread.any():
            self.dims[spread] = np.ceil(span[spread] / side)
        self.cell = np.where(spread, span / self.dims, 1.0)
        #: ``axes[a][i]``: coordinate ``a`` of the centre of every cell
        #: with index ``i`` along axis ``a``.
        self.axes = [
            self.lo[a] + (np.arange(self.dims[a]) + 0.5) * self.cell[a]
            for a in range(3)
        ]
        centres = np.stack(np.meshgrid(*self.axes, indexing="ij")).reshape(3, -1)
        n_cells = centres.shape[1]
        self.depth = min(GRID_DEPTH, k)
        #: ``order[c]``: the columns of the heads nearest centre ``c``,
        #: nearest first; ``d[c]`` their distances to it.
        self.order = np.empty((n_cells, self.depth), dtype=np.intp)
        d = np.empty(self.order.shape, dtype=np.float64)
        for a in range(0, n_cells, GRID_CHUNK):
            b = a + GRID_CHUNK
            block = euclidean_columns(centres[:, a:b, None], columns[:, None, :])
            near = np.argpartition(block, self.depth - 1, axis=1)[:, : self.depth]
            block = np.take_along_axis(block, near, axis=1)
            by_distance = np.argsort(block, axis=1)
            self.order[a:b] = np.take_along_axis(near, by_distance, axis=1)
            d[a:b] = np.take_along_axis(block, by_distance, axis=1)
        #: Every cell's list back to back, then all heads in column order.
        self.lists = np.concatenate([self.order.ravel(), np.arange(k)])
        self.everyone = self.order.size
        # One sorted key array for every cell: row c is offset by
        # c * stride, a power of two above twice the largest distance,
        # so the offsets are exact and rows never interleave.
        self.stride = 2.0 ** np.ceil(np.log2(2.0 * d.max() + 2.0))
        rows = np.arange(n_cells)
        self.keys = (d + (rows * self.stride)[:, None]).ravel()

    def matches(self, heads: np.ndarray, columns: np.ndarray) -> bool:
        return np.array_equal(self.heads, heads) and np.array_equal(
            self.columns, columns
        )

    def locate(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cell of each point of the ``(3, n)`` coordinate columns
        ``points`` (clamped into the grid) and the point's distance to
        that cell's centre.  Each axis is binned on its own column, and
        the cell number is an exact integer multiply-add."""
        cells = 0
        centre = []
        for a in range(3):
            i = np.floor((points[a] - self.lo[a]) / self.cell[a]).astype(np.intp)
            np.clip(i, 0, self.dims[a] - 1, out=i)
            cells = cells * self.dims[a] + i
            centre.append(self.axes[a][i])
        return cells, euclidean_columns(points, centre)

    def candidates(
        self, cells: np.ndarray, radius: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, cols)``: for each query row, grouped by row, a
        superset of the head columns within ``radius[row]`` of the
        centre of ``cells[row]``."""
        query = cells * self.stride + np.minimum(radius, 0.5 * self.stride)
        # Searching in ascending query order walks the keys once (about
        # 3x faster than in sender order); each count is the same.
        by_query = np.argsort(query)
        count = np.empty(cells.size, dtype=np.intp)
        count[by_query] = np.searchsorted(self.keys, query[by_query], side="right")
        count -= cells * self.depth
        start = cells * self.depth
        if self.depth < self.heads.size:
            # The ball may reach past the end of the list: every head.
            full = count >= self.depth
            count[full] = self.heads.size
            start[full] = self.everyone
        rows = np.repeat(np.arange(cells.size), count)
        first = np.cumsum(count) - count
        at = np.arange(rows.size) + np.repeat(start - first, count)
        return rows, self.lists[at]


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

    #: Index of the current head set for pruned relay choice: derived
    #: scratch state, rebuilt on demand and never pickled.
    _grid: HeadGrid | None = None

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
        #: Number of Q evaluations performed: the logical k+1 per
        #: sender of Lemma 3, pruned or not; together with
        #: ``v.update_count`` this measures X.
        self.q_evaluations = 0

    def drop_index(self) -> None:
        """Release the head index (at round end, when the head set is
        about to change)."""
        self._grid = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_grid", None)
        return state

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

        The greedy policy on at least :data:`PRUNE_MIN_ACTIONS` actions
        scores only the heads the reward bound cannot rule out
        (:meth:`_choose_pruned`); every other case scores the whole
        tiled block.  Both give the same bits.
        """
        nodes = np.asarray(nodes, dtype=np.intp)
        heads = np.asarray(heads, dtype=np.intp)
        if heads.size == 0:
            return np.full(nodes.size, self.state.bs_index, dtype=np.intp)
        chosen = None
        if heads.size + 1 >= PRUNE_MIN_ACTIONS and type(self.policy) is GreedyPolicy:
            chosen = self._choose_pruned(nodes, heads, rng)
        if chosen is None:
            q, v_new, targets = self._q_block(nodes, heads)
            chosen = targets[self.policy.select_batch(q, rng)], v_new
        picks, v_new = chosen
        if self.learning_rate is None:
            self.v.set_many(nodes, v_new)
        else:
            old = self.v.get_many(nodes)
            self.v.set_many(nodes, old + self.learning_rate * (v_new - old))
        return picks

    def _score(self, p, d, x_src, x_dst, v_targets, v_self, is_bs=False) -> np.ndarray:
        """Exact q of (sender, action) pairs at distances ``d`` from
        their gathered operands, laid out in any broadcast shape: the
        block's ``y`` and Q combine.  ``is_bs`` masks the last axis as
        in :func:`expected_q_tree`."""
        c = self.rewards.cfg
        return expected_q_tree(
            p, self.rewards.y(d), x_src, x_dst, is_bs, v_targets, v_self,
            g=c.g, alpha1=c.alpha1, alpha2=c.alpha2, beta1=c.beta1,
            beta2=c.beta2, bs_penalty=c.bs_penalty, gamma=self.cfg.gamma,
        )

    def _choose_pruned(
        self,
        nodes: np.ndarray,
        heads: np.ndarray,
        rng: np.random.Generator | None,
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Greedy Algorithm 4 scoring only the heads that can reach the
        row max; returns ``(picks, v_new)`` as the full block would, or
        None when the bound does not apply.

        With ``p`` in [0, 1] and ``alpha1, beta1, gamma >= 0``, every
        head action obeys ``q_ij <= B_i - min(alpha2, beta2) * y_ij``,
        ``B_i = -g + max(alpha1 (x_i + max_h x_h), beta1 x_i) + gamma
        max(max_h V_h, V_i)``.  ``L_i``, the larger exact q of one
        nearby head and of the BS action, is at most the row max, so a
        head whose cost exceeds ``(B_i - L_i + slack_i) / min(alpha2,
        beta2)`` is strictly below the row max: never the argmax, never
        in the tie set.  The slack covers the rounding of every q and of
        the bound itself (docs/kernels.md).
        """
        st = self.state
        c = self.rewards.cfg
        lo_w, hi_w = min(c.alpha2, c.beta2), max(c.alpha2, c.beta2)
        denom = lo_w - BOUND_SLACK * hi_w
        if denom <= 0.0:
            return None
        n, k = nodes.size, heads.size
        xyz = st.nodes.columns
        head_cols = xyz.take(heads, axis=1)
        grid = self._grid
        if grid is None or not grid.matches(heads, head_cols):
            grid = self._grid = HeadGrid(heads, head_cols)
        gamma = self.cfg.gamma
        src = xyz.take(nodes, axis=1)
        x_src = self.rewards.x(st.ledger.residual[nodes])
        v_self = self.v.get_many(nodes)
        # Per-action operands, gathered once and read by action column:
        # the heads in columns 0..k-1, the BS in column k.  The BS is
        # mains-powered, so its x(.) is pinned to 0, as in the block.
        targets = self.action_targets(heads)
        p = st.link_estimator.block(nodes, targets)
        x_act = self.rewards.x(np.append(st.ledger.residual[heads], 0.0))
        v_act = self.v.get_many(targets)
        # Two exact columns per sender: the head nearest its cell's
        # centre, and the BS.
        cells, d_cell = grid.locate(src)
        pair = np.empty((n, 2), dtype=np.intp)
        pair[:, 0] = grid.order[cells, 0]
        pair[:, 1] = k
        d = np.empty((n, 2), dtype=np.float64)
        d[:, 0] = euclidean_columns(src, head_cols.take(pair[:, 0], axis=1))
        d[:, 1] = st.topology.d_to_bs[nodes]
        q2 = self._score(
            p[np.arange(n)[:, None], pair], d, x_src[:, None], x_act[pair],
            v_act[pair], v_self[:, None], np.array([False, True]),
        )
        q_bs = q2[:, 1]
        floor = np.maximum(q2[:, 0], q_bs)  # L_i <= row max
        # The bound B_i, and its slack: BOUND_SLACK times the size of
        # every term a q of this row or the bound adds up.
        v_heads = v_act[:k]
        own = c.alpha1 * (x_src + x_act[:k].max())
        fail = c.beta1 * x_src
        v_term = gamma * np.maximum(v_heads.max(), v_self)
        slack = BOUND_SLACK * (
            abs(c.g) + own + fail + np.abs(floor)
            + gamma * (np.abs(v_heads).max() + np.abs(v_self))
        )
        cost = (np.maximum(own, fail) - c.g + v_term - floor + slack) / denom
        radius = self.rewards.max_distance(cost) * RADIUS_MARGIN
        if not np.isfinite(radius).all():
            return None
        # Candidates: heads the index cannot place beyond the radius,
        # then those whose exact distance is within it.
        rows, cols = grid.candidates(cells, (radius + d_cell) * RADIUS_MARGIN)
        d = euclidean_columns(src.take(rows, axis=1), head_cols.take(cols, axis=1))
        keep = np.flatnonzero(d <= radius[rows])
        rows, cols, d = rows.take(keep), cols.take(keep), d.take(keep)
        q = self._score(
            p[rows, cols], d, x_src[rows], x_act[cols], v_act[cols], v_self[rows]
        )
        # Row max, first maximiser and tie count over the candidates
        # and the BS column (column k, after every head).
        v_new = q_bs.copy()
        picks = np.full(n, k, dtype=np.intp)
        ties = np.zeros(n, dtype=np.intp)
        if rows.size:
            starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
            owner = rows[starts]
            v_new[owner] = np.maximum(v_new[owner], np.maximum.reduceat(q, starts))
            hit = q == v_new[rows]
            picks[owner] = np.minimum.reduceat(np.where(hit, cols, k), starts)
            ties[owner] = np.add.reduceat(hit, starts)
        bs_ties = q_bs == v_new
        ties += bs_ties
        if rng is not None:
            for i in np.flatnonzero(ties > 1):
                mine = rows == i
                tied = np.sort(cols[mine][q[mine] == v_new[i]])
                if bs_ties[i]:
                    tied = np.append(tied, k)
                picks[i] = rng.choice(tied)
        self.q_evaluations += n * (k + 1)
        return targets[picks], v_new

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
