"""Improved-DEEC cluster-head selection (paper §3.1, Algorithms 2-3).

Classic DEEC selects heads with probability proportional to residual
energy (Eq. 1) through the rotation threshold T(b_i) (Eq. 3).  The
paper adds two improvements, both implemented here behind flags so the
ablation benchmarks can switch them independently:

1. an *energy threshold* ``E_th(r) = [1 - (r/R)^2] * E_init`` (Eq. 4) a
   node must exceed to stand as a head, keeping nearly-drained nodes
   out of the rotation, and
2. *redundancy reduction* (Algorithm 3): a freshly-selected head
   broadcasts a HELLO carrying its residual energy over the cluster
   coverage radius d_c (Eq. 5); of two heads within d_c of each other,
   the lower-energy one quits.

The paper also specifies a replacement rule ("if a node possesses less
energy than needed, the improved DEEC algorithm will choose another
node up to the demand"), reproduced here as the fallback that promotes
the highest-residual-energy eligible nodes whenever the random draw
produces no head at all.

Both spacing rules run through one exact greedy walk,
:func:`spaced_greedy`, which takes the same heads as a per-candidate
loop bit for bit but at array speed (docs/kernels.md, "Exact spaced
election").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..simulation.state import NetworkState
from .theory import cluster_radius

__all__ = ["SelectionConfig", "SelectionResult", "ImprovedDEECSelector",
           "energy_threshold", "rotation_threshold", "spaced_greedy"]

#: Relative padding of the d_c cell index of :func:`spaced_greedy`.  A
#: cell is this much wider than d_c, and never narrower than this
#: share of the indexed points' span (which bounds the cell
#: coordinates by 2**20 and their rounding by 2**-32 of a cell).  Two
#: nodes the spacing test counts as within d_c then lie at most one
#: cell apart on every axis.
CELL_PAD = 2.0**-20

#: A promotion pool is first ordered only down to this many nodes per
#: missing head; the full sort runs only when that exact prefix of the
#: order cannot fill the demand.  Costs time, never results.
PREFIX_PER_DEMAND = 8


def energy_threshold(
    round_index: int, total_rounds: int, initial_energy: np.ndarray
) -> np.ndarray:
    """Eq. (4): per-node minimum energy to stand for head election."""
    if total_rounds < 1:
        raise ValueError("total_rounds must be >= 1")
    if round_index < 0:
        raise ValueError("round_index must be >= 0")
    frac = min(round_index / total_rounds, 1.0)
    return (1.0 - frac * frac) * np.asarray(initial_energy, dtype=np.float64)


def rotation_threshold(p: np.ndarray, round_index: int) -> np.ndarray:
    """Eq. (3): the DEEC election threshold T(b_i) for candidate nodes.

    ``T = p / (1 - p * (r mod (1/p)))``; the caller is responsible for
    zeroing non-candidates.  Output is clipped to [0, 1] (the raw
    expression exceeds 1 late in a rotation window, where selection
    should be certain).
    """
    p = np.asarray(p, dtype=np.float64)
    if np.any((p <= 0.0) | (p > 1.0)):
        raise ValueError("probabilities must lie in (0, 1]")
    if round_index < 0:
        raise ValueError("round_index must be >= 0")
    flat = p.reshape(-1)
    epoch = 1.0 / flat
    # r mod (1/p) is r itself within the first epoch; elsewhere fmod,
    # which equals np.mod bit for bit for r >= 0 and a positive epoch.
    phase = np.full_like(epoch, float(round_index))
    late = epoch <= round_index
    phase[late] = np.fmod(phase[late], epoch[late])
    # In place: fresh N-sized temporaries cost more than the arithmetic.
    denom = np.subtract(1.0, np.multiply(flat, phase, out=phase), out=phase)
    with np.errstate(divide="ignore"):
        t = np.divide(flat, denom, out=epoch)
    t[denom <= 1e-12] = 1.0
    return np.clip(t, 0.0, 1.0, out=t).reshape(p.shape)


def _cell_keys(
    points: np.ndarray, d_c: float
) -> tuple[np.ndarray, np.ndarray, int]:
    """Integer keys of ``points`` in a grid of cells just wider than
    ``d_c`` over their bounding box, the key offsets of the nine (x, y)
    neighbour columns, and the grid's cell count.  Coordinates are
    shifted by one cell, so a neighbour key never wraps into another
    row."""
    lo = points.min(axis=0)
    span = float((points.max(axis=0) - lo).max())
    side = max(d_c, span * CELL_PAD) * (1.0 + CELL_PAD)
    cells = np.floor((points - lo) / side).astype(np.int64) + 1
    nx, ny, nz = (int(c) for c in cells.max(axis=0))
    keys = cells @ np.array([(ny + 2) * (nz + 2), nz + 2, 1])
    columns = np.array([(x * (ny + 2) + y) * (nz + 2)
                        for x in (-1, 0, 1) for y in (-1, 0, 1)])
    return keys, columns, nx * ny * nz


def _near_pairs(
    keys: np.ndarray, table: np.ndarray, columns: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flat ``(row, slot)`` pairs: every slot of the sorted key array
    ``table`` in the 27 cells around ``keys[row]``.  Each neighbour
    column is three consecutive keys, so one range per column."""
    base = keys[:, None] + columns
    start = np.searchsorted(table, base - 1, "left").ravel()
    count = np.searchsorted(table, base + 1, "right").ravel() - start
    rows = np.arange(keys.size).repeat(columns.size).repeat(count)
    first = np.cumsum(count) - count
    slots = np.arange(rows.size) + np.repeat(start - first, count)
    return rows, slots


def _first_clear(n: int, later: np.ndarray, earlier: np.ndarray) -> np.ndarray:
    """Greedy pass over ``n`` nodes in order, given their clashing
    ``(later, earlier)`` pairs: a node is kept unless it clashes with
    an earlier kept node.  Pairs are read by ascending later node, so
    every earlier node is settled when it is read.  Returns the keep
    mask."""
    keep = [True] * n
    by_later = np.argsort(later)
    for node, before in zip(later[by_later].tolist(), earlier[by_later].tolist()):
        if keep[before]:
            keep[node] = False
    return np.array(keep, dtype=bool)


def spaced_greedy(
    positions: np.ndarray,
    order: np.ndarray,
    kept: np.ndarray,
    d_c: float,
    cap: int | None = None,
) -> np.ndarray:
    """Walk ``order`` and take every node farther than ``d_c`` from each
    node of ``kept`` and each node taken before it, until ``kept`` plus
    the taken nodes number ``cap``.  Returns the taken nodes' places in
    ``order``, ascending.  ``d_c <= 0`` disables the spacing.

    "Within d_c" is ``np.linalg.norm(diff, axis=-1) <= d_c``, as a
    per-candidate loop over the kept nodes would compute it, so the
    result is that loop's, bit for bit.  The walk runs in blocks.  A d_c
    cell index (a superset filter, :data:`CELL_PAD`) pairs each block
    node with the held nodes and the earlier block nodes in its 27
    neighbouring cells, and the clashing pairs are settled in walk
    order.  A capped block holds the remaining demand, scaled by the
    nodes walked per node taken so far; an uncapped one holds as many
    nodes as the grid has cells or as are held, whichever is more,
    which keeps its pairs about linear in its size.
    """
    limit = order.size if cap is None else min(order.size, cap - kept.size)
    if limit <= 0:
        return np.empty(0, dtype=np.intp)
    if d_c <= 0.0:
        return np.arange(limit)
    points = positions[order]
    held = positions[kept]
    keys, columns, n_cells = _cell_keys(np.concatenate([held, points]), d_c)
    held_keys, keys = keys[: kept.size], keys[kept.size :]
    taken: list[np.ndarray] = []
    n_taken = 0
    start = 0
    while start < order.size and n_taken < limit:
        if cap is None:
            size = max(held_keys.size, n_cells)
        else:  # ceil(remaining demand x nodes walked per node taken)
            size = -(-(limit - n_taken) * max(start, 1) // max(n_taken, 1))
        block = np.arange(start, min(start + size, order.size))
        start += block.size
        # Partners: the held nodes, then the block itself, walk order.
        n_held = held_keys.size
        near = np.concatenate([held, points[block]])
        near_keys = np.concatenate([held_keys, keys[block]])
        by_key = np.argsort(near_keys, kind="stable")
        rows, slots = _near_pairs(keys[block], near_keys[by_key], columns)
        other = by_key[slots]
        ahead = other < rows + n_held
        rows, other = rows[ahead], other[ahead]
        diff = near[other] - points[block[rows]]
        clash = np.linalg.norm(diff, axis=-1) <= d_c
        keep = _first_clear(near_keys.size, rows[clash] + n_held, other[clash])
        block = block[keep[n_held:]][: limit - n_taken]
        taken.append(block)
        n_taken += block.size
        held = np.concatenate([held, points[block]])
        held_keys = np.concatenate([held_keys, keys[block]])
    return np.concatenate(taken)


def _descending(values: np.ndarray, pool: np.ndarray, m: int):
    """Yield ``pool[np.argsort(-values[pool], kind="stable")]`` in at
    most two pieces: its first ``m`` nodes, then, only if the caller
    asks, the rest.

    The first piece needs no full sort.  With ``t`` the m-th largest
    value, the full order starts with every node above ``t`` (sorted
    stably), then the nodes equal to ``t`` in pool order; it takes
    those tied nodes only up to ``m``."""
    v = values[pool]
    if m >= pool.size:
        yield pool[np.argsort(-v, kind="stable")]
        return
    t = np.partition(v, pool.size - m)[pool.size - m]
    above = np.flatnonzero(v > t)
    tied = np.flatnonzero(v == t)[: m - above.size]
    above = above[np.argsort(-v[above], kind="stable")]
    yield pool[np.concatenate([above, tied])]
    yield pool[np.argsort(-v, kind="stable")[m:]]


@dataclass(frozen=True)
class SelectionConfig:
    """Feature switches for the selector (ablation knobs)."""

    use_energy_threshold: bool = True
    use_redundancy_reduction: bool = True
    use_rotation: bool = True
    #: Promote top-energy nodes when the random draw elects nobody.
    fallback_promotion: bool = True
    #: Bits in a HELLO control message (charged only when
    #: ``charge_control_traffic`` is set).
    hello_bits: int = 200
    charge_control_traffic: bool = False
    #: How the network-average energy E_bar(r) of Eq. (1) is obtained.
    #: "linear" is Eq. (2) verbatim — valid when the network depletes
    #: by round R; "measured" (default) uses the true average residual,
    #: which keeps the expected head count at exactly k_opt (the
    #: telescoping-sum property below Eq. (2)) in regimes where the
    #: linear-decay assumption does not hold.  See EXPERIMENTS.md.
    energy_estimate: str = "measured"

    def __post_init__(self) -> None:
        if self.energy_estimate not in ("measured", "linear"):
            raise ValueError("energy_estimate must be 'measured' or 'linear'")
        if self.hello_bits < 1:
            raise ValueError("hello_bits must be >= 1")


@dataclass
class SelectionResult:
    """Outcome of one selection round, with diagnostics."""

    heads: np.ndarray
    candidates: np.ndarray
    elected: np.ndarray
    suppressed: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp))
    promoted: bool = False

    @property
    def k(self) -> int:
        return self.heads.size


class ImprovedDEECSelector:
    """Stateful selector implementing Algorithms 2 and 3.

    Parameters
    ----------
    k_target:
        The cluster count k the election is tuned to (p_opt = k/N);
        the paper derives it from Theorem 1.
    config:
        Feature switches.
    """

    def __init__(self, k_target: int, config: SelectionConfig | None = None) -> None:
        if k_target < 1:
            raise ValueError("k_target must be >= 1")
        self.k_target = k_target
        self.config = config if config is not None else SelectionConfig()

    # ------------------------------------------------------------------
    def _probabilities(self, state: NetworkState) -> np.ndarray:
        """Eq. (1): ``p_i = p_opt * E_i(r) / E_bar(r)``, clipped to a
        valid probability."""
        p_opt = self.k_target / state.n
        if self.config.energy_estimate == "linear":
            e_bar = state.average_energy_estimate()
        else:
            e_bar = state.ledger.average_energy()
        if e_bar <= 0.0:
            # Past the planned lifetime R the linear estimate hits
            # zero; fall back to the measured average.
            e_bar = max(state.ledger.average_energy(), 1e-30)
        p = p_opt * state.ledger.residual / e_bar
        return np.clip(p, 1e-9, 0.999)

    def _eligibility(self, state: NetworkState, p: np.ndarray) -> np.ndarray:
        """Candidate-set membership: alive, rotation window elapsed,
        and (optionally) above the Eq. (4) energy threshold."""
        eligible = state.ledger.alive.copy()
        if self.config.use_rotation:
            epoch = 1.0 / p
            since = state.round_index - state.last_ch_round
            eligible &= since >= epoch
        if self.config.use_energy_threshold:
            e_th = energy_threshold(
                state.round_index, state.total_rounds, state.ledger.initial
            )
            eligible &= state.ledger.residual >= e_th
        return eligible

    def _reduce_redundancy(
        self, state: NetworkState, elected: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Algorithm 3: greedy energy-ordered suppression within d_c.

        Each retained head implicitly "broadcasts a HELLO"; any elected
        node within d_c holding *less* energy quits.  Processing heads
        in descending residual energy reproduces the pairwise rule's
        fixed point deterministically.
        """
        d_c = cluster_radius(self.k_target, state.config.deployment.side)
        energy = state.ledger.residual[elected]
        order = elected[np.argsort(-energy, kind="stable")]
        kept = spaced_greedy(
            state.nodes.positions, order, np.empty(0, dtype=np.intp), d_c
        )
        suppressed = np.ones(order.size, dtype=bool)
        suppressed[kept] = False
        return order[kept], order[suppressed]

    def _promote(
        self, state: NetworkState, heads: np.ndarray, candidates: np.ndarray
    ) -> np.ndarray:
        """Top up ``heads`` to ``k_target`` by descending residual
        energy, honouring the d_c spacing when redundancy reduction is
        active.  Rotation-eligible ``candidates`` go first; the alive
        nodes are gathered only when those cannot fill the demand."""
        d_c = (
            cluster_radius(self.k_target, state.config.deployment.side)
            if self.config.use_redundancy_reduction
            else 0.0
        )
        positions, residual = state.nodes.positions, state.ledger.residual
        kept = np.asarray(heads, dtype=np.intp)
        for pool_of in (lambda: candidates, state.alive_indices):
            demand = self.k_target - kept.size
            if demand <= 0:
                break
            pool = pool_of()
            held = np.zeros(state.n, dtype=bool)
            held[kept] = True
            pool = pool[~held[pool]]
            for order in _descending(residual, pool, PREFIX_PER_DEMAND * demand):
                taken = spaced_greedy(positions, order, kept, d_c, self.k_target)
                kept = np.concatenate([kept, order[taken]])
                if kept.size >= self.k_target:
                    break
        return kept

    def _charge_hello(self, state: NetworkState, heads: np.ndarray) -> None:
        """Optional control-plane energy: heads broadcast over d_c,
        in-range nodes receive."""
        if not self.config.charge_control_traffic or heads.size == 0:
            return
        d_c = cluster_radius(self.k_target, state.config.deployment.side)
        bits = self.config.hello_bits
        for h in heads:
            state.ledger.discharge(int(h), state.radio.tx(bits, d_c), "tx")
            listeners = state.topology.within_radius(int(h), d_c)
            if listeners.size:
                state.ledger.discharge(listeners, state.radio.rx(bits), "rx")

    # ------------------------------------------------------------------
    def select(self, state: NetworkState) -> SelectionResult:
        """Run one round of Algorithm 2 (+ Algorithm 3)."""
        p = self._probabilities(state)
        eligible = self._eligibility(state, p)
        candidates = np.flatnonzero(eligible)

        t = np.zeros(state.n)
        if candidates.size:
            t[candidates] = rotation_threshold(p[candidates], state.round_index)
        z = state.protocol_rng.random(state.n)
        elected = np.flatnonzero(eligible & (z < t))

        if self.config.use_redundancy_reduction:
            heads, suppressed = self._reduce_redundancy(state, elected)
        else:
            heads, suppressed = elected, np.empty(0, dtype=np.intp)

        promoted = False
        if heads.size < self.k_target and self.config.fallback_promotion:
            # Replacement rule ("choose another node up to the demand to
            # replace it") combined with the paper's stated goal of "a
            # certain cluster number for each round with specific
            # cluster coverage area": top up to k with the highest-
            # residual-energy nodes that keep d_c spacing.  Rotation-
            # eligible candidates are preferred; when they cannot fill
            # the demand, any alive node may serve.
            heads = self._promote(state, heads, candidates)
            promoted = True

        self._charge_hello(state, heads)
        return SelectionResult(
            heads=np.asarray(heads, dtype=np.intp),
            candidates=candidates,
            elected=np.asarray(elected, dtype=np.intp),
            suppressed=suppressed,
            promoted=promoted,
        )
