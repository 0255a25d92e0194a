"""Array-backed FIFO substrate: source buffers and cluster-head queues.

Paper §5.2 attributes packet loss to "the long queue at cluster heads"
under congestion: cluster heads have limited storage caches, and when
the offered load exceeds the service rate, arriving packets are
discarded.  This module implements that queueing substrate on top of
the :class:`~repro.network.packet.PacketArena` — no per-packet Python
objects anywhere:

* :class:`SourceBuffers` — one FIFO per sensor holding its own unsent
  packets, threaded through the arena's intrusive ``nxt`` column so a
  whole slot's head-of-line peeks/pops are single vectorized gathers;
* :class:`QueueBank` — this round's bounded cluster-head queues as one
  2-D ring buffer of arena indices with O(1) cached lengths.

Drop accounting lives exclusively in
:class:`~repro.network.packet.PacketStats` (the engine counts each
rejection once); the queues themselves keep no drop counters.
"""

from __future__ import annotations

import numpy as np

from .packet import PacketArena

__all__ = ["SourceBuffers", "QueueBank", "utilization"]


def utilization(lengths: np.ndarray, capacity: int) -> np.ndarray:
    """Backlog as a fraction of configured capacity, per queue.

    The telemetry layer observes this over each round's peak backlogs
    (``QueueBank.peak_lengths``): a sweep whose utilization gauge sits
    near 1.0 is queue-limited and more CH capacity (or service rate)
    would move its delivery rate; near 0.0 the queues are irrelevant
    and drops are channel- or liveness-bound.
    """
    lengths = np.asarray(lengths, dtype=np.float64)
    if capacity <= 0:
        return np.zeros_like(lengths)
    return lengths / float(capacity)


def _run_ranks(sorted_vals: np.ndarray) -> np.ndarray:
    """0-based rank of each element within its run of equal values
    (``sorted_vals`` must be sorted)."""
    n = sorted_vals.size
    if n == 0:
        return np.empty(0, dtype=np.int64)
    change = np.empty(n, dtype=bool)
    change[0] = True
    change[1:] = sorted_vals[1:] != sorted_vals[:-1]
    run_starts = np.flatnonzero(change)
    run_lens = np.diff(np.append(run_starts, n))
    return np.arange(n, dtype=np.int64) - np.repeat(run_starts, run_lens)


def _group_offsets(counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(c)`` for every count c (vectorized)."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.cumsum(counts) - counts
    return np.arange(total, dtype=np.int64) - np.repeat(starts, counts)


class SourceBuffers:
    """Per-node FIFO of each sensor's own unsent packets.

    The queues are intrusive linked lists through the arena's ``nxt``
    column: only three ``(N,)`` arrays of state (head, tail, length)
    exist no matter how deep the backlogs get, and the engine's
    per-slot head-of-line peek / pop across all senders is one fancy
    index each.  A pickle holds the non-empty buffers only.
    """

    def __init__(self, n_nodes: int, arena: PacketArena) -> None:
        self.arena = arena
        self._head = np.full(n_nodes, -1, dtype=np.int64)
        self._tail = np.full(n_nodes, -1, dtype=np.int64)
        self.lengths = np.zeros(n_nodes, dtype=np.int64)

    def __getstate__(self) -> dict:
        # An empty buffer is always (-1, -1, 0): pop resets the tail
        # when it takes the last packet.
        nodes = np.flatnonzero(self.lengths)
        return {
            "arena": self.arena,
            "n_nodes": self.lengths.size,
            "nodes": nodes,
            "head": self._head[nodes],
            "tail": self._tail[nodes],
            "lengths": self.lengths[nodes],
        }

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["n_nodes"], state["arena"])
        nodes = state["nodes"]
        self._head[nodes] = state["head"]
        self._tail[nodes] = state["tail"]
        self.lengths[nodes] = state["lengths"]

    @property
    def total(self) -> int:
        return int(self.lengths.sum())

    def indices(self, node: int) -> list[int]:
        """FIFO-order arena indices queued at ``node`` (debug/tests)."""
        out: list[int] = []
        i = int(self._head[node])
        while i >= 0:
            out.append(i)
            i = int(self.arena.nxt[i])
        return out

    def push_batch(self, nodes: np.ndarray, idx: np.ndarray) -> None:
        """Append packet ``idx[j]`` to ``nodes[j]``'s buffer, in order.

        ``nodes`` must be sorted ascending (runs of equal nodes append
        in the order given — the engine's canonical order).
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        idx = np.asarray(idx, dtype=np.int64)
        if nodes.size == 0:
            return
        nxt = self.arena.nxt
        nxt[idx] = -1
        same = nodes[1:] == nodes[:-1]
        # Chain consecutive packets of the same node.
        nxt[idx[:-1][same]] = idx[1:][same]
        starts = np.empty(nodes.size, dtype=bool)
        starts[0] = True
        starts[1:] = ~same
        ends = np.empty(nodes.size, dtype=bool)
        ends[-1] = True
        ends[:-1] = ~same
        run_nodes = nodes[starts]
        run_first = idx[starts]
        run_last = idx[ends]
        run_counts = np.flatnonzero(ends) - np.flatnonzero(starts) + 1
        old_tail = self._tail[run_nodes]
        has_tail = old_tail >= 0
        nxt[old_tail[has_tail]] = run_first[has_tail]
        self._head[run_nodes[~has_tail]] = run_first[~has_tail]
        self._tail[run_nodes] = run_last
        self.lengths[run_nodes] += run_counts

    def peek(self, nodes: np.ndarray) -> np.ndarray:
        """Head-of-line arena index per node (nodes must be non-empty
        buffers)."""
        return self._head[nodes]

    def pop(self, nodes: np.ndarray) -> np.ndarray:
        """Remove and return the head-of-line packet of each node
        (``nodes`` unique, each with a non-empty buffer)."""
        nodes = np.asarray(nodes, dtype=np.int64)
        h = self._head[nodes]
        nxt = self.arena.nxt[h]
        self._head[nodes] = nxt
        self.lengths[nodes] -= 1
        emptied = nxt < 0
        self._tail[nodes[emptied]] = -1
        return h


class QueueBank:
    """This round's cluster-head queues as one 2-D ring buffer.

    Created fresh each round because cluster membership rotates.  Row j
    of the ring holds arena indices queued at ``heads[j]``; ``lengths``
    is the O(1) backlog vector the relay-choice batch reads once per
    slot.  The ring starts narrow and widens lazily (doubling, capped
    at ``capacity``) so a generous configured capacity costs no memory
    until congestion actually builds queues.

    Rejections are reported to the caller via :meth:`offer_batch`'s
    acceptance mask; the bank itself counts nothing —
    :class:`~repro.network.packet.PacketStats` is the single source of
    truth for drops.
    """

    _INITIAL_WIDTH = 64

    def __init__(self, heads, capacity: int, n_nodes: int) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        heads = np.asarray(heads, dtype=np.int64).ravel()
        self.heads = heads
        self.capacity = int(capacity)
        k = heads.size
        self.k = k
        # Node -> queue position lookup (covers the BS sentinel at N).
        self._pos = np.full(n_nodes + 1, -1, dtype=np.int64)
        if k:
            self._pos[heads] = np.arange(k, dtype=np.int64)
        width = min(self.capacity, self._INITIAL_WIDTH)
        self._ring = np.full((k, width), -1, dtype=np.int64)
        self._start = np.zeros(k, dtype=np.int64)
        self._len = np.zeros(k, dtype=np.int64)
        self._peak = np.zeros(k, dtype=np.int64)

    # -- inspection ----------------------------------------------------
    def __contains__(self, head: int) -> bool:
        head = int(head)
        return 0 <= head < self._pos.size and self._pos[head] >= 0

    def position(self, targets: np.ndarray) -> np.ndarray:
        """Queue position per target node; -1 for non-heads / the BS."""
        return self._pos[targets]

    @property
    def lengths(self) -> np.ndarray:
        """Current backlog per head, aligned with ``heads`` (copy)."""
        return self._len.copy()

    @property
    def peak_lengths(self) -> np.ndarray:
        """High-water backlog per head across the round (copy)."""
        return self._peak.copy()


    # -- mutation ------------------------------------------------------
    def _gather(self, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """First ``m[j]`` queued indices of each queue, FIFO order.
        Returns ``(queue_position_per_packet, arena_index_per_packet)``."""
        total = int(m.sum())
        if total == 0:
            return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        pos_rep = np.repeat(np.arange(self.k, dtype=np.int64), m)
        offs = _group_offsets(m)
        slot = (self._start[pos_rep] + offs) % self._ring.shape[1]
        return pos_rep, self._ring[pos_rep, slot]

    def _ensure_width(self, needed: int) -> None:
        w = self._ring.shape[1]
        if needed <= w:
            return
        new_w = min(self.capacity, max(needed, 2 * w, 8))
        new_ring = np.full((self.k, new_w), -1, dtype=np.int64)
        pos_rep, idx = self._gather(self._len)
        if idx.size:
            new_ring[pos_rep, _group_offsets(self._len)] = idx
        self._ring = new_ring
        self._start[:] = 0

    def offer_batch(self, pos: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Enqueue packets ``idx`` at queue positions ``pos`` (sorted
        ascending); returns the acceptance mask.

        Within one batch, earlier entries win the remaining capacity
        (tail drop beyond it) — the caller's ordering is the contention
        order.
        """
        pos = np.asarray(pos, dtype=np.int64)
        idx = np.asarray(idx, dtype=np.int64)
        if pos.size == 0:
            return np.empty(0, dtype=bool)
        rank = _run_ranks(pos)
        accepted = rank < (self.capacity - self._len)[pos]
        apos = pos[accepted]
        if apos.size == 0:
            return accepted
        acc_counts = np.bincount(apos, minlength=self.k)
        new_len = self._len + acc_counts
        self._ensure_width(int(new_len.max()))
        w = self._ring.shape[1]
        slot = (self._start[apos] + self._len[apos] + rank[accepted]) % w
        self._ring[apos, slot] = idx[accepted]
        self._len = new_len
        np.maximum(self._peak, new_len, out=self._peak)
        return accepted

    def serve_batch(
        self, rate: int, serve_mask: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Dequeue up to ``rate`` packets per queue in FIFO order
        (queues where ``serve_mask`` is False are skipped).  Returns
        ``(queue_position_per_packet, arena_index_per_packet)``."""
        if rate < 0:
            raise ValueError("rate must be >= 0")
        m = np.minimum(self._len, rate)
        if serve_mask is not None:
            m = np.where(serve_mask, m, 0)
        pos_rep, idx = self._gather(m)
        if idx.size:
            self._start = (self._start + m) % self._ring.shape[1]
            self._len = self._len - m
        return pos_rep, idx

    def drain_all(self) -> tuple[np.ndarray, np.ndarray]:
        """Remove and return everything still queued (end-of-round
        flush)."""
        pos_rep, idx = self._gather(self._len)
        self._len[:] = 0
        self._start[:] = 0
        return pos_rep, idx
