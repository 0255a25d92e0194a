"""Packet representation and lifecycle bookkeeping.

Packets are the unit of the paper's three headline metrics: delivery
rate (delivered / generated), energy (joules spent moving them), and
latency (slots between generation and arrival at the BS).

On the hot path the simulator does **not** allocate one Python object
per packet.  Packets live in a :class:`PacketArena` — a
structure-of-arrays pool with one numpy column per field
(source/born_slot/hops/retries) plus an intrusive ``next`` link so
per-node FIFO buffers can be threaded through the arena without any
container objects.  Rows of terminal packets return to a free list and
are reused, so a congested million-packet run keeps a small, stable
working set.

A packet's fate is recorded once, as a counter of
:class:`PacketCounts`, when the engine frees its row; the arena keeps
no status.  :class:`PacketStats` adds the latency distribution as a
bounded reservoir sample (:class:`LatencyReservoir`) rather than an
unbounded list, and checks that generated packets are conserved.  A
run keeps one reservoir: every round records its deliveries straight
into it and folds only its counters into the run totals.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

__all__ = [
    "PacketArena",
    "LatencyReservoir",
    "PacketCounts",
    "PacketStats",
]


class PacketArena:
    """Structure-of-arrays packet pool with free-list row reuse.

    Every live packet is a row index into parallel numpy columns; all
    per-packet mutation on the hot path is a vectorized column write.
    The ``nxt`` column is an intrusive singly-linked-list pointer used
    by :class:`~repro.network.queueing.SourceBuffers` to chain each
    node's FIFO through the arena (-1 terminates a chain).

    Rows are recycled: :meth:`free` pushes indices onto a LIFO free
    list and :meth:`alloc` pops from it before growing the columns, so
    steady-state traffic allocates no memory at all.

    A pickle holds the live rows only (see :meth:`__getstate__`), so a
    snapshot's size follows the packets in flight, not the capacity.
    """

    _GROW = 1024
    _COLUMNS = ("source", "born_slot", "hops", "retries", "nxt")

    def __init__(self, initial_capacity: int = 1024) -> None:
        cap = max(int(initial_capacity), 1)
        self.source = np.zeros(cap, dtype=np.int64)
        self.born_slot = np.zeros(cap, dtype=np.int64)
        self.hops = np.zeros(cap, dtype=np.int64)
        self.retries = np.zeros(cap, dtype=np.int64)
        self.nxt = np.full(cap, -1, dtype=np.int64)
        self._free = np.zeros(cap, dtype=np.int64)
        self._n_free = 0
        self._size = 0          # high-water mark of rows ever handed out
        self._n_live = 0

    def _live_rows(self) -> np.ndarray:
        """Ascending indices of the allocated rows."""
        live = np.ones(self._size, dtype=bool)
        live[self._free[: self._n_free]] = False
        return np.flatnonzero(live)

    def __getstate__(self) -> dict:
        # The capacity, the free stack in order (so later allocs hand
        # out the same indices) and the live rows.  A freed row is
        # rewritten whole by alloc before it is read, so its stale
        # values are not state.
        rows = self._live_rows()
        state = {
            "capacity": self.capacity,
            "size": self._size,
            "free": self._free[: self._n_free],
        }
        for name in self._COLUMNS:
            state[name] = getattr(self, name)[rows]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["capacity"])
        self._size = state["size"]
        free = state["free"]
        self._n_free = free.size
        self._free[: free.size] = free
        self._n_live = self._size - self._n_free
        rows = self._live_rows()
        for name in self._COLUMNS:
            getattr(self, name)[rows] = state[name]

    # -- inspection ----------------------------------------------------
    @property
    def capacity(self) -> int:
        return self.source.size

    @property
    def n_live(self) -> int:
        """Rows currently allocated: the packets in flight, which the
        engine's conservation check counts (0 after a full run)."""
        return self._n_live

    # -- allocation ----------------------------------------------------
    def _grow_to(self, cap: int) -> None:
        old = self.capacity
        cap = max(cap, old * 2, self._GROW)
        for name in self._COLUMNS:
            col = getattr(self, name)
            new = np.zeros(cap, dtype=col.dtype)
            new[:old] = col
            setattr(self, name, new)
        free = np.zeros(cap, dtype=np.int64)
        free[: self._n_free] = self._free[: self._n_free]
        self._free = free

    def alloc(self, sources: np.ndarray, born_slot: int) -> np.ndarray:
        """Allocate one row per entry of ``sources``; returns indices."""
        sources = np.asarray(sources, dtype=np.int64)
        m = sources.size
        idx = np.empty(m, dtype=np.int64)
        take = min(m, self._n_free)
        if take:
            # LIFO reuse keeps the working set hot in cache.
            idx[:take] = self._free[self._n_free - take: self._n_free][::-1]
            self._n_free -= take
        if take < m:
            need = m - take
            if self._size + need > self.capacity:
                self._grow_to(self._size + need)
            idx[take:] = np.arange(self._size, self._size + need, dtype=np.int64)
            self._size += need
        self.source[idx] = sources
        self.born_slot[idx] = born_slot
        self.hops[idx] = 0
        self.retries[idx] = 0
        self.nxt[idx] = -1
        self._n_live += m
        return idx

    def free(self, idx: np.ndarray) -> None:
        """Return rows to the pool (their packets reached a terminal
        state and have been counted)."""
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size == 0:
            return
        if self._n_free + idx.size > self._free.size:
            self._grow_to(self.capacity)  # free stack tracks capacity
        self._free[self._n_free: self._n_free + idx.size] = idx
        self._n_free += idx.size
        self._n_live -= idx.size


class LatencyReservoir:
    """Bounded uniform sample of a latency stream (Vitter's algorithm R).

    Keeps at most ``capacity`` values no matter how many deliveries a
    run records, so million-packet sweeps don't grow O(delivered)
    lists.  Exact count stays available (the mean uses the exact
    sum kept by :class:`PacketStats`); percentile consumers read the
    sample.  Replacement draws come from a dedicated fixed-seed
    generator, keeping results independent of the simulation's RNG
    streams and deterministic run-to-run.

    While fewer than ``capacity`` values have been seen the sample is
    the exact stream, so small runs (every tier-1 test) observe
    identical percentiles to the old unbounded list.  Beyond that it is
    a uniform sample of the whole stream, the same however the stream
    is split into :meth:`add_many` batches.
    """

    DEFAULT_CAPACITY = 4096
    _SEED = 0x51EC

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.count = 0
        self._filled = 0
        # Zeroed, not empty: the unfilled tail is pickled into
        # snapshots, so it must hold defined bytes rather than whatever
        # the heap held.
        self._sample = np.zeros(capacity, dtype=np.int64)
        self._rng = np.random.default_rng(self._SEED)

    @property
    def values(self) -> np.ndarray:
        """The current sample (owned copy, insertion order)."""
        return self._sample[: self._filled].copy()

    def add_many(self, values: np.ndarray) -> None:
        v = np.asarray(values, dtype=np.int64).ravel()
        if v.size == 0:
            return
        fill = min(self.capacity - self._filled, v.size)
        if fill:
            self._sample[self._filled: self._filled + fill] = v[:fill]
            self._filled += fill
        rest = v[fill:]
        if rest.size:
            # Element j of `rest` is overall item number t_j (1-based);
            # it replaces a random slot with probability capacity / t_j.
            # Fancy assignment applies duplicates last-write-wins, which
            # matches sequential algorithm-R replacement order.
            t = self.count + fill + 1 + np.arange(rest.size, dtype=np.int64)
            draws = (self._rng.random(rest.size) * t).astype(np.int64)
            hit = draws < self.capacity
            self._sample[draws[hit]] = rest[hit]
        self.count += v.size

    def __len__(self) -> int:
        return self._filled

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatencyReservoir):
            return NotImplemented
        return (
            self.capacity == other.capacity
            and self.count == other.count
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LatencyReservoir(kept={self._filled}/{self.capacity}, "
            f"seen={self.count})"
        )


@dataclass
class PacketCounts:
    """The eight packet counters and what derives from them.

    The engine keeps one of these per completed round
    (``RoundStats.packets``): a round records its latencies into the
    run totals' reservoir and keeps none, so the round history — and
    every snapshot that pickles it — grows by a few counters a round.
    """

    generated: int = 0
    delivered: int = 0
    dropped_channel: int = 0
    dropped_queue: int = 0
    dropped_dead: int = 0
    expired: int = 0
    total_latency_slots: int = 0
    total_hops: int = 0

    @property
    def dropped(self) -> int:
        return (
            self.dropped_channel
            + self.dropped_queue
            + self.dropped_dead
            + self.expired
        )

    @property
    def delivery_rate(self) -> float:
        """Packet delivery rate; defined as 1.0 for a silent network so
        an idle round never reads as lossy."""
        if self.generated == 0:
            return 1.0
        return self.delivered / self.generated

    @property
    def mean_latency(self) -> float:
        """Mean delivery latency in slots (0.0 when nothing delivered).
        Exact — computed from the full sum, not the sample."""
        if self.delivered == 0:
            return 0.0
        return self.total_latency_slots / self.delivered

    @property
    def mean_hops(self) -> float:
        """Mean hops per delivered packet.  Kept for the hop-count
        assertions of the TL-LEACH and QELAR tests, which observe the
        engine's multi-hop relaying through it."""
        if self.delivered == 0:
            return 0.0
        return self.total_hops / self.delivered

    def merge(self, other: "PacketCounts") -> None:
        """Add ``other``'s counters to these (round -> run rollup).

        Latency samples are not merged: a run's rounds record into one
        shared reservoir, so the run totals already hold the sample.
        """
        for f in fields(PacketCounts):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


@dataclass
class PacketStats(PacketCounts):
    """Packet counters plus a bounded latency sample: the accumulator
    of one round in flight, and of the run totals.  The engine builds
    each round's accumulator on the run totals' ``latency_sample``, so
    a run draws one uniform sample of all its deliveries.

    This is the **single source of truth** for drop accounting: queue
    overflow, channel loss, dead-target loss, and expiry are counted
    here (and only here) by the engine; the queueing substrate keeps no
    shadow counters.
    """

    latency_sample: LatencyReservoir = field(default_factory=LatencyReservoir)

    def counts(self) -> PacketCounts:
        """The counters alone, without the latency sample."""
        return PacketCounts(
            *(getattr(self, f.name) for f in fields(PacketCounts))
        )

    @property
    def latencies(self) -> list[int]:
        """Sampled delivery latencies (exact below the reservoir cap)."""
        return [int(x) for x in self.latency_sample.values]

    def record_deliveries(self, latencies: np.ndarray, hops: np.ndarray) -> None:
        """Vectorized delivery rollup for a batch of packets."""
        latencies = np.asarray(latencies, dtype=np.int64)
        if latencies.size == 0:
            return
        if latencies.min() < 0:
            raise ValueError("latency cannot be negative")
        self.delivered += latencies.size
        self.total_latency_slots += int(latencies.sum())
        self.total_hops += int(np.asarray(hops, dtype=np.int64).sum())
        self.latency_sample.add_many(latencies)

    def validate(self, in_flight: int = 0) -> None:
        """Conservation: every generated packet was delivered, dropped,
        or is one of the ``in_flight`` packets still held."""
        accounted = self.delivered + self.dropped + in_flight
        if accounted != self.generated:
            raise AssertionError(
                f"packet accounting: {self.generated} generated but "
                f"{self.delivered} delivered + {self.dropped} dropped + "
                f"{in_flight} in flight = {accounted}"
            )
