"""Packet representation and lifecycle bookkeeping.

Packets are the unit of the paper's three headline metrics: delivery
rate (delivered / generated), energy (joules spent moving them), and
latency (slots between generation and arrival at the BS).

On the hot path the simulator does **not** allocate one Python object
per packet.  Packets live in a :class:`PacketArena` — a
structure-of-arrays pool with one numpy column per field
(source/born_slot/hops/retries/status/delivered_slot) plus an intrusive
``next`` link so per-node FIFO buffers can be threaded through the
arena without any container objects.  Rows of terminal packets return
to a free list and are reused, so a congested million-packet run keeps
a small, stable working set.

:class:`PacketRecord` survives as the *scalar snapshot* of one arena
row — handy in tests and debugging.  :class:`PacketCounts` holds the
aggregate counters, and :class:`PacketStats` adds their latency
distribution as a bounded reservoir sample (:class:`LatencyReservoir`)
rather than an unbounded list.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields

import numpy as np

__all__ = [
    "PacketStatus",
    "PacketRecord",
    "PacketArena",
    "LatencyReservoir",
    "PacketCounts",
    "PacketStats",
]


class PacketStatus(enum.Enum):
    """Terminal states a packet can reach."""

    IN_FLIGHT = "in_flight"
    DELIVERED = "delivered"
    DROPPED_CHANNEL = "dropped_channel"     # lossy link, no ACK
    DROPPED_QUEUE = "dropped_queue"         # CH buffer overflow
    DROPPED_DEAD = "dropped_dead"           # source or relay died
    EXPIRED = "expired"                     # still queued at round end

    @property
    def code(self) -> int:
        """Compact integer code used by the arena's status column."""
        return _STATUS_TO_CODE[self]

    @classmethod
    def from_code(cls, code: int) -> "PacketStatus":
        return _CODE_TO_STATUS[int(code)]


#: Arena status-column codes, one per :class:`PacketStatus` member.
_CODE_TO_STATUS: dict[int, PacketStatus] = dict(enumerate(PacketStatus))
_STATUS_TO_CODE: dict[PacketStatus, int] = {
    s: c for c, s in _CODE_TO_STATUS.items()
}


@dataclass
class PacketRecord:
    """One packet's journey, used for latency accounting.

    Attributes
    ----------
    source:
        Originating node index.
    born_slot:
        Absolute slot index (round * slots_per_round + slot) when the
        packet was generated.
    hops:
        Number of radio hops taken so far.
    """

    source: int
    born_slot: int
    hops: int = 0
    status: PacketStatus = PacketStatus.IN_FLIGHT
    delivered_slot: int | None = None
    #: Link-layer retransmissions already spent on this packet.
    retries: int = 0

    def latency(self) -> int | None:
        """Slots from generation to BS arrival; None if undelivered."""
        if self.delivered_slot is None:
            return None
        return self.delivered_slot - self.born_slot


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
    """

    _GROW = 1024

    def __init__(self, initial_capacity: int = 1024) -> None:
        cap = max(int(initial_capacity), 1)
        self.source = np.zeros(cap, dtype=np.int64)
        self.born_slot = np.zeros(cap, dtype=np.int64)
        self.hops = np.zeros(cap, dtype=np.int64)
        self.retries = np.zeros(cap, dtype=np.int64)
        self.status = np.zeros(cap, dtype=np.int8)
        self.delivered_slot = np.full(cap, -1, dtype=np.int64)
        self.nxt = np.full(cap, -1, dtype=np.int64)
        self._free = np.empty(cap, dtype=np.int64)
        self._n_free = 0
        self._size = 0          # high-water mark of rows ever handed out
        self._n_live = 0

    # -- inspection ----------------------------------------------------
    @property
    def capacity(self) -> int:
        return self.source.size

    @property
    def n_live(self) -> int:
        """Rows currently allocated (leak check: 0 after a full run)."""
        return self._n_live

    def record(self, idx: int) -> PacketRecord:
        """Scalar snapshot of one row (tests / debugging only)."""
        delivered = int(self.delivered_slot[idx])
        return PacketRecord(
            source=int(self.source[idx]),
            born_slot=int(self.born_slot[idx]),
            hops=int(self.hops[idx]),
            status=PacketStatus.from_code(int(self.status[idx])),
            delivered_slot=None if delivered < 0 else delivered,
            retries=int(self.retries[idx]),
        )

    # -- allocation ----------------------------------------------------
    def _grow_to(self, cap: int) -> None:
        old = self.capacity
        cap = max(cap, old * 2, self._GROW)
        for name in (
            "source", "born_slot", "hops", "retries",
            "status", "delivered_slot", "nxt",
        ):
            col = getattr(self, name)
            new = np.empty(cap, dtype=col.dtype)
            new[:old] = col
            setattr(self, name, new)
        free = np.empty(cap, dtype=np.int64)
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
        self.status[idx] = PacketStatus.IN_FLIGHT.code
        self.delivered_slot[idx] = -1
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

    # -- vectorized lifecycle writes -----------------------------------
    def mark(self, idx: np.ndarray, status: PacketStatus) -> None:
        self.status[idx] = status.code

    def latencies(self, idx: np.ndarray) -> np.ndarray:
        """delivered_slot - born_slot per row (rows must be delivered)."""
        return self.delivered_slot[idx] - self.born_slot[idx]


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
    identical percentiles to the old unbounded list.
    """

    DEFAULT_CAPACITY = 4096
    _SEED = 0x51EC

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.count = 0
        self._filled = 0
        self._sample = np.empty(capacity, dtype=np.int64)
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

    def add(self, value: int) -> None:
        self.add_many(np.asarray([value]))

    def merge(self, other: "LatencyReservoir") -> None:
        """Fold another reservoir in.

        Exact while the union fits in ``capacity``; beyond that, a
        weighted subsample (each retained value stands for
        ``count / len(sample)`` stream items) approximates the pooled
        distribution deterministically.
        """
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self._filled = other._filled
            self._sample[: self._filled] = other._sample[: self._filled]
            return
        if self._filled + other._filled <= self.capacity:
            self._sample[self._filled: self._filled + other._filled] = (
                other._sample[: other._filled]
            )
            self._filled += other._filled
            self.count += other.count
            return
        pooled = np.concatenate([self.values, other.values])
        weights = np.concatenate([
            np.full(self._filled, self.count / self._filled),
            np.full(other._filled, other.count / other._filled),
        ])
        pick = self._rng.choice(
            pooled.size, size=self.capacity, replace=False,
            p=weights / weights.sum(),
        )
        self._sample[:] = pooled[pick]
        self._filled = self.capacity
        self.count += other.count

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
    (``RoundStats.packets``): a round's latency sample is folded into
    the run totals' reservoir and not kept, so the round history — and
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
        if self.delivered == 0:
            return 0.0
        return self.total_hops / self.delivered


@dataclass
class PacketStats(PacketCounts):
    """Packet counters plus a bounded latency sample: the accumulator
    of one round in flight, and of the run totals.

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

    def record_delivery(self, latency_slots: int, hops: int) -> None:
        if latency_slots < 0:
            raise ValueError("latency cannot be negative")
        self.delivered += 1
        self.total_latency_slots += latency_slots
        self.total_hops += hops
        self.latency_sample.add(latency_slots)

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

    def merge(self, other: "PacketStats") -> None:
        """Fold ``other`` into this accumulator (round -> run rollup)."""
        for f in fields(PacketCounts):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        self.latency_sample.merge(other.latency_sample)

    def validate(self) -> None:
        """Invariant: every generated packet reached exactly one
        terminal state (or is still in flight — not counted here)."""
        accounted = self.delivered + self.dropped
        if accounted > self.generated:
            raise AssertionError(
                f"packet accounting overflow: {accounted} terminal packets "
                f"but only {self.generated} generated"
            )
