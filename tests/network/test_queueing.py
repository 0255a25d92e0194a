"""Tests for the array-backed queueing substrate: the cluster-head
ring-buffer bank and the arena-threaded source buffers."""

import pickle

import numpy as np
import pytest

from repro.network.packet import PacketArena
from repro.network.queueing import QueueBank, SourceBuffers


def make_bank(heads, capacity, n_nodes=10):
    return QueueBank(np.asarray(heads), capacity, n_nodes)


def offer(bank, positions, rows):
    return bank.offer_batch(
        np.asarray(positions, dtype=np.int64),
        np.asarray(rows, dtype=np.int64),
    )


class TestQueueBank:
    def test_fifo_order(self):
        bank = make_bank([3], capacity=5)
        offer(bank, [0, 0], [11, 22])
        _, served = bank.serve_batch(2)
        assert served.tolist() == [11, 22]

    def test_offer_beyond_capacity_rejects(self):
        bank = make_bank([3], capacity=1)
        accepted = offer(bank, [0, 0], [11, 22])
        assert accepted.tolist() == [True, False]
        assert bank.lengths.tolist() == [1]

    def test_zero_capacity_rejects_everything(self):
        bank = make_bank([3], capacity=0)
        accepted = offer(bank, [0], [11])
        assert accepted.tolist() == [False]
        assert bank.lengths.tolist() == [0]

    def test_serve_limited_per_queue(self):
        bank = make_bank([3, 7], capacity=10)
        offer(bank, [0, 0, 0, 1, 1], [1, 2, 3, 4, 5])
        pos, served = bank.serve_batch(2)
        assert pos.tolist() == [0, 0, 1, 1]
        assert served.tolist() == [1, 2, 4, 5]
        assert bank.lengths.tolist() == [1, 0]

    def test_serve_mask_skips_queues(self):
        bank = make_bank([3, 7], capacity=10)
        offer(bank, [0, 1], [1, 2])
        pos, served = bank.serve_batch(5, serve_mask=np.array([True, False]))
        assert pos.tolist() == [0]
        assert served.tolist() == [1]
        assert bank.lengths.tolist() == [0, 1]

    def test_serve_rejects_negative(self):
        with pytest.raises(ValueError):
            make_bank([1], 2).serve_batch(-1)

    def test_drain_empties(self):
        bank = make_bank([3], capacity=10)
        offer(bank, [0, 0, 0], [1, 2, 3])
        _, drained = bank.drain_all()
        assert drained.tolist() == [1, 2, 3]
        assert bank.lengths.tolist() == [0]

    def test_peak_length_tracks_high_water(self):
        bank = make_bank([3], capacity=10)
        offer(bank, [0, 0, 0, 0], [1, 2, 3, 4])
        bank.serve_batch(4)
        offer(bank, [0], [5])
        assert bank.peak_lengths.tolist() == [4]

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            make_bank([1], -1)

    def test_contains_and_position(self):
        bank = make_bank([3, 5], capacity=4)
        assert 3 in bank and 5 in bank and 7 not in bank
        assert bank.position(np.array([3, 5, 7])).tolist() == [0, 1, -1]

    def test_numpy_int_keys(self):
        bank = make_bank(np.array([4, 6]), capacity=2)
        assert 4 in bank

    def test_ring_wraps_and_widens(self):
        """Interleaved offer/serve cycles wrap the ring; deep backlog
        forces a widen past the lazy initial width — FIFO order must
        survive both."""
        bank = make_bank([0], capacity=500, n_nodes=3)
        expected = []
        next_id = 0
        for _ in range(40):
            batch = list(range(next_id, next_id + 7))
            next_id += 7
            assert offer(bank, [0] * 7, batch).all()
            expected.extend(batch)
            _, served = bank.serve_batch(3)
            assert served.tolist() == expected[:3]
            expected = expected[3:]
        _, rest = bank.drain_all()
        assert rest.tolist() == expected

    def test_per_batch_contention_is_rank_ordered(self):
        """Earlier entries in one offer batch win the last capacity
        slots (the engine feeds batches in canonical sender order)."""
        bank = make_bank([0, 1], capacity=2)
        accepted = offer(bank, [0, 0, 0, 1], [1, 2, 3, 4])
        assert accepted.tolist() == [True, True, False, True]

    def test_empty_bank(self):
        bank = make_bank([], capacity=4)
        assert bank.k == 0
        accepted = offer(bank, [], [])
        assert accepted.size == 0
        pos, served = bank.serve_batch(3)
        assert pos.size == 0 and served.size == 0


class TestSourceBuffers:
    def test_push_peek_pop_fifo(self):
        arena = PacketArena()
        bufs = SourceBuffers(4, arena)
        rows = arena.alloc(np.array([2, 2, 3]), born_slot=0)
        bufs.push_batch(np.array([2, 2, 3]), rows)
        assert bufs.lengths.tolist() == [0, 0, 2, 1]
        assert bufs.peek(np.array([2, 3])).tolist() == [rows[0], rows[2]]
        popped = bufs.pop(np.array([2, 3]))
        assert popped.tolist() == [rows[0], rows[2]]
        assert bufs.lengths.tolist() == [0, 0, 1, 0]
        assert bufs.indices(2) == [int(rows[1])]

    def test_push_appends_to_existing_chain(self):
        arena = PacketArena()
        bufs = SourceBuffers(2, arena)
        first = arena.alloc(np.array([0]), born_slot=0)
        bufs.push_batch(np.array([0]), first)
        more = arena.alloc(np.array([0, 0]), born_slot=1)
        bufs.push_batch(np.array([0, 0]), more)
        assert bufs.indices(0) == [int(first[0]), int(more[0]), int(more[1])]

    def test_pop_to_empty_resets_tail(self):
        arena = PacketArena()
        bufs = SourceBuffers(1, arena)
        row = arena.alloc(np.array([0]), born_slot=0)
        bufs.push_batch(np.array([0]), row)
        bufs.pop(np.array([0]))
        assert bufs.total == 0
        again = arena.alloc(np.array([0]), born_slot=5)
        bufs.push_batch(np.array([0]), again)
        assert bufs.indices(0) == [int(again[0])]

    def test_pickle_round_trip_with_non_empty_fifos(self):
        arena = PacketArena()
        bufs = SourceBuffers(6, arena)
        nodes = np.array([0, 0, 0, 2, 3, 3, 5])
        bufs.push_batch(nodes, arena.alloc(nodes, born_slot=0))
        bufs.pop(np.array([0, 3]))
        bufs.pop(np.array([3]))  # node 3 empties
        more = np.array([1, 2, 2])
        bufs.push_batch(more, arena.alloc(more, born_slot=1))

        restored = pickle.loads(pickle.dumps(bufs))
        assert restored.arena is not arena
        for node in range(6):
            assert restored.indices(node) == bufs.indices(node)
        for name in ("_head", "_tail", "lengths"):
            assert getattr(restored, name).tolist() == getattr(bufs, name).tolist()
        # Both keep serving in the same order.
        senders = np.array([0, 1, 2, 5])
        assert restored.pop(senders).tolist() == bufs.pop(senders).tolist()
        assert restored.lengths.tolist() == bufs.lengths.tolist()
