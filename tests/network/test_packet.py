"""Tests for the packet arena and aggregate statistics."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.packet import LatencyReservoir, PacketArena, PacketStats


class TestPacketStats:
    def test_delivery_rate_empty_network_is_one(self):
        assert PacketStats().delivery_rate == 1.0

    def test_delivery_rate(self):
        s = PacketStats(generated=10, delivered=7)
        assert s.delivery_rate == pytest.approx(0.7)

    def test_record_delivery_accumulates(self):
        s = PacketStats(generated=2)
        s.record_deliveries(np.array([3]), np.array([2]))
        s.record_deliveries(np.array([5]), np.array([1]))
        assert s.delivered == 2
        assert s.mean_latency == pytest.approx(4.0)
        assert s.mean_hops == pytest.approx(1.5)
        assert s.latencies == [3, 5]

    def test_record_delivery_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            PacketStats().record_deliveries(np.array([-1]), np.array([1]))

    def test_mean_latency_zero_when_no_delivery(self):
        assert PacketStats(generated=5).mean_latency == 0.0

    def test_dropped_sums_all_causes(self):
        s = PacketStats(
            dropped_channel=1, dropped_queue=2, dropped_dead=3, expired=4
        )
        assert s.dropped == 10

    def test_merge(self):
        a = PacketStats(generated=5, delivered=2, dropped_queue=1)
        a.record_deliveries(np.array([2]), np.array([1]))
        b = PacketStats(generated=3, dropped_channel=2)
        a.merge(b)
        assert a.generated == 8
        assert a.dropped_channel == 2
        assert a.dropped_queue == 1

    def test_merge_folds_counters_only(self):
        # A round records into the run's reservoir and folds its
        # counters; merging must not count its latencies twice.
        run = PacketStats()
        rnd = PacketStats(generated=2, latency_sample=run.latency_sample)
        rnd.record_deliveries(np.array([4, 6]), np.array([1, 1]))
        run.merge(rnd.counts())
        assert (run.generated, run.delivered, run.total_latency_slots) == (2, 2, 10)
        assert run.latencies == [4, 6]
        assert run.latency_sample.count == run.delivered

    def test_validate_catches_overflow(self):
        s = PacketStats(generated=1, delivered=2)
        with pytest.raises(AssertionError):
            s.validate()

    def test_validate_allows_in_flight(self):
        PacketStats(generated=5, delivered=2).validate(in_flight=3)

    def test_validate_catches_a_lost_packet(self):
        s = PacketStats(generated=5, delivered=2, dropped_queue=1)
        s.validate(in_flight=2)
        with pytest.raises(AssertionError, match="5 generated"):
            s.validate(in_flight=1)
        with pytest.raises(AssertionError):
            s.validate()  # a finished run holds nothing in flight

class TestPacketArena:
    def test_alloc_initialises_columns(self):
        arena = PacketArena()
        rows = arena.alloc(np.array([4, 7]), born_slot=12)
        assert arena.source[rows].tolist() == [4, 7]
        assert arena.born_slot[rows].tolist() == [12, 12]
        assert arena.hops[rows].tolist() == [0, 0]
        assert arena.retries[rows].tolist() == [0, 0]
        assert arena.nxt[rows].tolist() == [-1, -1]
        assert arena.n_live == 2

    def test_columns(self):
        assert PacketArena._COLUMNS == (
            "source", "born_slot", "hops", "retries", "nxt"
        )

    def test_free_list_reuses_rows(self):
        arena = PacketArena()
        first = arena.alloc(np.array([0, 1, 2]), born_slot=0)
        arena.free(first)
        assert arena.n_live == 0
        second = arena.alloc(np.array([5, 6, 7]), born_slot=3)
        assert sorted(second.tolist()) == sorted(first.tolist())
        assert arena.source[second].tolist() == [5, 6, 7]

    def test_grows_past_initial_capacity(self):
        arena = PacketArena()
        rows = arena.alloc(np.arange(5000, dtype=np.int64), born_slot=0)
        assert np.unique(rows).size == 5000
        assert arena.n_live == 5000


def _live_view(arena):
    """Everything an arena's future depends on: its shape, the free
    stack in order, and the five columns of the live rows."""
    rows = arena._live_rows()
    return (
        arena.capacity,
        arena._size,
        arena.n_live,
        arena._free[: arena._n_free].tolist(),
        rows.tolist(),
        [getattr(arena, name)[rows].tolist() for name in PacketArena._COLUMNS],
    )


class TestArenaPickle:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=700),  # rows to alloc
                st.integers(min_value=0, max_value=2**32 - 1),  # free pick
            ),
            min_size=1,
            max_size=25,
        ),
        st.integers(min_value=1, max_value=1500),
    )
    @settings(max_examples=80, deadline=None)
    def test_round_trip_keeps_live_rows_and_next_alloc(self, ops, next_m):
        arena = PacketArena()
        live: list[int] = []
        for slot, (m, pick) in enumerate(ops):
            rows = arena.alloc(np.arange(m) % 97, born_slot=slot)
            # Give the live rows values that differ from alloc's fill.
            arena.hops[rows] = slot % 5
            arena.retries[rows] = m % 3
            arena.nxt[rows] = np.roll(rows, 1)
            live += rows.tolist()
            order = np.random.default_rng(pick).permutation(len(live))
            n_free = pick % (len(live) + 1)
            arena.free(np.asarray(live, dtype=np.int64)[order[:n_free]])
            live = [live[i] for i in sorted(order[n_free:])]
        assert arena.n_live == len(live) == arena._size - arena._n_free

        restored = pickle.loads(pickle.dumps(arena))
        assert _live_view(restored) == _live_view(arena)

        sources = np.arange(next_m) % 13
        got = restored.alloc(sources, born_slot=999)
        want = arena.alloc(sources, born_slot=999)
        assert got.tolist() == want.tolist()
        assert _live_view(restored) == _live_view(arena)

    def test_restores_a_state_with_dropped_columns(self):
        # Snapshots written before the arena lost its ``status`` and
        # ``delivered_slot`` columns still carry them; a restore ignores
        # them and keeps the rest.
        arena = PacketArena(8)
        rows = arena.alloc(np.array([3, 1, 4]), born_slot=5)
        arena.hops[rows] = [1, 2, 3]
        arena.nxt[rows] = np.roll(rows, 1)
        arena.free(rows[1:2])
        state = arena.__getstate__()
        live = state["source"].size
        state["status"] = np.zeros(live, dtype=np.int8)
        state["delivered_slot"] = np.full(live, -1, dtype=np.int64)
        restored = PacketArena.__new__(PacketArena)
        restored.__setstate__(state)
        assert _live_view(restored) == _live_view(arena)
        assert not hasattr(restored, "status")
        assert not hasattr(restored, "delivered_slot")
        assert pickle.dumps(restored) == pickle.dumps(arena)

    def test_empty_arena_pickles_in_free_stack_bytes(self):
        # The ckpt-resume-1e4 shape: 4 096 rows of capacity, a
        # high-water mark of 3 245, and no packet in flight.
        arena = PacketArena(4096)
        arena.free(arena.alloc(np.zeros(3245, dtype=np.int64), born_slot=0))
        assert arena.n_live == 0 and arena.capacity == 4096
        size = len(pickle.dumps(arena, protocol=pickle.HIGHEST_PROTOCOL))
        assert size <= 8 * 3245 + 1024, size
        assert len(pickle.dumps(PacketArena(4096))) <= 1024


class TestLatencyReservoir:
    def test_exact_below_capacity(self):
        r = LatencyReservoir(capacity=10)
        r.add_many(np.array([3, 1, 4]))
        r.add_many(np.array([5]))
        assert sorted(r.values.tolist()) == [1, 3, 4, 5]
        assert r.count == 4
        assert len(r) == 4

    def test_bounded_above_capacity(self):
        r = LatencyReservoir(capacity=8)
        r.add_many(np.arange(1000, dtype=np.int64))
        assert len(r) == 8
        assert r.count == 1000
        assert set(r.values.tolist()) <= set(range(1000))

    def test_deterministic(self):
        a, b = LatencyReservoir(capacity=8), LatencyReservoir(capacity=8)
        for res in (a, b):
            res.add_many(np.arange(500, dtype=np.int64))
        assert a == b

    def test_batch_matches_scalar_sequence(self):
        a, b = LatencyReservoir(capacity=16), LatencyReservoir(capacity=16)
        data = np.arange(300, dtype=np.int64)
        a.add_many(data)
        for x in data:
            b.add_many(np.array([x]))
        assert a == b

    @given(
        st.lists(st.integers(min_value=0, max_value=50), max_size=120),
        st.lists(st.integers(min_value=1, max_value=40), max_size=20),
    )
    @settings(max_examples=100, deadline=None)
    def test_any_split_is_algorithm_r_over_the_stream(self, data, cuts):
        # The engine streams a run's deliveries through one reservoir in
        # batches whose edges fall at slot, round and resume boundaries;
        # the sample must not depend on where they fall.
        cap = 16
        split = LatencyReservoir(capacity=cap)
        rest = np.asarray(data, dtype=np.int64)
        for cut in cuts:
            split.add_many(rest[:cut])
            rest = rest[cut:]
        split.add_many(rest)
        whole = LatencyReservoir(capacity=cap)
        whole.add_many(np.asarray(data, dtype=np.int64))

        # Scalar algorithm R: item t (1-based) replaces a uniform slot
        # of t with probability cap / t.
        rng = np.random.default_rng(LatencyReservoir._SEED)
        sample: list[int] = []
        for t, x in enumerate(data, start=1):
            if t <= cap:
                sample.append(x)
                continue
            j = int(rng.random() * t)
            if j < cap:
                sample[j] = x

        for got in (split, whole):
            assert got.values.tolist() == sample
            assert got.count == len(data)
            assert got._rng.bit_generator.state == rng.bit_generator.state


class TestPacketStatsBatch:
    def test_one_batch_matches_one_at_a_time_batches(self):
        a, b = PacketStats(generated=4), PacketStats(generated=4)
        a.record_deliveries(np.array([2, 3, 4]), np.array([1, 1, 2]))
        for lat, hops in ((2, 1), (3, 1), (4, 2)):
            b.record_deliveries(np.array([lat]), np.array([hops]))
        assert a.delivered == b.delivered
        assert a.total_latency_slots == b.total_latency_slots
        assert a.total_hops == b.total_hops
        assert a.latencies == b.latencies

    def test_record_deliveries_rejects_negative(self):
        with pytest.raises(ValueError):
            PacketStats().record_deliveries(np.array([1, -2]), np.array([1, 1]))
