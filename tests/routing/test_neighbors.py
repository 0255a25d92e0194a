"""Neighbor discovery: deterministic tables, energy-charged control
plane, and the member/member-network views cluster-tree parents use."""

import numpy as np

from repro.core import QLECProtocol
from repro.routing import NeighborTable, discover
from repro.simulation.state import NetworkState
from tests.conftest import make_config


def make_state(seed=0, **kwargs):
    return NetworkState(make_config(seed=seed, **kwargs))


def elect_heads(state):
    proto = QLECProtocol()
    proto.prepare(state)
    return proto.select_cluster_heads(state)


class TestDiscovery:
    def test_tables_are_deterministic(self):
        outs = []
        for _ in range(2):
            state = make_state(seed=3)
            heads = elect_heads(state)
            table = discover(state, heads, range_factor=1.0, hello_bits=256)
            outs.append(table)
        a, b = outs
        assert np.array_equal(a.heads, b.heads)
        assert a.broadcasts == b.broadcasts
        for h in a.neighbors:
            assert np.array_equal(a.neighbors[h], b.neighbors[h])
            assert a.bs_reachable[h] == b.bs_reachable[h]
            assert np.array_equal(a.members[h], b.members[h])

    def test_no_rng_stream_is_consumed(self):
        state = make_state(seed=5)
        heads = elect_heads(state)
        marks = {
            name: getattr(state, name).bit_generator.state
            for name in ("traffic_rng", "protocol_rng", "engine_rng",
                         "routing_rng", "fault_rng")
        }
        discover(state, heads, range_factor=1.5, hello_bits=256)
        for name, mark in marks.items():
            assert getattr(state, name).bit_generator.state == mark, name

    def test_adjacency_is_symmetric_and_range_limited(self):
        state = make_state(seed=1)
        heads = elect_heads(state)
        table = discover(state, heads, range_factor=1.0, hello_bits=256)
        row = {int(h): i for i, h in enumerate(table.heads)}
        for h, nbrs in table.neighbors.items():
            i = row[h]
            for n in nbrs:
                j = row[int(n)]
                assert table.dist[i, j] <= table.radio_range
                assert h in table.neighbors[int(n)]
            assert h not in set(int(n) for n in nbrs)

    def test_discovery_bills_the_ledger(self):
        state = make_state(seed=2)
        heads = elect_heads(state)
        before = state.ledger.residual.copy()
        cats_before = state.ledger.category_breakdown()
        table = discover(state, heads, range_factor=1.5, hello_bits=256)
        after = state.ledger.residual
        cats_after = state.ledger.category_breakdown()
        # Every live head paid tx for both phases.
        assert np.all(after[table.heads] < before[table.heads])
        assert cats_after["tx"] > cats_before["tx"]
        # Heads with at least one neighbor also paid rx.
        if any(v.size for v in table.neighbors.values()):
            assert cats_after["rx"] > cats_before["rx"]
        # Non-participants are untouched.
        others = np.setdiff1d(np.arange(state.n), table.heads)
        assert np.array_equal(after[others], before[others])
        assert table.broadcasts == 2 * table.heads.size

    def test_share_phase_scales_with_table_size(self):
        """Phase-2 frames grow with neighbor count + member count, so a
        denser overlay costs more than a sparse one."""
        costs = {}
        for rf in (0.5, 2.0):
            state = make_state(seed=4)
            heads = elect_heads(state)
            before = state.ledger.residual.sum()
            discover(state, heads, range_factor=rf, hello_bits=256)
            costs[rf] = before - state.ledger.residual.sum()
        assert costs[2.0] > costs[0.5]

    def test_members_partition_alive_nonheads_in_range(self):
        state = make_state(seed=6)
        heads = elect_heads(state)
        table = discover(state, heads, range_factor=2.0, hello_bits=256)
        all_members = np.concatenate(
            [table.members[int(h)] for h in table.heads]
        )
        # Hard assignment: nobody appears under two heads, no head is a
        # member, everyone listed is alive.
        assert np.unique(all_members).size == all_members.size
        assert not np.isin(all_members, table.heads).any()
        assert state.ledger.alive[all_members].all()
        # member_networks is the union of the neighbors' member tables.
        for h in table.heads:
            h = int(h)
            want = (
                np.unique(np.concatenate(
                    [table.members[int(n)] for n in table.neighbors[h]]
                ))
                if table.neighbors[h].size
                else np.empty(0, dtype=np.intp)
            )
            assert np.array_equal(table.member_networks[h], want)

    def test_dead_heads_are_excluded(self):
        state = make_state(seed=7)
        heads = elect_heads(state)
        victim = int(heads[0])
        state.ledger.force_kill([victim])
        table = discover(state, heads, range_factor=1.5, hello_bits=256)
        assert victim not in table.heads
        assert victim not in table.neighbors

    def test_empty_overlay(self):
        state = make_state(seed=8)
        table = discover(
            state, np.empty(0, dtype=np.intp), range_factor=1.0,
            hello_bits=256,
        )
        assert table.heads.size == 0
        assert table.broadcasts == 0

    def test_table_is_a_plain_dataclass(self):
        table = NeighborTable(heads=np.empty(0, dtype=np.intp), radio_range=1.0)
        assert table.broadcasts == 0
        assert table.neighbors == {}
