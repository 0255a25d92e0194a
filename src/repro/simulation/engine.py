"""Round-based WSN simulation engine with a batched slot kernel.

Implements the paper's operational model (Algorithm 1's outer loop plus
the §5 evaluation machinery):

per round r:
  1. the protocol selects cluster heads;
  2. slotted data transmission — non-CH nodes generate Poisson traffic
     and forward head-of-line packets to the relay the protocol picks;
     the lossy channel and finite CH buffers drop packets; cluster
     heads service their queues at a bounded rate and fuse serviced
     payloads;
  3. end of round — every head compresses its fused payload (Table 2's
     50 % ratio), uplinks it toward the BS along the protocol's uplink
     path (direct for QLEC/k-means, hierarchy hops for FCM), and the
     protocol's round-end hook runs (QLEC's head V backup).

Data-path layout
----------------
Packets never exist as Python objects on the hot path.  They are rows
of a :class:`~repro.network.packet.PacketArena` (structure-of-arrays +
free list); per-node source FIFOs are intrusive linked lists through
the arena (:class:`~repro.network.queueing.SourceBuffers`); cluster
head queues are one 2-D ring buffer of arena indices
(:class:`~repro.network.queueing.QueueBank`).  Each slot phase issues a
handful of vectorized calls — batched relay choice
(``protocol.choose_relays``), one ``Channel.attempt_batch``, grouped
``EnergyLedger.discharge_many`` charges, one
``LinkEstimator.update_batch`` — instead of thousands of scalar ones.

Determinism: the canonical draw order
-------------------------------------
All stochastic draws of a slot happen in **sorted sender index order**
(generation, relay choice, channel trials, queue contention, BS-budget
contention).  A batched ``rng.random(n)`` consumes the generator stream
exactly as n scalar draws would, so the batched kernel and the scalar
reference path (``batched=False``, which differs only by looping
``choose_relay`` per sender) produce bit-identical runs per master
seed.  Every algorithm in Fig. 3 runs on byte-identical traffic,
channel draws, and deployments for a given seed.

Drop accounting has a single source of truth: the per-round
:class:`~repro.network.packet.PacketStats`; the queueing substrate
keeps no shadow counters.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from ..config import SimulationConfig

if TYPE_CHECKING:  # avoid a runtime cycle with baselines.base
    from ..baselines.base import ClusteringProtocol
from ..faults import NULL_INJECTOR, PlanInjector
from ..kernels import KernelBackend, resolve_backend
from ..network.node import BaseStation, NodeArray
from ..network.packet import PacketArena, PacketStats, PacketStatus
from ..network.queueing import QueueBank, SourceBuffers
from ..network.queueing import utilization as _utilization
from ..routing import build_router
from ..telemetry import NULL, SpanTracer, Telemetry, run_manifest
from ..telemetry.trace import rss_mb
from .metrics import RoundStats, SimulationResult
from .state import NetworkState
from .trace import TraceRecorder
from .traffic import PoissonTraffic

__all__ = ["SimulationEngine", "run_simulation"]

#: One slot's serviced packets: (queue position per packet, arena index
#: per packet, service completion slot).
_FusedBatch = tuple[np.ndarray, np.ndarray, int]

#: Telemetry bucket edges for the per-round queue-peak histogram
#: (upper bounds; Table 2's default CH capacity is 16).
_QUEUE_PEAK_EDGES = (0, 1, 2, 4, 8, 16, 32, 64)

#: Telemetry bucket edges for the uplink hop-count histogram (active
#: routing substrates only; the config's TTL default is 12).
_HOP_COUNT_EDGES = (1, 2, 3, 4, 6, 8, 12)


class SimulationEngine:
    """Drives one protocol over one deployment for R rounds.

    Parameters
    ----------
    config:
        Scenario description (Table 2 via :func:`repro.config.paper_config`).
    protocol:
        A fresh :class:`~repro.baselines.base.ClusteringProtocol`.
    nodes, bs, initial_energy:
        Optional pre-built deployment (dataset experiments).
    stop_on_death:
        When True the run ends at the first node death (the lifespan
        experiment); otherwise the death round is recorded and the run
        continues (PDR/energy experiments, which "lower the energy
        death line" per §5.1).
    batched:
        When True (default) relay choices go through the protocol's
        vectorized ``choose_relays``.  False forces the scalar
        per-sender ``choose_relay`` loop — the reference path the
        micro-benchmarks time the kernel against; both paths produce
        bit-identical results.
    backend:
        Kernel backend selector for the batched array stages — a name
        (``"auto"``/``"numpy"``/``"numba"`` or any registered backend)
        or an already-resolved :class:`~repro.kernels.KernelBackend`.
        ``None`` (default) defers to ``config.backend``.  Backends are
        bit-identical by contract; the resolved name is recorded in the
        run manifest.
    telemetry:
        An optional :class:`~repro.telemetry.Telemetry` handle, the
        engine's one instrument (held as :attr:`telemetry`).  Its lap
        clock wall-clock attributes every stage of the slot pipeline;
        with a registry attached, phase times (``time/phase/*``) and
        pipeline counters (packets, energy, channel, queues)
        accumulate there and the final :class:`SimulationResult`
        carries a snapshot in ``extras["telemetry"]``.  When nothing
        is attached the engine holds the no-op
        :data:`~repro.telemetry.NULL` singleton, which never touches
        an RNG stream — instrumented or not, runs are bit-identical.
    tracer:
        An optional :class:`~repro.telemetry.SpanTracer`, attached as
        the handle's span sink (``telemetry.spans``); without a
        ``telemetry`` argument the engine builds a handle with no
        registry.  The run then becomes a hierarchical span stream
        (run → round → phase → kernel call, fault events as instants)
        exportable as JSONL or a Perfetto-loadable Chrome trace, with
        phase spans timed by the same lap clock as the
        ``time/phase/*`` counters.  A span sink (or
        ``Telemetry(profile_kernels=True)``) wraps the kernel backend
        in :class:`~repro.kernels.ProfiledBackend` — numerically
        invisible, and the manifest still records the inner backend.
    """

    def __init__(
        self,
        config: SimulationConfig,
        protocol: "ClusteringProtocol",
        nodes: NodeArray | None = None,
        bs: BaseStation | None = None,
        rng: np.random.Generator | None = None,
        initial_energy: np.ndarray | None = None,
        stop_on_death: bool = False,
        trace: TraceRecorder | None = None,
        batched: bool = True,
        backend: str | KernelBackend | None = None,
        telemetry: Telemetry | None = None,
        tracer: SpanTracer | None = None,
    ) -> None:
        self.config = config
        self.protocol = protocol
        tel = telemetry if telemetry is not None else NULL
        if tracer is not None:
            if tel is NULL:
                tel = Telemetry()
                tel.registry = None
            tel.spans = tracer
        self.telemetry = tel
        self.kernels = resolve_backend(
            backend if backend is not None else config.backend
        )
        # Kernel profiling is opt-in (scalar and batched paths issue
        # different kernel call *counts*, so auto-profiling would break
        # their deterministic-view equality); the wrapper is
        # numerically invisible and proxies the inner backend's name.
        if tel.profile_kernels or tel.spans is not None:
            from ..kernels import ProfiledBackend

            self.kernels = ProfiledBackend(
                self.kernels,
                registry=tel.registry if tel.profile_kernels else None,
                tracer=tel.spans,
            )
        self.state = NetworkState(
            config,
            nodes=nodes,
            bs=bs,
            rng=rng,
            initial_energy=initial_energy,
            kernels=self.kernels,
        )
        self.traffic = PoissonTraffic(
            config.traffic, self.state.n, self.state.traffic_rng
        )
        self.stop_on_death = stop_on_death
        self.batched = batched
        self.arena = PacketArena()
        self.buffers = SourceBuffers(self.state.n, self.arena)
        self._first_death_round: int | None = None
        self._rounds: list[RoundStats] = []
        self._totals = PacketStats()
        #: Whether the span sink's "run" span is already open — restored
        #: snapshots carry it open, and a resumed ``run()`` must not
        #: begin a second one (span IDs stay deterministic either way).
        self._run_begun = False
        self.trace = trace
        self.mobility = None
        if config.mobility is not None:
            from ..network.mobility import build_mobility

            self.mobility = build_mobility(
                config.mobility,
                config.deployment.side,
                self.state.mobility_rng,
            )
        # Fault injection: the NULL singleton unless the config carries
        # a plan.  Every engine hook is guarded by ``self.faults.active``
        # so the no-fault path stays bit-identical to the golden traces
        # (and the recovery machinery below never allocates).
        self.faults = NULL_INJECTOR
        self._recovering = False
        if config.faults is not None:
            self.faults = PlanInjector(
                config.faults,
                self.state.fault_rng,
                self.state.n,
                self.state.bs_index,
                tracer=tel.spans,
            )
            self._recovering = self.faults.recovering
            #: Per-sender degradation bookkeeping (recovery path only):
            #: absolute slot before which a backed-off sender stays
            #: quiet, and link-layer retransmissions spent this round
            #: against the plan's budget.
            self._backoff_until = np.zeros(self.state.n, dtype=np.int64)
            self._retry_spent = np.zeros(self.state.n, dtype=np.int64)
        self.harvester = None
        if config.harvesting is not None:
            from ..energy.harvesting import build_harvester

            self.harvester = build_harvester(
                config.harvesting, self.state.harvest_rng
            )
        # Routing substrate: the inert DIRECT singleton unless the
        # config selects an active kind.  Every engine hook is guarded
        # by ``self.router.active`` — same NULL-substrate pattern as
        # faults/telemetry — so the default path never bills discovery,
        # never touches the routing RNG stream, and stays bit-identical
        # to the golden traces.
        self.router = build_router(config.routing)
        if self.router.active:
            self.router.prepare(self.state)
        protocol.prepare(self.state)
        #: Self-describing header shared by the trace dump and the
        #: telemetry snapshot (built lazily only when someone records).
        self.manifest: dict | None = None
        if self.trace is not None or tel.enabled:
            self.manifest = run_manifest(
                config, protocol.name, backend=self.kernels.name
            )
        if self.trace is not None and self.trace.manifest is None:
            self.trace.manifest = self.manifest
        if tel.spans is not None and tel.spans.manifest is None:
            tel.spans.manifest = self.manifest
        if tel.registry is not None:
            self.state.channel.bind_telemetry(tel)
            self._tel_energy_mark = self.state.ledger.category_breakdown()
            self._tel_routing_mark = self.router.counters()

    # ------------------------------------------------------------------
    # slot phases
    # ------------------------------------------------------------------
    def _generate(self, abs_slot: int, is_head: np.ndarray, stats: PacketStats) -> None:
        active = self.state.ledger.alive & ~is_head
        producing, counts = self.traffic.arrivals(active)
        if producing.size == 0:
            return
        sources = np.repeat(producing, counts)
        stats.generated += sources.size
        rows = self.arena.alloc(sources, abs_slot)
        self.buffers.push_batch(sources, rows)

    def _choose_targets(
        self,
        heads: np.ndarray,
        senders: np.ndarray,
        qlens: np.ndarray,
    ) -> np.ndarray:
        """Relay target per sender — batched or the scalar reference
        loop; identical results either way (the protocols' batch
        overrides are exact vectorizations and consume the protocol RNG
        in the same sender order)."""
        st = self.state
        if self.batched:
            return np.asarray(
                self.protocol.choose_relays(st, senders, heads, qlens),
                dtype=np.int64,
            )
        return np.fromiter(
            (
                self.protocol.choose_relay(st, int(node), heads, qlens)
                for node in senders
            ),
            dtype=np.int64,
            count=senders.size,
        )

    def _transmit(
        self,
        abs_slot: int,
        heads: np.ndarray,
        is_head: np.ndarray,
        bank: QueueBank,
        stats: PacketStats,
    ) -> None:
        st = self.state
        arena = self.arena
        tel = self.telemetry
        bits = self.config.traffic.packet_bits
        # Canonical order: ascending sender index.  Within-slot
        # contention (queue capacity, BS budget) resolves in this order
        # every run, which is what keeps batched == scalar bit-exact.
        senders = np.flatnonzero(
            st.ledger.alive & ~is_head & (self.buffers.lengths > 0)
        )
        if self._recovering and senders.size:
            # Backed-off senders sit this slot out (bounded
            # retry-with-backoff under degradation; see run_round).
            senders = senders[self._backoff_until[senders] <= abs_slot]
        if senders.size == 0:
            return
        hop_by_hop = getattr(self.protocol, "hop_by_hop", False)
        if heads.size or hop_by_hop:
            qlens = bank.lengths  # slot-start backlog snapshot
            eff_heads, eff_qlens = heads, qlens
            if self._recovering and heads.size:
                # Graceful degradation: dead cluster heads are masked
                # out of every sender's action set, so members re-attach
                # to a live head (or fall back to the BS) this same
                # round instead of burning retries on a silent corpse.
                live = st.ledger.alive[heads]
                if not live.all():
                    eff_heads = heads[live]
                    eff_qlens = qlens[live]
            if eff_heads.size or hop_by_hop:
                targets = self._choose_targets(eff_heads, senders, eff_qlens)
            else:
                targets = np.full(senders.size, st.bs_index, dtype=np.int64)
        else:
            targets = np.full(senders.size, st.bs_index, dtype=np.int64)
        tel.lap("relay_choice")
        rows = self.buffers.peek(senders)
        d = st.distances_many(senders, targets)
        st.ledger.discharge_many(senders, st.radio.tx(bits, d), "tx")
        tel.lap("discharge")
        # Liveness snapshot after the tx charges: a target killed by
        # this slot's receptions still ACKs this slot's arrivals.
        to_bs = targets == st.bs_index
        target_alive = to_bs.copy()
        target_alive[~to_bs] = st.ledger.alive[targets[~to_bs]]
        draws = st.channel.attempt_batch(d, senders, targets)
        arrived = draws & target_alive
        tel.lap("channel")
        # Every arrival at a non-BS target costs that target rx energy
        # (heads pay even for packets their full queue then rejects —
        # the radio listened either way).
        rx_targets = targets[arrived & ~to_bs]
        if rx_targets.size:
            st.ledger.discharge_many(rx_targets, st.radio.rx(bits), "rx")
        tel.lap("discharge")

        pos = bank.position(targets)
        acks = np.zeros(senders.size, dtype=bool)
        pop_mask = np.ones(senders.size, dtype=bool)
        free_rows: list[np.ndarray] = []

        # The ACK of §4.2 confirms the packet was "successfully
        # received AND processed": a buffer overflow at the head is a
        # missing ACK, which is exactly the congestion signal QLEC's
        # link estimator learns from.
        at_head = np.flatnonzero(arrived & (pos >= 0))
        if at_head.size:
            order = np.argsort(pos[at_head], kind="stable")
            at_head = at_head[order]
            accepted = bank.offer_batch(pos[at_head], rows[at_head])
            acc = at_head[accepted]
            rej = at_head[~accepted]
            arena.hops[rows[acc]] += 1
            acks[acc] = True
            if rej.size:
                stats.dropped_queue += rej.size
                arena.mark(rows[rej], PacketStatus.DROPPED_QUEUE)
                free_rows.append(rows[rej])

        # Store-and-forward relay through an ordinary node (hop-by-hop
        # protocols): the packet joins the relay's own buffer and
        # continues next slot, bounded by the TTL so routing loops
        # cannot live forever.
        at_relay = np.flatnonzero(arrived & ~to_bs & (pos < 0))
        forwarded = np.empty(0, dtype=np.int64)
        if at_relay.size:
            relay_rows = rows[at_relay]
            arena.hops[relay_rows] += 1
            expired = arena.hops[relay_rows] >= self.config.max_hops
            exp = at_relay[expired]
            forwarded = at_relay[~expired]
            if exp.size:
                stats.expired += exp.size
                arena.mark(rows[exp], PacketStatus.EXPIRED)
                free_rows.append(rows[exp])
            if forwarded.size:
                arena.retries[rows[forwarded]] = 0  # fresh ARQ budget per hop
                acks[forwarded] = True

        # Direct uplink: contends for the BS's per-slot budget for
        # unscheduled traffic (the "burden" behind Eq. 19's penalty l).
        at_bs = np.flatnonzero(arrived & to_bs)
        if at_bs.size:
            budget = self.config.queue.bs_capacity_per_slot
            won = at_bs[:budget]
            lost = at_bs[budget:]
            if won.size:
                won_rows = rows[won]
                arena.hops[won_rows] += 1
                arena.status[won_rows] = PacketStatus.DELIVERED.code
                arena.delivered_slot[won_rows] = abs_slot + 1
                stats.record_deliveries(
                    arena.latencies(won_rows), arena.hops[won_rows]
                )
                acks[won] = True
                free_rows.append(won_rows)
            if lost.size:
                stats.dropped_queue += lost.size
                arena.mark(rows[lost], PacketStatus.DROPPED_QUEUE)
                free_rows.append(rows[lost])

        # Link-layer ARQ: an unacknowledged channel loss (or a silent
        # dead relay) leaves the packet at the head of its source's
        # buffer for next slot, up to max_retries; a buffer-full
        # rejection (above) is an explicit NACK and is not retried.
        failed = np.flatnonzero(~arrived)
        if failed.size:
            retry = arena.retries[rows[failed]] < self.config.max_retries
            if self._recovering:
                # Bounded retry-with-backoff: each sender has a
                # per-round retransmission budget, and every spent
                # retry pushes its next attempt out exponentially
                # (base * 2^min(k, 4) slots).  Budget-exhausted
                # packets drop through the final-failure accounting.
                spent = self._retry_spent[senders[failed]]
                retry = retry & (spent < self.faults.retry_budget)
                retrying = failed[retry]
                if retrying.size:
                    s_retry = senders[retrying]
                    delay = self.faults.backoff_base * (
                        1 << np.minimum(self._retry_spent[s_retry], 4)
                    )
                    self._backoff_until[s_retry] = abs_slot + 1 + delay
                    self._retry_spent[s_retry] += 1
            else:
                retrying = failed[retry]
            arena.retries[rows[retrying]] += 1
            pop_mask[retrying] = False
            final = failed[~retry]
            if final.size:
                dead = ~target_alive[final]
                n_dead = int(dead.sum())
                stats.dropped_dead += n_dead
                stats.dropped_channel += final.size - n_dead
                arena.mark(rows[final[dead]], PacketStatus.DROPPED_DEAD)
                arena.mark(rows[final[~dead]], PacketStatus.DROPPED_CHANNEL)
                free_rows.append(rows[final])

        self.buffers.pop(senders[pop_mask])
        if forwarded.size:
            f_targets = targets[forwarded]
            order = np.argsort(f_targets, kind="stable")
            self.buffers.push_batch(f_targets[order], rows[forwarded][order])
        if free_rows:
            arena.free(np.concatenate(free_rows))
        tel.lap("queue_offer")

        st.link_estimator.update_batch(senders, targets, acks)
        self.protocol.on_transmissions(st, senders, targets, acks)
        tel.lap("estimator")

    def _service(
        self,
        abs_slot: int,
        bank: QueueBank,
        fused: list[_FusedBatch],
        stats: PacketStats,
    ) -> None:
        st = self.state
        if bank.k == 0:
            return
        bits = self.config.traffic.packet_bits
        rate = self.config.queue.service_rate
        # Dead heads stop serving; their backlog expires at round end.
        alive_heads = st.ledger.alive[bank.heads]
        pos_rep, rows = bank.serve_batch(rate, alive_heads)
        if rows.size == 0:
            return
        counts = np.bincount(pos_rep, minlength=bank.k)
        active = np.flatnonzero(counts)
        st.ledger.discharge_many(
            bank.heads[active], counts[active] * st.radio.da(bits), "da"
        )
        fused.append((pos_rep, rows, abs_slot + 1))

    # ------------------------------------------------------------------
    def _uplink(
        self,
        heads: np.ndarray,
        fused: list[_FusedBatch],
        bank: QueueBank,
        end_slot: int,
        stats: PacketStats,
    ) -> None:
        """End-of-round fusion uplink along each head's chain to the BS,
        in head order, then hop order, one batch per (head, hop) (see
        :meth:`_uplink_hop`).

        Multi-hop paths (the FCM hierarchy) spend the *intermediate*
        head's leftover service capacity: a head that already served
        its own cluster at full rate cannot also relay transit
        aggregates — the congestion coupling behind the paper's
        observation that the multi-hop scheme "discards more than 10%
        packets when the network is congested".
        """
        st = self.state
        cfg = self.config
        arena = self.arena
        ratio = cfg.compression_ratio
        # Unserviced backlog expires with the round (membership
        # rotates; stale samples are not carried over).
        _, leftover = bank.drain_all()
        if leftover.size:
            self._drop([(leftover, PacketStatus.EXPIRED)], stats)
        if fused:
            all_pos = np.concatenate([b[0] for b in fused])
            all_rows = np.concatenate([b[1] for b in fused])
            all_slots = np.concatenate(
                [np.full(b[1].size, b[2], dtype=np.int64) for b in fused]
            )
        else:
            all_pos = all_rows = all_slots = np.empty(0, dtype=np.int64)
        n_fused = np.bincount(all_pos, minlength=bank.k)
        order = np.argsort(all_pos, kind="stable")  # per-head, slot order
        all_rows = all_rows[order]
        all_slots = all_slots[order]
        seg_starts = np.cumsum(n_fused) - n_fused
        # Fast path: when every walked head uplinks straight to the BS
        # and the protocol takes no per-transmission feedback, each
        # frame is one head->BS hop and the whole phase vectorizes
        # (channel draws stay in head order, frame order).
        from ..baselines.base import ClusteringProtocol

        # An active routing substrate owns the uplink paths (and wants
        # per-hop feedback plus path traces), so it always takes the
        # chain walk; the vectorized fast path below is reserved for
        # the substrate-less all-direct case.
        router = self.router
        paths: dict[int, list[int]] = {}
        # Per-frame protocol feedback runs only when the protocol
        # overrides the hook (decided once per round, not per frame).
        hooked = (
            type(self.protocol).on_transmission
            is not ClusteringProtocol.on_transmission
        )
        direct_only = not hooked and not router.active
        if direct_only:
            for j, h in enumerate(bank.heads):
                if n_fused[j] == 0 or not st.ledger.is_alive(int(h)):
                    continue
                path = self.protocol.uplink_path(st, int(h), heads)
                paths[int(h)] = path
                if path:
                    direct_only = False
                    break
        if direct_only:
            self._uplink_direct(
                bank, n_fused, seg_starts, all_rows, all_slots, stats
            )
            return
        total_service = cfg.queue.service_rate * cfg.traffic.slots_per_round
        relay_budget: dict[int, int] = {
            int(h): max(0, int(total_service - n_fused[j]))
            for j, h in enumerate(bank.heads)
        }
        for j, h in enumerate(bank.heads):
            h = int(h)
            count = int(n_fused[j])
            if count == 0:
                continue
            seg = slice(seg_starts[j], seg_starts[j] + count)
            rows = all_rows[seg]
            slots = all_slots[seg]
            if not st.ledger.is_alive(h):
                self._drop([(rows, PacketStatus.DROPPED_DEAD)], stats)
                continue
            if cfg.aggregation == "perfect":
                n_frames = 1
            elif cfg.aggregation == "none":
                n_frames = count
            else:  # "ratio" — Table 2's proportional compression
                n_frames = max(1, math.ceil(count * ratio))
            frames: list[tuple[np.ndarray, np.ndarray]] = [
                (rows[i::n_frames], slots[i::n_frames]) for i in range(n_frames)
            ]
            path = paths.get(h)
            if path is None:
                if router.active:
                    path = router.uplink_path(st, h, heads)
                else:
                    path = self.protocol.uplink_path(st, h, heads)
            chain = [h, *[int(p) for p in path], st.bs_index]
            for src, dst in zip(chain, chain[1:]):
                if not frames:
                    break
                frames = self._uplink_hop(
                    src, dst, frames, relay_budget, hooked, stats
                )
            # Whatever survived the whole chain reached the BS.
            hop_count = len(chain) - 1
            if frames:
                won = np.concatenate([r for r, _ in frames])
                arena.status[won] = PacketStatus.DELIVERED.code
                arena.delivered_slot[won] = (
                    np.concatenate([s for _, s in frames]) + hop_count
                )
                stats.record_deliveries(
                    arena.latencies(won), arena.hops[won] + hop_count
                )
                arena.free(won)
            if router.active:
                # Per-packet path observability: one record per walked
                # head on the trace, one histogram sample per delivered
                # frame in telemetry.  Pure reads — no RNG, and inert
                # routers never reach this branch.
                n_delivered = len(frames)
                if self.trace is not None:
                    self.trace.record_path(
                        st.round_index,
                        h,
                        [int(p) for p in path],
                        hop_count,
                        n_frames,
                        n_delivered,
                    )
                if self.telemetry.registry is not None and n_delivered:
                    self.telemetry.registry.histogram(
                        "routing/hops", _HOP_COUNT_EDGES
                    ).observe_many(
                        np.full(n_delivered, hop_count, dtype=np.float64)
                    )

    def _uplink_hop(
        self,
        src: int,
        dst: int,
        frames: list[tuple[np.ndarray, np.ndarray]],
        relay_budget: dict[int, int],
        hooked: bool,
        stats: PacketStats,
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """One hop of the chain walk for all of a head's surviving
        frames; returns the frames that reached ``dst``, in order.

        The frames share src, dst, distance and dst's liveness, so the
        sender's tx charges, the channel draws, the estimator's EWMA
        steps and the relay's rx charges are one call each on one link.
        Each of these touches its own node, stream or accumulator in
        frame order (a chain never repeats a node: every path builder
        tracks the nodes it visited), so the batch is bit-identical to
        walking the frames one at a time.  Feedback hooks fire once per
        frame, after the hop's state is applied.
        """
        st = self.state
        m = len(frames)
        if not st.ledger.is_alive(src):
            self._drop(
                [(rows, PacketStatus.DROPPED_DEAD) for rows, _ in frames], stats
            )
            return []
        bits = self.config.traffic.packet_bits
        d = st.distance(src, dst)
        relay = dst != st.bs_index
        dst_alive = not relay or st.ledger.is_alive(dst)
        st.ledger.discharge_repeat(src, st.radio.tx(bits, d), m, "tx")
        # A dead receiver never ACKs; the channel is not even drawn.
        if dst_alive:
            ok = st.channel.attempt_link(d, m, src, dst)
            lost_as = PacketStatus.DROPPED_CHANNEL
        else:
            ok = np.zeros(m, dtype=bool)
            lost_as = PacketStatus.DROPPED_DEAD
        full = [False] * m
        if relay and ok.any():
            # Transit relay: an ACK needs leftover service capacity at
            # the intermediate head (a missing ACK = the relay's cache
            # is exhausted), so only the first `budget` ACKs pass.
            budget = relay_budget.get(dst, 0)
            over = ok & (np.cumsum(ok) > budget)
            ok &= ~over
            relay_budget[dst] = budget - int(ok.sum())
            full = over.tolist()
        acks = ok.tolist()
        st.link_estimator.update_link(src, dst, acks)
        router = self.router
        if hooked or router.active:
            for acked in acks:
                if hooked:
                    self.protocol.on_transmission(st, src, dst, acked)
                if router.active:
                    router.on_hop(st, src, dst, acked)
        lost = [
            (rows, PacketStatus.DROPPED_QUEUE if q else lost_as)
            for (rows, _), acked, q in zip(frames, acks, full)
            if not acked
        ]
        if lost:
            self._drop(lost, stats)
        kept = [f for f, acked in zip(frames, acks) if acked]
        if relay and kept:
            st.ledger.discharge_repeat(dst, st.radio.rx(bits), len(kept), "rx")
        return kept

    def _drop(
        self, lost: list[tuple[np.ndarray, PacketStatus]], stats: PacketStats
    ) -> None:
        """Count and mark each lost batch of rows (a frame, a dead
        head's backlog) under its fate, then free them all in order with
        one ``free`` (the arena's LIFO free stack then matches freeing
        them one by one)."""
        for rows, fate in lost:
            # A terminal status's value names its PacketStats counter.
            setattr(stats, fate.value, getattr(stats, fate.value) + rows.size)
            self.arena.mark(rows, fate)
        self.arena.free(np.concatenate([rows for rows, _ in lost]))

    def _uplink_direct(
        self,
        bank: QueueBank,
        n_fused: np.ndarray,
        seg_starts: np.ndarray,
        all_rows: np.ndarray,
        all_slots: np.ndarray,
        stats: PacketStats,
    ) -> None:
        """Vectorized fusion uplink for the all-direct case.

        Every frame is a single head->BS transmission, so tx pricing,
        channel draws, estimator updates, and delivery accounting batch
        across all heads at once.  The BS is always alive and the relay
        budget never applies, which removes the per-frame branching of
        the chain walk.
        """
        st = self.state
        cfg = self.config
        arena = self.arena
        bits = cfg.traffic.packet_bits
        active = np.flatnonzero(n_fused)
        if active.size == 0:
            return
        alive = st.ledger.alive[bank.heads[active]]
        # Dead heads lose their whole fused backlog before transmitting.
        for j in active[~alive]:
            seg = slice(seg_starts[j], seg_starts[j] + n_fused[j])
            rows = all_rows[seg]
            stats.dropped_dead += rows.size
            arena.mark(rows, PacketStatus.DROPPED_DEAD)
            arena.free(rows)
        live = active[alive]
        if live.size == 0:
            return
        counts = n_fused[live]
        if cfg.aggregation == "perfect":
            n_frames = np.ones(live.size, dtype=np.int64)
        elif cfg.aggregation == "none":
            n_frames = counts.astype(np.int64)
        else:  # "ratio" — Table 2's proportional compression
            n_frames = np.maximum(
                1, np.ceil(counts * cfg.compression_ratio).astype(np.int64)
            )
        srcs = bank.heads[live]
        d = st.topology.d_to_bs[srcs]
        tx_e = st.radio.tx(bits, d)
        # One frame = one transmission: discharge, draw, and ACK per
        # frame, concatenated in head order then frame order — the same
        # stream the scalar chain walk consumes.
        frame_head = np.repeat(np.arange(live.size), n_frames)
        st.ledger.discharge_many(srcs[frame_head], tx_e[frame_head], "tx")
        # Targets are all the BS (never degraded), so only sender-side
        # per-node factors apply.
        draws = st.channel.attempt_batch(d[frame_head], srcs[frame_head])
        st.link_estimator.update_batch(
            srcs[frame_head],
            np.full(frame_head.size, st.bs_index, dtype=np.intp),
            draws,
        )
        # Frame i of a head carries fused rows i::n_frames (the scalar
        # walk's striding); map each row to its frame's draw.
        row_head = np.repeat(np.arange(live.size), counts)
        offs = np.arange(row_head.size, dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        frame_base = np.cumsum(n_frames) - n_frames
        frame_of_row = frame_base[row_head] + offs % n_frames[row_head]
        gather = offs + np.repeat(seg_starts[live], counts)
        rows_all = all_rows[gather]
        slots_all = all_slots[gather]
        ok = draws[frame_of_row]
        won = rows_all[ok]
        if won.size:
            arena.status[won] = PacketStatus.DELIVERED.code
            arena.delivered_slot[won] = slots_all[ok] + 1
            stats.record_deliveries(arena.latencies(won), arena.hops[won] + 1)
            arena.free(won)
        lost = rows_all[~ok]
        if lost.size:
            stats.dropped_channel += lost.size
            arena.mark(lost, PacketStatus.DROPPED_CHANNEL)
            arena.free(lost)

    # ------------------------------------------------------------------
    def run_round(self) -> RoundStats:
        st = self.state
        cfg = self.config
        tel = self.telemetry
        t_round = tel.now()
        if tel.spans is not None:
            tel.spans.begin("round", cat="round", args={"round": st.round_index})
        tel.lap_start()
        # Inter-round environment dynamics (extensions; both no-ops in
        # the paper's static, battery-only evaluation).
        if self.mobility is not None and st.round_index > 0:
            st.update_positions(
                self.mobility.step(st.nodes.positions, st.ledger.alive)
            )
        if self.harvester is not None and st.round_index > 0:
            self.harvester.apply(
                st.ledger, st.round_index, revive=cfg.harvesting.revive
            )
        if self.faults.active:
            # Round-start fault boundary: expire degradation windows,
            # apply this round's crash/revive/drain/window events, and
            # reset the per-round retransmission budget.
            self.faults.begin_round(st)
            if self._recovering:
                self._retry_spent[:] = 0
        energy_before = st.ledger.total_spent
        v_before = getattr(self.protocol, "v_update_count", 0)
        tel.lap("setup")

        heads = self.protocol.validate_heads(
            st, self.protocol.select_cluster_heads(st)
        )
        if self.faults.active:
            # Election-time CH kills strike between selection and
            # service: the victims never serve this round and do not
            # count as having served an epoch.
            heads = self.faults.at_election(st, heads)
        st.mark_cluster_heads(heads)
        is_head = np.zeros(st.n, dtype=bool)
        if heads.size:
            is_head[heads] = True
        capacity = cfg.queue.capacity
        if self.faults.active:
            capacity = self.faults.queue_capacity(capacity)
        bank = QueueBank(heads, capacity, st.n)
        fused: list[_FusedBatch] = []
        stats = PacketStats()
        if self.router.active:
            # Topology phase: energy-charged neighbor discovery/sharing
            # over the CH overlay, then route construction (tree or
            # Q-learned SPT).  Deterministic except for qspt's draws on
            # the dedicated routing RNG stream.
            self.router.begin_round(st, heads)
        tel.lap("ch_select")

        slots = cfg.traffic.slots_per_round
        base_slot = st.round_index * slots
        for slot in range(slots):
            abs_slot = base_slot + slot
            if self.faults.active:
                # Mid-round CH kills strike at slot boundaries.
                self.faults.at_slot(st, heads, slot)
            self._generate(abs_slot, is_head, stats)
            tel.lap("generate")
            self._transmit(abs_slot, heads, is_head, bank, stats)
            self._service(abs_slot, bank, fused, stats)
            tel.lap("service")
        self._uplink(heads, fused, bank, base_slot + slots, stats)
        tel.lap("uplink")
        self.protocol.on_round_end(st, heads)

        if self._first_death_round is None and st.ledger.any_dead:
            self._first_death_round = st.round_index + 1

        peaks = bank.peak_lengths
        round_stats = RoundStats(
            round_index=st.round_index,
            n_heads=int(heads.size),
            n_alive=st.ledger.n_alive,
            energy_consumed=st.ledger.total_spent - energy_before,
            packets=stats.counts(),
            mean_queue_peak=float(peaks.mean()) if peaks.size else 0.0,
            v_updates=getattr(self.protocol, "v_update_count", 0) - v_before,
        )
        self._rounds.append(round_stats)
        self._totals.merge(stats)
        if self.trace is not None:
            self.trace.record(round_stats, heads, st.ledger.residual)
        tel.lap("round_end")
        if tel.registry is not None:
            self._record_round_telemetry(round_stats, peaks, tel.now() - t_round)
        if tel.enabled and st.round_index % 8 == 0:
            self._sample_memory()
        if tel.spans is not None:
            tel.spans.end()
        st.round_index += 1
        return round_stats

    def _record_round_telemetry(
        self, rs: RoundStats, peaks: np.ndarray, round_wall: float
    ) -> None:
        """Round-end counter rollup (telemetry enabled only).

        Deterministic pipeline counters (packets by outcome, energy by
        radio category, head counts, queue occupancy) plus the round's
        wall time; phase wall-clock attribution happened inline via the
        lap markers.  Reads only already-computed aggregates — never an
        RNG stream.
        """
        reg = self.telemetry.registry
        reg.counter("rounds").add(1)
        p = rs.packets
        reg.counter("packets/generated").add(p.generated)
        reg.counter("packets/delivered").add(p.delivered)
        reg.counter("packets/dropped_channel").add(p.dropped_channel)
        reg.counter("packets/dropped_queue").add(p.dropped_queue)
        reg.counter("packets/dropped_dead").add(p.dropped_dead)
        reg.counter("packets/expired").add(p.expired)
        mark = self.state.ledger.category_breakdown()
        for cat, total in mark.items():
            reg.counter(f"energy/{cat}_j").add(total - self._tel_energy_mark[cat])
        self._tel_energy_mark = mark
        reg.gauge("heads/count").observe(rs.n_heads)
        reg.counter("rl/v_updates").add(rs.v_updates)
        if self.router.active:
            counts = self.router.counters()
            for key, total in counts.items():
                reg.counter(f"routing/{key}").add(
                    total - self._tel_routing_mark.get(key, 0)
                )
            self._tel_routing_mark = counts
        if peaks.size:
            reg.histogram("queue/peak", _QUEUE_PEAK_EDGES).observe_many(peaks)
            reg.gauge("queue/utilization").observe_many(
                _utilization(peaks, self.config.queue.capacity)
            )
        reg.gauge("time/round").observe(round_wall)

    def _sample_memory(self) -> None:
        """One reading of resident arrays and process RSS for every
        sink.  The gauges live under prefixes ``deterministic_view``
        strips; the instant nests inside the open round span."""
        tel = self.telemetry
        resident = self.state.memory_report()["resident_mb"]
        rss = rss_mb()
        if tel.registry is not None:
            tel.registry.gauge("mem/resident_mb").observe(resident)
            if rss is not None:
                tel.registry.gauge("prof/rss/mb").observe(rss)
        if tel.spans is not None:
            tel.spans.instant(
                "mem/sample",
                cat="mem",
                args={"rss_mb": rss, "resident_mb": resident},
            )

    def run(
        self,
        *,
        checkpoint_every: int | None = None,
        checkpoint_dir=None,
        checkpoint_keep_last: int = 3,
        checkpoint_tag: str = "run",
        stop_requested=None,
    ) -> SimulationResult:
        """Execute the full scenario and return the aggregated result.

        ``checkpoint_every`` (rounds) turns on crash-safe snapshots:
        after every Nth completed round the *complete* engine state is
        written atomically under ``checkpoint_dir`` (rotated to the
        ``checkpoint_keep_last`` newest).  To resume, restore the
        engine with :func:`repro.checkpoint.read_checkpoint` and call
        ``run()`` again — the loop continues from the completed-round
        cursor and the finished run is bit-identical to one that was
        never interrupted.  ``None`` (the default) writes nothing and
        is bit-identical to the historical path.

        ``stop_requested`` is an optional zero-argument callable polled
        at every round boundary (the graceful-drain hook): when it
        returns True mid-run, the engine snapshots (if checkpointing)
        and raises :class:`repro.checkpoint.DrainInterrupted`.
        """
        writer = None
        if checkpoint_every is not None:
            if checkpoint_dir is None:
                raise ValueError("checkpoint_every requires checkpoint_dir")
            from ..checkpoint import CheckpointWriter

            writer = CheckpointWriter(
                checkpoint_dir,
                checkpoint_tag,
                every=checkpoint_every,
                keep_last=checkpoint_keep_last,
            )
        spans = self.telemetry.spans
        if spans is not None and not self._run_begun:
            self._run_begun = True
            spans.begin(
                "run",
                cat="run",
                args={
                    "protocol": self.protocol.name,
                    "seed": self.config.seed,
                    "rounds": self.config.rounds,
                },
            )
        while len(self._rounds) < self.config.rounds:
            if self.stop_on_death and self._first_death_round is not None:
                break
            self.run_round()
            if writer is not None:
                writer.maybe(self)
            if (
                stop_requested is not None
                and len(self._rounds) < self.config.rounds
                and not (
                    self.stop_on_death and self._first_death_round is not None
                )
                and stop_requested()
            ):
                from ..checkpoint import DrainInterrupted

                path = writer.snapshot(self) if writer is not None else None
                raise DrainInterrupted(path, self.state.round_index)
        # Source backlog that never left its sensor expires with the run.
        while True:
            pending = np.flatnonzero(self.buffers.lengths > 0)
            if pending.size == 0:
                break
            rows = self.buffers.pop(pending)
            self._totals.expired += rows.size
            if self.telemetry.registry is not None:
                self.telemetry.counter("packets/expired").add(rows.size)
            self.arena.mark(rows, PacketStatus.EXPIRED)
            self.arena.free(rows)
        if spans is not None:
            spans.end()
        result = SimulationResult(
            protocol=self.protocol.name,
            rounds_executed=len(self._rounds),
            rounds_planned=self.config.rounds,
            per_round=self._rounds,
            packets=self._totals,
            total_energy=self.state.ledger.total_spent,
            first_death_round=self._first_death_round,
            n_alive_final=self.state.ledger.n_alive,
            consumption_ratio=self.state.ledger.consumption_ratio(),
            residual_final=self.state.ledger.snapshot(),
            positions=self.state.nodes.positions,
            seed=self.config.seed,
            mean_interarrival=self.config.traffic.mean_interarrival,
            v_update_total=getattr(self.protocol, "v_update_count", 0),
        )
        if self.faults.active:
            result.faults = self.faults.summary(self.state.ledger)
            if self.telemetry.registry is not None:
                self._record_fault_telemetry(result.faults)
        if self.router.active:
            result.extras["routing"] = self.router.summary()
        if self.telemetry.registry is not None:
            result.extras["telemetry"] = {
                "manifest": self.manifest,
                "metrics": self.telemetry.snapshot(),
            }
        result.validate()
        return result

    def _record_fault_telemetry(self, summary: dict) -> None:
        """Fault counters for the telemetry registry (deterministic, so
        they merge across shards like every pipeline counter)."""
        reg = self.telemetry.registry
        reg.counter("faults/injected").add(summary["injected"])
        reg.counter("faults/absorbed").add(summary["absorbed"])
        reg.counter("faults/fatal").add(summary["fatal"])
        reg.counter("faults/revived").add(summary["revived"])
        for cause, count in summary["deaths_by_cause"].items():
            reg.counter(f"deaths/{cause}").add(count)


def run_simulation(
    config: SimulationConfig,
    protocol: "ClusteringProtocol",
    stop_on_death: bool = False,
    checkpoint_every: int | None = None,
    checkpoint_dir=None,
    checkpoint_keep_last: int = 3,
    checkpoint_tag: str = "run",
    stop_requested=None,
    **engine_kwargs,
) -> SimulationResult:
    """One-call convenience wrapper: build an engine and run it.

    The ``checkpoint_*`` / ``stop_requested`` knobs forward to
    :meth:`SimulationEngine.run`; everything else goes to the engine
    constructor.
    """
    return SimulationEngine(
        config, protocol, stop_on_death=stop_on_death, **engine_kwargs
    ).run(
        checkpoint_every=checkpoint_every,
        checkpoint_dir=checkpoint_dir,
        checkpoint_keep_last=checkpoint_keep_last,
        checkpoint_tag=checkpoint_tag,
        stop_requested=stop_requested,
    )
