"""Fault injectors: apply a :class:`~repro.faults.plan.FaultPlan` to
live simulation state at the engine's phase boundaries.

Mirrors the telemetry NULL-singleton pattern: the engine always holds
an injector; without a configured plan it holds :data:`NULL_INJECTOR`,
whose ``active`` flag is False and which the engine never calls into —
the no-fault path stays bit-identical to the pre-fault golden traces
and costs one predictable branch per phase.

Hook order within a round::

    begin_round(state)        expire windows, apply round-start events
    at_election(state, heads) election-time CH kills; returns live heads
    at_slot(state, heads, s)  mid-round CH kills (before slot s runs)
    queue_capacity(base)      effective CH queue capacity this round

All victim draws for ``count`` events come from ``state.fault_rng`` —
the dedicated 8th child stream — in plan declaration order, so fault
randomness never perturbs traffic/channel/protocol draws and is itself
reproducible per (config, plan, seed).
"""

from __future__ import annotations

import numpy as np

from .plan import FaultEvent, FaultPlan

__all__ = ["NULL_INJECTOR", "NullInjector", "PlanInjector"]


class NullInjector:
    """Inert injector: the engine's default when ``config.faults`` is
    None.  ``active`` is False and the engine guards every hook behind
    it, so none of these methods run on the no-fault path."""

    active = False
    recovering = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NullInjector()"


#: Shared inert instance (stateless, safe to share across engines).
NULL_INJECTOR = NullInjector()


class PlanInjector:
    """Applies one :class:`FaultPlan` against one simulation run.

    Stateful per run: tracks open degradation windows and the
    injected/absorbed/fatal ledger for the result's fault summary.  An
    event is *fatal* when applying it killed at least one node (crash,
    ch_kill, or a drain across the death line); every other applied
    event was *absorbed*.
    """

    active = True

    def __init__(
        self,
        plan: FaultPlan,
        rng: np.random.Generator,
        n: int,
        bs_index: int,
        tracer=None,
    ) -> None:
        self.plan = plan
        self.rng = rng
        self.n = n
        self.bs_index = bs_index
        self.tracer = tracer
        self.recovering = plan.recovery
        self.retry_budget = plan.retry_budget
        self.backoff_base = plan.backoff_base
        # Pre-index the schedule: round-start events, election kills,
        # and per-slot kills, each preserving declaration order.
        self._round_events: dict[int, list[FaultEvent]] = {}
        self._election_kills: dict[int, list[FaultEvent]] = {}
        self._slot_kills: dict[tuple[int, int], list[FaultEvent]] = {}
        for ev in plan.events:
            if ev.kind == "ch_kill":
                if ev.slot is None:
                    self._election_kills.setdefault(ev.round, []).append(ev)
                else:
                    key = (ev.round, int(ev.slot))
                    self._slot_kills.setdefault(key, []).append(ev)
            else:
                self._round_events.setdefault(ev.round, []).append(ev)
        # Open-window state (all ends are exclusive round indices).
        self._blackout_end = -1
        self._degrade_end = -1
        self._clamp_end = -1
        self._clamp_value = 0
        self._node_factor_end = np.full(n + 1, -1, dtype=np.int64)
        # Accounting for the fault summary.
        self.injected = 0
        self.absorbed = 0
        self.fatal = 0
        self.events_by_kind: dict[str, int] = {}
        self.fault_rounds: set[int] = set()

    # ------------------------------------------------------------------
    # victim selection
    # ------------------------------------------------------------------
    def _pick(self, ev: FaultEvent, pool: np.ndarray) -> np.ndarray:
        """Victims of ``ev`` within ``pool`` (sorted ascending).

        Explicit ``nodes`` intersect the pool (out-of-pool indices are
        simply not eligible any more — e.g. already dead for a crash);
        ``count`` draws without replacement from the pool on the fault
        stream.  The draw happens whenever count > 0 and the pool is
        non-empty, keeping the fault stream's consumption a function of
        the plan and the eligible-pool sizes only.
        """
        if ev.nodes is not None:
            victims = np.intersect1d(
                np.asarray(ev.nodes, dtype=np.int64), pool
            )
            return victims
        if ev.count <= 0 or pool.size == 0:
            return np.empty(0, dtype=np.int64)
        k = min(ev.count, pool.size)
        victims = self.rng.choice(pool, size=k, replace=False)
        return np.sort(victims.astype(np.int64))

    def _account(self, ev: FaultEvent, killed: int, rnd: int) -> None:
        self.injected += 1
        if killed > 0:
            self.fatal += 1
        else:
            self.absorbed += 1
        self.events_by_kind[ev.kind] = self.events_by_kind.get(ev.kind, 0) + 1
        self.fault_rounds.add(rnd)
        if self.tracer is not None:
            self.tracer.instant(
                f"fault/{ev.kind}",
                cat="fault",
                args={"round": int(rnd), "killed": int(killed)},
            )

    # ------------------------------------------------------------------
    # engine hooks
    # ------------------------------------------------------------------
    def begin_round(self, state) -> None:
        """Round-start boundary: expire windows, then apply this
        round's scheduled (non-``ch_kill``) events in plan order."""
        rnd = state.round_index
        ch = state.channel
        if self._blackout_end >= 0 and rnd >= self._blackout_end:
            ch.blackout = False
            self._blackout_end = -1
        if self._degrade_end >= 0 and rnd >= self._degrade_end:
            ch.degrade = 1.0
            self._degrade_end = -1
        if self._clamp_end >= 0 and rnd >= self._clamp_end:
            self._clamp_end = -1
        if ch.node_factor is not None:
            expired = (self._node_factor_end >= 0) & (
                self._node_factor_end <= rnd
            )
            if expired.any():
                ch.node_factor[expired] = 1.0
                self._node_factor_end[expired] = -1
        for ev in self._round_events.get(rnd, ()):
            self._apply(ev, state, rnd)

    def _apply(self, ev: FaultEvent, state, rnd: int) -> None:
        ledger = state.ledger
        ch = state.channel
        killed = 0
        if ev.kind == "crash":
            victims = self._pick(ev, np.flatnonzero(ledger.alive))
            killed = ledger.force_kill(victims, cause="crash")
        elif ev.kind == "revive":
            victims = self._pick(ev, np.flatnonzero(~ledger.alive))
            ledger.revive_nodes(victims)
        elif ev.kind == "battery_drain":
            victims = self._pick(ev, np.flatnonzero(ledger.alive))
            if victims.size:
                amounts = ev.factor * ledger.residual[victims]
                killed = ledger.drain(victims, amounts, cause="drain")
        elif ev.kind == "blackout":
            ch.blackout = True
            self._blackout_end = max(self._blackout_end, rnd + ev.duration)
        elif ev.kind == "degrade":
            ch.degrade = ev.factor
            self._degrade_end = max(self._degrade_end, rnd + ev.duration)
        elif ev.kind == "link_degrade":
            victims = self._pick(ev, np.arange(self.n, dtype=np.int64))
            if victims.size:
                if ch.node_factor is None:
                    ch.node_factor = np.ones(self.n + 1, dtype=np.float64)
                ch.node_factor[victims] = ev.factor
                self._node_factor_end[victims] = np.maximum(
                    self._node_factor_end[victims], rnd + ev.duration
                )
        elif ev.kind == "queue_clamp":
            self._clamp_value = ev.capacity
            self._clamp_end = max(self._clamp_end, rnd + ev.duration)
        else:  # pragma: no cover - plan validation forbids this
            raise ValueError(f"unhandled fault kind {ev.kind!r}")
        self._account(ev, killed, rnd)

    def at_election(self, state, heads: np.ndarray) -> np.ndarray:
        """Election-time CH kills; returns the surviving heads."""
        rnd = state.round_index
        events = self._election_kills.get(rnd)
        if not events:
            return heads
        for ev in events:
            pool = heads[state.ledger.alive[heads]]
            victims = self._pick(ev, pool)
            killed = state.ledger.force_kill(victims, cause="ch_kill")
            self._account(ev, killed, rnd)
        live = state.ledger.alive[heads]
        return heads if live.all() else heads[live]

    def at_slot(self, state, heads: np.ndarray, slot: int) -> None:
        """Mid-round CH kills, struck before slot ``slot`` runs.  The
        dead head's backlog and fused payload drop via the engine's
        existing dead-head accounting; with recovery enabled, senders
        mask it out of their action sets from this slot on."""
        events = self._slot_kills.get((state.round_index, slot))
        if not events:
            return
        for ev in events:
            pool = heads[state.ledger.alive[heads]]
            victims = self._pick(ev, pool)
            killed = state.ledger.force_kill(victims, cause="ch_kill")
            self._account(ev, killed, state.round_index)

    def queue_capacity(self, base: int) -> int:
        """Effective CH queue capacity (clamped inside an open
        ``queue_clamp`` window)."""
        if self._clamp_end >= 0:
            return min(base, self._clamp_value)
        return base

    # ------------------------------------------------------------------
    def summary(self, ledger) -> dict:
        """JSON-able fault summary for ``SimulationResult.faults``."""
        return {
            "plan_fingerprint": self.plan.fingerprint,
            "recovery": self.plan.recovery,
            "injected": self.injected,
            "absorbed": self.absorbed,
            "fatal": self.fatal,
            "events_by_kind": dict(sorted(self.events_by_kind.items())),
            "fault_rounds": sorted(self.fault_rounds),
            "deaths_by_cause": ledger.deaths_by_cause(),
            "total_deaths": ledger.total_deaths,
            "revived": ledger.revived_count,
        }
