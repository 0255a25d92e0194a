"""Pure-data fault plans: what goes wrong, when, and to whom.

A :class:`FaultPlan` is a frozen, JSON-able description of timed fault
events plus the recovery knobs the engine's degradation machinery uses.
It contains no behaviour — the :mod:`repro.faults.injector` interprets
it against live simulation state — so a plan can cross process and host
boundaries, hash into config fingerprints and sharding cell IDs, and be
rebuilt bit-identically from its payload.

Determinism contract
--------------------
Everything stochastic about a fault (which nodes a ``count`` event
picks) is drawn from the dedicated fault RNG stream
(``NetworkState.fault_rng``), never from the traffic/channel/protocol
streams — so two runs of the same (config, plan, seed) inject the same
faults, and a run *without* a plan consumes exactly the streams it
always did.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..telemetry.manifest import stable_fingerprint

__all__ = ["EVENT_KINDS", "FaultEvent", "FaultPlan"]

#: Every event kind the injector understands.
#:
#: ``crash``          kill nodes outright (non-battery death)
#: ``revive``         bring crashed nodes back (residual permitting)
#: ``ch_kill``        kill cluster heads — at election (``slot=None``)
#:                    or mid-round after transmission slot ``slot``
#: ``blackout``       total channel outage for ``duration`` rounds
#: ``degrade``        multiply every link's delivery probability by
#:                    ``factor`` for ``duration`` rounds
#: ``link_degrade``   multiply the delivery probability of every link
#:                    incident to the chosen nodes (a failing radio)
#: ``queue_clamp``    clamp CH queue capacity to ``capacity`` for
#:                    ``duration`` rounds
#: ``battery_drain``  drain ``factor`` of each chosen node's residual
#:                    (a battery anomaly, not radio spend)
EVENT_KINDS = (
    "crash",
    "revive",
    "ch_kill",
    "blackout",
    "degrade",
    "link_degrade",
    "queue_clamp",
    "battery_drain",
)

_WINDOW_KINDS = ("blackout", "degrade", "link_degrade", "queue_clamp")
_NODE_KINDS = ("crash", "revive", "ch_kill", "link_degrade", "battery_drain")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    Attributes
    ----------
    kind:
        One of :data:`EVENT_KINDS`.
    round:
        0-based simulation round at which the event fires.
    slot:
        Only for ``ch_kill``: ``None`` strikes at election time
        (before any slot runs); an integer strikes after that
        transmission slot of the round.
    nodes:
        Explicit victim indices.  Mutually exclusive with ``count``.
    count:
        Number of victims to draw (without replacement, from the
        eligible pool) on the fault RNG stream.
    duration:
        Window length in rounds for the window kinds
        (blackout/degrade/link_degrade/queue_clamp).
    factor:
        Delivery-probability multiplier (degrade kinds, in [0, 1]) or
        residual fraction to drain (``battery_drain``, in [0, 1]).
    capacity:
        Clamped queue capacity for ``queue_clamp``.
    """

    kind: str
    round: int
    slot: int | None = None
    nodes: tuple[int, ...] | None = None
    count: int = 0
    duration: int = 1
    factor: float = 0.0
    capacity: int = 0

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {EVENT_KINDS}"
            )
        if self.round < 0:
            raise ValueError("round must be >= 0")
        if self.nodes is not None:
            object.__setattr__(
                self, "nodes", tuple(int(i) for i in self.nodes)
            )
            if len(self.nodes) == 0:
                raise ValueError("nodes, when given, must be non-empty")
            if any(i < 0 for i in self.nodes):
                raise ValueError("node indices must be >= 0")
            if self.count:
                raise ValueError("give nodes or count, not both")
        elif self.kind in _NODE_KINDS and self.count < 1:
            raise ValueError(f"{self.kind!r} needs nodes or count >= 1")
        if self.count < 0:
            raise ValueError("count must be >= 0")
        if self.slot is not None:
            if self.kind != "ch_kill":
                raise ValueError("slot applies to ch_kill events only")
            if self.slot < 0:
                raise ValueError("slot must be >= 0")
        if self.kind in _WINDOW_KINDS and self.duration < 1:
            raise ValueError(f"{self.kind!r} needs duration >= 1")
        if self.kind in ("degrade", "link_degrade", "battery_drain"):
            if not 0.0 <= self.factor <= 1.0:
                raise ValueError(f"{self.kind!r} needs factor in [0, 1]")
        if self.kind == "queue_clamp" and self.capacity < 0:
            raise ValueError("queue_clamp capacity must be >= 0")


@dataclass(frozen=True)
class FaultPlan:
    """A schedule of :class:`FaultEvent` plus recovery knobs.

    Presence of a plan (even an empty one) arms the engine's
    degradation machinery — dead-head masking, per-sender
    retry-with-backoff budgets — which legitimately changes ARQ
    behaviour; only ``config.faults is None`` is the bit-identical
    golden-trace path.

    Attributes
    ----------
    events:
        The fault schedule; applied in declaration order within a round.
    recovery:
        When True (default), non-CH senders mask dead cluster heads out
        of their action sets (re-attaching to a live head or the BS the
        same round) and retries are bounded by the backoff budget
        below.  False degrades "naively": the stock ARQ keeps banging
        on dead heads until per-packet retries run out.
    retry_budget:
        Per-sender cap on link-layer retransmissions per round while
        recovering (bounds how much energy a node can burn re-sending
        into a failing neighbourhood).
    backoff_base:
        Base backoff delay in slots; after its k-th retransmission this
        round a sender waits ``backoff_base * 2^min(k, 4)`` slots
        before transmitting again.  0 disables the delay while keeping
        the budget.
    """

    events: tuple[FaultEvent, ...] = field(default_factory=tuple)
    recovery: bool = True
    retry_budget: int = 8
    backoff_base: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        for ev in self.events:
            if not isinstance(ev, FaultEvent):
                raise TypeError("events must be FaultEvent instances")
        if self.retry_budget < 0:
            raise ValueError("retry_budget must be >= 0")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be >= 0")

    # -- serialisation -------------------------------------------------
    def to_payload(self) -> dict:
        """Plain JSON-able dict; round-trips via :meth:`from_payload`."""
        return {
            "events": [
                {
                    "kind": ev.kind,
                    "round": ev.round,
                    "slot": ev.slot,
                    "nodes": list(ev.nodes) if ev.nodes is not None else None,
                    "count": ev.count,
                    "duration": ev.duration,
                    "factor": ev.factor,
                    "capacity": ev.capacity,
                }
                for ev in self.events
            ],
            "recovery": self.recovery,
            "retry_budget": self.retry_budget,
            "backoff_base": self.backoff_base,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "FaultPlan":
        events = tuple(
            FaultEvent(
                kind=e["kind"],
                round=e["round"],
                slot=e.get("slot"),
                nodes=tuple(e["nodes"]) if e.get("nodes") is not None else None,
                count=e.get("count", 0),
                duration=e.get("duration", 1),
                factor=e.get("factor", 0.0),
                capacity=e.get("capacity", 0),
            )
            for e in payload.get("events", ())
        )
        return cls(
            events=events,
            recovery=payload.get("recovery", True),
            retry_budget=payload.get("retry_budget", 8),
            backoff_base=payload.get("backoff_base", 1),
        )

    @property
    def fingerprint(self) -> str:
        """Stable 16-hex digest of the plan (the same primitive behind
        config fingerprints, so the plan's identity composes into
        them)."""
        return stable_fingerprint(self.to_payload())
