"""Per-round and whole-run metric collection.

The paper evaluates three headline indices — packet delivery rate,
total energy consumption, and network lifespan (Fig. 3) — plus
transmission latency (abstract/§1) and the per-node energy-consumption
ratio map (Fig. 4).  Everything needed to regenerate those artifacts is
captured here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..network.packet import PacketCounts, PacketStats

__all__ = ["RoundStats", "SimulationResult"]


@dataclass
class RoundStats:
    """Snapshot of one simulation round (counters only)."""

    round_index: int
    n_heads: int
    n_alive: int
    energy_consumed: float
    packets: PacketCounts
    mean_queue_peak: float = 0.0
    v_updates: int = 0

    @property
    def delivery_rate(self) -> float:
        return self.packets.delivery_rate

    def row(self) -> dict:
        """The round as one flat record, keyed like the golden per-round
        traces (``tests/simulation/golden_trace.json``)."""
        p = self.packets
        return {
            "round": self.round_index,
            "n_heads": self.n_heads,
            "n_alive": self.n_alive,
            "energy": self.energy_consumed,
            "generated": p.generated,
            "delivered": p.delivered,
            "dropped_channel": p.dropped_channel,
            "dropped_queue": p.dropped_queue,
            "dropped_dead": p.dropped_dead,
            "expired": p.expired,
            "latency_slots": p.total_latency_slots,
            "hops": p.total_hops,
            "mean_queue_peak": self.mean_queue_peak,
            "v_updates": self.v_updates,
        }


@dataclass
class SimulationResult:
    """Aggregate outcome of one simulation run."""

    protocol: str
    rounds_executed: int
    rounds_planned: int
    per_round: list[RoundStats]
    packets: PacketStats
    total_energy: float
    #: 1-based round at which the first node crossed the death line;
    #: None when every node outlived the run (right-censored).
    first_death_round: int | None
    n_alive_final: int
    consumption_ratio: np.ndarray
    residual_final: np.ndarray
    positions: np.ndarray
    seed: int = 0
    mean_interarrival: float = 0.0
    v_update_total: int = 0
    #: Fault summary of a chaos run (``repro.faults``): injection
    #: counters, deaths by cause, and revival counts as a JSON-able
    #: dict.  ``None`` for runs without a fault plan.
    faults: dict | None = None
    extras: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def delivery_rate(self) -> float:
        """Run-level packet delivery rate (Fig. 3a's y-axis)."""
        return self.packets.delivery_rate

    @property
    def lifespan(self) -> int:
        """Network lifespan in rounds (Fig. 3c's y-axis); censored runs
        report the number of rounds survived."""
        if self.first_death_round is not None:
            return self.first_death_round
        return self.rounds_executed

    @property
    def lifespan_censored(self) -> bool:
        return self.first_death_round is None

    def _death_round_at(self, fraction: float) -> int | None:
        """First 1-based round where alive nodes fell to or below
        ``(1 - fraction)`` of the population; None if never."""
        if not self.per_round:
            return None
        n0 = self.consumption_ratio.size
        threshold = (1.0 - fraction) * n0
        for stats in self.per_round:
            if stats.n_alive <= threshold:
                return stats.round_index + 1
        return None

    @property
    def half_death_round(self) -> int | None:
        """HND: the standard half-nodes-dead lifespan metric."""
        return self._death_round_at(0.5)

    @property
    def last_death_round(self) -> int | None:
        """LND: round the last node died (full network death)."""
        return self._death_round_at(1.0 - 1e-12)

    def alive_curve(self) -> np.ndarray:
        """Alive-node count per executed round (the classic WSN
        lifetime figure; complements Fig. 3(c))."""
        return np.asarray([r.n_alive for r in self.per_round], dtype=np.int64)

    @property
    def mean_latency(self) -> float:
        return self.packets.mean_latency

    @property
    def energy_per_delivered_packet(self) -> float:
        if self.packets.delivered == 0:
            return float("inf")
        return self.total_energy / self.packets.delivered

    def energy_balance_index(self) -> float:
        """Jain's fairness index over per-node consumption ratios —
        quantifies Fig. 4's "evenly distributed" claim (1.0 = perfectly
        even consumption)."""
        c = self.consumption_ratio
        denom = c.size * float((c * c).sum())
        if denom <= 0.0:
            return 1.0
        return float(c.sum()) ** 2 / denom

    def consumption_spread(self) -> tuple[float, float]:
        """(mean, std) of the per-node consumption ratio."""
        return float(self.consumption_ratio.mean()), float(
            self.consumption_ratio.std()
        )

    def summary(self) -> dict:
        """Flat dict for tabulation."""
        return {
            "protocol": self.protocol,
            "lambda": self.mean_interarrival,
            "seed": self.seed,
            "rounds": self.rounds_executed,
            "pdr": round(self.delivery_rate, 4),
            "energy_J": round(self.total_energy, 6),
            "lifespan": self.lifespan,
            "censored": self.lifespan_censored,
            "latency_slots": round(self.mean_latency, 3),
            "generated": self.packets.generated,
            "delivered": self.packets.delivered,
            "dropped_queue": self.packets.dropped_queue,
            "dropped_channel": self.packets.dropped_channel,
            "alive_final": self.n_alive_final,
            "balance_index": round(self.energy_balance_index(), 4),
        }

    def validate(self) -> None:
        """Cross-invariants every run must satisfy (used by tests and
        asserted once per engine run)."""
        self.packets.validate()
        if self.total_energy < -1e-12:
            raise AssertionError("negative total energy")
        if not 0.0 <= self.delivery_rate <= 1.0:
            raise AssertionError("delivery rate outside [0, 1]")
        if np.any(self.consumption_ratio < -1e-12) or np.any(
            self.consumption_ratio > 1.0 + 1e-12
        ):
            raise AssertionError("consumption ratio outside [0, 1]")
        per_round_energy = sum(r.energy_consumed for r in self.per_round)
        if not np.isclose(per_round_energy, self.total_energy, rtol=1e-9, atol=1e-12):
            raise AssertionError("per-round energies do not sum to total")
        if self.faults is not None:
            self._validate_faults()

    def _validate_faults(self) -> None:
        """Fault-accounting invariants of a chaos run.

        Every injected event is either absorbed or fatal; every death
        has exactly one cause; and liveness is conserved — deaths minus
        revivals equals the net population loss.
        """
        f = self.faults
        for key in ("injected", "absorbed", "fatal"):
            if f[key] < 0:
                raise AssertionError(f"negative fault counter {key!r}")
        if f["injected"] != f["absorbed"] + f["fatal"]:
            raise AssertionError(
                f"faults injected ({f['injected']}) != absorbed "
                f"({f['absorbed']}) + fatal ({f['fatal']})"
            )
        by_cause = sum(f["deaths_by_cause"].values())
        if by_cause != f["total_deaths"]:
            raise AssertionError(
                f"deaths by cause sum to {by_cause}, "
                f"not total_deaths {f['total_deaths']}"
            )
        net_loss = self.consumption_ratio.size - self.n_alive_final
        if f["total_deaths"] - f["revived"] != net_loss:
            raise AssertionError(
                f"liveness not conserved: {f['total_deaths']} deaths - "
                f"{f['revived']} revivals != net loss {net_loss}"
            )
