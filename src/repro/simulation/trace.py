"""Structured per-round tracing.

Debugging a 20-round, 100-node run from aggregate metrics alone is
painful; a :class:`TraceRecorder` attached to the engine captures one
structured record per round (heads, per-cause packet counts, energy,
liveness) and can replay them as dicts or dump them as JSON lines.
Disabled by default — tracing is opt-in and costs one small dict per
round.

Trace dumps are *self-describing*: the first JSONL line is a run
manifest (``kind: "manifest"`` — protocol, seed, config fingerprint,
package version; see :mod:`repro.telemetry.manifest`) so a trace file
found on disk months later still identifies the exact scenario that
produced it.  :meth:`TraceRecorder.parse_jsonl` accepts dumps with or
without the header, so pre-manifest traces keep loading.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from ..telemetry.manifest import MANIFEST_KIND
from .metrics import RoundStats

__all__ = ["PATH_KIND", "RoundTrace", "TraceRecorder"]

#: ``kind`` tag of per-packet path records (active routing substrates
#: append one per walked uplink; see docs/routing.md for the schema).
PATH_KIND = "path"


@dataclass(frozen=True)
class RoundTrace:
    """One round's structured trace record."""

    round_index: int
    heads: tuple[int, ...]
    n_alive: int
    generated: int
    delivered: int
    dropped_channel: int
    dropped_queue: int
    dropped_dead: int
    expired: int
    energy_consumed: float
    mean_queue_peak: float
    min_residual: float
    total_residual: float

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class TraceRecorder:
    """Collects :class:`RoundTrace` rows; attach via
    ``SimulationEngine(..., trace=recorder)``.

    ``manifest`` is the self-describing header emitted before the round
    records in JSONL dumps.  The engine fills it in automatically when
    it is still None at construction time; set it explicitly (or to a
    custom dict) to override.
    """

    records: list[RoundTrace] = field(default_factory=list)
    manifest: dict | None = None
    #: Per-packet path records (``kind: "path"``), appended by the
    #: engine when an active routing substrate walks an uplink chain.
    #: Empty under ``routing=direct`` — dumps are byte-identical to
    #: pre-substrate ones.
    paths: list[dict] = field(default_factory=list)

    def record_path(
        self,
        round_index: int,
        head: int,
        path: list[int],
        hops: int,
        frames: int,
        delivered: int,
    ) -> None:
        """One uplink's hop list: the relay chain ``head -> ... -> BS``
        (intermediate heads only), how many fused frames entered it,
        and how many reached the BS."""
        self.paths.append(
            {
                "kind": PATH_KIND,
                "round": int(round_index),
                "head": int(head),
                "path": [int(p) for p in path],
                "hops": int(hops),
                "frames": int(frames),
                "delivered": int(delivered),
            }
        )

    def record(self, stats: RoundStats, heads: np.ndarray, residual: np.ndarray) -> None:
        p = stats.packets
        self.records.append(
            RoundTrace(
                round_index=stats.round_index,
                heads=tuple(int(h) for h in np.asarray(heads)),
                n_alive=stats.n_alive,
                generated=p.generated,
                delivered=p.delivered,
                dropped_channel=p.dropped_channel,
                dropped_queue=p.dropped_queue,
                dropped_dead=p.dropped_dead,
                expired=p.expired,
                energy_consumed=stats.energy_consumed,
                mean_queue_peak=stats.mean_queue_peak,
                min_residual=float(residual.min()),
                total_residual=float(residual.sum()),
            )
        )

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def head_service_counts(self) -> dict[int, int]:
        """How many rounds each node served as a head — the rotation
        fairness view."""
        counts: dict[int, int] = {}
        for rec in self.records:
            for h in rec.heads:
                counts[h] = counts.get(h, 0) + 1
        return counts

    def to_jsonl(self) -> str:
        """One JSON object per line, ready for jq/pandas.

        The manifest header (when present) is the first line; round
        records follow in round order, then any per-packet path records
        (active routing substrates only) in emission order.
        """
        lines = []
        if self.manifest is not None:
            lines.append(json.dumps(self.manifest, sort_keys=True))
        lines.extend(json.dumps(rec.as_dict()) for rec in self.records)
        lines.extend(json.dumps(rec, sort_keys=True) for rec in self.paths)
        return "\n".join(lines)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_jsonl() + "\n")

    @classmethod
    def parse_jsonl(cls, text: str) -> "TraceRecorder":
        """Rebuild a recorder from a JSONL dump.

        Accepts dumps with or without the manifest header line; unknown
        keys in round records are ignored so newer dumps load under
        older record definitions (and vice versa).
        """
        recorder = cls()
        known = {f.name for f in fields(RoundTrace)}
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            if obj.get("kind") == MANIFEST_KIND:
                if recorder.manifest is not None or recorder.records:
                    raise ValueError(
                        "manifest line must be first and appear at most once"
                    )
                recorder.manifest = obj
                continue
            if obj.get("kind") == PATH_KIND:
                recorder.paths.append(obj)
                continue
            row = {k: v for k, v in obj.items() if k in known}
            row["heads"] = tuple(row.get("heads", ()))
            recorder.records.append(RoundTrace(**row))
        return recorder

    @classmethod
    def load_jsonl(cls, path) -> "TraceRecorder":
        """Read a dump written by :meth:`write_jsonl`.

        Documented public API (``docs/observability.md``), kept though
        nothing in the package calls it."""
        with open(path, encoding="utf-8") as fh:
            return cls.parse_jsonl(fh.read())
