"""Generic protocol-comparison sweeps (the machinery behind Fig. 3).

A sweep cell is (protocol, resolved config, stop_on_death) — see
:class:`repro.parallel.SweepCell`; cells are independent and fan out
over the sweep executor.  The protocol registry maps names to fresh
protocol instances so cells stay picklable (a worker builds its own
protocol object; nothing stateful crosses the process boundary).
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ..baselines import (
    DEECProtocol,
    DirectProtocol,
    FCMProtocol,
    HEEDProtocol,
    KMeansProtocol,
    LEACHProtocol,
    QELARProtocol,
    TLLEACHProtocol,
)
from ..baselines.base import ClusteringProtocol
from ..core import QLECProtocol, SelectionConfig
from ..core.qlec import NearestJoinQLEC
from ..parallel import (
    CellOptions,
    SweepCell,
    SweepSpec,
    merge_artifacts,
    run_scheduled,
)
from ..telemetry import Telemetry

__all__ = [
    "PROTOCOLS",
    "SweepResult",
    "execute_cell",
    "run_cell",
    "sweep_from_spec",
    "sweep_protocols",
]

#: Registry: protocol name -> zero-argument factory.  The ``qlec/*``
#: entries are the E-AB1 ablation variants: QLEC with one design choice
#: switched off or swapped.
PROTOCOLS: dict[str, Callable[[], ClusteringProtocol]] = {
    "qlec": QLECProtocol,
    "qlec/no-threshold": lambda: QLECProtocol(
        selection=SelectionConfig(use_energy_threshold=False)
    ),
    "qlec/no-redundancy": lambda: QLECProtocol(
        selection=SelectionConfig(use_redundancy_reduction=False)
    ),
    "qlec/no-rotation": lambda: QLECProtocol(
        selection=SelectionConfig(use_rotation=False)
    ),
    "qlec/no-qlearning": NearestJoinQLEC,
    "qlec/sampled-td": lambda: QLECProtocol(learning_rate=0.3),
    "qlec/eps-0.05": lambda: QLECProtocol(epsilon=0.05),
    "fcm": FCMProtocol,
    "kmeans": KMeansProtocol,
    "kmeans-adaptive": lambda: KMeansProtocol(recluster_every=1),
    "leach": LEACHProtocol,
    "tl-leach": TLLEACHProtocol,
    "qelar": QELARProtocol,
    "heed": HEEDProtocol,
    "deec": DEECProtocol,
    "direct": DirectProtocol,
}


def _log_resume(checkpoint_dir, tag: str, header: dict, path) -> None:
    """Append one resume record to the tag's observability sidecar.

    The sidecar is ephemeral operational evidence ("this attempt
    restored round N from that snapshot"), written with O_APPEND so
    concurrent attempts interleave whole lines; it is never merged,
    fingerprinted, or read back by the sweep machinery — chaos tests
    and operators read it to prove a reclaim resumed instead of
    recomputing.
    """
    import json
    import os

    record = {
        "kind": "checkpoint-resume",
        "tag": tag,
        "round_index": header["round_index"],
        "snapshot": os.path.basename(str(path)),
    }
    line = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
    fd = os.open(
        os.path.join(str(checkpoint_dir), f"{tag}.resume.jsonl"),
        os.O_WRONLY | os.O_CREAT | os.O_APPEND,
        0o644,
    )
    try:
        os.write(fd, line)
    finally:
        os.close(fd)


def execute_cell(cell: SweepCell, options: CellOptions = CellOptions()) -> dict:
    """Run one sweep cell: its protocol on its resolved config.

    The worker body of every sweep executor (module-level, so it
    pickles into worker processes).  Returns the flat result summary
    plus the consumption-balance index; with ``options.telemetry`` the
    summary additionally carries the cell's metric snapshot under
    ``"telemetry"`` (a plain JSON-able dict — the picklable per-worker
    half of the sweep-level merge).

    ``options.checkpoint_every`` + ``options.checkpoint_dir`` make the
    cell *preemptible*: the engine snapshots its complete state every N
    rounds under a tag derived from the cell identity, and a rerun of
    the same cell (a reclaimed scheduler lease, a retried shard)
    restores the newest valid snapshot and re-executes only the rounds
    after it — bit-identical to an uninterrupted run.
    """
    if cell.protocol not in PROTOCOLS:
        raise KeyError(
            f"unknown protocol {cell.protocol!r}; known: {sorted(PROTOCOLS)}"
        )
    from ..simulation import SimulationEngine

    tel = Telemetry() if options.telemetry else None
    engine = SimulationEngine(
        cell.config,
        PROTOCOLS[cell.protocol](),
        stop_on_death=cell.stop_on_death,
        telemetry=tel,
    )
    ckpt_tag = None
    if options.checkpoint_dir is not None and options.checkpoint_every:
        from ..checkpoint import checkpoint_tag, latest_valid, run_signature

        ckpt_tag = checkpoint_tag(cell.protocol, cell.config_fingerprint)
        # A snapshot resumes only the run this fresh engine would be.
        found = latest_valid(
            options.checkpoint_dir,
            ckpt_tag,
            config_fingerprint=cell.config_fingerprint,
            run=run_signature(engine),
        )
        if found is not None:
            path, header, engine = found
            _log_resume(options.checkpoint_dir, ckpt_tag, header, path)
            if options.telemetry:
                # The snapshot carries the half-accumulated telemetry
                # of the interrupted attempt; the finished cell's
                # snapshot must come from it, not from the fresh handle.
                tel = engine.telemetry
    result = engine.run(
        checkpoint_every=options.checkpoint_every,
        checkpoint_dir=options.checkpoint_dir,
        checkpoint_keep_last=options.checkpoint_keep_last,
        checkpoint_tag=ckpt_tag if ckpt_tag is not None else "cell",
    )
    summary = result.summary()
    summary["protocol"] = cell.protocol  # registry name, not class default
    if "routing" in result.extras:
        # Active substrates only — direct rows keep the pre-substrate
        # key set, so existing artifacts merge/resume unchanged.
        summary["routing"] = result.extras["routing"]
    if tel is not None:
        summary["telemetry"] = tel.snapshot()
    return summary


def run_cell(
    protocol: str,
    mean_interarrival: float,
    seed: int,
    initial_energy: float = 0.25,
    rounds: int = 20,
    stop_on_death: bool = False,
    telemetry: bool = False,
    *,
    checkpoint_every: int | None = None,
    checkpoint_dir: str | None = None,
    checkpoint_keep_last: int = 3,
    **knobs,
) -> dict:
    """One Table-2 sweep cell, addressed by its grid coordinates.

    Exactly the cell a one-point :class:`~repro.parallel.SweepSpec`
    enumerates, run by :func:`execute_cell` — so a direct call and a
    sweep row agree by construction.  ``knobs`` are the remaining
    ``SweepSpec`` fields (``backend``, ``faults``, ``equivalence``,
    ``max_block_mb``, ``routing``, ``overrides``); the checkpoint
    arguments are :class:`~repro.parallel.CellOptions`.
    """
    spec = SweepSpec(
        protocols=(protocol,),
        lambdas=(mean_interarrival,),
        seeds=(seed,),
        initial_energy=initial_energy,
        rounds=rounds,
        stop_on_death=stop_on_death,
        **knobs,
    )
    return execute_cell(
        spec.cells()[0],
        CellOptions(
            telemetry=telemetry,
            checkpoint_every=checkpoint_every,
            checkpoint_dir=checkpoint_dir,
            checkpoint_keep_last=checkpoint_keep_last,
        ),
    )


@dataclass
class SweepResult:
    """All cell summaries of one sweep plus aggregation helpers.

    ``telemetry`` holds the merged metric snapshot of every cell when
    the sweep ran with telemetry (None otherwise).  The merge is
    order-insensitive, so the pool's completion order cannot leak into
    it: a 2-worker sweep and a serial sweep agree exactly on every
    deterministic (non-``time/``) metric.
    """

    rows: list[dict] = field(default_factory=list)
    telemetry: dict | None = None

    def filtered(self, **match) -> list[dict]:
        out = self.rows
        for key, value in match.items():
            out = [r for r in out if r.get(key) == value]
        return out

    def aggregate(
        self, metric: str, protocol: str, mean_interarrival: float
    ) -> float:
        """Mean of ``metric`` over seeds for one (protocol, lambda)."""
        rows = self.filtered(protocol=protocol, **{"lambda": mean_interarrival})
        if not rows:
            raise KeyError(
                f"no rows for protocol={protocol!r}, lambda={mean_interarrival}"
            )
        return float(np.mean([r[metric] for r in rows]))

    def series(
        self, metric: str, protocols: Sequence[str], lambdas: Sequence[float]
    ) -> dict[str, list[float]]:
        """Figure-shaped output: one metric series per protocol."""
        return {
            p: [self.aggregate(metric, p, lam) for lam in lambdas]
            for p in protocols
        }


def sweep_protocols(
    protocols: Sequence[str],
    lambdas: Sequence[float],
    seeds: Sequence[int],
    max_workers: int | None = None,
    serial: bool = False,
    **knobs,
) -> SweepResult:
    """Run the full (protocol x lambda x seed) grid in parallel.

    This is the engine behind every Fig.-3 regeneration: identical
    scenarios per seed across protocols (the deployment/traffic streams
    depend only on the seed), results in deterministic order.
    ``knobs`` are the remaining :class:`~repro.parallel.SweepSpec`
    fields (``rounds``, ``telemetry``, ``backend``, ``overrides``, ...).
    """
    spec = SweepSpec(
        protocols=tuple(protocols), lambdas=tuple(lambdas), seeds=tuple(seeds),
        **knobs,
    )
    return sweep_from_spec(spec, max_workers=max_workers, serial=serial)


def sweep_from_spec(
    spec: SweepSpec,
    max_workers: int | None = None,
    serial: bool = False,
) -> SweepResult:
    """Run a :class:`~repro.parallel.SweepSpec` grid and merge it.

    The grid runs through the one sweep executor
    (:func:`~repro.parallel.run_scheduled`, into a scratch artifact)
    and comes back through :func:`~repro.parallel.merge_artifacts` — so
    a serial run, a pooled run, and a K-shard merge produce rows in the
    same canonical order with the same values, and with
    ``spec.telemetry`` the per-cell snapshots fold (order-insensitively)
    into ``SweepResult.telemetry``.  A failed cell raises.  Leases
    never expire: a cell may take as long as it takes.
    """
    with tempfile.TemporaryDirectory(prefix="repro-sweep-") as tmp:
        run = run_scheduled(
            spec,
            Path(tmp) / "sweep.jsonl",
            num_workers=max_workers,
            serial=serial,
            lease_seconds=math.inf,
        )
        merged = merge_artifacts([run.path])
    if merged.errors:
        first = merged.errors[0]
        raise RuntimeError(
            f"{len(merged.errors)} sweep cell(s) failed; first: "
            f"{first['protocol']} lambda={first['lambda']} seed={first['seed']}: "
            f"{first['error']['type']}: {first['error']['message']}"
        )
    return merged.sweep
