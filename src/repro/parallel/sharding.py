"""Sweep-level sharding: partition a grid, run shards anywhere, merge.

The slot kernel batches *within* one simulation and the telemetry layer
made per-worker results mergeable; this module is the third scale axis:
it lets one sweep grid (protocol × λ × seed) run as ``K`` independent
*shards* — separate process pools, separate invocations, separate
hosts — and folds the shard artifacts back into a
:class:`~repro.analysis.sweep.SweepResult` that is equal to the serial
run on every deterministic metric.

Identity scheme
---------------
A cell is ``(protocol, config, stop_on_death)``: the protocol name, the
fully resolved :class:`~repro.config.SimulationConfig` it runs (built
once, by :meth:`SweepSpec.cells`, and shipped to the worker as is), and
the one run knob that shapes the result without living in the config.
Its **stable cell ID** is a 16-hex digest of exactly those three
things, the config entering through its fingerprint — which already
pins λ, seed, the *resolved* kernel backend (never ``"auto"``), the
routing substrate, any fault plan and every override.  IDs therefore
survive re-enumeration, grid extension, and host boundaries — and
change exactly when the scenario a cell would simulate changes.

Shard assignment ranks cells by their ID and deals them round-robin:
``shard(cell) = rank(cell_id) mod K``.  That keeps shards balanced
(sizes differ by at most one), makes ``K = N`` produce singleton
shards, and depends only on the *set* of cell IDs, never on
enumeration order.

Artifact format
---------------
A shard writes one JSONL artifact: a ``shard-manifest`` header
(shard ``k/K``, the full sweep spec, and the spec fingerprint), then
one record per cell — ``cell`` rows carrying the summary (and the
cell's telemetry snapshot when instrumented) or ``cell-error`` rows
when a worker kept failing after retries — and a ``shard-telemetry``
trailer with the shard-level merged snapshot.  Rows are appended as
results stream back, so a crash loses at most the in-flight cells:
rerunning with ``resume=True`` skips every cell whose row is already
present and recomputes the rest.  One executor writes every artifact:
a static shard is :func:`repro.parallel.scheduler.run_scheduled` over
the shard's slice of the grid.

Merging (:func:`merge_artifacts`) accepts any subset of artifacts in
any order, dedupes by cell ID (value-conflicts raise — that would mean
nondeterminism), reports error rows and missing cells instead of
silently dropping them, and reassembles rows in canonical grid order.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

from ..config import SimulationConfig
from ..telemetry.jsonl import (
    JsonlWriter,
    detect_compression,
    read_jsonl_tolerant,
    resolve_compression,
)
from ..telemetry.manifest import (
    SHARD_MANIFEST_KIND,
    config_fingerprint,
    shard_manifest,
    stable_fingerprint,
)

__all__ = [
    "CELL_KIND",
    "CELL_ERROR_KIND",
    "SHARD_TELEMETRY_KIND",
    "CellOptions",
    "MergedSweep",
    "ShardArtifact",
    "SweepCell",
    "SweepSpec",
    "classify_error",
    "load_artifact",
    "merge_artifacts",
    "parse_shard_arg",
    "partition_cells",
    "run_shard",
    "write_merged_artifact",
]

#: Record discriminators inside a shard artifact (after the manifest).
CELL_KIND = "cell"
CELL_ERROR_KIND = "cell-error"
SHARD_TELEMETRY_KIND = "shard-telemetry"


# ---------------------------------------------------------------------------
# Grid specification and cell identity
# ---------------------------------------------------------------------------

#: Config fields a :class:`SweepSpec` option sets, keyed by dotted path.
#: Overrides may not touch them: an override of a grid axis would give
#: distinct grid points one config (and one cell ID), and an override of
#: a named knob would run cells the manifest's spec does not describe.
_SPEC_OWNED_FIELDS: dict[tuple[str, ...], str] = {
    ("seed",): "seeds",
    ("traffic", "mean_interarrival"): "lambdas",
    ("rounds",): "rounds",
    ("deployment", "initial_energy"): "initial_energy",
    ("backend",): "backend",
    ("equivalence",): "equivalence",
    ("max_block_mb",): "max_block_mb",
    ("routing", "kind"): "routing",
    ("faults",): "faults",
}


def _override_paths(overrides: dict, prefix: tuple[str, ...] = ()):
    """Yield the dotted path of every leaf an override mapping sets."""
    for key, value in overrides.items():
        path = (*prefix, key)
        if isinstance(value, dict):
            yield from _override_paths(value, path)
        else:
            yield path


@dataclass(frozen=True)
class SweepSpec:
    """The complete, serialisable description of one sweep grid.

    This is the unit that crosses host boundaries: a spec fully
    determines the cell set, every cell's scenario config, the
    canonical row order, and (via :attr:`fingerprint`) whether two
    artifacts belong to the same sweep.

    Each grid point's config is Table 2 at its λ and seed
    (:func:`~repro.config.paper_config`), then the named knobs below,
    then :attr:`overrides`, then the fault overlay — see
    :meth:`config`.  Every one of them is therefore part of the config
    fingerprint, and hence of every cell ID.
    """

    protocols: tuple[str, ...]
    lambdas: tuple[float, ...]
    seeds: tuple[int, ...]
    initial_energy: float = 0.25
    rounds: int = 20
    stop_on_death: bool = False
    #: Instrument every cell (snapshots ride in the artifact rows).
    #: Execution detail, not identity: it hashes into no cell ID.
    telemetry: bool = False
    #: Kernel-backend selector for every cell.  The payload (and hence
    #: the spec fingerprint) keeps the selector as written — the user's
    #: intent — while each cell's config carries the *resolved* name, so
    #: ``"auto"`` specs resumed on hosts that resolve differently
    #: recompute rather than reuse foreign-backend rows.
    backend: str = "auto"
    #: Optional chaos overlay: the name of a fault scenario from
    #: :data:`repro.faults.FAULT_SCENARIOS`, materialised against each
    #: cell's config — fault sweeps shard, resume, and merge exactly
    #: like fault-free ones, and never mix with them.
    faults: str | None = None
    #: Numeric contract every cell runs under; only ``"bitwise"``
    #: (:data:`repro.config.EQUIVALENCE_CHOICES`, checked by the cell
    #: config).  Kept so the spec payload, and with it the spec
    #: fingerprint, keeps its shape.
    equivalence: str = "bitwise"
    #: Optional distance-block memory budget (MiB) for large-N cells.
    max_block_mb: float | None = None
    #: Routing substrate every cell runs under
    #: (:data:`repro.config.ROUTING_CHOICES`).
    routing: str = "direct"
    #: Config overrides deep-merged into every cell's config
    #: (:func:`~repro.config.apply_overrides`): a nested JSON mapping of
    #: :class:`~repro.config.SimulationConfig` fields, e.g.
    #: ``{"queue": {"capacity": 32}, "n_clusters": 8}``.  Any knob the
    #: config has is sweepable without new sweep plumbing, except the
    #: fields the options above own (:data:`_SPEC_OWNED_FIELDS`).
    overrides: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "protocols", tuple(self.protocols))
        object.__setattr__(
            self, "lambdas", tuple(float(v) for v in self.lambdas)
        )
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        # A private canonical JSON copy: the payload must round-trip
        # through artifacts and job files unchanged.
        object.__setattr__(
            self, "overrides", json.loads(json.dumps(dict(self.overrides)))
        )
        if not (self.protocols and self.lambdas and self.seeds):
            raise ValueError("sweep spec needs >= 1 protocol, lambda, and seed")
        if not isinstance(self.backend, str) or not self.backend:
            raise ValueError("backend must be a non-empty selector string")
        from ..config import ROUTING_CHOICES

        if self.max_block_mb is not None and self.max_block_mb <= 0.0:
            raise ValueError("max_block_mb must be positive when given")
        if self.routing not in ROUTING_CHOICES:
            raise ValueError(
                f"routing must be one of {ROUTING_CHOICES}, "
                f"got {self.routing!r}"
            )
        for path in _override_paths(self.overrides):
            for owned, option in _SPEC_OWNED_FIELDS.items():
                # Setting the field, a parent of it, or inside it.
                if path[: len(owned)] == owned or owned[: len(path)] == path:
                    raise ValueError(
                        f"override {'.'.join(path)!r} would set "
                        f"{'.'.join(owned)}, which the spec's {option!r} "
                        "option owns; use that option instead"
                    )
        # Fail at the spec, not in every worker: build one cell's config.
        self.config(self.lambdas[0], self.seeds[0], backend=self.backend)

    # -- serialisation -------------------------------------------------
    def to_payload(self) -> dict:
        """Plain JSON-able dict (the manifest's ``spec`` value)."""
        payload = dataclasses.asdict(self)
        payload["protocols"] = list(self.protocols)
        payload["lambdas"] = list(self.lambdas)
        payload["seeds"] = list(self.seeds)
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "SweepSpec":
        """Inverse of :meth:`to_payload`.  A key this build has no
        field for (a spec written by another version) is refused by
        name rather than surfacing as a constructor ``TypeError``."""
        unknown = sorted(set(payload) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            raise ValueError(
                f"sweep spec has key(s) {unknown} this build does not "
                "know; it was written by a different version"
            )
        return cls(**payload)

    @property
    def fingerprint(self) -> str:
        """Stable digest of the whole grid description."""
        return stable_fingerprint(self.to_payload())

    # -- enumeration ---------------------------------------------------
    def resolved_backend(self) -> str:
        """The concrete backend name this host would run the cells on
        (``"auto"`` resolved by availability; never ``"auto"`` itself)."""
        from ..kernels import resolve_backend_name

        return resolve_backend_name(self.backend)

    def config(
        self, lam: float, seed: int, *, backend: str | None = None
    ) -> SimulationConfig:
        """The fully resolved config of grid point ``(lam, seed)``.

        The fault plan is materialised last, against the final config,
        so the chaos scales with the scenario it lands on.
        """
        from ..config import RoutingConfig, apply_overrides, paper_config

        config = paper_config(
            mean_interarrival=lam,
            seed=seed,
            rounds=self.rounds,
            initial_energy=self.initial_energy,
        ).replace(
            backend=backend if backend is not None else self.resolved_backend(),
            equivalence=self.equivalence,
            max_block_mb=self.max_block_mb,
            routing=RoutingConfig(kind=self.routing),
        )
        config = apply_overrides(config, self.overrides)
        if self.faults:
            from ..faults import build_fault_plan

            config = config.replace(faults=build_fault_plan(self.faults, config))
        return config

    def cells(self) -> list["SweepCell"]:
        """Enumerate the grid in canonical (protocol × λ × seed) order,
        each cell carrying the resolved config its worker will run."""
        backend = self.resolved_backend()
        configs = [
            self.config(lam, seed, backend=backend)
            for lam in self.lambdas
            for seed in self.seeds
        ]
        return [
            SweepCell(p, config, self.stop_on_death)
            for p in self.protocols
            for config in configs
        ]

    def __len__(self) -> int:
        return len(self.protocols) * len(self.lambdas) * len(self.seeds)


@dataclass(frozen=True)
class SweepCell:
    """One grid point: everything that determines its row.

    ``cell_id`` is the one identity hash of the sweep layer:
    ``stable_fingerprint({protocol, config_fingerprint,
    stop_on_death})``.
    """

    protocol: str
    config: SimulationConfig
    stop_on_death: bool = False
    config_fingerprint: str = field(init=False, repr=False, compare=False)
    cell_id: str = field(init=False, compare=False)

    def __post_init__(self) -> None:
        fingerprint = config_fingerprint(self.config)
        object.__setattr__(self, "config_fingerprint", fingerprint)
        object.__setattr__(
            self,
            "cell_id",
            stable_fingerprint(
                {
                    "protocol": self.protocol,
                    "config_fingerprint": fingerprint,
                    "stop_on_death": bool(self.stop_on_death),
                }
            ),
        )

    @property
    def lam(self) -> float:
        return self.config.traffic.mean_interarrival

    @property
    def seed(self) -> int:
        return self.config.seed

    @property
    def backend(self) -> str:
        return self.config.backend


@dataclass(frozen=True)
class CellOptions:
    """How a worker executes a cell — never what it computes.

    None of these fields enters a fingerprint or a cell ID:
    ``telemetry`` attaches the cell's metric snapshot to its row, and
    the checkpoint knobs make the cell preemptible (see
    :func:`repro.analysis.sweep.execute_cell`).
    """

    telemetry: bool = False
    checkpoint_every: int | None = None
    checkpoint_dir: str | os.PathLike | None = None
    checkpoint_keep_last: int = 3


def partition_cells(
    cells: Sequence[SweepCell], num_shards: int
) -> list[list[SweepCell]]:
    """Deal cells into ``num_shards`` balanced, deterministic shards.

    Cells are ranked by cell ID (a stable hash) and assigned
    ``rank mod num_shards``; within each shard the canonical
    enumeration order of ``cells`` is preserved.  Shard sizes differ by
    at most one, and the assignment is a pure function of the cell-ID
    set — independent of enumeration order, process, and host.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    rank = {
        cell_id: i
        for i, cell_id in enumerate(sorted(c.cell_id for c in cells))
    }
    if len(rank) != len(cells):
        raise ValueError("duplicate cell IDs in grid")
    shards: list[list[SweepCell]] = [[] for _ in range(num_shards)]
    for cell in cells:
        shards[rank[cell.cell_id] % num_shards].append(cell)
    return shards


def parse_shard_arg(text: str) -> tuple[int, int]:
    """Parse the CLI's ``k/K`` shard selector (1-based)."""
    try:
        k_str, total_str = text.split("/")
        k, total = int(k_str), int(total_str)
    except ValueError:
        raise ValueError(
            f"shard selector {text!r} is not of the form k/K"
        ) from None
    if not 1 <= k <= total:
        raise ValueError(f"shard selector {text!r}: need 1 <= k <= K")
    return k, total


# ---------------------------------------------------------------------------
# Failure classification (the worker side of every sweep run)
# ---------------------------------------------------------------------------


def _deterministic_errors() -> tuple:
    """Exception classes whose failures are a pure function of the
    cell's inputs — a bad value, a missing attribute, a broken
    invariant, an unpicklable payload.  Re-running the identical
    deterministic computation cannot change the outcome, so retrying
    (or re-leasing) them only burns worker time.  Everything else
    (OSError, MemoryError, RuntimeError, worker deaths, ...) is treated
    as transient: environmental causes — a flaky filesystem, memory
    pressure, a worker wedged mid-import, a SIGKILL — can heal between
    attempts.  The full taxonomy is pinned by
    ``tests/parallel/test_classify_errors.py``, which is the spec the
    scheduler's re-lease decisions run on.
    """
    import pickle

    return (
        ValueError,
        TypeError,
        LookupError,
        AttributeError,
        AssertionError,
        ArithmeticError,
        NotImplementedError,
        # Serialising the same result object fails the same way every
        # time: a pickling casualty re-leased to another worker would
        # just fail there too.
        pickle.PicklingError,
        pickle.UnpicklingError,
        # RecursionError subclasses RuntimeError, but unbounded
        # recursion is a property of the computation, not the host.
        RecursionError,
    )


_DETERMINISTIC_ERRORS = _deterministic_errors()


def classify_error(exc: BaseException) -> str:
    """Classify a cell failure as ``"deterministic"`` or ``"transient"``.

    Deterministic failures will reproduce on every retry of the same
    cell (same config, same seed, same code); transient ones might not.
    The class drives the retry policy in :func:`_guarded_cell`, the
    re-lease policy in :class:`repro.parallel.scheduler.SweepScheduler`
    (deterministic failures become ``cell-error`` rows immediately;
    transient ones re-lease), and is recorded on ``cell-error``
    artifact rows so a merge report can tell "rerun these shards"
    casualties from "fix the code" ones.  ``KeyboardInterrupt`` /
    ``SystemExit`` classify transient — an interrupted worker says
    nothing about the cell — though :func:`_guarded_cell` never absorbs
    them (BaseException rips through; the scheduler sees a dead
    worker instead).
    """
    return (
        "deterministic"
        if isinstance(exc, _DETERMINISTIC_ERRORS)
        else "transient"
    )


def _guarded_cell(cell_fn: Callable, args: tuple, retries: int) -> tuple:
    """Run ``cell_fn(*args)`` in a worker without ever raising.

    A transient failure is retried up to ``retries`` extra times in
    place; a deterministic one is recorded after the first attempt,
    since replaying an identical computation cannot change its outcome
    (see :func:`classify_error`).  Either way an error payload comes
    home so the run completes and records the casualty.
    """
    last: Exception | None = None
    attempts = 0
    for attempts in range(1, retries + 2):
        try:
            return ("ok", cell_fn(*args), attempts)
        except Exception as exc:  # noqa: BLE001 - worker boundary
            last = exc
            if classify_error(exc) == "deterministic":
                break
    return (
        "error",
        {
            "type": type(last).__name__,
            "message": str(last),
            "class": classify_error(last),
        },
        attempts,
    )


# ---------------------------------------------------------------------------
# Artifact records and writing
# ---------------------------------------------------------------------------


def _jsonable(value):
    """Coerce numpy scalars so artifact rows serialise anywhere."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        return value.item()
    return value


def _record_head(kind: str, cell: SweepCell, attempts: int) -> dict:
    return {
        "kind": kind,
        "cell_id": cell.cell_id,
        "protocol": cell.protocol,
        "lambda": cell.lam,
        "seed": cell.seed,
        "config_fingerprint": cell.config_fingerprint,
        "backend": cell.backend,
        "equivalence": cell.config.equivalence,
        "attempts": attempts,
    }


def _cell_record(cell: SweepCell, summary: dict, attempts: int) -> dict:
    summary = dict(summary)
    snapshot = summary.pop("telemetry", None)
    record = _record_head(CELL_KIND, cell, attempts)
    record["summary"] = _jsonable(summary)
    if snapshot is not None:
        record["telemetry"] = _jsonable(snapshot)
    return record


def _error_record(cell: SweepCell, error: dict, attempts: int) -> dict:
    return {**_record_head(CELL_ERROR_KIND, cell, attempts), "error": dict(error)}


def _dump(record: dict) -> str:
    return json.dumps(record, sort_keys=True)


def artifact_compression(out_path, compression: str | None) -> str:
    """Resolve the codec one artifact (re)write should use.

    An explicit selector wins (``"auto"`` resolved by availability);
    ``None`` keeps whatever an existing artifact already uses — sniffed
    from its magic bytes, or from the path suffix for a fresh file —
    so a resumed compressed artifact stays compressed without the
    caller restating the choice.
    """
    if compression is not None:
        return resolve_compression(compression)
    return detect_compression(out_path)


def rewrite_artifact(path: Path, codec: str, records: Iterable[dict]) -> None:
    """Atomically replace ``path`` with ``records`` (manifest first).

    Written to a sibling temp file, fsynced, then ``os.replace``d: a
    crash at any point leaves either the old artifact or the complete
    new one, never a truncated mix — so rows already on disk survive a
    crash mid-rewrite.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp_path = path.with_name(path.name + ".tmp")
    with JsonlWriter(tmp_path, compression=codec) as fh:
        for record in records:
            fh.write_line(_dump(record))
        fh.flush(fsync=True)
    os.replace(tmp_path, path)


def telemetry_trailer(records: Iterable[dict]) -> dict:
    """The ``shard-telemetry`` record folding every row's snapshot."""
    from ..telemetry.registry import merge_snapshots

    snaps = [
        r["telemetry"] for r in records
        if r["kind"] == CELL_KIND and "telemetry" in r
    ]
    return {
        "kind": SHARD_TELEMETRY_KIND,
        "snapshot": merge_snapshots(*snaps) if snaps else {},
    }


def run_shard(
    spec: SweepSpec,
    shard: int,
    num_shards: int,
    out_path,
    *,
    max_workers: int | None = None,
    retries: int = 1,
    lease_seconds: float = math.inf,
    **options,
):
    """Execute shard ``shard/num_shards`` of ``spec`` into a JSONL artifact.

    The shard is the rank partition's slice of the grid (1-based
    ``shard``, as in ``--shard k/K``), run by the one sweep executor,
    :func:`repro.parallel.scheduler.run_scheduled`, with re-leasing
    off: a cell gets its ``retries`` extra in-worker attempts and then
    an error row, never a second lease.  Leases never expire unless
    ``lease_seconds`` is given — with a single lease per cell, expiry
    could only turn a slow cell into an error row.  ``options`` are
    that function's keyword arguments (``resume``, ``serial``,
    ``cell_fn``, ``compression``, checkpointing, ``stop_requested``,
    ...).
    """
    from .scheduler import run_scheduled

    return run_scheduled(
        spec,
        out_path,
        shard=(shard, num_shards),
        num_workers=max_workers,
        retries=retries,
        lease_seconds=lease_seconds,
        max_lease_attempts=1,
        **options,
    )


# ---------------------------------------------------------------------------
# Artifact loading and merging
# ---------------------------------------------------------------------------


@dataclass
class ShardArtifact:
    """A parsed shard (or merged) artifact."""

    manifest: dict
    records: list[dict]
    path: Path | None = None

    @property
    def spec(self) -> SweepSpec:
        try:
            return SweepSpec.from_payload(self.manifest["spec"])
        except ValueError as exc:
            raise ValueError(f"{self.path or '<memory>'}: {exc}") from None

    @property
    def cell_rows(self) -> list[dict]:
        return [r for r in self.records if r.get("kind") == CELL_KIND]

    @property
    def error_rows(self) -> list[dict]:
        return [r for r in self.records if r.get("kind") == CELL_ERROR_KIND]

    @property
    def telemetry_snapshot(self) -> dict | None:
        """The shard-level merged snapshot (last trailer wins)."""
        for record in reversed(self.records):
            if record.get("kind") == SHARD_TELEMETRY_KIND:
                return record["snapshot"]
        return None


def load_artifact(path) -> ShardArtifact:
    """Parse a shard artifact, tolerating a torn final line.

    Goes through the shared tolerant reader
    (:func:`repro.telemetry.jsonl.read_jsonl_tolerant`), so plain,
    gzip-, and zstd-compressed artifacts all load transparently (codec
    sniffed from magic bytes) and a crash mid-append — a partial
    trailing line, or a truncated compressed tail — costs at most the
    final record: the cell it would have recorded is simply recomputed
    on resume.  Any other malformed line is an error.
    """
    path = Path(path)
    parsed = read_jsonl_tolerant(path)
    if not parsed or parsed[0].get("kind") != SHARD_MANIFEST_KIND:
        raise ValueError(f"{path}: missing {SHARD_MANIFEST_KIND!r} header")
    return ShardArtifact(manifest=parsed[0], records=parsed[1:], path=path)


@dataclass
class MergedSweep:
    """The fold of shard artifacts back into one sweep.

    ``sweep.rows`` holds every recovered cell summary in canonical grid
    order; cells that only produced error rows surface in ``errors``
    and cells no artifact covered in ``missing`` — merge never drops a
    cell silently.
    """

    spec: SweepSpec
    sweep: "SweepResult"  # noqa: F821 - runtime import below
    errors: list[dict] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return not self.errors and not self.missing

    def require_complete(self) -> "MergedSweep":
        if not self.complete:
            raise ValueError(
                f"merge incomplete: {len(self.errors)} error cell(s) "
                f"{[e['cell_id'] for e in self.errors]}, "
                f"{len(self.missing)} missing cell(s) {self.missing}"
            )
        return self


def merge_artifacts(
    artifacts: Iterable[ShardArtifact | str | Path],
) -> MergedSweep:
    """Fold shard artifacts (any subset, any order) into a sweep.

    All artifacts must carry the same spec fingerprint.  Duplicate
    coverage of a cell is fine when the rows agree (they are the same
    deterministic computation); a value conflict raises, because that
    is exactly the nondeterminism this layer exists to rule out.
    """
    from ..analysis.sweep import SweepResult
    from ..telemetry.registry import deterministic_view, merge_snapshots

    loaded = [
        a if isinstance(a, ShardArtifact) else load_artifact(a)
        for a in artifacts
    ]
    if not loaded:
        raise ValueError("no artifacts to merge")
    spec = loaded[0].spec
    for art in loaded[1:]:
        if art.manifest["spec_fingerprint"] != loaded[0].manifest["spec_fingerprint"]:
            raise ValueError(
                f"{art.path or '<memory>'}: spec fingerprint "
                f"{art.manifest['spec_fingerprint']} does not match "
                f"{loaded[0].manifest['spec_fingerprint']}"
            )

    cells = spec.cells()
    known = {c.cell_id for c in cells}
    rows_by_id: dict[str, dict] = {}
    errors_by_id: dict[str, dict] = {}
    for art in loaded:
        for record in art.cell_rows:
            cid = record["cell_id"]
            if cid not in known:
                raise ValueError(
                    f"{art.path or '<memory>'}: cell {cid} is not in the grid"
                )
            seen = rows_by_id.get(cid)
            if seen is None:
                rows_by_id[cid] = record
            # Duplicate coverage must agree only on the deterministic
            # surface: telemetry snapshots carry wall-clock ``time/``
            # metrics that legitimately differ between two runs of the
            # same cell, so they are compared through
            # deterministic_view.  Either row's snapshot serves the
            # merge (first seen wins).
            elif seen["summary"] != record["summary"] or deterministic_view(
                seen.get("telemetry") or {}
            ) != deterministic_view(record.get("telemetry") or {}):
                raise ValueError(
                    f"cell {cid} has conflicting rows across artifacts "
                    f"(nondeterministic cell?)"
                )
        for record in art.error_rows:
            errors_by_id.setdefault(record["cell_id"], record)

    rows: list[dict] = []
    snaps: list[dict] = []
    errors: list[dict] = []
    missing: list[str] = []
    for cell in cells:
        record = rows_by_id.get(cell.cell_id)
        if record is not None:
            rows.append(dict(record["summary"]))
            if "telemetry" in record:
                snaps.append(record["telemetry"])
        elif cell.cell_id in errors_by_id:
            errors.append(errors_by_id[cell.cell_id])
        else:
            missing.append(cell.cell_id)
    merged_snapshot = merge_snapshots(*snaps) if snaps else None
    return MergedSweep(
        spec=spec,
        sweep=SweepResult(rows=rows, telemetry=merged_snapshot),
        errors=errors,
        missing=missing,
    )


def write_merged_artifact(
    merged: MergedSweep, artifacts, path, *, compression: str | None = None
) -> Path:
    """Persist a merge as an artifact of its own (hierarchical merges).

    The output uses the reserved ``shard 0/0`` marker and the union of
    the inputs' cell and unresolved-error records, so two hosts'
    artifacts can be pre-merged locally and the halves merged again
    later: merge is subset-associative by construction.
    """
    loaded = [
        a if isinstance(a, ShardArtifact) else load_artifact(a)
        for a in artifacts
    ]
    path = Path(path)
    codec = artifact_compression(path, compression)
    resolved = set()
    records: dict[str, dict] = {}
    for art in loaded:
        for record in art.cell_rows:
            records.setdefault(record["cell_id"], record)
            resolved.add(record["cell_id"])
    for art in loaded:
        for record in art.error_rows:
            if record["cell_id"] not in resolved:
                records.setdefault(record["cell_id"], record)
    order = {c.cell_id: i for i, c in enumerate(merged.spec.cells())}
    body = sorted(records.values(), key=lambda r: order[r["cell_id"]])
    manifest = shard_manifest(
        merged.spec.to_payload(), merged.spec.fingerprint, 0, 0
    )
    trailer = (
        []
        if merged.sweep.telemetry is None
        else [{"kind": SHARD_TELEMETRY_KIND, "snapshot": merged.sweep.telemetry}]
    )
    rewrite_artifact(path, codec, [manifest, *body, *trailer])
    return path
