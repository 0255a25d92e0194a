"""Crash-safe engine checkpoints: round-boundary snapshot/restore.

A checkpoint is the *complete* run state of a
:class:`~repro.simulation.engine.SimulationEngine` at a round boundary
— the ``NetworkState`` arrays, every RNG stream (traffic, channel,
protocol, engine, mobility, harvest, fault, and routing), protocol and
Q-table state, routing tables and trees, the fault injector's cursor,
the instrument handle with its registry and span sink, the
counters-only round history, and the run totals with their latency
sample — serialized as a single file::

    header JSON line \\n pickle payload

The header is self-describing and *validating*: it carries the package
version, the config fingerprint, the run-shape signature (protocol,
``stop_on_death``, ``batched``, telemetry/tracer/trace presence), the
payload byte length, and a SHA-256 content checksum.
:func:`read_checkpoint` refuses — with a typed error — to restore a
torn or bit-flipped file (:class:`CheckpointCorruptError`), a snapshot
of a different scenario or run shape
(:class:`CheckpointMismatchError`), or one written by a different
package version (:class:`CheckpointVersionError`).
:func:`latest_valid` turns refusal into graceful degradation: scan the
rotated ``keep_last`` set newest-first and restore the first snapshot
that validates.

Resume identity
---------------
Restoring a snapshot and finishing the run is bit-identical to never
having stopped.  numpy ``Generator`` objects pickle their exact stream
position; in-graph aliases (the state's RNG streams shared with the
traffic source and fault injector, the channel's telemetry binding,
the registry's phase-timer cache, the span sink shared by the
instrument handle, kernel wrapper and fault injector) are preserved by
the pickle memo; derived geometry (``Topology``'s node->BS distances)
is recomputed on load by the same call that built it; and kernel
backends reduce to their registry name and are
re-resolved through ``get_backend`` on load — compiled
backends are never serialized, and the registry's bit-identical
contract makes the swap invisible.  The payload is written and read by
the plain (C) pickler, and its size and write time depend on the
engine's state, not on how many rounds it has run.
``scripts/check_checkpoint_equivalence.py`` enforces the guarantee
end-to-end in CI: SIGKILL at an arbitrary round, resume, and the final
result, golden trace, run-total latency sample, and telemetry
deterministic-view match the uninterrupted run bit for bit.
"""

from __future__ import annotations

import glob as _glob
import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import TYPE_CHECKING

from .. import __version__

if TYPE_CHECKING:
    from ..simulation.engine import SimulationEngine

__all__ = [
    "CHECKPOINT_KIND",
    "CHECKPOINT_SCHEMA",
    "CHECKPOINT_SUFFIX",
    "CheckpointCorruptError",
    "CheckpointError",
    "CheckpointMismatchError",
    "CheckpointVersionError",
    "CheckpointWriter",
    "DrainInterrupted",
    "latest_valid",
    "read_checkpoint",
    "run_signature",
    "snapshot_paths",
    "write_checkpoint",
]

#: Discriminator value of the checkpoint header line.
CHECKPOINT_KIND = "engine-checkpoint"

#: Bump when the header or payload layout changes incompatibly.
#: Schema 2: the round history holds counters only, and kernel
#: backends pickle through ``KernelBackend.__reduce__``.  Schema 3: the
#: engine's one instrument handle carries the span sink
#: (``Telemetry.spans``; no ``engine.tracer``), and ``Topology`` drops
#: its derived node->BS distances, recomputing them on restore.
#: Schema 4: kernel backends pickle by registry name alone.
CHECKPOINT_SCHEMA = 4

#: Snapshot filename suffix (``<tag>-r<round:08d>.ckpt``).
CHECKPOINT_SUFFIX = ".ckpt"

#: Header keys every snapshot must carry (missing ⇒ corrupt).
_REQUIRED_KEYS = (
    "kind",
    "schema",
    "version",
    "config_fingerprint",
    "round_index",
    "run",
    "payload_bytes",
    "payload_sha256",
)


class CheckpointError(Exception):
    """Base of every checkpoint refusal (the CLI maps it to exit 2)."""


class CheckpointCorruptError(CheckpointError):
    """The file is not a restorable snapshot: truncated before the
    header newline, unparseable header, torn payload tail, or content
    checksum mismatch."""


class CheckpointMismatchError(CheckpointError):
    """A *valid* snapshot of the wrong run: its config fingerprint or
    run-shape signature differs from what the caller is resuming.
    Restoring it would silently produce a different experiment."""


class CheckpointVersionError(CheckpointError):
    """Written by a different package version or checkpoint schema.
    Pickled engine internals are not stable across versions, so a
    cross-version restore must fail loudly, never deserialize."""


class DrainInterrupted(Exception):
    """A graceful drain stopped the run at a round boundary.

    Carries the snapshot the drained state was persisted to (``None``
    when the run was not checkpointing) and the number of completed
    rounds.  Not a :class:`CheckpointError`: nothing is wrong with any
    snapshot — the caller asked the run to stop.
    """

    def __init__(self, snapshot_path, round_index: int) -> None:
        self.snapshot_path = (
            Path(snapshot_path) if snapshot_path is not None else None
        )
        self.round_index = int(round_index)
        where = (
            f"snapshot {self.snapshot_path}"
            if self.snapshot_path is not None
            else "no snapshot (checkpointing was off)"
        )
        super().__init__(
            f"run drained after round {self.round_index} ({where})"
        )


def run_signature(engine: "SimulationEngine") -> dict:
    """The run-shape knobs that live *outside* the config but change
    the executed stream or the result surface.

    Two runs with equal config fingerprints and equal signatures
    execute identically; the header records both so a resume onto a
    different protocol object or a telemetry-toggled rerun fails with
    :class:`CheckpointMismatchError` instead of silently diverging.
    """
    return {
        "protocol": engine.protocol.name,
        "stop_on_death": bool(engine.stop_on_death),
        "batched": bool(engine.batched),
        "telemetry": engine.telemetry.registry is not None,
        "tracer": engine.telemetry.spans is not None,
        "trace": engine.trace is not None,
    }


def write_checkpoint(engine: "SimulationEngine", path) -> dict:
    """Atomically snapshot ``engine`` to ``path``; return the header.

    tmp + ``os.replace`` with an fsync in between: a crash mid-write
    leaves either the previous snapshot or the new one, never a torn
    file under the final name (and a torn *tmp* never matches the
    snapshot glob).
    """
    from ..telemetry.manifest import config_fingerprint

    path = Path(path)
    payload = pickle.dumps(engine, protocol=pickle.HIGHEST_PROTOCOL)
    header = {
        "kind": CHECKPOINT_KIND,
        "schema": CHECKPOINT_SCHEMA,
        "package": "repro",
        "version": __version__,
        "config_fingerprint": config_fingerprint(engine.config),
        "round_index": int(engine.state.round_index),
        "run": run_signature(engine),
        "payload_bytes": len(payload),
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return header


def _parse_header(path: Path, line: bytes) -> dict:
    try:
        header = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CheckpointCorruptError(
            f"{path}: unparseable checkpoint header ({exc})"
        ) from None
    if not isinstance(header, dict) or header.get("kind") != CHECKPOINT_KIND:
        raise CheckpointCorruptError(
            f"{path}: not an engine checkpoint "
            f"(kind={header.get('kind') if isinstance(header, dict) else None!r})"
        )
    missing = [k for k in _REQUIRED_KEYS if k not in header]
    if missing:
        raise CheckpointCorruptError(
            f"{path}: checkpoint header missing keys {missing}"
        )
    return header


def read_checkpoint(
    path,
    *,
    config_fingerprint: str | None = None,
    run: dict | None = None,
) -> tuple[dict, "SimulationEngine"]:
    """Validate and restore one snapshot; return ``(header, engine)``.

    Validation order: structure (corrupt), schema/package version
    (version), payload length + checksum (corrupt), then — against the
    caller's expectations when given — config fingerprint and run
    signature (mismatch).  Only a fully validated payload is ever
    deserialized.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise CheckpointCorruptError(f"{path}: unreadable ({exc})") from None
    nl = raw.find(b"\n")
    if nl < 0:
        raise CheckpointCorruptError(
            f"{path}: truncated before the header newline"
        )
    header = _parse_header(path, raw[:nl])
    if header["schema"] != CHECKPOINT_SCHEMA:
        raise CheckpointVersionError(
            f"{path}: checkpoint schema {header['schema']!r}, this build "
            f"reads schema {CHECKPOINT_SCHEMA}"
        )
    if header["version"] != __version__:
        raise CheckpointVersionError(
            f"{path}: written by repro {header['version']!r}, this is "
            f"repro {__version__!r}; pickled engine internals are not "
            "stable across versions — rerun instead of resuming"
        )
    payload = raw[nl + 1 :]
    if len(payload) != header["payload_bytes"]:
        raise CheckpointCorruptError(
            f"{path}: torn payload ({len(payload)} bytes on disk, header "
            f"declares {header['payload_bytes']})"
        )
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header["payload_sha256"]:
        raise CheckpointCorruptError(
            f"{path}: payload checksum mismatch (content was altered)"
        )
    if (
        config_fingerprint is not None
        and header["config_fingerprint"] != config_fingerprint
    ):
        raise CheckpointMismatchError(
            f"{path}: snapshot of config {header['config_fingerprint']}, "
            f"resuming config {config_fingerprint}; a changed scenario "
            "cannot resume from this snapshot"
        )
    if run is not None and header["run"] != run:
        raise CheckpointMismatchError(
            f"{path}: snapshot run shape {header['run']} does not match "
            f"the resuming run {run}"
        )
    engine = pickle.loads(payload)
    return header, engine


def snapshot_paths(directory, tag: str) -> list[Path]:
    """All snapshots for ``tag`` in ``directory``, oldest first (the
    round index is zero-padded into the filename, so lexicographic
    order is round order)."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    pattern = f"{_glob.escape(tag)}-r*{CHECKPOINT_SUFFIX}"
    return sorted(directory.glob(pattern))


def latest_valid(
    directory,
    tag: str,
    *,
    config_fingerprint: str | None = None,
    run: dict | None = None,
) -> tuple[Path, dict, "SimulationEngine"] | None:
    """Newest restorable snapshot for ``tag``, or ``None``.

    This is the degradation path: corrupt, mismatched, and
    cross-version files are *skipped* (newest-first scan over the
    rotated set) rather than raised, so one torn tail costs at most
    ``every`` rounds of recomputation, never the whole run.  Use
    :func:`read_checkpoint` directly when refusal should be loud.
    """
    for path in reversed(snapshot_paths(directory, tag)):
        try:
            header, engine = read_checkpoint(
                path, config_fingerprint=config_fingerprint, run=run
            )
        except CheckpointError:
            continue
        return path, header, engine
    return None


class CheckpointWriter:
    """Rotated round-boundary snapshot writer for one run.

    ``maybe(engine)`` snapshots after every ``every``-th completed
    round; ``snapshot(engine)`` forces one (the drain path).  Rotation
    keeps the ``keep_last`` newest snapshots, so a corrupt newest file
    still leaves valid fallbacks for :func:`latest_valid`.
    """

    def __init__(self, directory, tag: str, *, every: int, keep_last: int = 3):
        if every < 1:
            raise ValueError(f"checkpoint every must be >= 1, got {every}")
        if keep_last < 1:
            raise ValueError(f"keep_last must be >= 1, got {keep_last}")
        self.directory = Path(directory)
        self.tag = str(tag)
        self.every = int(every)
        self.keep_last = int(keep_last)

    def path_for(self, round_index: int) -> Path:
        return self.directory / (
            f"{self.tag}-r{int(round_index):08d}{CHECKPOINT_SUFFIX}"
        )

    def maybe(self, engine: "SimulationEngine") -> Path | None:
        """Snapshot iff the engine sits on an ``every`` boundary."""
        completed = int(engine.state.round_index)
        if completed == 0 or completed % self.every:
            return None
        return self.snapshot(engine)

    def snapshot(self, engine: "SimulationEngine") -> Path:
        path = self.path_for(engine.state.round_index)
        write_checkpoint(engine, path)
        for stale in snapshot_paths(self.directory, self.tag)[: -self.keep_last]:
            try:
                stale.unlink()
            except OSError:  # already rotated by a racing writer
                pass
        return path
