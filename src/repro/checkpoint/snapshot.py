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
``stop_on_death``, ``batched``, telemetry and span-sink presence), the
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
the pickle memo; derived state (``Topology``'s node->BS distances,
``LinkEstimator``'s decay-power cache) is recomputed by the same call
that built it; and the kernel backend reduces to its name and is
re-resolved through ``get_backend`` on load (a name this build lacks
raises ``BackendUnavailableError``).  The payload is written and read
by the plain (C) pickler.  Its size and write time depend on the
engine's live state, not on buffer capacity or on how many rounds it
has run: the packet arena stores its free stack and live rows, the
source buffers their non-empty nodes, and the energy ledger shares the
nodes' initial energies.

Snapshot bytes are a function of engine state: :func:`read_checkpoint`
restores builtin dtypes as numpy's singletons (:class:`_EngineUnpickler`),
so a restored engine pickles back to the bytes it was read from, and
after any number of further rounds to the bytes of the engine that
never stopped.  ``tests/checkpoint/test_snapshot.py`` tests the
guarantee end-to-end: SIGKILL at an arbitrary round (including a
congested run with packets buffered at the snapshot), resume, and the
final result, golden trace, run-total latency sample and telemetry
deterministic-view match the uninterrupted run; without a telemetry
registry, whose phase times are wall-clock readings, so does every
later snapshot's sha256.
"""

from __future__ import annotations

import glob as _glob
import hashlib
import io
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
    "checkpoint_tag",
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
#: Schema 4: kernel backends pickle by registry name alone.  Schema 5:
#: the packet arena and the source buffers pickle their live rows and
#: non-empty buffers only, the energy ledger shares the nodes' initial
#: energies, and the link estimator drops its decay-power cache.  The
#: arena's later loss of its status and delivery-slot columns keeps
#: schema 5: a restore ignores columns it does not know.  Schema 6: the
#: engine has no ``trace`` attribute and the run signature no ``trace``
#: key (the span sink is the run's one trace).
CHECKPOINT_SCHEMA = 6

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


def checkpoint_tag(*parts) -> str:
    """The snapshot tag of a run: ``parts`` joined by ``-``.

    Every ``/`` (the ``qlec/*`` ablation names have one) becomes ``_``,
    so snapshots land directly in the checkpoint directory; a tag
    without ``/`` is the plain join, so existing snapshots still
    resume.
    """
    return "-".join(str(p) for p in parts).replace("/", "_")


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
    }


#: The config whose fingerprint the last header carried, and that
#: fingerprint.  A run snapshots the same (frozen) config object every
#: time, so it hashes its config once rather than once per snapshot.
_last_fingerprint: tuple[object, str] | None = None


def _header_fingerprint(config) -> str:
    global _last_fingerprint
    cached = _last_fingerprint
    if cached is None or cached[0] is not config:
        from ..telemetry.manifest import config_fingerprint

        cached = _last_fingerprint = (config, config_fingerprint(config))
    return cached[1]


def write_checkpoint(engine: "SimulationEngine", path) -> dict:
    """Atomically snapshot ``engine`` to ``path``; return the header.

    tmp + ``os.replace`` with an fsync in between: a crash mid-write
    leaves either the previous snapshot or the new one, never a torn
    file under the final name (and a torn *tmp* never matches the
    snapshot glob).
    """
    path = Path(path)
    payload = pickle.dumps(engine, protocol=pickle.HIGHEST_PROTOCOL)
    header = {
        "kind": CHECKPOINT_KIND,
        "schema": CHECKPOINT_SCHEMA,
        "package": "repro",
        "version": __version__,
        "config_fingerprint": _header_fingerprint(engine.config),
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


def _dtype(spec, align=False, copy=False):
    """numpy's own instance of a builtin dtype, in place of the copy
    numpy's pickle asks for; other dtypes are built as numpy builds
    them.  Snapshots hold native-order arrays only, so the byte order
    that the pickled state carries is numpy's native one."""
    import numpy as np

    dtype = np.dtype(spec, align)
    return dtype if dtype.isbuiltin == 1 else np.dtype(spec, align, copy)


class _EngineUnpickler(pickle.Unpickler):
    """Restores every builtin dtype as numpy's singleton.

    numpy unpickles a dtype as a fresh copy, so arrays kept from a
    restore would share that copy while arrays made later use the
    singleton, and the pickler would write one dtype more than for the
    engine that never stopped."""

    def find_class(self, module, name):
        if module == "numpy" and name == "dtype":
            return _dtype
        return super().find_class(module, name)


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
    # A view, not a slice: the payload is hashed in place rather than
    # copied.
    payload = memoryview(raw)[nl + 1 :]
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
    # A BytesIO over the file's bytes shares them; the unpickler reads
    # on from the payload's start.
    stream = io.BytesIO(raw)
    stream.seek(nl + 1)
    engine = _EngineUnpickler(stream).load()
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
