"""Crash-safe round-boundary engine checkpointing.

See :mod:`repro.checkpoint.snapshot` for the format and the
resume-identity guarantee, and ``docs/checkpointing.md`` for the
operational story (rotation, degradation, graceful drain, and the
scheduler's snapshot-aware lease reclaim).
"""

from .snapshot import (
    CHECKPOINT_KIND,
    CHECKPOINT_SCHEMA,
    CHECKPOINT_SUFFIX,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointMismatchError,
    CheckpointVersionError,
    CheckpointWriter,
    DrainInterrupted,
    checkpoint_tag,
    latest_valid,
    read_checkpoint,
    run_signature,
    snapshot_paths,
    write_checkpoint,
)

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
