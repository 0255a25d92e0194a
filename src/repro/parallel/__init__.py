"""Parallel sweep machinery: the scheduler, seeds, and sweep sharding."""

from .rng import SeedFactory, spawn_generators
from .scheduler import (
    SCHED_EVENT_KIND,
    Lease,
    SweepRunResult,
    SweepScheduler,
    default_workers,
    run_scheduled,
    scheduler_events_path,
)
from .sharding import (
    CellOptions,
    MergedSweep,
    ShardArtifact,
    SweepCell,
    SweepSpec,
    artifact_compression,
    classify_error,
    load_artifact,
    merge_artifacts,
    parse_shard_arg,
    partition_cells,
    run_shard,
    write_merged_artifact,
)
from .signals import DrainFlag, drain_on_signals
from .status import (
    STATUS_KIND,
    STATUS_SCHEMA,
    ShardStatusWriter,
    find_status_files,
    load_status,
    shard_status_path,
)

__all__ = [
    "CellOptions",
    "DrainFlag",
    "Lease",
    "MergedSweep",
    "SCHED_EVENT_KIND",
    "STATUS_KIND",
    "STATUS_SCHEMA",
    "SeedFactory",
    "ShardArtifact",
    "ShardStatusWriter",
    "SweepCell",
    "SweepRunResult",
    "SweepScheduler",
    "SweepSpec",
    "artifact_compression",
    "classify_error",
    "default_workers",
    "drain_on_signals",
    "find_status_files",
    "load_artifact",
    "load_status",
    "merge_artifacts",
    "parse_shard_arg",
    "partition_cells",
    "run_scheduled",
    "run_shard",
    "scheduler_events_path",
    "shard_status_path",
    "spawn_generators",
    "write_merged_artifact",
]
