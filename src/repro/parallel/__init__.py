"""Parallel sweep machinery: the scheduler, seeds, and sweep sharding."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".rng": ("SeedFactory", "spawn_generators"),
    ".scheduler": (
        "SCHED_EVENT_KIND",
        "Lease",
        "SweepRunResult",
        "SweepScheduler",
        "default_workers",
        "find_status_files",
        "load_status",
        "run_scheduled",
        "scheduler_events_path",
    ),
    ".sharding": (
        "CellOptions",
        "MergedSweep",
        "ShardArtifact",
        "SweepCell",
        "SweepSpec",
        "artifact_compression",
        "classify_error",
        "load_artifact",
        "merge_artifacts",
        "parse_shard_arg",
        "partition_cells",
        "run_shard",
        "write_merged_artifact",
    ),
    ".signals": ("DrainFlag", "drain_on_signals"),
})
