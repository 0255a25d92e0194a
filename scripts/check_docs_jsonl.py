#!/usr/bin/env python
"""Lint the JSONL examples embedded in the documentation, and written
JSONL files such as run traces.

Documentation drifts; schemas don't have to.  This script extracts
every fenced ```jsonl block from the given markdown files (a ``.jsonl``
file is one block), checks that each line parses as JSON, and
validates any manifest line against the real schema in
:mod:`repro.telemetry.manifest` — the keys :func:`run_manifest` emits,
with the right value types and the current schema version.  The
engine's ``round/end`` instants are checked against the keys of
:meth:`repro.simulation.metrics.RoundStats.row` plus heads and
residuals, and its ``routing/path`` instants against the path
invariants.

Usage: PYTHONPATH=src python scripts/check_docs_jsonl.py docs/observability.md run.trace.jsonl
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

from repro.checkpoint import CHECKPOINT_KIND, CHECKPOINT_SCHEMA
from repro.network.packet import PacketCounts
from repro.parallel.scheduler import SCHED_EVENT_KIND
from repro.simulation.metrics import RoundStats
from repro.telemetry.manifest import (
    MANIFEST_KIND,
    MANIFEST_SCHEMA,
    SHARD_MANIFEST_KIND,
)
from repro.telemetry.trace import (
    INSTANT_KIND,
    SPAN_KIND,
    TRACE_SCHEMA,
    TRACE_SUMMARY_KIND,
)

#: Key -> required type(s) of every field run_manifest() always emits.
MANIFEST_KEYS = {
    "kind": str,
    "schema": int,
    "package": str,
    "version": str,
    "protocol": str,
    "seed": int,
    "config_fingerprint": str,
    "n_nodes": int,
    "rounds": int,
    "mean_interarrival": (int, float),
    "backend": str,
    "equivalence": str,
    "backend_versions": dict,
}

#: Key -> required type(s) of every field shard_manifest() always emits.
SHARD_MANIFEST_KEYS = {
    "kind": str,
    "schema": int,
    "package": str,
    "version": str,
    "shard": int,
    "num_shards": int,
    "spec": dict,
    "spec_fingerprint": str,
}

#: Required keys of the per-cell records in a shard artifact.
CELL_KEYS = {
    "kind": str,
    "cell_id": str,
    "protocol": str,
    "lambda": (int, float),
    "seed": int,
    "config_fingerprint": str,
    "backend": str,
    "equivalence": str,
    "attempts": int,
}

#: Required keys of a span event in a trace JSONL file.
SPAN_KEYS = {
    "kind": str,
    "id": int,
    "parent": (int, type(None)),
    "name": str,
    "cat": str,
    "ts": (int, float),
    "dur": (int, float),
}

#: Required keys of an instant event (a span without extent).
INSTANT_KEYS = {
    "kind": str,
    "id": int,
    "parent": (int, type(None)),
    "name": str,
    "cat": str,
    "ts": (int, float),
}

#: Required keys of the trailing trace summary.
TRACE_SUMMARY_KEYS = {
    "kind": str,
    "schema": int,
    "events": int,
    "dropped": int,
    "spans_by_name": dict,
    "instants_by_name": dict,
}

#: Required keys of a run-log (scheduler-event) row; the ``event``
#: value must be one of the verbs the state machine or the driver
#: emits, and ``t`` is the coordinator's monotonic clock reading.
SCHED_EVENT_KEYS = {
    "kind": str,
    "seq": int,
    "event": str,
    "t": (int, float),
}

#: Extra keys of the driver's ``start`` marker, which opens a run log.
START_EVENT_KEYS = {
    "spec_fingerprint": str,
    "shard": int,
    "num_shards": int,
    "cells_total": int,
    "resumed": int,
    "unix": (int, float),
}

#: Required ``args`` of a ``routing/path`` instant (active routing
#: substrates emit one per walked uplink chain).
PATH_KEYS = {
    "round": int,
    "head": int,
    "path": list,
    "hops": int,
    "frames": int,
    "delivered": int,
}

#: The ``args`` keys of a ``round/end`` instant: the round's golden-trace
#: row plus who led and the residual energy left.
ROUND_END_KEYS = set(
    RoundStats(
        round_index=0, n_heads=0, n_alive=0, energy_consumed=0.0,
        packets=PacketCounts(),
    ).row()
) | {"heads", "min_residual", "total_residual"}

#: Required keys of an engine-checkpoint header line (the single JSON
#: line that precedes the binary payload in a ``.ckpt`` snapshot).
CHECKPOINT_KEYS = {
    "kind": str,
    "schema": int,
    "package": str,
    "version": str,
    "config_fingerprint": str,
    "round_index": int,
    "run": dict,
    "payload_bytes": int,
    "payload_sha256": str,
}

#: Required keys of a ``<tag>.resume.jsonl`` sidecar row (one appended
#: per snapshot-restored cell attempt).
RESUME_KEYS = {
    "kind": str,
    "tag": str,
    "round_index": int,
    "snapshot": str,
}

SCHED_EVENTS = (
    "start",
    "draining",
    "stopped",
    "finish",
    "lease",
    "requeue",
    "reclaim",
    "complete",
    "duplicate",
    "stale-failure",
    "error",
    "worker-dead",
)

FENCE = re.compile(r"^```jsonl\s*$(.*?)^```\s*$", re.MULTILINE | re.DOTALL)


def check_manifest(obj: dict, where: str) -> list[str]:
    errors = []
    for key, typ in MANIFEST_KEYS.items():
        if key not in obj:
            errors.append(f"{where}: manifest missing key {key!r}")
        elif not isinstance(obj[key], typ):
            errors.append(
                f"{where}: manifest key {key!r} has type "
                f"{type(obj[key]).__name__}, expected {typ}"
            )
    if obj.get("schema") != MANIFEST_SCHEMA:
        errors.append(
            f"{where}: manifest schema {obj.get('schema')} != {MANIFEST_SCHEMA}"
        )
    fp = obj.get("config_fingerprint", "")
    if not re.fullmatch(r"[0-9a-f]{16}", fp):
        errors.append(f"{where}: config_fingerprint {fp!r} is not 16 hex digits")
    if obj.get("backend") == "auto":
        errors.append(
            f"{where}: manifest backend must be a resolved name, not 'auto'"
        )
    return errors


def _check_keys(obj: dict, schema: dict, what: str, where: str) -> list[str]:
    errors = []
    for key, typ in schema.items():
        if key not in obj:
            errors.append(f"{where}: {what} missing key {key!r}")
        elif not isinstance(obj[key], typ):
            errors.append(
                f"{where}: {what} key {key!r} has type "
                f"{type(obj[key]).__name__}, expected {typ}"
            )
    return errors


def check_shard_manifest(obj: dict, where: str) -> list[str]:
    errors = _check_keys(obj, SHARD_MANIFEST_KEYS, "shard manifest", where)
    fp = obj.get("spec_fingerprint", "")
    if not re.fullmatch(r"[0-9a-f]{16}", fp):
        errors.append(f"{where}: spec_fingerprint {fp!r} is not 16 hex digits")
    return errors


def check_cell_record(obj: dict, where: str) -> list[str]:
    errors = _check_keys(obj, CELL_KEYS, "cell record", where)
    cid = obj.get("cell_id", "")
    if not re.fullmatch(r"[0-9a-f]{16}", cid):
        errors.append(f"{where}: cell_id {cid!r} is not 16 hex digits")
    if obj.get("kind") == "cell" and not isinstance(obj.get("summary"), dict):
        errors.append(f"{where}: cell record needs a dict 'summary'")
    if obj.get("kind") == "cell-error" and not isinstance(
        obj.get("error"), dict
    ):
        errors.append(f"{where}: cell-error record needs a dict 'error'")
    return errors


def check_trace_summary(obj: dict, where: str) -> list[str]:
    errors = _check_keys(obj, TRACE_SUMMARY_KEYS, "trace summary", where)
    if obj.get("schema") != TRACE_SCHEMA:
        errors.append(
            f"{where}: trace-summary schema {obj.get('schema')} != "
            f"{TRACE_SCHEMA}"
        )
    return errors


def check_sched_event(obj: dict, where: str) -> list[str]:
    errors = _check_keys(obj, SCHED_EVENT_KEYS, "sched-event row", where)
    event = obj.get("event")
    if event not in SCHED_EVENTS:
        errors.append(
            f"{where}: sched-event {event!r} is not a run-log "
            f"verb (known: {', '.join(SCHED_EVENTS)})"
        )
    if event in ("lease", "requeue", "reclaim", "complete", "error"):
        cid = obj.get("cell_id", "")
        if not (isinstance(cid, str) and re.fullmatch(r"[0-9a-f]{16}", cid)):
            errors.append(f"{where}: cell_id {cid!r} is not 16 hex digits")
    if event == "start":
        errors.extend(_check_keys(obj, START_EVENT_KEYS, "start event", where))
        fp = obj.get("spec_fingerprint", "")
        if not re.fullmatch(r"[0-9a-f]{16}", fp):
            errors.append(
                f"{where}: spec_fingerprint {fp!r} is not 16 hex digits"
            )
    return errors


def check_path_args(obj: dict, where: str) -> list[str]:
    """A ``routing/path`` instant is one uplink chain walked by an
    active routing substrate: ``path`` holds the relay heads between
    the head and the BS, and ``delivered`` of ``frames`` fused frames
    reached the BS."""
    errors = _check_keys(obj, PATH_KEYS, "routing/path args", where)
    path = obj.get("path", [])
    if isinstance(path, list) and not all(isinstance(p, int) for p in path):
        errors.append(f"{where}: path must be a list of node indices")
    if isinstance(path, list) and isinstance(obj.get("hops"), int):
        if obj["hops"] != len(path) + 1:
            errors.append(
                f"{where}: hops {obj['hops']} != len(path) + 1 "
                f"({len(path) + 1})"
            )
    if isinstance(path, list) and obj.get("head") in path:
        errors.append(f"{where}: head may not appear in its own path")
    frames, delivered = obj.get("frames"), obj.get("delivered")
    if isinstance(frames, int) and isinstance(delivered, int):
        if not 0 <= delivered <= frames:
            errors.append(
                f"{where}: delivered {delivered} outside [0, frames={frames}]"
            )
    return errors


def check_checkpoint_header(obj: dict, where: str) -> list[str]:
    """An ``engine-checkpoint`` line is the self-describing header of a
    ``.ckpt`` snapshot; the invariants mirror the validation order in
    :func:`repro.checkpoint.read_checkpoint`."""
    errors = _check_keys(obj, CHECKPOINT_KEYS, "checkpoint header", where)
    if obj.get("schema") != CHECKPOINT_SCHEMA:
        errors.append(
            f"{where}: checkpoint schema {obj.get('schema')} != "
            f"{CHECKPOINT_SCHEMA}"
        )
    fp = obj.get("config_fingerprint", "")
    if not re.fullmatch(r"[0-9a-f]{16}", fp):
        errors.append(f"{where}: config_fingerprint {fp!r} is not 16 hex digits")
    sha = obj.get("payload_sha256", "")
    if not re.fullmatch(r"[0-9a-f]{64}", sha):
        errors.append(f"{where}: payload_sha256 {sha!r} is not 64 hex digits")
    return errors


def check_round_end_args(obj: dict, where: str) -> list[str]:
    unknown = set(obj) - ROUND_END_KEYS
    missing = ROUND_END_KEYS - set(obj)
    errors = []
    if unknown:
        errors.append(f"{where}: unknown round/end keys {sorted(unknown)}")
    if missing:
        errors.append(f"{where}: round/end missing keys {sorted(missing)}")
    heads = obj.get("heads")
    if not (isinstance(heads, list) and all(isinstance(h, int) for h in heads)):
        errors.append(f"{where}: round/end heads must be a list of node indices")
    elif isinstance(obj.get("n_heads"), int) and len(heads) != obj["n_heads"]:
        errors.append(
            f"{where}: round/end lists {len(heads)} heads, n_heads is "
            f"{obj['n_heads']}"
        )
    return errors


def check_instant(obj: dict, where: str) -> list[str]:
    errors = _check_keys(obj, INSTANT_KEYS, "instant", where)
    args = obj.get("args", {})
    if obj.get("name") == "routing/path":
        errors.extend(check_path_args(args, where))
    elif obj.get("name") == "round/end":
        errors.extend(check_round_end_args(args, where))
    return errors


def check_file(path: Path) -> list[str]:
    errors = []
    text = path.read_text(encoding="utf-8")
    blocks = [text] if path.suffix == ".jsonl" else FENCE.findall(text)
    if not blocks:
        errors.append(f"{path}: no ```jsonl blocks found")
    for bi, block in enumerate(blocks):
        for li, line in enumerate(filter(None, map(str.strip, block.splitlines()))):
            where = f"{path} block {bi + 1} line {li + 1}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                errors.append(f"{where}: invalid JSON ({exc})")
                continue
            kind = obj.get("kind")
            if kind == MANIFEST_KIND:
                if li != 0:
                    errors.append(f"{where}: manifest must be the first line")
                errors.extend(check_manifest(obj, where))
            elif kind == SHARD_MANIFEST_KIND:
                if li != 0:
                    errors.append(f"{where}: manifest must be the first line")
                errors.extend(check_shard_manifest(obj, where))
            elif kind in ("cell", "cell-error"):
                errors.extend(check_cell_record(obj, where))
            elif kind == "shard-telemetry":
                if not isinstance(obj.get("snapshot"), dict):
                    errors.append(
                        f"{where}: shard-telemetry needs a dict 'snapshot'"
                    )
            elif kind == SPAN_KIND:
                errors.extend(_check_keys(obj, SPAN_KEYS, "span", where))
            elif kind == INSTANT_KIND:
                errors.extend(check_instant(obj, where))
            elif kind == TRACE_SUMMARY_KIND:
                errors.extend(check_trace_summary(obj, where))
            elif kind == SCHED_EVENT_KIND:
                errors.extend(check_sched_event(obj, where))
            elif kind == CHECKPOINT_KIND:
                errors.extend(check_checkpoint_header(obj, where))
            elif kind == "checkpoint-resume":
                errors.extend(
                    _check_keys(obj, RESUME_KEYS, "resume row", where)
                )
            else:
                errors.append(f"{where}: unknown record kind {kind!r}")
    return errors


def main(argv: list[str]) -> int:
    if not argv:
        print(
            "usage: check_docs_jsonl.py <markdown or .jsonl file>...",
            file=sys.stderr,
        )
        return 2
    all_errors = []
    for name in argv:
        all_errors.extend(check_file(Path(name)))
    for err in all_errors:
        print(f"ERROR {err}", file=sys.stderr)
    if not all_errors:
        print(f"ok: {len(argv)} file(s) checked")
    return 1 if all_errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
