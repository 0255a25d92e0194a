"""Self-describing run artifacts: config fingerprints and manifests.

A trace file or telemetry snapshot divorced from the scenario that
produced it is unreproducible; the manifest captures what a reader
needs to rerun the exact cell: protocol, seed, a stable fingerprint of
the full :class:`~repro.config.SimulationConfig`, and the package
version.  The manifest is the first line of every trace JSONL dump
(``kind: "manifest"``) and rides along in
``SimulationResult.extras["telemetry"]``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import TYPE_CHECKING

from .. import __version__

if TYPE_CHECKING:
    from ..config import SimulationConfig

__all__ = [
    "MANIFEST_KIND",
    "MANIFEST_SCHEMA",
    "SHARD_MANIFEST_KIND",
    "config_fingerprint",
    "run_manifest",
    "shard_manifest",
    "stable_fingerprint",
]

#: Discriminator value of the manifest header line in trace JSONL.
MANIFEST_KIND = "manifest"

#: Discriminator value of the shard-artifact header line.
SHARD_MANIFEST_KIND = "shard-manifest"

#: Bump when manifest keys change incompatibly.
MANIFEST_SCHEMA = 1


def stable_fingerprint(payload) -> str:
    """Stable 16-hex-digit digest of any JSON-able payload.

    Canonicalised via sorted-key JSON, so two payloads fingerprint
    equal iff they are value-equal — independent of dict insertion
    order, process, or host.  This is the primitive behind config
    fingerprints, sweep-spec fingerprints, and shard cell IDs.
    """
    canonical = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def config_fingerprint(config: "SimulationConfig") -> str:
    """Stable 16-hex-digit digest of the complete scenario.

    Two configs fingerprint equal iff every tunable (nested sub-configs
    included) is equal — the seed included, since the seed is part of
    the scenario identity for reproduction purposes.
    """
    return stable_fingerprint(dataclasses.asdict(config))


def run_manifest(
    config: "SimulationConfig",
    protocol: str,
    extra: dict | None = None,
    backend: str | None = None,
) -> dict:
    """Build the self-describing header for one simulation run.

    ``backend`` is the *resolved* kernel-backend name the run executes
    on (the engine passes it); when omitted it is derived from
    ``config.backend`` — never recorded as ``"auto"``, so an artifact
    always names its concrete kernel provenance.  The versions of the
    numeric dependencies ride along (``backend_versions``): backends
    are bit-identical by contract, but a violated contract is only
    diagnosable if the artifact says what produced it.
    """
    from ..kernels import backend_versions, resolve_backend_name

    manifest = {
        "kind": MANIFEST_KIND,
        "schema": MANIFEST_SCHEMA,
        "package": "repro",
        "version": __version__,
        "protocol": protocol,
        "seed": config.seed,
        "config_fingerprint": config_fingerprint(config),
        "n_nodes": config.deployment.n_nodes,
        "rounds": config.rounds,
        "mean_interarrival": config.traffic.mean_interarrival,
        "backend": (
            backend
            if backend is not None
            else resolve_backend_name(config.backend)
        ),
        "equivalence": config.equivalence,
        "backend_versions": backend_versions(),
    }
    if extra:
        overlap = set(extra) & set(manifest)
        if overlap:
            raise ValueError(f"extra keys shadow manifest keys: {sorted(overlap)}")
        manifest.update(extra)
    return manifest


def shard_manifest(
    spec_payload: dict,
    spec_fingerprint: str,
    shard: int,
    num_shards: int,
    extra: dict | None = None,
) -> dict:
    """Build the self-describing header of one shard artifact.

    ``shard`` is 1-based (``shard/num_shards`` mirrors the CLI's
    ``--shard k/K``); the pair ``(0, 0)`` is reserved for *merged*
    artifacts, which cover an arbitrary subset of the grid rather than
    one hash-assigned shard — the work-stealing scheduler writes its
    whole-grid artifact under that marker, with its run parameters in
    an ``extra={"scheduler": ...}`` block.  ``extra`` keys must not
    shadow the core keys (same rule as :func:`run_manifest`), and they
    never participate in spec fingerprints: provenance, not identity.
    """
    if (shard, num_shards) != (0, 0) and not 1 <= shard <= num_shards:
        raise ValueError(f"shard {shard}/{num_shards} out of range")
    manifest = {
        "kind": SHARD_MANIFEST_KIND,
        "schema": MANIFEST_SCHEMA,
        "package": "repro",
        "version": __version__,
        "shard": shard,
        "num_shards": num_shards,
        "spec": dict(spec_payload),
        "spec_fingerprint": spec_fingerprint,
    }
    if extra:
        overlap = set(extra) & set(manifest)
        if overlap:
            raise ValueError(f"extra keys shadow manifest keys: {sorted(overlap)}")
        manifest.update(extra)
    return manifest
