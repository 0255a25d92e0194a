"""Deterministic random-stream management for parallel sweeps.

Every experiment cell (protocol x lambda x replicate) gets its own
:class:`numpy.random.SeedSequence` child, so results are bit-identical
regardless of how cells are scheduled across worker processes — the
standard reproducibility discipline for parallel Monte-Carlo (and the
reason none of this code ever calls ``np.random.seed``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SeedFactory", "spawn_generators"]


def spawn_generators(seed: int, n: int) -> list[np.random.Generator]:
    """n independent generators rooted at ``seed``."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


@dataclass(frozen=True)
class SeedFactory:
    """Stable per-cell seed derivation.

    ``seed_for(*key)`` hashes an arbitrary tuple key (protocol name,
    lambda, replicate index, ...) together with the root seed into a
    64-bit seed.  The same key always yields the same stream; distinct
    keys yield independent ones (SeedSequence entropy mixing).
    """

    root: int = 0

    def seed_for(self, *key) -> int:
        material = [self.root]
        for part in key:
            if isinstance(part, (int, np.integer)):
                material.append(int(part) & 0xFFFFFFFF)
            else:
                # Stable string hash (Python's hash() is salted per
                # process, which would break cross-process determinism).
                acc = 2166136261
                for ch in str(part).encode():
                    acc = ((acc ^ ch) * 16777619) & 0xFFFFFFFF
                material.append(acc)
        return int(
            np.random.SeedSequence(material).generate_state(1, dtype=np.uint64)[0]
        )
