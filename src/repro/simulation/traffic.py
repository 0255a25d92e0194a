"""Poisson traffic generation (paper §5.2).

"The packet generation time in the network follows the poisson
distribution.  lambda is the average packet inter-arrival time for the
network.  The smaller lambda is, the more congested the network is."

Each sensing node is an independent Poisson source with per-slot rate
``1 / lambda``; arrivals within a slot are drawn as a Poisson count
(the superposition/thinning-exact discretisation).  Generation is
vectorized across the whole population per slot.
"""

from __future__ import annotations

import numpy as np

from ..config import TrafficConfig

__all__ = ["PoissonTraffic"]


class PoissonTraffic:
    """Vectorized per-node Poisson packet source.

    Parameters
    ----------
    config:
        Traffic parameters (lambda, slots per round, payload bits).
    n_nodes:
        Population size.
    rng:
        Dedicated generator stream (so traffic is identical across
        protocols compared under the same master seed).
    """

    def __init__(
        self, config: TrafficConfig, n_nodes: int, rng: np.random.Generator
    ) -> None:
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        self.config = config
        self.n = n_nodes
        self.rng = rng
        self.total_generated = 0

    def arrivals(self, active: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The packets generated this slot, by source.

        One Poisson count is drawn per active node, in ascending node
        order, in a single call on the stream.

        Parameters
        ----------
        active:
            Boolean mask of nodes that generate traffic this slot
            (alive non-CH sensing nodes; heads sense too in LEACH-family
            protocols but their samples fold into the fused uplink, so
            the engine passes non-CH nodes only).

        Returns
        -------
        (sources, counts)
            The nodes that produced at least one packet, ascending, and
            how many each produced (both int64, equally long).
        """
        active = np.asarray(active, dtype=bool)
        if active.shape != (self.n,):
            raise ValueError("active mask must have shape (n_nodes,)")
        idx = np.flatnonzero(active)
        counts = self.rng.poisson(self.config.rate_per_slot, size=idx.size)
        # A bool mask: np.nonzero scans it about 4x faster than int64.
        producing = np.flatnonzero(counts > 0)
        counts = counts[producing]
        self.total_generated += int(counts.sum())
        return idx[producing], counts
