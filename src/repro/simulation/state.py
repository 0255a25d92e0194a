"""Shared mutable simulation state.

One :class:`NetworkState` instance is threaded through the engine and
the active protocol each round.  It owns the substrates every protocol
needs — geometry, batteries, channel, link estimates — so protocol
implementations stay pure strategies (a design choice that makes the
Fig. 3 comparison fair: every algorithm runs on byte-identical
machinery and RNG streams).

Index convention: nodes are ``0..N-1`` and the base station is
addressed as index ``N`` everywhere (V table, link estimator, relay
choices).
"""

from __future__ import annotations

import sys

import numpy as np

from ..config import SimulationConfig
from ..energy.battery import EnergyLedger
from ..energy.radio import FirstOrderRadio
from ..kernels import KernelBackend, get_backend
from ..kernels.base import euclidean, euclidean_columns
from ..network.channel import Channel, LinkEstimator
from ..network.deployment import deploy
from ..network.node import BaseStation, NodeArray
from ..network.topology import Topology
from .links import RoundLinks

__all__ = ["NetworkState"]


class NetworkState:
    """Everything a protocol can observe and the engine mutates.

    Parameters
    ----------
    config:
        Scenario description.
    nodes, bs:
        Optional pre-built deployment (the dataset experiments build
        their own); when omitted the config's uniform cube is deployed.
    rng:
        The master random generator for this run.  All stochastic
        components (traffic, channel, protocol randomisation) draw from
        streams spawned off it, keeping runs reproducible.
    kernels:
        A resolved kernel backend shared by every substrate this state
        owns (ledger, channel, link estimator, geometry) and by the
        protocols' routers.  Defaults to the numpy reference; the
        engine resolves ``config.backend`` and passes the result.  All
        backends are bit-identical by contract.
    """

    def __init__(
        self,
        config: SimulationConfig,
        nodes: NodeArray | None = None,
        bs: BaseStation | None = None,
        rng: np.random.Generator | None = None,
        initial_energy: np.ndarray | None = None,
        kernels: KernelBackend | None = None,
    ) -> None:
        self.config = config
        self.kernels = kernels if kernels is not None else get_backend("numpy")
        master = rng if rng is not None else np.random.default_rng(config.seed)
        # Independent child streams: deployment, traffic, channel,
        # protocol, engine-internal tie-breaking, mobility, harvesting,
        # fault injection, and multi-hop routing.  spawn(9) yields the
        # same first eight children as spawn(8) did (spawn keys are
        # sequential), so adding the routing stream — like the fault
        # stream before it — left every existing golden trace
        # bit-identical.
        seeds = master.spawn(9)
        (self._deploy_rng, self.traffic_rng, channel_rng,
         self.protocol_rng, self.engine_rng,
         self.mobility_rng, self.harvest_rng, self.fault_rng,
         self.routing_rng) = seeds

        if nodes is None or bs is None:
            nodes, bs = deploy(config.deployment, self._deploy_rng)
        self.nodes = nodes
        self.bs = bs
        self.topology = Topology(nodes, bs)
        self.radio = FirstOrderRadio(config.radio)
        energies = (
            np.asarray(initial_energy, dtype=np.float64)
            if initial_energy is not None
            else nodes.initial_energy
        )
        self.ledger = EnergyLedger(
            energies,
            death_line=config.deployment.death_line,
            kernels=self.kernels,
        )
        self.channel = Channel(self.radio, channel_rng, kernels=self.kernels)
        # Targets: every node plus the base station (index N).
        self.link_estimator = LinkEstimator(
            nodes.n,
            nodes.n + 1,
            alpha=config.estimator_alpha,
            shared=config.estimator_shared,
            kernels=self.kernels,
        )
        self.round_index = 0
        #: Per-node round index at which the node was last a cluster
        #: head; -inf means never (drives the rotating-epoch rule).
        self.last_ch_round = np.full(nodes.n, -np.inf)
        #: This round's link table: the engine builds one after each
        #: election and drops it at round end; outside a round it is
        #: empty and every link is computed.  Never pickled.
        self.links = RoundLinks(self)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("links", None)
        return state

    def __setstate__(self, state: dict) -> None:
        # Interned keys, as pickle's default restore makes them: keys
        # shared with other pickled dicts then pickle as memo references
        # again, so a resumed run's snapshots keep their bytes.
        self.__dict__.update((sys.intern(k), v) for k, v in state.items())
        self.links = RoundLinks(self)

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.nodes.n

    @property
    def bs_index(self) -> int:
        """Sentinel index addressing the base station."""
        return self.nodes.n

    @property
    def total_rounds(self) -> int:
        return self.config.rounds

    def alive_indices(self) -> np.ndarray:
        return np.flatnonzero(self.ledger.alive)

    def distance(self, node: int, target: int) -> float:
        """Distance from ``node`` to ``target`` (node index or BS sentinel)."""
        if target == self.bs_index:
            return float(self.topology.d_to_bs[node])
        return float(
            np.linalg.norm(
                self.nodes.positions[node] - self.nodes.positions[target]
            )
        )

    def distances_from(self, node: int, targets: np.ndarray) -> np.ndarray:
        """Vectorized distances from ``node`` to a target list that may
        include the BS sentinel."""
        targets = np.asarray(targets)
        out = np.empty(targets.size, dtype=np.float64)
        is_bs = targets == self.bs_index
        if is_bs.any():
            out[is_bs] = self.topology.d_to_bs[node]
        real = ~is_bs
        if real.any():
            out[real] = euclidean(
                self.nodes.positions[node], self.nodes.positions[targets[real]]
            )
        return out

    def distances_many(self, nodes: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Pairwise link lengths ``|nodes[i] -> targets[i]|`` where
        targets may include the BS sentinel (one slot's sender->relay
        links in a single call), gathered from the coordinate columns."""
        nodes = np.asarray(nodes, dtype=np.intp)
        targets = np.asarray(targets, dtype=np.intp)
        is_bs = targets == self.bs_index
        cols = self.nodes.columns
        # A BS link is measured as the sender to itself, then replaced
        # by the cached node->BS distance.
        out = euclidean_columns(
            cols.take(nodes, axis=1),
            cols.take(np.where(is_bs, nodes, targets), axis=1),
        )
        if is_bs.any():
            out[is_bs] = self.topology.d_to_bs[nodes[is_bs]]
        return out

    def distances_matrix(self, nodes: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Full ``(len(nodes), len(targets))`` distance block; targets
        may include the BS sentinel.  Elementwise identical to stacking
        :meth:`distances_from` per node (both are
        :func:`~repro.kernels.base.euclidean`), so batched relay scoring
        reproduces the scalar path bit-for-bit."""
        nodes = np.asarray(nodes, dtype=np.intp)
        targets = np.asarray(targets, dtype=np.intp)
        out = np.empty((nodes.size, targets.size), dtype=np.float64)
        is_bs = targets == self.bs_index
        if is_bs.any():
            out[:, is_bs] = self.topology.d_to_bs[nodes][:, None]
        real = ~is_bs
        if real.any():
            # Streamed over sender-row chunks when the config bounds the
            # block footprint (large-N runs); bit-identical to the
            # one-shot call for every chunk size, so results are
            # unaffected (see KernelBackend.distance_block_blocked).
            out[:, real] = self.kernels.distance_block_blocked(
                self.nodes.positions[nodes],
                self.nodes.positions[targets[real]],
                self.config.max_block_mb,
            )
        return out

    def average_energy_estimate(self) -> float:
        """Paper Eq. (2): linear-decay estimate of the network's average
        energy at the current round, ``E(r) = (1/N) E_init (1 - r/R)``.

        Note the estimate deliberately ignores the measured residuals —
        the paper introduces it "to reduce the time complexity"; the
        measured average is available as ``ledger.average_energy()``.
        """
        e_init_total = self.ledger.total_initial
        r, big_r = self.round_index, self.total_rounds
        return (e_init_total / self.n) * (1.0 - r / big_r)

    def memory_report(self) -> dict:
        """Dtype/footprint audit of the persistent per-node state.

        Large-N runs live or die by what scales with N (and what scales
        with N^2 — nothing here may, with the shared rank-1 link
        estimator).  Returns ``{"arrays": {name: {"dtype", "shape",
        "mbytes"}}, "resident_mb", "transient_block_mb"}`` where
        ``transient_block_mb`` is the peak distance-block temporary a
        slot can allocate under the config's ``max_block_mb`` budget
        (unbounded one-shot estimate when the budget is None).  The
        scale benchmark asserts against these numbers.
        """
        arrays: dict[str, np.ndarray] = {
            "positions": self.nodes.positions,
            "initial_energy": self.nodes.initial_energy,
            "residual": self.ledger.residual,
            "alive": self.ledger.alive,
            "d_to_bs": self.topology.d_to_bs,
            "link_estimates": self.link_estimator._est,
            "last_ch_round": self.last_ch_round,
        }
        if self.link_estimator.shared:
            arrays["link_shared_row"] = self.link_estimator._shared_row
        report = {
            name: {
                "dtype": str(a.dtype),
                "shape": tuple(a.shape),
                "mbytes": a.nbytes / 2**20,
            }
            for name, a in arrays.items()
        }
        budget = self.config.max_block_mb
        if budget is None:
            # Worst case: every node sends to every head at once.
            k = self.config.n_clusters or max(1, int(round(np.sqrt(self.n))))
            transient = 8 * self.n * k * 4 / 2**20
        else:
            transient = float(budget)
        return {
            "arrays": report,
            "resident_mb": sum(r["mbytes"] for r in report.values()),
            "transient_block_mb": transient,
        }

    def update_positions(self, positions: np.ndarray) -> None:
        """Replace node coordinates (mobility step) and rebuild the
        cached geometry.  Energies, liveness, link estimates, and V
        tables are identity-keyed and survive the move."""
        self.nodes = NodeArray(positions, self.nodes.initial_energy)
        self.topology = Topology(self.nodes, self.bs)

    def mark_cluster_heads(self, heads: np.ndarray) -> None:
        """Record head service for the rotating-epoch bookkeeping."""
        if np.asarray(heads).size:
            self.last_ch_round[np.asarray(heads)] = self.round_index

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NetworkState(n={self.n}, round={self.round_index}/"
            f"{self.total_rounds}, alive={self.ledger.n_alive})"
        )
