"""Simulation configuration for the QLEC reproduction.

This module is the single source of truth for every tunable the paper
exposes.  Table 2 of the paper ("Simulation Parameters") maps onto
:class:`PaperConfig`; every experiment driver and benchmark builds its
scenario from these dataclasses so that a change to one constant is
reflected everywhere.

Units
-----
The paper inherits the first-order radio model of Heinzelman et al.
(2002); all energies are in **joules**, distances in **meters** (the
paper says "units"; we treat one unit as one meter), packet sizes in
**bits**, and time in **rounds** subdivided into **slots**.
"""

from __future__ import annotations

import dataclasses
import math
import typing
from collections.abc import Mapping
from dataclasses import dataclass, field

if typing.TYPE_CHECKING:  # imported lazily to keep config dependency-free
    from .energy.harvesting import HarvestingConfig
    from .faults import FaultPlan
    from .network.mobility import MobilityConfig

__all__ = [
    "BACKEND_CHOICES",
    "EQUIVALENCE_CHOICES",
    "ROUTING_CHOICES",
    "RadioConfig",
    "QLearningConfig",
    "TrafficConfig",
    "DeploymentConfig",
    "QueueConfig",
    "RoutingConfig",
    "SimulationConfig",
    "PaperConfig",
    "apply_overrides",
    "paper_config",
]

#: Kernel backend selectors a run may name: ``auto`` resolves to the
#: numpy reference, the one backend (:mod:`repro.kernels.registry`).
BACKEND_CHOICES = ("auto", "numpy")

#: Numeric contracts a run may declare.  ``bitwise`` is the only one:
#: the kernels reproduce the scalar reference path bit for bit.
EQUIVALENCE_CHOICES = ("bitwise",)

#: Multi-hop routing substrates for the cluster-head uplink
#: (``repro.routing``).  ``direct`` is the bit-identical default: the
#: engine keeps today's behaviour (each protocol's own ``uplink_path``,
#: single CH->BS hop for most) and the substrate stays inert.  ``tree``
#: builds a cluster-tree over the CH overlay with mesh forwarding in
#: the local neighborhood; ``qspt`` learns a shortest-path tree with
#: distributed Q-learning.
ROUTING_CHOICES = ("direct", "tree", "qspt")


@dataclass(frozen=True)
class RoutingConfig:
    """Multi-hop uplink routing over the cluster-head overlay.

    Attributes
    ----------
    kind:
        One of :data:`ROUTING_CHOICES`.  Anything but ``direct`` arms
        the routing substrate: an energy-charged neighbor-discovery
        phase populates per-CH neighbor tables each round and the
        engine asks the active :class:`repro.routing.RoutingProtocol`
        for uplink paths instead of the clustering protocol.
    range_factor:
        Radio reach of a CH used for neighbor discovery, as a multiple
        of the radio's crossover distance ``d0`` (the same convention
        as the QELAR baseline).  Two CHs are overlay neighbors when
        their distance is within ``range_factor * d0``.
    hello_bits:
        Size of one HELLO/neighbor-table broadcast frame in bits.
        Discovery is billed to the energy ledger as ordinary radio
        tx/rx traffic, so multi-hop runs pay for their control plane.
    mesh:
        Tree routing only: when True a CH whose tree parent is
        unusable may forward across any live overlay neighbor that
        makes progress toward the BS (mesh repair) before falling back
        to a direct BS long shot.  False gives the tree-only
        comparator used by the chaos-partition acceptance test.
    qspt_episodes:
        Q-learning episodes per tree (re)build in ``qspt`` mode.
    qspt_epsilon:
        Exploration rate of the QSPT agent.
    qspt_learning_rate:
        Learning rate of the QSPT agent.
    """

    kind: str = "direct"
    range_factor: float = 2.0
    hello_bits: int = 256
    mesh: bool = True
    qspt_episodes: int = 60
    qspt_epsilon: float = 0.2
    qspt_learning_rate: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in ROUTING_CHOICES:
            raise ValueError(
                f"routing kind must be one of {ROUTING_CHOICES}, "
                f"got {self.kind!r}"
            )
        if self.range_factor <= 0.0:
            raise ValueError("range_factor must be positive")
        if self.hello_bits < 1:
            raise ValueError("hello_bits must be >= 1")
        if self.qspt_episodes < 1:
            raise ValueError("qspt_episodes must be >= 1")
        if not 0.0 <= self.qspt_epsilon <= 1.0:
            raise ValueError("qspt_epsilon must lie in [0, 1]")
        if not 0.0 < self.qspt_learning_rate <= 1.0:
            raise ValueError("qspt_learning_rate must lie in (0, 1]")


@dataclass(frozen=True)
class RadioConfig:
    """First-order radio model constants (paper Eq. (6) and Eq. (18)).

    Attributes
    ----------
    e_elec:
        Energy dissipated per bit to run the transmitter or receiver
        circuit, in J/bit.  Heinzelman's canonical value is 50 nJ/bit.
    e_da:
        Data-aggregation cost expended at cluster heads, in J/bit.
        Canonical value 5 nJ/bit/signal.
    eps_fs:
        Free-space amplifier constant, J/bit/m^2.  Table 2 uses
        10 pJ/bit/m^2.
    eps_mp:
        Multi-path amplifier constant, J/bit/m^4.  Table 2 uses
        0.0013 pJ/bit/m^4.
    """

    e_elec: float = 50e-9
    e_da: float = 5e-9
    eps_fs: float = 10e-12
    eps_mp: float = 0.0013e-12

    def __post_init__(self) -> None:
        for name in ("e_elec", "e_da", "eps_fs", "eps_mp"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"radio constant {name!r} must be positive")

    @property
    def d0(self) -> float:
        """Crossover distance between free-space and multi-path regimes.

        ``d0 = sqrt(eps_fs / eps_mp)`` (paper, below Eq. (18)).
        """
        return math.sqrt(self.eps_fs / self.eps_mp)


@dataclass(frozen=True)
class QLearningConfig:
    """Q-learning hyper-parameters for the data-transmission phase.

    The reward weights come straight from Table 2:
    ``alpha1 = beta1 = 0.05`` weight residual energy and
    ``alpha2 = beta2 = 1.05`` weight transmission cost
    (Eqs. (17), (19), (20)).
    """

    gamma: float = 0.95
    alpha1: float = 0.05
    alpha2: float = 1.05
    beta1: float = 0.05
    beta2: float = 1.05
    #: Constant punishment ``-g`` applied to every transmission attempt.
    g: float = 0.1
    #: Arbitrarily-large penalty ``l`` for talking directly to the BS
    #: (Eq. (19)).  Large relative to the per-packet reward scale.
    bs_penalty: float = 100.0
    #: Number of expected-model sweeps per routing decision epoch; the
    #: paper iterates the Bellman backup of Eq. (15) until V converges.
    max_backups: int = 200
    #: Convergence tolerance on the sup-norm change of the V table.
    tol: float = 1e-6
    #: Energy normalisation applied to ``x(b_i)`` (residual energies are
    #: divided by this before entering the reward so the alpha/beta
    #: weights of Table 2 act on O(1) quantities).  ``None`` auto-scales
    #: by the network's mean initial energy, making x(.) start at 1.
    energy_scale: float | None = None
    #: Normalisation for the transmission cost ``y(b_i, h_j)``.  ``None``
    #: auto-scales by the amplifier energy of one packet at the radio's
    #: crossover distance d0, making y ~ O(1) for typical links.
    cost_scale: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if self.max_backups < 1:
            raise ValueError("max_backups must be >= 1")
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")
        for name in ("alpha1", "alpha2", "beta1", "beta2"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"reward weight {name!r} must be >= 0")


@dataclass(frozen=True)
class TrafficConfig:
    """Poisson traffic model (paper §5.2).

    Packet generation in the network follows a Poisson process;
    ``mean_interarrival`` is the paper's lambda: the average packet
    inter-arrival time *per node* measured in slots.  Smaller values
    mean a more congested network.
    """

    mean_interarrival: float = 4.0
    #: Number of transmission slots per round; each slot a node may
    #: forward at most one packet.
    slots_per_round: int = 10
    #: Application payload size L in bits (Heinzelman uses 4000 bit
    #: packets; the paper never overrides this).
    packet_bits: int = 4000

    def __post_init__(self) -> None:
        if self.mean_interarrival <= 0.0:
            raise ValueError("mean_interarrival must be positive")
        if self.slots_per_round < 1:
            raise ValueError("slots_per_round must be >= 1")
        if self.packet_bits < 1:
            raise ValueError("packet_bits must be >= 1")

    @property
    def rate_per_slot(self) -> float:
        """Per-node packet arrival rate per slot (1 / lambda)."""
        return 1.0 / self.mean_interarrival


@dataclass(frozen=True)
class DeploymentConfig:
    """Node deployment in the M x M x M cube (paper §5.1)."""

    n_nodes: int = 100
    side: float = 200.0
    initial_energy: float = 5.0
    #: Base-station position; ``None`` places it at the cube centre,
    #: matching Figure 1 ("the green node in the center is the sink").
    bs_position: tuple[float, float, float] | None = None
    #: A node is considered dead once its residual energy falls below
    #: this "energy death line" (paper §5.1); the network dies when the
    #: first node crosses it.
    death_line: float = 0.0
    #: DEEC's heterogeneous setting (Qing et al. 2006): a fraction m of
    #: "advanced" nodes carries (1 + a) times the normal battery.
    #: Defaults reproduce the paper's homogeneous §5.1 scenario.
    advanced_fraction: float = 0.0
    advanced_factor: float = 0.0

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if not 0.0 <= self.advanced_fraction <= 1.0:
            raise ValueError("advanced_fraction must lie in [0, 1]")
        if self.advanced_factor < 0.0:
            raise ValueError("advanced_factor must be >= 0")
        if self.side <= 0.0:
            raise ValueError("side must be positive")
        if self.initial_energy <= 0.0:
            raise ValueError("initial_energy must be positive")
        if self.death_line < 0.0:
            raise ValueError("death_line must be >= 0")
        if self.death_line >= self.initial_energy:
            raise ValueError("death_line must be below initial_energy")

    @property
    def bs(self) -> tuple[float, float, float]:
        if self.bs_position is not None:
            return self.bs_position
        half = self.side / 2.0
        return (half, half, half)


@dataclass(frozen=True)
class QueueConfig:
    """Finite cluster-head buffer (paper §5.2: "limited storage caches
    of cluster heads may lead to packet loss")."""

    capacity: int = 16
    #: How many queued packets a CH can serve (aggregate) per slot.
    service_rate: int = 8
    #: How many *direct* (unaggregated, contention-based) packets the
    #: base station accepts per slot.  Scheduled cluster-head uplinks
    #: of fused data are coordinated by the BS and do not contend.
    #: This models the paper's motivation for the penalty l: direct
    #: transmission "will aggravate the burden of the BS".
    bs_capacity_per_slot: int = 4

    def __post_init__(self) -> None:
        if self.capacity < 0:
            raise ValueError("capacity must be >= 0")
        if self.service_rate < 1:
            raise ValueError("service_rate must be >= 1")
        if self.bs_capacity_per_slot < 0:
            raise ValueError("bs_capacity_per_slot must be >= 0")


@dataclass(frozen=True)
class SimulationConfig:
    """Complete scenario description consumed by the simulation engine."""

    deployment: DeploymentConfig = field(default_factory=DeploymentConfig)
    radio: RadioConfig = field(default_factory=RadioConfig)
    qlearning: QLearningConfig = field(default_factory=QLearningConfig)
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    queue: QueueConfig = field(default_factory=QueueConfig)
    #: Total rounds R of the protocol (Table 2 runs R = 20).
    rounds: int = 20
    #: Data-fusion compression ratio at cluster heads (Table 2: 50 %).
    compression_ratio: float = 0.5
    #: Fusion model: "ratio" (Table 2's proportional compression),
    #: "perfect" (Heinzelman's assumption — any number of member
    #: packets fuses into ONE fixed-size uplink frame), or "none"
    #: (pure relaying, one uplink frame per member packet).
    aggregation: str = "ratio"
    #: Cluster count.  ``None`` derives k from Theorem 1; the paper pins
    #: k_opt ~= 5 for the 100-node cube.
    n_clusters: int | None = None
    #: Link-layer ARQ: how many times an unacknowledged *channel*
    #: failure is retransmitted (an explicit buffer-full rejection is
    #: not retried).  Applies identically to every protocol.
    max_retries: int = 2
    #: TTL for hop-by-hop (store-and-forward) routing: packets that
    #: accumulate this many radio hops expire.  Irrelevant to
    #: cluster-based protocols (their paths are 2-3 hops).
    max_hops: int = 12
    #: Optional node mobility (extension; §3.1 motivates rounds by
    #: mobility but the paper's evaluation is static).
    mobility: "MobilityConfig | None" = None
    #: Optional energy harvesting (extension; cf. the HyDRO citation).
    harvesting: "HarvestingConfig | None" = None
    #: Optional fault-injection plan (:class:`repro.faults.FaultPlan`).
    #: ``None`` — the default — is the bit-identical golden-trace path
    #: (the engine holds the inert NULL injector).  A plan, even an
    #: empty one, arms the degradation machinery (dead-head masking,
    #: bounded retry-with-backoff) and is part of run identity: the
    #: plan hashes into the config fingerprint and sharding cell IDs.
    faults: "FaultPlan | None" = None
    #: EWMA weight of the ACK-ratio link estimator (paper §4.2 / [2]).
    estimator_alpha: float = 0.08
    #: When True a target's ACK outcomes update every sender's estimate
    #: (its service ratio is effectively broadcast); False keeps the
    #: classical private per-pair estimate.
    estimator_shared: bool = True
    #: Kernel backend selector (:data:`BACKEND_CHOICES`); both resolve
    #: to the numpy reference.  The selector as written enters the
    #: config fingerprint, so ``"auto"`` stays the default: changing it
    #: would move every fingerprint and sweep cell ID.
    backend: str = "auto"
    #: Numeric contract (see :data:`EQUIVALENCE_CHOICES`); only
    #: ``bitwise``.  Kept because the benchmark harness sets it, and
    #: because it enters the fingerprint: dropping it would change every
    #: config fingerprint and sweep cell ID.
    equivalence: str = "bitwise"
    #: Memory budget (MiB) for the dense ``(senders, actions)`` distance
    #: blocks of the batched relay-scoring path.  ``None`` computes each
    #: block in one shot; a budget streams the block in row chunks
    #: sized to fit (bit-identical per row — the reduction is per
    #: element — so results are unaffected).  Large deployments
    #: (N >= 1e5) should set this to keep peak memory O(budget) instead
    #: of O(senders x actions).
    max_block_mb: float | None = None
    #: Multi-hop routing substrate for the CH uplink
    #: (:mod:`repro.routing`).  The default ``direct`` kind keeps the
    #: substrate inert — the NULL-substrate pattern shared with faults
    #: and telemetry — so golden traces stay bit-identical.  Like the
    #: backend, routing is part of run identity:
    #: it fingerprints and hashes into sharding cell IDs.
    routing: RoutingConfig = field(default_factory=RoutingConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not 0.0 < self.compression_ratio <= 1.0:
            raise ValueError("compression_ratio must lie in (0, 1]")
        if self.n_clusters is not None and self.n_clusters < 1:
            raise ValueError("n_clusters must be >= 1 when given")
        if self.aggregation not in ("ratio", "perfect", "none"):
            raise ValueError("aggregation must be 'ratio', 'perfect', or 'none'")
        if not 0.0 < self.estimator_alpha <= 1.0:
            raise ValueError("estimator_alpha must lie in (0, 1]")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.max_hops < 1:
            raise ValueError("max_hops must be >= 1")
        if self.backend not in BACKEND_CHOICES:
            raise ValueError(
                f"backend must be one of {BACKEND_CHOICES}, "
                f"got {self.backend!r}"
            )
        if self.equivalence not in EQUIVALENCE_CHOICES:
            raise ValueError(
                f"equivalence must be one of {EQUIVALENCE_CHOICES}, "
                f"got {self.equivalence!r}"
            )
        if self.max_block_mb is not None and self.max_block_mb <= 0.0:
            raise ValueError("max_block_mb must be positive when given")
        if not isinstance(self.routing, RoutingConfig):
            raise ValueError("routing must be a RoutingConfig instance")

    def replace(self, **changes) -> "SimulationConfig":
        """Return a copy with ``changes`` applied (nested keys allowed
        via the sub-config dataclasses)."""
        return dataclasses.replace(self, **changes)


def apply_overrides(config, overrides: Mapping):
    """Deep-merge a nested override mapping into a config dataclass.

    Keys name fields; a mapping aimed at a sub-config merges into it
    recursively, so an override names only what it changes and
    inherits everything else (``{"queue": {"capacity": 32}}`` keeps the
    other queue knobs).  JSON lists become tuples.  Unknown keys raise,
    as does a mapping aimed at a field that holds no sub-config — a
    typo silently ignored would run the default scenario.
    """
    names = {f.name for f in dataclasses.fields(config)}
    changes = {}
    for key, value in overrides.items():
        if key not in names:
            raise ValueError(
                f"unknown {type(config).__name__} key {key!r}; "
                f"expected one of {sorted(names)}"
            )
        current = getattr(config, key)
        if isinstance(value, Mapping):
            if not dataclasses.is_dataclass(current):
                raise ValueError(
                    f"{type(config).__name__}.{key} holds no sub-config "
                    "to merge a mapping into"
                )
            value = apply_overrides(current, value)
        elif isinstance(value, list):
            value = tuple(value)
        changes[key] = value
    return dataclasses.replace(config, **changes)


def paper_config(
    mean_interarrival: float = 4.0,
    seed: int = 0,
    rounds: int = 20,
    initial_energy: float = 0.25,
    death_line: float = 0.0,
) -> SimulationConfig:
    """Scenario of Table 2 / §5.1: 100 nodes, 200^3 cube, k = 5.

    Parameters
    ----------
    mean_interarrival:
        The paper sweeps four congestion levels by varying lambda; pass
        the desired value here.
    seed:
        Seed for the deployment and every stochastic component.
    rounds:
        Successive rounds R (Table 2 uses 20).
    initial_energy:
        Per-node battery in joules.  The default 0.25 J is *calibrated*
        so the network's designed lifetime is on the order of R = 20
        rounds — the regime Eqs. (2) and (4) assume and the only one in
        which energy-aware head selection can matter within the run
        (see EXPERIMENTS.md, substitution notes).  Pass 5.0 for
        Table 2's literal value, under which every node is effectively
        immortal for 20 rounds with standard radio constants.
    death_line:
        Residual energy below which a node counts dead (§5.1's "energy
        death line").
    """
    return SimulationConfig(
        deployment=DeploymentConfig(
            n_nodes=100,
            side=200.0,
            initial_energy=initial_energy,
            death_line=death_line,
        ),
        radio=RadioConfig(),
        qlearning=QLearningConfig(),
        traffic=TrafficConfig(mean_interarrival=mean_interarrival),
        queue=QueueConfig(),
        rounds=rounds,
        compression_ratio=0.5,
        n_clusters=5,
        seed=seed,
    )


#: Alias used across examples/benchmarks for discoverability.
PaperConfig = paper_config
