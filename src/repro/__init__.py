"""repro — a full reproduction of QLEC (Li et al., ICPP 2019).

QLEC is a machine-learning-based energy-efficient clustering algorithm
for IoT wireless sensor networks in 3-D space: an improved DEEC
cluster-head selection phase plus a Q-learning data-transmission phase.
This package implements the algorithm, every substrate it runs on (3-D
deployments, first-order radio energy model, lossy channel, cluster-
head queues, Poisson traffic, a round-based simulator), the paper's
baselines (FCM-based hierarchical scheme, classic k-means, LEACH,
classic DEEC, direct transmission), and drivers regenerating every
figure of the paper's evaluation.

Quickstart
----------
>>> from repro import paper_config, QLECProtocol, run_simulation
>>> result = run_simulation(paper_config(seed=1), QLECProtocol())
>>> 0.0 <= result.delivery_rate <= 1.0
True

See ``examples/`` for runnable scenarios and ``benchmarks/`` for the
figure regenerations.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

# Names resolve on first access, so ``import repro`` loads no numpy.
__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".baselines": (
        "ClusteringProtocol",
        "DEECProtocol",
        "DirectProtocol",
        "FCMProtocol",
        "KMeansProtocol",
        "LEACHProtocol",
        "fuzzy_c_means",
        "kmeans",
    ),
    ".config": (
        "DeploymentConfig",
        "PaperConfig",
        "QLearningConfig",
        "QueueConfig",
        "RadioConfig",
        "SimulationConfig",
        "TrafficConfig",
        "paper_config",
    ),
    ".core": (
        "ImprovedDEECSelector",
        "QLECProtocol",
        "QRouter",
        "RewardModel",
        "SelectionConfig",
        "cluster_radius",
        "optimal_cluster_count",
        "optimal_cluster_count_int",
    ),
    ".energy": ("EnergyLedger", "FirstOrderRadio"),
    ".network": (
        "BaseStation",
        "Channel",
        "NodeArray",
        "Topology",
        "mountain_terrain",
        "underwater_column",
        "uniform_cube",
    ),
    ".simulation": (
        "NetworkState",
        "SimulationEngine",
        "SimulationResult",
        "run_simulation",
    ),
})
