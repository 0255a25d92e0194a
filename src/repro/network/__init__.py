"""Network substrate: nodes, deployments, geometry, channel, queues."""

from .channel import Channel, LinkEstimator, delivery_probability
from .deployment import (
    deploy,
    from_positions,
    mountain_terrain,
    underwater_column,
    uniform_cube,
)
from .node import BaseStation, Node, NodeArray
from .packet import (
    LatencyReservoir,
    PacketArena,
    PacketCounts,
    PacketRecord,
    PacketStats,
    PacketStatus,
)
from .queueing import QueueBank, SourceBuffers
from .topology import Topology, distances_to_point, pairwise_distances

__all__ = [
    "BaseStation",
    "Channel",
    "LatencyReservoir",
    "LinkEstimator",
    "Node",
    "NodeArray",
    "PacketArena",
    "PacketCounts",
    "PacketRecord",
    "PacketStats",
    "PacketStatus",
    "QueueBank",
    "SourceBuffers",
    "Topology",
    "delivery_probability",
    "deploy",
    "distances_to_point",
    "from_positions",
    "mountain_terrain",
    "pairwise_distances",
    "underwater_column",
    "uniform_cube",
]
