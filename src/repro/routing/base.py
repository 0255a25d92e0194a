"""Routing substrate contract and the inert direct default.

The engine always holds exactly one :class:`RoutingProtocol`.  The
default is the module-level :data:`DIRECT_ROUTER` singleton — inert
(``active = False``), never billed, never consulted — so the
``routing=direct`` path is bit-identical to the pre-substrate engine
(the NULL-substrate pattern shared with telemetry, tracing, and fault
injection).  Active substrates (:class:`~repro.routing.tree.
ClusterTreeRouting`, :class:`~repro.routing.qspt.QSPTRouting`) run an
energy-charged neighbor-discovery phase each round and answer the
engine's uplink-path queries over the cluster-head overlay.

Active routers share the parent-walk machinery of
:class:`TreeRouting`: a per-round parent map (built by the subclass),
a bounded walk from a head toward the base station, **mesh repair**
when a parent is dead or its link has collapsed (forward across any
live overlay neighbor that still makes progress), and a direct-BS
long-shot **fallback** when no route remains.  Repairs and fallbacks
are counted and surface as ``routing/*`` telemetry.
"""

from __future__ import annotations

import numpy as np

from ..config import RoutingConfig
from ..simulation.state import NetworkState
from .neighbors import NeighborTable, discover

__all__ = [
    "RoutingProtocol",
    "DirectRouting",
    "DIRECT_ROUTER",
    "TreeRouting",
    "build_router",
]

#: Link-estimator reading below which a tree parent counts as broken
#: (a degraded window pushes ACK ratios toward the channel floor; the
#: shared rank-1 estimator makes that visible to every sender within a
#: round of member traffic).
DEGRADE_THRESHOLD = 0.35


class RoutingProtocol:
    """What the engine asks of a routing substrate.

    Contract mirrors the other engine substrates: the engine guards
    every call site with ``router.active``, so an inert router costs
    nothing and touches no RNG stream.
    """

    #: Registry name; also the CLI spelling.
    name: str = "abstract"
    #: Inert routers are never consulted (bit-identical default path).
    active: bool = True

    def prepare(self, state: NetworkState) -> None:
        """Called once before round 0."""

    def begin_round(self, state: NetworkState, heads: np.ndarray) -> None:
        """Per-round topology phase: neighbor discovery (billed to the
        energy ledger) and route construction over the CH overlay."""

    def uplink_path(
        self, state: NetworkState, head: int, heads: np.ndarray
    ) -> list[int]:
        """Intermediate CH hops between ``head`` and the BS (both
        excluded), nearest-to-BS last.  Empty means a direct uplink."""
        return []

    def counters(self) -> dict[str, int]:
        """Cumulative substrate counters (``repairs``, ``fallbacks``,
        ``broadcasts``); the engine diffs successive snapshots for the
        per-round telemetry rollup."""
        return {"repairs": 0, "fallbacks": 0, "broadcasts": 0}

    def summary(self) -> dict:
        """Result-extras payload describing the substrate's run."""
        return {"kind": self.name, **self.counters()}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class DirectRouting(RoutingProtocol):
    """Today's CH->BS single hop: the engine keeps each clustering
    protocol's own ``uplink_path`` (direct for QLEC/k-means, hierarchy
    hops for FCM) and the substrate stays inert."""

    name = "direct"
    active = False


#: Shared inert singleton (stateless, so one instance serves all runs).
DIRECT_ROUTER = DirectRouting()


class TreeRouting(RoutingProtocol):
    """Base for parent-map substrates (cluster tree, Q-learned SPT).

    Subclasses implement :meth:`_build`, filling ``self._parent``
    (head -> next hop, ``state.bs_index`` at the root) and
    ``self._cost`` (head -> monotone distance-to-BS potential used by
    mesh repair to certify progress) from the discovered
    :class:`~repro.routing.neighbors.NeighborTable`.
    """

    def __init__(self, config: RoutingConfig) -> None:
        self.config = config
        self.table: NeighborTable | None = None
        self._parent: dict[int, int] = {}
        self._cost: dict[int, float] = {}
        self._repairs = 0
        self._fallbacks = 0
        self._broadcasts = 0

    # -- subclass hook --------------------------------------------------
    def _build(self, state: NetworkState) -> None:
        raise NotImplementedError

    # -- substrate contract ---------------------------------------------
    def begin_round(self, state: NetworkState, heads: np.ndarray) -> None:
        self.table = discover(
            state, heads, self.config.range_factor, self.config.hello_bits
        )
        self._broadcasts += self.table.broadcasts
        self._parent = {}
        self._cost = {}
        if self.table.heads.size:
            self._build(state)

    def _link_ok(self, state: NetworkState, src: int, dst: int) -> bool:
        """A next hop is usable when it is alive and its link estimate
        has not collapsed under a degradation window."""
        if not state.ledger.is_alive(dst):
            return False
        return state.link_estimator.get(src, dst) >= DEGRADE_THRESHOLD

    def _repair(
        self, state: NetworkState, current: int, visited: set[int]
    ) -> int | None:
        """Mesh repair: any live, un-walked overlay neighbor that still
        makes progress toward the BS, cheapest continuation first."""
        assert self.table is not None
        if not self.config.mesh:
            return None
        cost = self._cost.get(current)
        if cost is None:
            return None
        best: tuple[float, int] | None = None
        for nbr in self.table.neighbors.get(current, ()):  # ascending
            nbr = int(nbr)
            if nbr in visited or nbr not in self._cost:
                continue
            if self._cost[nbr] >= cost:
                continue  # no progress — a detour, not a repair
            if not self._link_ok(state, current, nbr):
                continue
            key = self._cost[nbr]
            if best is None or key < best[0]:
                best = (key, nbr)
        return best[1] if best is not None else None

    def uplink_path(
        self, state: NetworkState, head: int, heads: np.ndarray
    ) -> list[int]:
        if self.table is None or head not in self._parent:
            # Never discovered (elected after discovery) or partitioned
            # at build time: long-shot direct uplink.
            self._fallbacks += 1
            return []
        path: list[int] = []
        current = int(head)
        visited = {current}
        # Bounded by the overlay size; repairs cannot loop because
        # progress is certified against the monotone cost potential.
        for _ in range(self.table.heads.size + 1):
            nxt = self._parent.get(current)
            if nxt is None:
                self._fallbacks += 1
                break
            if nxt == state.bs_index:
                return path
            if nxt in visited or not self._link_ok(state, current, nxt):
                nxt = self._repair(state, current, visited)
                if nxt is None:
                    self._fallbacks += 1
                    break
                self._repairs += 1
            path.append(nxt)
            visited.add(nxt)
            current = nxt
        # Fallback: the walked prefix still shortens the final long
        # shot — keep it and let the last hop go direct.
        return path

    def counters(self) -> dict[str, int]:
        return {
            "repairs": self._repairs,
            "fallbacks": self._fallbacks,
            "broadcasts": self._broadcasts,
        }


def build_router(config: RoutingConfig) -> RoutingProtocol:
    """Resolve ``config.routing`` to a substrate instance.

    ``direct`` returns the shared inert singleton; active kinds get a
    fresh instance per run (they hold per-round tables)."""
    if config.kind == "direct":
        return DIRECT_ROUTER
    if config.kind == "tree":
        from .tree import ClusterTreeRouting

        return ClusterTreeRouting(config)
    if config.kind == "qspt":
        from .qspt import QSPTRouting

        return QSPTRouting(config)
    raise ValueError(f"unknown routing kind {config.kind!r}")
