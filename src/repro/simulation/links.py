"""Per-round link table: every node's links to the round's actions,
priced once.

Heads are elected once a round (Algorithm 1), and in every slot each
member then scores the same k+1 links, to the heads and to the BS
(Algorithm 4, Eq. 18).  Positions move only at round start, so each
link's length, transmit energy, ground-truth delivery probability and
any other function of its length alone are the same in all of the
round's slots.  :class:`RoundLinks` prices them once, right after the
election, over every node × (heads ∪ BS), and the slot path gathers
them instead of pricing them again in each slot.

Exactness: an entry is the elementwise op sequence the direct call runs
on the same pair (the distance is :func:`~repro.kernels.base.euclidean`
either way, and ``radio.tx``, the channel curve and ``rewards.y`` are
elementwise), so a gathered entry has the bits a computed one would.
``tests/simulation/test_round_links.py`` holds each entry and whole runs
with the table on and off bit-equal.

The table decides between gathering and computing, in :meth:`serves`
and :meth:`price`.  It computes, as the slot path did before it:

* for hop-by-hop protocols, whose relays are ordinary nodes;
* for a head set other than the round's (recovery masking dead heads
  out of the action set);
* when the float64 table would exceed :data:`TILE_BYTES` (256 KiB,
  the relay-choice tile budget), so large-N runs build nothing.

The engine builds a fresh table after each election and drops it at
round end; :class:`~repro.simulation.state.NetworkState` never pickles
it.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from ..kernels.base import TILE_BYTES

if TYPE_CHECKING:  # state imports this module
    from .state import NetworkState

__all__ = ["RoundLinks"]


class RoundLinks:
    """The links of one round, from every node to each of ``heads`` and
    then the BS (column ``k``).

    ``heads=None`` is the table outside a round: it serves nothing and
    every call computes.  Each priced quantity is derived on first use.
    """

    def __init__(
        self,
        state: "NetworkState",
        heads: np.ndarray | None = None,
        hop_by_hop: bool = False,
    ) -> None:
        self.state = state
        self.heads = heads
        m = 0 if heads is None else heads.size + 1
        #: Whether the table is built at all (see the module docstring).
        self.on = heads is not None and not hop_by_hop and (
            8 * state.n * m <= TILE_BYTES
        )
        self._derived: dict = {}

    def serves(self, heads: np.ndarray) -> bool:
        """Whether the table's columns are ``heads`` and then the BS."""
        return self.on and (heads is self.heads or np.array_equal(heads, self.heads))

    # -- the table -----------------------------------------------------
    @cached_property
    def distances(self) -> np.ndarray:
        """The ``(N, k+1)`` distance block."""
        st = self.state
        targets = np.append(self.heads, st.bs_index)
        return st.distances_matrix(np.arange(st.n), targets)

    def derived(self, fn) -> np.ndarray:
        """``fn(distances)``, computed on first use; ``fn`` must be the
        same (or an equal) callable each time, such as a bound method."""
        out = self._derived.get(fn)
        if out is None:
            out = self._derived[fn] = fn(self.distances)
        return out

    @cached_property
    def _column(self) -> np.ndarray:
        """Table column of every node index and the BS; -1 off the
        table."""
        col = np.full(self.state.n + 1, -1, dtype=np.intp)
        col[self.heads] = np.arange(self.heads.size)
        col[-1] = self.heads.size
        return col

    @cached_property
    def _tx(self) -> np.ndarray:
        bits = self.state.config.traffic.packet_bits
        return self.state.radio.tx(bits, self.distances).ravel()

    @cached_property
    def _curve(self) -> np.ndarray:
        return self.state.channel.success_probability(self.distances).ravel()

    @cached_property
    def _nearest(self) -> np.ndarray:
        return self.distances[:, :-1].argmin(axis=1)

    # -- what the slot path asks ---------------------------------------
    def price(
        self, senders: np.ndarray, targets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Transmit energy and ground-truth delivery probability of each
        link ``senders[i] -> targets[i]`` (one slot's transmissions).

        Gathered at ``sender·(k+1) + column(target)``; computed when the
        table is off or a target is not on it.
        """
        st = self.state
        if self.on and targets.size:
            col = self._column[targets]
            if col.min() >= 0:
                flat = senders * (self.heads.size + 1) + col
                return self._tx.take(flat), self._curve.take(flat)
        d = st.distances_many(senders, targets)
        bits = st.config.traffic.packet_bits
        return st.radio.tx(bits, d), st.channel.success_probability(d)

    def nearest_heads(self, senders: np.ndarray, heads: np.ndarray) -> np.ndarray:
        """The head nearest each sender, the first of a tie (argmin)."""
        if self.serves(heads):
            return heads[self._nearest[senders]]
        return heads[self.state.distances_matrix(senders, heads).argmin(axis=1)]
