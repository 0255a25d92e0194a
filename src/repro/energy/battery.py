"""Vectorized battery ledger for a sensor-node population.

The simulator accounts every joule a node spends: transmit, receive,
aggregate.  Energies live in one contiguous float64 array so discharge
operations across the whole population are single vectorized calls (per
the HPC guides: in-place ops, no per-node Python objects on the hot
path).

Death semantics follow the paper (§5.1): "the network dies when there
exists one sensor possessing less energy than a given energy death
line."  A node at or below the death line is *dead*: it neither
generates traffic nor serves as a cluster head, and its residual energy
is frozen.
"""

from __future__ import annotations

import numpy as np

from ..kernels import KernelBackend, get_backend

__all__ = ["EnergyLedger"]

#: The ledger attribute that accumulates each consumption category.
_SPENT = {"tx": "spent_tx", "rx": "spent_rx", "da": "spent_da"}


def _spent_attr(category: str) -> str:
    try:
        return _SPENT[category]
    except KeyError:
        raise ValueError(f"unknown energy category {category!r}") from None


def _as_index(idx) -> np.ndarray:
    """``idx`` as an index array: a scalar becomes one element and a
    boolean mask its true positions."""
    idx = np.asarray(idx)
    if idx.ndim == 0:
        idx = idx.reshape(1)
    if idx.dtype == bool:
        idx = np.flatnonzero(idx)
    return idx


class EnergyLedger:
    """Tracks residual energy, consumption, and liveness for N nodes.

    Parameters
    ----------
    initial:
        Per-node initial energies, shape ``(N,)``.  Heterogeneous
        initial energies (the DEEC setting and the large-scale dataset
        experiment) are supported directly.
    death_line:
        Residual energy at or below which a node counts as dead.
    kernels:
        Kernel backend for the batched discharge path (defaults to the
        numpy reference); every backend is bit-identical by contract.
    """

    def __init__(
        self,
        initial: np.ndarray,
        death_line: float = 0.0,
        kernels: KernelBackend | None = None,
    ) -> None:
        initial = np.asarray(initial, dtype=np.float64)
        if initial.ndim != 1 or initial.size == 0:
            raise ValueError("initial must be a non-empty 1-D array")
        if np.any(initial <= 0.0):
            raise ValueError("initial energies must be positive")
        if death_line < 0.0:
            raise ValueError("death_line must be >= 0")
        if np.any(initial <= death_line):
            raise ValueError("all initial energies must exceed the death line")
        # Never written, so a read-only array that owns its data (such
        # as NodeArray.initial_energy) is held as is: a snapshot of the
        # state then pickles the two as one.
        if initial.flags.writeable or not initial.flags.owndata:
            initial = initial.copy()
            initial.flags.writeable = False
        self._initial = initial
        self._residual = initial.copy()
        self._death_line = float(death_line)
        self._alive = np.ones(initial.size, dtype=bool)
        self.kernels = kernels if kernels is not None else get_backend("numpy")
        #: Cumulative spend per consumption category, for reporting.
        self.spent_tx = 0.0
        self.spent_rx = 0.0
        self.spent_da = 0.0
        #: Death events by cause ("battery" for death-line crossings,
        #: "crash"/"ch_kill"/"drain"/... for injected faults) and
        #: revival events.  Every alive->dead transition increments
        #: exactly one cause and every dead->alive transition increments
        #: ``revived_count``, so at any instant
        #: ``total_deaths - revived_count == n - n_alive`` — the
        #: liveness-conservation invariant fault runs validate.
        self._deaths_by_cause: dict[str, int] = {}
        self.revived_count = 0

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self._initial.size

    @property
    def death_line(self) -> float:
        return self._death_line

    @property
    def initial(self) -> np.ndarray:
        """Read-only view of the initial energies."""
        v = self._initial.view()
        v.flags.writeable = False
        return v

    @property
    def residual(self) -> np.ndarray:
        """Read-only view of the residual energies."""
        v = self._residual.view()
        v.flags.writeable = False
        return v

    @property
    def alive(self) -> np.ndarray:
        """Boolean liveness mask (read-only view)."""
        v = self._alive.view()
        v.flags.writeable = False
        return v

    @property
    def n_alive(self) -> int:
        return int(self._alive.sum())

    @property
    def any_dead(self) -> bool:
        """True once at least one node crossed the death line — the
        paper's network-death criterion."""
        return bool((~self._alive).any())

    @property
    def total_initial(self) -> float:
        return float(self._initial.sum())

    @property
    def total_residual(self) -> float:
        return float(self._residual.sum())

    @property
    def total_spent(self) -> float:
        """Gross radio energy spent (tx + rx + aggregation) — the
        metric Fig. 3(b) reports; unaffected by harvesting income."""
        return self.spent_tx + self.spent_rx + self.spent_da

    def category_breakdown(self) -> dict[str, float]:
        """Cumulative gross spend per radio category.

        The telemetry layer diffs successive snapshots of this dict to
        attribute each round's joules to transmit / receive /
        aggregation without the ledger keeping per-round state.
        """
        return {"tx": self.spent_tx, "rx": self.spent_rx, "da": self.spent_da}

    def deaths_by_cause(self) -> dict[str, int]:
        """Death events per cause (owned copy, sorted by cause)."""
        return dict(sorted(self._deaths_by_cause.items()))

    @property
    def total_deaths(self) -> int:
        """Total alive->dead transitions (revivals counted separately)."""
        return sum(self._deaths_by_cause.values())

    def consumption_ratio(self) -> np.ndarray:
        """Per-node consumed / initial energy ratio (Figure 4's metric)."""
        return (self._initial - self._residual) / self._initial

    def average_energy(self) -> float:
        """Mean residual energy over *all* nodes (dead nodes included,
        matching the paper's network-average estimate E(r))."""
        return float(self._residual.mean())

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def _record_deaths(self, cause: str, count: int) -> None:
        if count:
            self._deaths_by_cause[cause] = (
                self._deaths_by_cause.get(cause, 0) + int(count)
            )

    def _charge_category(self, category: str, amount: float) -> None:
        attr = _spent_attr(category)
        setattr(self, attr, getattr(self, attr) + amount)

    def discharge(self, idx, amount, category: str = "tx") -> None:
        """Subtract ``amount`` joules from nodes ``idx``.

        ``idx`` may be a scalar index, an index array, or a boolean
        mask; ``amount`` broadcasts against it.  Dead nodes are skipped
        (their residual is frozen at the value they died with).
        Residuals are floored at zero — a node can never bank negative
        energy.
        """
        idx = _as_index(idx)
        amount = np.broadcast_to(np.asarray(amount, dtype=np.float64), idx.shape)
        if (amount < 0.0).any():
            raise ValueError("discharge amount must be non-negative")
        live = self._alive[idx]
        idx = idx[live]
        amount = amount[live]
        if idx.size == 0:
            return
        before = self._residual[idx]
        after = np.maximum(before - amount, 0.0)
        self._charge_category(category, float((before - after).sum()))
        self._residual[idx] = after
        newly_dead = idx[after <= self._death_line]
        if newly_dead.size:
            self._alive[newly_dead] = False
            self._record_deaths("battery", newly_dead.size)

    def discharge_repeat(
        self, idx: int, amount: float, m: int, category: str = "tx"
    ) -> None:
        """``m`` back-to-back :meth:`discharge` calls of ``amount`` on
        the one node ``idx`` (a multi-hop uplink hop prices its frames
        this way).

        A plain float loop, bit-identical to the scalar calls: each
        charge floors at zero and adds to ``spent_<category>`` in order,
        and the node freezes at its first death-line crossing.
        """
        amount = float(amount)
        if amount < 0.0:
            raise ValueError("discharge amount must be non-negative")
        attr = _spent_attr(category)
        if m <= 0 or not self._alive[idx]:
            return
        spent = getattr(self, attr)
        residual = float(self._residual[idx])
        for _ in range(m):
            after = max(residual - amount, 0.0)
            spent += residual - after
            residual = after
            if residual <= self._death_line:
                self._alive[idx] = False
                self._record_deaths("battery", 1)
                break
        self._residual[idx] = residual
        setattr(self, attr, spent)

    def discharge_many(self, idx, amounts, category: str = "tx") -> None:
        """Batched :meth:`discharge` that tolerates duplicate indices.

        ``idx`` may repeat (e.g. one cluster head receiving from many
        members in a slot); duplicate charges are summed per node
        before applying, which is exact under the floor-at-zero
        semantics because all charges of one call share a category and
        land atomically.  A plain fancy-indexed subtraction would be
        last-write-wins and silently undercharge — hence this method.

        The fold/floor/death pass runs on the configured kernel backend
        (``self.kernels``); the per-category total is summed here with
        numpy so the pairwise reduction matches the reference exactly.
        """
        idx = _as_index(idx)
        amounts = np.asarray(amounts, dtype=np.float64)
        if (amounts < 0.0).any():
            raise ValueError("discharge amount must be non-negative")
        _spent_attr(category)  # an unknown category raises before any charge
        if amounts.shape != idx.shape:
            amounts = (
                np.broadcast_to(amounts, idx.shape)
                if amounts.ndim
                else np.full(idx.shape, amounts)
            )
        if idx.size == 0:
            return
        # The kernel flips liveness in place without reporting deaths;
        # an alive-count diff attributes them (cause "battery").
        alive_before = int(np.count_nonzero(self._alive))
        delta = self.kernels.grouped_discharge(
            self._residual, self._alive, idx, amounts, self._death_line
        )
        if delta.size:
            self._charge_category(category, float(delta.sum()))
        self._record_deaths(
            "battery", alive_before - int(np.count_nonzero(self._alive))
        )

    def recharge(self, amount, revive: bool = True) -> float:
        """Credit harvested energy, capped at each node's initial
        capacity (the battery cannot over-charge).

        Parameters
        ----------
        amount:
            Scalar or ``(N,)`` joules of income per node.
        revive:
            When True, nodes whose residual climbs back above the death
            line become alive again (harvesting-aware semantics); the
            historical first-death event is untouched — only current
            liveness changes.

        Returns
        -------
        float
            Joules actually banked after capacity clipping.
        """
        amount = np.broadcast_to(
            np.asarray(amount, dtype=np.float64), (self.n,)
        )
        if np.any(amount < 0.0):
            raise ValueError("recharge amount must be non-negative")
        before = self._residual.copy()
        np.minimum(self._residual + amount, self._initial, out=self._residual)
        banked = float((self._residual - before).sum())
        if revive:
            back = (~self._alive) & (self._residual > self._death_line)
            self.revived_count += int(back.sum())
            self._alive |= back
        return banked

    # ------------------------------------------------------------------
    # fault injection (repro.faults)
    # ------------------------------------------------------------------
    def force_kill(self, idx, cause: str = "crash") -> int:
        """Kill nodes outright (a non-battery fault: crash, CH kill).

        Residuals are untouched — the battery did not empty, the node
        failed — so energy accounting (gross spend, consumption ratio)
        is unaffected.  Already-dead nodes are skipped.  Returns how
        many nodes actually died, recorded under ``cause``.
        """
        idx = _as_index(idx)
        if idx.size == 0:
            return 0
        victims = idx[self._alive[idx]]
        if victims.size:
            self._alive[victims] = False
            self._record_deaths(cause, victims.size)
        return int(victims.size)

    def revive_nodes(self, idx) -> int:
        """Bring crashed nodes back (fault churn's flip side).

        Only dead nodes whose frozen residual still clears the death
        line revive — a battery-dead node stays dead, matching the
        paper's death-line semantics.  Returns how many revived.
        """
        idx = _as_index(idx)
        if idx.size == 0:
            return 0
        back = idx[
            (~self._alive[idx]) & (self._residual[idx] > self._death_line)
        ]
        if back.size:
            self._alive[back] = True
            self.revived_count += int(back.size)
        return int(back.size)

    def drain(self, idx, amounts, cause: str = "drain") -> int:
        """Battery anomaly: residual vanishes without radio work.

        Unlike :meth:`discharge` this books **no** tx/rx/da spend —
        the joules leaked, they were not transmitted — so the Fig.-3
        gross-energy metric and the per-round energy-sum invariant are
        unaffected while consumption ratios and liveness see the loss.
        Dead nodes are skipped; residuals floor at zero.  Returns how
        many nodes the drain pushed across the death line (recorded
        under ``cause``).
        """
        idx = _as_index(idx)
        amounts = np.broadcast_to(
            np.asarray(amounts, dtype=np.float64), idx.shape
        )
        if np.any(amounts < 0.0):
            raise ValueError("drain amount must be non-negative")
        live = self._alive[idx]
        idx = idx[live]
        amounts = amounts[live]
        if idx.size == 0:
            return 0
        self._residual[idx] = np.maximum(self._residual[idx] - amounts, 0.0)
        newly_dead = idx[self._residual[idx] <= self._death_line]
        if newly_dead.size:
            self._alive[newly_dead] = False
            self._record_deaths(cause, newly_dead.size)
        return int(newly_dead.size)

    def is_alive(self, i: int) -> bool:
        return bool(self._alive[i])

    def snapshot(self) -> np.ndarray:
        """Residual energies as an owned copy (safe to store)."""
        return self._residual.copy()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EnergyLedger(n={self.n}, alive={self.n_alive}, "
            f"residual={self.total_residual:.3f}J / {self.total_initial:.3f}J)"
        )
