"""Lossy wireless channel with ACK-based link-quality estimation.

The paper's §4.2: "Poor communication environment or limited storage
caches of cluster heads may lead to packet loss so P = 1 does not
always hold.  Similar to the mechanism adopted by TCP/IP protocol, an
ACK message will be delivered ... Hence, the link probability can be
estimated by the ratio between the successfully transmitted packets and
all the packets sent recently" (the QELAR/HyDRO estimator, ref. [2]).

We model the *physical* delivery probability of a link as a smooth,
distance-dependent curve — near-certain delivery well inside the
free-space regime, decaying beyond the crossover distance d0 — and give
every node an exponentially-weighted success-ratio estimator fed by
ACKs.  The estimator (not the ground truth) is what QLEC's Q backup
uses, exactly as in the paper.
"""

from __future__ import annotations

import numpy as np

from ..energy.radio import FirstOrderRadio
from ..kernels import KernelBackend, default_backend

__all__ = ["delivery_probability", "Channel", "LinkEstimator"]


def delivery_probability(
    distance: np.ndarray | float,
    d0: float,
    floor: float = 0.05,
    sharpness: float = 2.0,
) -> np.ndarray | float:
    """Probability a single transmission over ``distance`` succeeds.

    A logistic-of-log-distance model: ~1 for d << d0, 0.5 at ``2 * d0``
    and approaching ``floor`` for very long links.  The exact curve is
    a modelling choice (the paper does not publish one); what matters
    for reproducing Fig. 3 is monotone decay with distance plus a
    non-zero far-field floor, which this provides.

    Parameters
    ----------
    distance:
        Link length(s), meters.
    d0:
        Free-space/multi-path crossover of the radio; the knee of the
        reliability curve is placed at ``2 * d0``.
    floor:
        Asymptotic far-field success probability.
    sharpness:
        Steepness of the logistic transition.
    """
    if d0 <= 0.0:
        raise ValueError("d0 must be positive")
    if not 0.0 <= floor < 1.0:
        raise ValueError("floor must lie in [0, 1)")
    d = np.asarray(distance, dtype=np.float64)
    if (d < 0.0).any():
        raise ValueError("distance must be non-negative")
    knee = 2.0 * d0
    # log only where d / knee > 0, so no divide-by-zero warning; d = 0
    # (or a d that underflows) keeps x = -inf, and exp(-inf) -> 0 gives
    # p = 1 there, as desired.
    dk = d / knee
    x = np.log(dk, out=np.full(dk.shape, -np.inf), where=dk > 0.0)
    p = floor + (1.0 - floor) / (1.0 + np.exp(sharpness * x * 4.0))
    if np.isscalar(distance) or getattr(distance, "ndim", 1) == 0:
        return float(p)
    return p


class LinkEstimator:
    """EWMA success-ratio estimator, one value per (node, target) pair.

    Mirrors the paper's ACK-ratio estimate: after each attempt the
    estimate moves toward 1 (ACK received) or 0 (timeout) with weight
    ``alpha``.  Unobserved links optimistically start at
    ``initial`` so fresh cluster heads are explored.
    """

    def __init__(
        self,
        n_nodes: int,
        n_targets: int,
        alpha: float = 0.2,
        initial: float = 1.0,
        shared: bool = False,
        kernels: KernelBackend | None = None,
    ) -> None:
        if n_nodes < 1 or n_targets < 1:
            raise ValueError("n_nodes and n_targets must be >= 1")
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if not 0.0 <= initial <= 1.0:
            raise ValueError("initial must lie in [0, 1]")
        self.alpha = alpha
        self.kernels = kernels if kernels is not None else default_backend()
        #: Cached decay powers ``(1-a)^k`` for the batched fold, grown
        #: on demand; built with numpy's ``power`` on integer exponents
        #: so ``_pow_table[k] == (1-a)**k`` bitwise (the table is what
        #: compiled backends read instead of calling ``pow``).
        self._pow_table = np.power(1.0 - alpha, np.arange(1))
        #: When True, an ACK outcome updates every sender's estimate of
        #: that target (the target's service ratio is effectively
        #: broadcast, e.g. piggybacked on its HELLO/ACK traffic).  This
        #: makes congestion at a head visible to all members at once;
        #: per-pair mode keeps the classical private estimate.
        self.shared = shared
        self._n_nodes = n_nodes
        if shared:
            # Every node sees the same estimate of each target, so the
            # (n_nodes, n_targets) matrix is rank-1: store one row and
            # broadcast reads.  O(1) per column update instead of O(N).
            self._shared_row = np.full(n_targets, initial, dtype=np.float64)
            self._est = np.empty((0, n_targets), dtype=np.float64)
        else:
            self._est = np.full((n_nodes, n_targets), initial, dtype=np.float64)

    @property
    def estimates(self) -> np.ndarray:
        """Read-only ``(n_nodes, n_targets)`` view of the estimates
        (a broadcast view of the single stored row in shared mode)."""
        if self.shared:
            return np.broadcast_to(
                self._shared_row, (self._n_nodes, self._shared_row.size)
            )
        v = self._est.view()
        v.flags.writeable = False
        return v

    def block(self, nodes: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Range-checked ``(len(nodes), len(targets))`` estimate block.

        In shared mode it is a read-only stride-0 view of one gathered
        row (checked once, on that row); per-pair mode gathers it.
        """
        if self.shared:
            p = self._shared_row[targets]
        else:
            p = self._est[np.ix_(nodes, targets)]
        if np.any((p < 0.0) | (p > 1.0)):
            raise ValueError("success probabilities must lie in [0, 1]")
        if self.shared:
            p = np.broadcast_to(p, (len(nodes), p.size))
        return p

    def get(self, node: int, target: int) -> float:
        if self.shared:
            return float(self._shared_row[target])
        return float(self._est[node, target])

    def row(self, node: int) -> np.ndarray:
        """Estimates from ``node`` to every target (read-only)."""
        v = (self._shared_row if self.shared else self._est[node]).view()
        v.flags.writeable = False
        return v

    def update(self, node: int, target: int, success: bool) -> None:
        self.update_link(node, target, (success,))

    def update_link(self, node: int, target: int, outcomes) -> None:
        """Sequential EWMA steps over one link's ACK outcomes, in order.

        ``est += a * (obs - est)`` once per outcome, as a float loop over
        the one cell; :meth:`update` is its one-outcome case.  This is
        the sequential twin of :meth:`update_batch`'s closed-form fold,
        which can differ from it by ulps on repeated pairs.
        """
        row = self._shared_row if self.shared else self._est[node]
        a = self.alpha
        est = float(row[target])
        for ok in outcomes:
            est += a * ((1.0 if ok else 0.0) - est)
        row[target] = est

    def update_batch(
        self, nodes: np.ndarray, targets: np.ndarray, successes: np.ndarray
    ) -> None:
        """Apply a batch of ACK outcomes in a single vectorized pass.

        In per-pair mode, unique ``(node, target)`` pairs (each sender
        transmits at most once per slot) are independent scatter
        writes; repeated pairs (the fusion uplink's frame bursts) fold
        into the closed form of m sequential EWMA steps,

            est' = (1-a)^m est + a * sum_j (1-a)^(m-1-j) obs_j,

        applied in the order given.  Shared mode folds the same way
        per target *column* (the engine's canonical sorted sender
        order).  The fold itself runs on the configured kernel backend
        (``self.kernels``); all backends are bit-identical to the numpy
        reference (:class:`repro.kernels.NumpyBackend` holds the
        defining implementation).
        """
        nodes = np.asarray(nodes, dtype=np.intp)
        targets = np.asarray(targets, dtype=np.intp)
        obs = np.asarray(successes, dtype=np.float64)
        if nodes.size == 0:
            return
        table = self._decay_table(nodes.size + 1)
        if not self.shared:
            self.kernels.ewma_fold_pairs(
                self._est, nodes, targets, obs, self.alpha, table
            )
            return
        self.kernels.ewma_fold_shared(
            self._shared_row, targets, obs, self.alpha, table
        )

    def _decay_table(self, size: int) -> np.ndarray:
        """Decay powers ``(1-a)^k`` for ``k < size`` (cached, grown
        monotonically).  Entry k is bitwise equal to ``(1.0-a) ** k``
        because it is produced by the same ufunc on the same integer
        exponent."""
        if self._pow_table.size < size:
            self._pow_table = np.power(1.0 - self.alpha, np.arange(size))
        return self._pow_table


class Channel:
    """Ground-truth lossy channel: draws Bernoulli delivery outcomes.

    Also prices the energy of each attempt: the sender always pays the
    transmit energy (the radio does not know the packet will be lost);
    the receiver pays receive energy only on success.
    """

    def __init__(
        self,
        radio: FirstOrderRadio,
        rng: np.random.Generator,
        floor: float = 0.05,
        sharpness: float = 2.0,
        blackout: bool = False,
        kernels: KernelBackend | None = None,
    ) -> None:
        self.radio = radio
        self.rng = rng
        self.floor = floor
        self.sharpness = sharpness
        self.kernels = kernels if kernels is not None else default_backend()
        #: Failure-injection switch: when True every transmission fails
        #: (driven by ``repro.faults`` blackout windows; never enabled
        #: in the paper's experiments).
        self.blackout = blackout
        #: Global delivery-probability multiplier (fault "degrade"
        #: windows).  1.0 — the permanent no-fault value — leaves the
        #: probability computation byte-identical to the unfaulted
        #: code path.
        self.degrade = 1.0
        #: Optional per-node delivery multiplier of shape
        #: ``(n_nodes + 1,)`` (fault "link_degrade": a failing radio
        #: taxes every link incident to the node; the BS entry stays
        #: 1.0).  None — the no-fault value — skips the lookup
        #: entirely.
        self.node_factor = None
        # Telemetry counters (None until bind_telemetry): attempts and
        # ACKs feed the link-level loss-rate view.  Checked once per
        # *batch*, not per packet, so the disabled cost is one branch.
        self._tel_attempts = None
        self._tel_acks = None

    def bind_telemetry(self, telemetry) -> None:
        """Route attempt/ACK counts into a telemetry registry
        (``channel/attempts``, ``channel/acks``)."""
        self._tel_attempts = telemetry.registry.counter("channel/attempts")
        self._tel_acks = telemetry.registry.counter("channel/acks")

    def success_probability(self, distance):
        """Vectorized ground-truth delivery probability."""
        return delivery_probability(
            distance, self.radio.d0, self.floor, self.sharpness
        )

    def attempt(
        self, distance: float, sender: int | None = None,
        target: int | None = None,
    ) -> bool:
        """Simulate one transmission over ``distance``; True on ACK.

        ``sender``/``target`` only matter under per-node degradation
        (``node_factor``); omitting them means neither endpoint's radio
        is faulted.  The one-frame case of :meth:`attempt_link`.
        """
        return bool(self.attempt_link(distance, 1, sender, target)[0])

    def attempt_link(
        self, distance: float, m: int, sender: int | None = None,
        target: int | None = None,
    ) -> np.ndarray:
        """``m`` transmissions over one link; a bool ACK per frame.

        The delivery probability (with the same degrade and per-node
        factor products) is computed once and compared against
        ``rng.random(m)`` — the same doubles as ``m`` scalar
        :meth:`attempt` calls.  Blackout fails every frame and draws
        nothing.
        """
        if self.blackout:
            out = np.zeros(m, dtype=bool)
        else:
            p = self._probability(distance, sender, target)
            out = self.rng.random(m) < p
        self._count(out)
        return out

    def attempt_batch(
        self, distances: np.ndarray, senders: np.ndarray | None = None,
        targets: np.ndarray | None = None,
    ) -> np.ndarray:
        """Vectorized Bernoulli trials for a batch of links.

        Consumes exactly ``distances.size`` uniforms in element order,
        so a batched attempt and the equivalent sequence of scalar
        :meth:`attempt` calls read the same generator stream.  The
        uniforms are always drawn here (stream determinism is never a
        backend concern); the backend supplies only the compare.
        Degradation (global or per endpoint via ``senders``/``targets``)
        scales the probabilities, never the draw count — faulted and
        unfaulted runs consume the channel stream identically.
        """
        distances = np.asarray(distances, dtype=np.float64)
        if self.blackout:
            out = np.zeros(distances.shape, dtype=bool)
        else:
            out = self.kernels.bernoulli(
                self._probability(distances, senders, targets),
                self.rng.random(distances.shape),
            )
        self._count(out)
        return out

    def _probability(self, distance, senders=None, targets=None):
        """Delivery probability under the current fault state: the
        ground-truth curve times the global ``degrade`` and then each
        given endpoint's ``node_factor`` (scalars or arrays alike)."""
        p = self.success_probability(distance)
        if self.degrade != 1.0:
            p = p * self.degrade
        nf = self.node_factor
        if nf is not None:
            if senders is not None:
                p = p * nf[senders]
            if targets is not None:
                p = p * nf[targets]
        return p

    def _count(self, acks: np.ndarray) -> None:
        if self._tel_attempts is not None:
            self._tel_attempts.add(acks.size)
            self._tel_acks.add(int(acks.sum()))
