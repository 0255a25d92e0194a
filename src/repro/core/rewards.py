"""QLEC reward model (paper Eqs. 16-20).

For a non-cluster-head node ``b_i`` considering action ``a_j``
(forward the packet to head ``h_j``):

* success reward (Eq. 17)::

      R^{a_j}_{b_i h_j} = -g + alpha1 [x(b_i) + x(h_j)] - alpha2 y(b_i, h_j)

* direct-to-BS variant (Eq. 19) subtracts the large penalty ``l``;
* failure reward (Eq. 20)::

      R^{a_j}_{b_i b_i} = -g + beta1 x(b_i) - beta2 y(b_i, h_j)

* expected one-step reward (Eq. 16)::

      R_t = P * R_success + (1 - P) * R_failure

``x(.)`` is the residual energy and ``y(.,.)`` the radio amplifier
energy of Eq. (18).  Residuals and costs are normalised (``energy_scale``,
``cost_scale``) so Table 2's alpha/beta weights act on O(1) quantities;
the normalisation is a fixed affine transform per run and therefore
does not change any argmax.
"""

from __future__ import annotations

import numpy as np

from ..config import QLearningConfig
from ..energy.radio import FirstOrderRadio

__all__ = ["RewardModel"]


class RewardModel:
    """Vectorized evaluator of Eqs. (16)-(20) over candidate targets.

    Parameters
    ----------
    qconfig:
        Reward weights / penalties (Table 2 values by default).
    radio:
        Radio pricing ``y(b_i, h_j)``.
    packet_bits:
        Payload size L used in the cost term.
    """

    def __init__(
        self,
        qconfig: QLearningConfig,
        radio: FirstOrderRadio,
        packet_bits: int,
        energy_scale: float | None = None,
    ) -> None:
        if packet_bits < 1:
            raise ValueError("packet_bits must be >= 1")
        self.cfg = qconfig
        self.radio = radio
        self.bits = packet_bits
        scale = qconfig.energy_scale if qconfig.energy_scale is not None else energy_scale
        self._energy_scale = scale if scale is not None else 1.0
        if self._energy_scale <= 0.0:
            raise ValueError("energy scale must be positive")
        # Default normalisation: the amplifier energy of one packet at
        # twice the crossover distance (the channel's reliability knee).
        # This keeps alpha2 * y(.) an O(1) modifier for realistic links,
        # the regime in which Table 2's weights balance the energy term
        # against the distance term instead of letting d^4 dominate
        # every routing decision.
        self._cost_ref = (
            qconfig.cost_scale
            if qconfig.cost_scale is not None
            else float(radio.amp(packet_bits, 1.5 * radio.d0))
        )
        if self._cost_ref <= 0.0:
            raise ValueError("cost scale must be positive")

    # ------------------------------------------------------------------
    def x(self, residual_energy):
        """Normalised residual energy ``x(.)``."""
        return np.asarray(residual_energy, dtype=np.float64) / self._energy_scale

    def y(self, distance, bits: float | None = None):
        """Normalised transmission cost ``y(b_i, h_j)`` (Eq. 18).

        ``bits`` defaults to the full payload L; cluster heads price
        their uplink at the *compressed* share of the aggregate (the
        "processed data" of Algorithm 1, line 14), which is their true
        marginal per-packet cost.
        """
        b = self.bits if bits is None else bits
        return np.asarray(
            self.radio.amp(b, distance), dtype=np.float64
        ) / self._cost_ref

    def max_distance(self, cost, bits: float | None = None):
        """Inverse of :meth:`y`: a distance beyond which every link
        costs more than ``cost``.

        Below the crossover ``d0`` the cost grows as d², from ``d0`` on
        as d⁴; the inverse takes the d⁴ root when it lands at or past
        ``d0`` and the d² root (capped at ``d0``) otherwise, so it holds
        whether or not the two branches meet exactly at ``d0``.
        ``y(max_distance(t)) >= t`` up to rounding.
        """
        b = self.bits if bits is None else bits
        radio = self.radio.config
        per_bit = np.maximum(np.asarray(cost, dtype=np.float64), 0.0) * (
            self._cost_ref / b
        )
        fs = np.sqrt(per_bit / radio.eps_fs)
        mp = np.sqrt(np.sqrt(per_bit / radio.eps_mp))
        return np.where(mp >= radio.d0, mp, np.minimum(fs, radio.d0))

    # ------------------------------------------------------------------
    def success_reward(
        self,
        e_src: float,
        e_dst,
        distance,
        is_bs=None,
        bits: float | None = None,
    ) -> np.ndarray:
        """Eq. (17) / Eq. (19), vectorized over candidate targets.

        Parameters
        ----------
        e_src:
            Residual energy of the sender.
        e_dst:
            Residual energies of the candidate targets (BS entries may
            carry any value — convention: the BS is not
            energy-constrained, so we pass its entry as 0).
        distance:
            Sender->target distances.
        is_bs:
            Optional boolean mask; True entries receive the extra
            ``-l`` penalty of Eq. (19).
        """
        c = self.cfg
        e_dst = np.asarray(e_dst, dtype=np.float64)
        r = (
            -c.g
            + c.alpha1 * (self.x(e_src) + self.x(e_dst))
            - c.alpha2 * self.y(distance, bits)
        )
        if is_bs is not None:
            r = r - np.where(np.asarray(is_bs, dtype=bool), c.bs_penalty, 0.0)
        return np.asarray(r, dtype=np.float64)

    def failure_reward(self, e_src: float, distance, bits: float | None = None) -> np.ndarray:
        """Eq. (20): reward when the transmission attempt fails."""
        c = self.cfg
        r = -c.g + c.beta1 * self.x(e_src) - c.beta2 * self.y(distance, bits)
        return np.asarray(r, dtype=np.float64)

    def expected_reward(
        self,
        p_success,
        e_src: float,
        e_dst,
        distance,
        is_bs=None,
        bits: float | None = None,
    ) -> np.ndarray:
        """Eq. (16): ``R_t = P R_succ + (1 - P) R_fail``."""
        p = np.asarray(p_success, dtype=np.float64)
        if np.any((p < 0.0) | (p > 1.0)):
            raise ValueError("success probabilities must lie in [0, 1]")
        r_s = self.success_reward(e_src, e_dst, distance, is_bs, bits)
        r_f = self.failure_reward(e_src, distance, bits)
        return p * r_s + (1.0 - p) * r_f

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        c = self.cfg
        return (
            f"RewardModel(g={c.g}, l={c.bs_penalty}, "
            f"alpha=({c.alpha1}, {c.alpha2}), beta=({c.beta1}, {c.beta2}))"
        )
