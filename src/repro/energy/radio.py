"""First-order radio energy model (Heinzelman et al., 2002).

The paper adopts this model twice: Eq. (6) expresses the total energy a
round dissipates, and Eq. (18) gives the per-packet transmit cost

    y(b_i, h_j) = L * eps_fs * d^2   if d <  d0
                  L * eps_mp * d^4   if d >= d0

with the crossover distance ``d0 = sqrt(eps_fs / eps_mp)``.  On top of
the amplifier term every transmitted or received bit pays the circuit
energy ``E_elec`` and aggregation at a cluster head pays ``E_DA`` per
bit.

All functions are vectorized over distances so a node can evaluate the
cost to every candidate cluster head in one call (this is the hot path
of the Q backup in Algorithm 4).
"""

from __future__ import annotations

import numpy as np

from ..config import RadioConfig

__all__ = [
    "FirstOrderRadio",
    "amplifier_energy",
    "transmit_energy",
    "receive_energy",
    "aggregate_energy",
]


def amplifier_energy(
    bits: float, distance: np.ndarray | float, radio: RadioConfig
) -> np.ndarray | float:
    """Amplifier-only energy for sending ``bits`` over ``distance``.

    Implements Eq. (18) exactly: free-space (d^2) attenuation below the
    crossover distance ``d0`` and multi-path (d^4) at or above it.
    Accepts a scalar or an array of distances.
    """
    d = np.asarray(distance, dtype=np.float64)
    if (d < 0.0).any():
        raise ValueError("distance must be non-negative")
    amp = np.asarray(radio.eps_fs * d * d)
    # ``d ** 4`` is a full pow, and most links are shorter than d0:
    # raise only the multi-path ones (d >= d0, and NaN) to it.
    far = ~(d < radio.d0)
    if far.any():
        amp[far] = radio.eps_mp * d[far] ** 4
    out = bits * amp
    if np.isscalar(distance) or getattr(distance, "ndim", 1) == 0:
        return float(out)
    return out


def transmit_energy(
    bits: float, distance: np.ndarray | float, radio: RadioConfig
) -> np.ndarray | float:
    """Total transmit cost: circuit energy plus amplifier energy.

    ``E_tx(L, d) = L*E_elec + L*eps*d^n``
    """
    amp = amplifier_energy(bits, distance, radio)
    return bits * radio.e_elec + amp


def receive_energy(bits: float, radio: RadioConfig) -> float:
    """Receive cost ``E_rx(L) = L * E_elec`` (distance independent)."""
    if bits < 0:
        raise ValueError("bits must be non-negative")
    return bits * radio.e_elec


def aggregate_energy(bits: float, radio: RadioConfig) -> float:
    """Data-fusion cost ``E_DA`` per bit aggregated at a cluster head."""
    if bits < 0:
        raise ValueError("bits must be non-negative")
    return bits * radio.e_da


class FirstOrderRadio:
    """Convenience object bundling the radio constants with the model.

    A single instance is shared by the channel, the protocols, and the
    reward function, so every subsystem prices energy identically.

    Examples
    --------
    >>> radio = FirstOrderRadio(RadioConfig())
    >>> cost = radio.tx(4000, 50.0)
    >>> cost > radio.rx(4000)
    True
    """

    def __init__(self, config: RadioConfig | None = None) -> None:
        self.config = config if config is not None else RadioConfig()

    @property
    def d0(self) -> float:
        """Free-space / multi-path crossover distance."""
        return self.config.d0

    def amp(self, bits: float, distance):
        """Amplifier energy only (the ``y(b_i, h_j)`` of Eq. (18))."""
        return amplifier_energy(bits, distance, self.config)

    def tx(self, bits: float, distance):
        """Full transmit energy including circuit cost."""
        return transmit_energy(bits, distance, self.config)

    def rx(self, bits: float) -> float:
        """Receive energy."""
        return receive_energy(bits, self.config)

    def da(self, bits: float) -> float:
        """Aggregation energy."""
        return aggregate_energy(bits, self.config)

    def round_energy(
        self,
        bits: float,
        n_nodes: int,
        k: int,
        d_to_bs: float,
        d_to_ch_sq: float,
    ) -> float:
        """Total network energy per round, Eq. (6).

        ``E_r = L (2 N E_elec + N E_DA + k eps_mp d_toBS^4
        + N eps_fs d_toCH^2)``

        Parameters
        ----------
        bits:
            Payload bits L each non-CH node contributes per round.
        n_nodes:
            Total node count N.
        k:
            Cluster count.
        d_to_bs:
            Average CH -> BS distance.
        d_to_ch_sq:
            Average *squared* member -> CH distance (Lemma 1 supplies
            the closed form).
        """
        if k < 1 or n_nodes < 1:
            raise ValueError("n_nodes and k must be >= 1")
        c = self.config
        return bits * (
            2.0 * n_nodes * c.e_elec
            + n_nodes * c.e_da
            + k * c.eps_mp * d_to_bs ** 4
            + n_nodes * c.eps_fs * d_to_ch_sq
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        c = self.config
        return (
            f"FirstOrderRadio(e_elec={c.e_elec:g}, e_da={c.e_da:g}, "
            f"eps_fs={c.eps_fs:g}, eps_mp={c.eps_mp:g}, d0={self.d0:.2f})"
        )
