"""Kernel backend contract for the batched slot pipeline.

A :class:`KernelBackend` implements the numeric inner loops of the
batched data path — the fixed op sequence PR 1 reduced each slot to
(``choose_relays → attempt_batch → discharge_many → update_batch``)
plus the Q-combine behind relay scoring.  The engine resolves one
backend per run and threads it through the substrates; protocols and
the engine itself never branch on the backend.

Bit-equivalence (load-bearing — read before adding a backend)
--------------------------------------------------------------
Every backend MUST be bit-identical to the numpy reference on every
method, for all inputs the substrates produce.  The golden traces and
the scalar/batched equivalence suite enforce this end-to-end; the
property suite in ``tests/kernels`` enforces it per kernel.

Three rules make that achievable at all:

1. **Exact ops only inside kernels.**  IEEE-754 ``+ - * /``, ``sqrt``,
   comparisons, min/max and integer ops are correctly rounded and give
   the same bits everywhere.  Transcendentals do not: numpy's
   vectorized ``pow``/``exp``/``log`` differ from libm (and hence from
   any jitted ``math.*`` call) in the last ulp.  Kernels therefore take
   transcendental quantities as *precomputed inputs* (the delivery
   probability's exp/log, the radio's ``d**4`` cost, the EWMA decay
   powers via ``pow_table``) — computed once by shared numpy code.
2. **Fixed summation order.**  Grouped sums accumulate sequentially in
   the order the reference accumulates them (``np.bincount`` adds in
   input order; a stable sort preserves within-group order).  Every
   Euclidean distance — scalar or batched, in the substrates or the
   kernels — is :func:`euclidean` (or :func:`euclidean_columns`, the
   same arithmetic on coordinate columns), which spells the sum of
   squares out as ``(dx*dx + dz*dz) + dy*dy``: an explicit order, not whatever a
   reducer dispatches to (it is the order numpy's ``einsum`` uses for a
   length-3 reduction, which the golden traces were recorded with, and
   ``tests/kernels/test_euclidean.py`` pins the two equal).  Reducers
   that reassociate (``ndarray.sum`` is pairwise) stay out of kernels.
3. **Strict IEEE, no FMA contraction.**  Compiled backends must keep
   strict IEEE semantics (numba's default); a fused multiply-add
   changes the rounding of ``a*b + c`` and breaks rule 1.

Mutating kernels (``grouped_discharge``, the EWMA folds) write through
the arrays they are handed; the substrates own those arrays and pass
their private buffers directly, which is what makes the backend a
drop-in for the existing in-place numpy code.
"""

from __future__ import annotations

import abc
from typing import ClassVar

import numpy as np

__all__ = [
    "BackendUnavailableError",
    "KernelBackend",
    "budget_rows",
    "euclidean",
    "euclidean_columns",
]


def budget_rows(m: int, max_block_mb: float) -> int:
    """Sender rows of an ``m``-column block whose distance temporaries
    (three coordinate planes plus the output, float64) fit
    ``max_block_mb`` MiB; at least 1."""
    return max(1, int(max_block_mb * 2**20) // (8 * m * 4))


def euclidean(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """``|dst - src|`` over the trailing coordinate axis of two
    broadcast-compatible ``(..., 3)`` position arrays (at least one
    leading axis).

    The one definition of distance (equivalence rule 2): squares of
    per-coordinate differences summed as ``(dx*dx + dz*dz) + dy*dy``,
    then ``sqrt``.  Broadcasting the coordinates separately means no
    ``(..., 3)`` difference tensor is ever built.
    """
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    return _norm(
        dst[..., 0] - src[..., 0],
        dst[..., 1] - src[..., 1],
        dst[..., 2] - src[..., 2],
    )


def euclidean_columns(src, dst) -> np.ndarray:
    """:func:`euclidean` on coordinate columns: ``src`` and ``dst`` are
    ``(x, y, z)`` triples of broadcast-compatible float64 arrays (a
    ``(3, ...)`` array, such as :attr:`NodeArray.columns
    <repro.network.node.NodeArray.columns>` gathered along its second
    axis, is one).

    Each coordinate is a contiguous 1-D gather instead of a strided
    slice of ``(..., 3)`` rows; the arithmetic, and so every bit, is
    :func:`euclidean`'s.
    """
    return _norm(dst[0] - src[0], dst[1] - src[1], dst[2] - src[2])


def _norm(dx: np.ndarray, dy: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """``sqrt((dx*dx + dz*dz) + dy*dy)`` in place in ``dx``: the one
    summation order of every distance."""
    dx *= dx
    dz *= dz
    dx += dz
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


class BackendUnavailableError(RuntimeError):
    """An explicitly requested backend cannot run in this environment
    (e.g. ``--backend numba`` without the optional numba package)."""


class KernelBackend(abc.ABC):
    """Abstract contract every kernel backend implements.

    Array arguments follow the substrates' conventions: float64 data,
    int64/intp indices, C-contiguous unless stated otherwise.  Methods
    that mutate do so in place and document it.
    """

    #: Registry name ("numpy", "numba", ...); never "auto".
    name: ClassVar[str] = ""

    # -- geometry ------------------------------------------------------
    @abc.abstractmethod
    def distance_block(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Euclidean distance block ``(len(src), len(dst))`` between two
        position sets of shape ``(n, 3)`` / ``(m, 3)``.

        Every element is :func:`euclidean` of its pair (see module
        docstring).
        """

    def distance_block_blocked(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        max_block_mb: float | None = None,
    ) -> np.ndarray:
        """:meth:`distance_block`, streamed over sender-row chunks.

        ``max_block_mb`` bounds the peak temporary footprint of the
        computation: rows of ``src`` are processed in chunks of
        :func:`budget_rows` rows.  Each output element is a complete,
        independent reduction (the sum of squares reduces over the 3
        coordinates only), so the chunked result is **bit-identical** to the
        unblocked call for every chunk size; this method is therefore
        exactly :meth:`distance_block` with bounded memory.  ``None`` (or a budget the whole block already fits)
        delegates to the one-shot path.
        """
        src = np.asarray(src)
        dst = np.asarray(dst)
        n, m = src.shape[0], dst.shape[0]
        if max_block_mb is None or n == 0 or m == 0:
            return self.distance_block(src, dst)
        rows = budget_rows(m, max_block_mb)
        if rows >= n:
            return self.distance_block(src, dst)
        out = np.empty((n, m), dtype=np.float64)
        for start in range(0, n, rows):
            stop = min(start + rows, n)
            out[start:stop] = self.distance_block(src[start:stop], dst)
        return out

    @abc.abstractmethod
    def distance_pairs(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Elementwise link lengths ``|src[i] - dst[i]|`` for matched
        position arrays of shape ``(n, 3)``, each :func:`euclidean` of
        its pair."""

    # -- channel -------------------------------------------------------
    @abc.abstractmethod
    def bernoulli(self, p: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Bernoulli outcomes ``u < p`` for pre-drawn uniforms ``u``.

        The uniforms are always drawn by the caller's numpy Generator
        (stream determinism is owned by the engine, never a backend);
        the compare is a single exact vector op.
        """

    # -- energy --------------------------------------------------------
    @abc.abstractmethod
    def grouped_discharge(
        self,
        residual: np.ndarray,
        alive: np.ndarray,
        idx: np.ndarray,
        amounts: np.ndarray,
        death_line: float,
    ) -> np.ndarray:
        """Apply one batch of energy charges with duplicate folding.

        Duplicate indices in ``idx`` are summed per node **in input
        order** (the reference's ``bincount`` order), charges apply only
        to nodes alive at entry, residuals floor at zero, and nodes
        ending at or below ``death_line`` are marked dead.  Mutates
        ``residual`` and ``alive`` in place.

        Returns the per-node energy actually drawn (``before - after``)
        for the charged nodes in ascending node order — the caller sums
        it (with numpy, so the pairwise total matches the reference) into
        its per-category ledger.
        """

    # -- link estimation ----------------------------------------------
    @abc.abstractmethod
    def ewma_fold_shared(
        self,
        row: np.ndarray,
        targets: np.ndarray,
        obs: np.ndarray,
        alpha: float,
        pow_table: np.ndarray,
    ) -> None:
        """Fold one batch of ACK outcomes into the shared estimator row.

        Per target column, ``m`` outcomes fold into the closed form of
        m sequential EWMA steps::

            est' = (1-a)^m est + a * sum_j (1-a)^(m-1-j) obs_j

        applied in input order (stable grouping), then clipped to
        ``[0, 1]``.  ``pow_table[k]`` holds ``(1-a)^k`` precomputed by
        numpy (sized at least ``max-group-count + 1``), so compiled
        backends never evaluate ``pow`` themselves.  Mutates ``row``.
        """

    @abc.abstractmethod
    def ewma_fold_pairs(
        self,
        est: np.ndarray,
        nodes: np.ndarray,
        targets: np.ndarray,
        obs: np.ndarray,
        alpha: float,
        pow_table: np.ndarray,
    ) -> None:
        """Per-pair variant of :meth:`ewma_fold_shared` over the full
        ``(n_nodes, n_targets)`` estimate matrix.

        Unique ``(node, target)`` pairs take the single-step update
        ``e += a * (obs - e)`` (the reference's fast path, a different
        expression tree from the fold — backends must preserve the
        branch); repeated pairs fold as in the shared mode.  Mutates
        ``est``.
        """

    # -- relay scoring / Q backup --------------------------------------
    @abc.abstractmethod
    def expected_q(
        self,
        p: np.ndarray,
        y: np.ndarray,
        x_src: np.ndarray,
        x_dst: np.ndarray,
        is_bs: np.ndarray,
        v_targets: np.ndarray,
        v_self: np.ndarray,
        g: float,
        alpha1: float,
        alpha2: float,
        beta1: float,
        beta2: float,
        bs_penalty: float,
        gamma: float,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fused Eqs. (16)-(20) + expected Bellman backup over one slot's
        ``(senders, actions)`` block.

        Inputs are pre-normalised by shared numpy code: ``p`` the link
        estimates, ``y`` the normalised amplifier cost (contains the
        radio's ``d**4`` — transcendental, hence precomputed), ``x_src``
        / ``x_dst`` the normalised residuals, ``is_bs`` the BS-action
        mask, ``v_targets`` / ``v_self`` the V-table gathers.  Per
        element::

            r_s = -g + alpha1*(x_src[i] + x_dst[j]) - alpha2*y[i,j]
            r_s -= bs_penalty              # where is_bs[j]
            r_f = -g + beta1*x_src[i] - beta2*y[i,j]
            r_t = p*r_s + (1-p)*r_f
            q   = r_t + gamma*(p*v_targets[j] + (1-p)*v_self[i])

        Returns ``(q, v_new)`` where ``v_new[i] = max_j q[i, j]`` (the
        tabular V update; max is exact, so fusing it is free).
        """

    def __reduce__(self):
        """Pickle by registry identity, not by value.

        Backends are process-local singletons with a bit-identical
        contract, so the name is all a pickle needs; the
        unpickling process resolves it through :func:`get_backend`
        (raising :class:`BackendUnavailableError` where the backend
        cannot run), and compiled kernel tables are never serialized.
        """
        from .registry import get_backend

        return get_backend, (self.name,)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"
