"""Numpy reference backend.

This is the code that *defines* correct behaviour: every method keeps
the per-element expression trees of the batched substrate code the
golden traces pin, behind the :class:`~repro.kernels.base.KernelBackend`
contract.  Other backends are validated against it bit for bit.
"""

from __future__ import annotations

import numpy as np

from .base import KernelBackend, euclidean

__all__ = ["NumpyBackend", "expected_q_tree"]


class NumpyBackend(KernelBackend):
    """Pure-numpy reference implementation of every kernel."""

    name = "numpy"

    # -- geometry ------------------------------------------------------
    def distance_block(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        return euclidean(src[:, None, :], dst[None, :, :])

    def distance_pairs(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        return euclidean(src, dst)

    # -- channel -------------------------------------------------------
    def bernoulli(self, p: np.ndarray, u: np.ndarray) -> np.ndarray:
        return u < p

    # -- energy --------------------------------------------------------
    def grouped_discharge(
        self,
        residual: np.ndarray,
        alive: np.ndarray,
        idx: np.ndarray,
        amounts: np.ndarray,
        death_line: float,
    ) -> np.ndarray:
        uniq, inverse = np.unique(idx, return_inverse=True)
        agg = np.bincount(inverse, weights=amounts, minlength=uniq.size)
        live = alive[uniq]
        uniq = uniq[live]
        agg = agg[live]
        if uniq.size == 0:
            return np.empty(0, dtype=np.float64)
        before = residual[uniq]
        after = np.maximum(before - agg, 0.0)
        residual[uniq] = after
        newly_dead = uniq[after <= death_line]
        if newly_dead.size:
            alive[newly_dead] = False
        return before - after

    # -- link estimation ----------------------------------------------
    def ewma_fold_shared(
        self,
        row: np.ndarray,
        targets: np.ndarray,
        obs: np.ndarray,
        alpha: float,
        pow_table: np.ndarray,
    ) -> None:
        # pow_table is unused here: the reference evaluates the decay
        # powers inline.  ``pow_table[k] == (1-a)**k`` bitwise by
        # construction (same ufunc, same integer exponents), which is
        # what lets compiled backends use the table instead.
        a = alpha
        order = np.argsort(targets, kind="stable")
        t = targets[order]
        obs = obs[order]
        uniq, counts = np.unique(t, return_counts=True)
        # Position of each outcome within its target group (0-based).
        starts = np.cumsum(counts) - counts
        j = np.arange(t.size, dtype=np.int64) - np.repeat(starts, counts)
        decay_exp = np.repeat(counts, counts) - 1 - j
        contrib = a * obs * (1.0 - a) ** decay_exp
        group = np.repeat(np.arange(uniq.size), counts)
        weighted = np.bincount(group, weights=contrib, minlength=uniq.size)
        vals = row[uniq] * (1.0 - a) ** counts + weighted
        # The exact value is a convex combination of est and the obs,
        # hence in [0, 1]; the folded product/sum can overshoot by ulps
        # where the sequential form cannot, so shave the drift.
        np.clip(vals, 0.0, 1.0, out=vals)
        row[uniq] = vals

    def ewma_fold_pairs(
        self,
        est: np.ndarray,
        nodes: np.ndarray,
        targets: np.ndarray,
        obs: np.ndarray,
        alpha: float,
        pow_table: np.ndarray,
    ) -> None:
        a = alpha
        key = nodes * est.shape[1] + targets
        uniq_k, pair_counts = np.unique(key, return_counts=True)
        if uniq_k.size == key.size:
            est[nodes, targets] += a * (obs - est[nodes, targets])
            return
        order = np.argsort(key, kind="stable")
        obs_s = obs[order]
        starts = np.cumsum(pair_counts) - pair_counts
        j = np.arange(key.size, dtype=np.int64) - np.repeat(starts, pair_counts)
        decay_exp = np.repeat(pair_counts, pair_counts) - 1 - j
        contrib = a * obs_s * (1.0 - a) ** decay_exp
        group = np.repeat(np.arange(uniq_k.size), pair_counts)
        weighted = np.bincount(group, weights=contrib, minlength=uniq_k.size)
        un = uniq_k // est.shape[1]
        ut = uniq_k % est.shape[1]
        vals = est[un, ut] * (1.0 - a) ** pair_counts + weighted
        np.clip(vals, 0.0, 1.0, out=vals)
        est[un, ut] = vals

    # -- relay scoring / Q backup --------------------------------------
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
        q = expected_q_tree(
            p, y, x_src[:, None], x_dst, is_bs, v_targets, v_self[:, None],
            g=g, alpha1=alpha1, alpha2=alpha2, beta1=beta1, beta2=beta2,
            bs_penalty=bs_penalty, gamma=gamma,
        )
        return q, q.max(axis=1)


def expected_q_tree(
    p: np.ndarray,
    y: np.ndarray,
    x_src: np.ndarray,
    x_dst: np.ndarray,
    is_bs: np.ndarray,
    v_targets: np.ndarray,
    v_self: np.ndarray,
    *,
    g: float,
    alpha1: float,
    alpha2: float,
    beta1: float,
    beta2: float,
    bs_penalty: float,
    gamma: float,
) -> np.ndarray:
    """The :meth:`KernelBackend.expected_q` expression tree over
    broadcast operands: the one definition of the Q combine.

    ``x_src + x_dst`` must already have the output's shape: a
    ``(senders, actions)`` block passes ``x_src`` and ``v_self`` as
    columns, matched (sender, action) pairs pass flat arrays.  ``is_bs``
    masks the last axis.  Every element is the same sequence of
    correctly rounded ops on its own operands whatever the layout, so a
    pair scored flat has the bits of its cell in the block.
    """
    # Evaluated in place in three or four buffers.  Every op keeps its
    # operand pair (IEEE + and * commute exactly), so the buffers change
    # allocations, not bits.
    q = np.add(x_src, x_dst)
    q *= alpha1
    q += -g
    ay = np.multiply(alpha2, y)
    q -= ay  # r_s
    bs_cols = np.flatnonzero(is_bs)
    if bs_cols.size:
        q[..., bs_cols] -= bs_penalty
    # r_f = (-g + beta1*x_src) - beta2*y, reusing alpha2*y when equal.
    r_f = ay if beta2 == alpha2 else np.multiply(beta2, y)
    np.subtract(-g + beta1 * x_src, r_f, out=r_f)
    q *= p
    omp = np.subtract(1.0, p)
    r_f *= omp
    q += r_f  # r_t = p*r_s + (1-p)*r_f
    np.multiply(p, v_targets, out=r_f)
    omp *= v_self
    r_f += omp
    r_f *= gamma
    q += r_f  # r_t + gamma*(p*v_targets + (1-p)*v_self)
    return q
