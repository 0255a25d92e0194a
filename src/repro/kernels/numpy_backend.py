"""Numpy reference backend.

This is the code that *defines* correct behaviour: every method keeps
the per-element expression trees of the batched substrate code the
golden traces pin, behind the :class:`~repro.kernels.base.KernelBackend`
contract.

The grouped kernels run at N = 100 on arrays of 10-30 elements, where
fixed per-call cost is the whole cost, so they group with one argsort
and skip it for strictly increasing keys.  Their earlier
``np.unique``-based definitions, with the decay powers raised inline,
are kept verbatim as oracles in ``tests/test_reference_oracles.py``,
which holds these methods bit-equal to them.
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
        """Strictly increasing ``idx`` (every tx charge of a slot, every
        aggregation charge) has nothing to fold and charges as given.
        Otherwise one argsort groups the charges, and ``np.bincount``
        over the inverse map adds each node's charges in input order,
        as the oracle's ``np.unique(return_inverse=True)`` did.  Input
        order comes from the inverse map, not the sort, so the sort
        need not be stable: numpy's default one is 3-6x faster than a
        stable sort on the thousands of charges of an N = 10^5 slot."""
        if _repeats_or_unsorted(idx):
            order = np.argsort(idx)
            s = idx[order]
            head = _run_heads(s)
            inverse = np.empty(idx.size, dtype=np.intp)
            inverse[order] = head.cumsum() - 1
            agg = np.bincount(inverse, weights=amounts)
            idx = s[head]
        else:
            agg = amounts
        live = alive[idx]
        if np.count_nonzero(live) < live.size:
            idx = idx[live]
            agg = agg[live]
        before = residual[idx]
        after = before - agg
        np.maximum(after, 0.0, out=after)
        residual[idx] = after
        dead = after <= death_line
        if np.count_nonzero(dead):
            alive[idx[dead]] = False
        before -= after
        return before

    # -- link estimation ----------------------------------------------
    def ewma_fold_shared(
        self,
        row: np.ndarray,
        targets: np.ndarray,
        obs: np.ndarray,
        alpha: float,
        pow_table: np.ndarray,
    ) -> None:
        """One stable argsort groups the outcomes per target, and the
        decay powers are read from ``pow_table``, whose entries are
        bitwise the ``(1-a)**k`` the oracle computed inline."""
        order, first, group = _runs(targets)
        uniq = targets[order[first]]
        row[uniq] = _fold(row[uniq], obs[order], first, group, alpha, pow_table)

    def ewma_fold_pairs(
        self,
        est: np.ndarray,
        nodes: np.ndarray,
        targets: np.ndarray,
        obs: np.ndarray,
        alpha: float,
        pow_table: np.ndarray,
    ) -> None:
        """Unique pairs take the single-step update; strictly increasing
        keys (ascending senders) are unique without a sort.  Repeated
        pairs fold as in :meth:`ewma_fold_shared`."""
        key = nodes * est.shape[1] + targets
        unique = True
        if _repeats_or_unsorted(key):
            order, first, group = _runs(key)
            unique = first.size == key.size
        if unique:
            est[nodes, targets] += alpha * (obs - est[nodes, targets])
            return
        un, ut = np.divmod(key[order[first]], est.shape[1])
        est[un, ut] = _fold(est[un, ut], obs[order], first, group, alpha, pow_table)

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


def _repeats_or_unsorted(keys: np.ndarray) -> bool:
    """False when ``keys`` is strictly increasing (every key unique and
    already in order, so there is nothing to group)."""
    return keys.size > 1 and np.count_nonzero(keys[1:] <= keys[:-1]) > 0


def _run_heads(s: np.ndarray) -> np.ndarray:
    """True where a run of equal values starts in sorted ``s``."""
    head = np.empty(s.size, dtype=bool)
    head[:1] = True
    np.not_equal(s[1:], s[:-1], out=head[1:])
    return head


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group equal ``keys`` with one stable argsort.

    Returns ``(order, first, group)``: ``keys[order]`` is sorted with
    equal keys kept in input order, ``first`` holds the sorted position
    where each run of equal keys starts (so ``keys[order[first]]`` are
    the unique keys, ascending), and ``group`` the run number of every
    sorted position.
    """
    order = np.argsort(keys, kind="stable")
    head = _run_heads(keys[order])
    group = head.cumsum()
    group -= 1
    return order, head.nonzero()[0], group


def _fold(
    est: np.ndarray,
    obs: np.ndarray,
    first: np.ndarray,
    group: np.ndarray,
    a: float,
    pow_table: np.ndarray,
) -> np.ndarray:
    """Closed form of m sequential EWMA steps per run of :func:`_runs`,

        est' = (1-a)^m est + a * sum_j (1-a)^(m-1-j) obs_j,

    with ``obs`` in sorted order and ``est`` one value per run.  The
    per-run sums go through ``np.bincount`` in input order.
    """
    n = obs.size
    end = np.empty_like(first)
    end[:-1] = first[1:]
    end[-1:] = n
    # Steps still to come after each outcome within its run.
    decay_exp = end[group] - 1 - np.arange(n)
    contrib = a * obs * pow_table[decay_exp]
    weighted = np.bincount(group, weights=contrib)
    vals = est * pow_table[end - first] + weighted
    # The exact value is a convex combination of est and the obs,
    # hence in [0, 1]; the folded product/sum can overshoot by ulps
    # where the sequential form cannot, so shave the drift.
    np.clip(vals, 0.0, 1.0, out=vals)
    return vals


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
