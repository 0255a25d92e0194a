"""Optional numba backend: jitted fused kernels for the hot stages.

Import-guarded — numba is an optional extra, never a hard dependency.
Constructing :class:`NumbaBackend` without numba raises
:class:`~repro.kernels.registry.BackendUnavailableError`; resolution via
``"auto"`` falls back to the numpy reference (with a warning) instead.

What is jitted and what is not
------------------------------
Jitted (exact ops only, strict IEEE — numba's default; relaxed-math
compilation would license FMA contraction and reassociation and break
bit-equivalence):

* ``grouped_discharge`` — one sort + one pass replaces the reference's
  argsort/bincount/mask/scatter chain.
* ``ewma_fold_shared`` / ``ewma_fold_pairs`` — grouped EWMA folds with
  the decay powers read from the numpy-precomputed ``pow_table``
  (``pow`` is transcendental; jitted libm ``pow`` differs from numpy's
  in the last ulp, the table does not).
* ``expected_q`` — the reward/Bellman combine fused into a single pass
  with the row max, eliminating ~a dozen full ``(senders, actions)``
  temporaries per slot.

Inherited from the numpy reference (deliberately — see the equivalence
policy in :mod:`repro.kernels.base`):

* ``distance_block`` / ``distance_pairs`` — already a few exact
  vector ops in :func:`~repro.kernels.base.euclidean`'s fixed order;
  nothing to fuse.
* ``bernoulli`` — a single exact vector compare on uniforms drawn by
  the caller's numpy Generator; nothing to fuse.
"""

from __future__ import annotations

import numpy as np

from .numpy_backend import NumpyBackend
from .registry import BackendUnavailableError, numba_version

__all__ = ["NumbaBackend", "numba_version"]


#: The compiled kernel table (strict IEEE), built once per process on
#: first use.
_COMPILED: dict | None = None


def _compiled_kernels() -> dict:
    global _COMPILED
    if _COMPILED is None:
        import numba

        _COMPILED = _build_kernels(numba.njit)
    return _COMPILED


def _build_kernels(njit) -> dict:
    """Compile the kernel set.  Bodies mirror the numpy reference's
    per-element expression trees exactly (same associativity, same
    branch structure); grouped sums run in the reference's bincount
    order via a stable sort."""

    @njit
    def grouped_discharge(residual, alive, idx, amounts, death_line):
        order = np.argsort(idx, kind="mergesort")
        n = idx.shape[0]
        delta = np.empty(n, dtype=np.float64)
        count = 0
        i = 0
        while i < n:
            node = idx[order[i]]
            s = amounts[order[i]]
            i += 1
            while i < n and idx[order[i]] == node:
                s += amounts[order[i]]
                i += 1
            if not alive[node]:
                continue
            before = residual[node]
            after = before - s
            if after < 0.0:
                after = 0.0
            residual[node] = after
            delta[count] = before - after
            count += 1
            if after <= death_line:
                alive[node] = False
        return delta[:count]

    @njit
    def ewma_fold_shared(row, targets, obs, alpha, table):
        order = np.argsort(targets, kind="mergesort")
        n = targets.shape[0]
        i = 0
        while i < n:
            t = targets[order[i]]
            start = i
            while i < n and targets[order[i]] == t:
                i += 1
            m = i - start
            w = 0.0
            for j in range(m):
                w += alpha * obs[order[start + j]] * table[m - 1 - j]
            v = row[t] * table[m] + w
            if v < 0.0:
                v = 0.0
            elif v > 1.0:
                v = 1.0
            row[t] = v

    @njit
    def ewma_fold_pairs(est, nodes, targets, obs, alpha, table):
        n = nodes.shape[0]
        ncols = est.shape[1]
        key = np.empty(n, dtype=np.int64)
        for i in range(n):
            key[i] = nodes[i] * ncols + targets[i]
        order = np.argsort(key, kind="mergesort")
        unique = True
        for i in range(1, n):
            if key[order[i]] == key[order[i - 1]]:
                unique = False
                break
        if unique:
            # Reference fast path: single-step EWMA, a *different*
            # expression tree from the fold — must stay branch-exact.
            for i in range(n):
                e = est[nodes[i], targets[i]]
                est[nodes[i], targets[i]] = e + alpha * (obs[i] - e)
            return
        i = 0
        while i < n:
            k = key[order[i]]
            start = i
            while i < n and key[order[i]] == k:
                i += 1
            m = i - start
            w = 0.0
            for j in range(m):
                w += alpha * obs[order[start + j]] * table[m - 1 - j]
            un = k // ncols
            ut = k % ncols
            v = est[un, ut] * table[m] + w
            if v < 0.0:
                v = 0.0
            elif v > 1.0:
                v = 1.0
            est[un, ut] = v

    @njit
    def expected_q(
        p, y, x_src, x_dst, is_bs, v_targets, v_self,
        g, alpha1, alpha2, beta1, beta2, bs_penalty, gamma,
    ):
        n, m = p.shape
        q = np.empty((n, m), dtype=np.float64)
        v_new = np.empty(n, dtype=np.float64)
        for i in range(n):
            xs = x_src[i]
            vs = v_self[i]
            best = -np.inf
            for j in range(m):
                yij = y[i, j]
                pij = p[i, j]
                r_s = -g + alpha1 * (xs + x_dst[j]) - alpha2 * yij
                if is_bs[j]:
                    r_s = r_s - bs_penalty
                r_f = -g + beta1 * xs - beta2 * yij
                r_t = pij * r_s + (1.0 - pij) * r_f
                qv = r_t + gamma * (pij * v_targets[j] + (1.0 - pij) * vs)
                q[i, j] = qv
                if qv > best:
                    best = qv
            v_new[i] = best
        return q, v_new

    return {
        "grouped_discharge": grouped_discharge,
        "ewma_fold_shared": ewma_fold_shared,
        "ewma_fold_pairs": ewma_fold_pairs,
        "expected_q": expected_q,
    }


def _c(a: np.ndarray, dtype) -> np.ndarray:
    """Contiguous view/copy with a pinned dtype (numba-friendly; the
    substrates hand us broadcast views, e.g. the shared estimator's
    stride-0 ``p`` block, and fancy-indexed arrays)."""
    return np.ascontiguousarray(a, dtype=dtype)


class NumbaBackend(NumpyBackend):
    """Jitted backend; inherits the reference-pinned methods."""

    name = "numba"

    def __init__(self) -> None:
        if numba_version() is None:
            raise BackendUnavailableError(
                "kernel backend 'numba' requires the optional numba package "
                "(pip install 'repro[numba]'); use --backend numpy, or "
                "--backend auto to fall back automatically"
            )
        self._k = _compiled_kernels()

    def grouped_discharge(self, residual, alive, idx, amounts, death_line):
        return self._k["grouped_discharge"](
            residual, alive, _c(idx, np.int64), _c(amounts, np.float64),
            float(death_line),
        )

    def ewma_fold_shared(self, row, targets, obs, alpha, pow_table):
        self._k["ewma_fold_shared"](
            row, _c(targets, np.int64), _c(obs, np.float64), float(alpha),
            pow_table,
        )

    def ewma_fold_pairs(self, est, nodes, targets, obs, alpha, pow_table):
        self._k["ewma_fold_pairs"](
            est, _c(nodes, np.int64), _c(targets, np.int64),
            _c(obs, np.float64), float(alpha), pow_table,
        )

    def expected_q(
        self, p, y, x_src, x_dst, is_bs, v_targets, v_self,
        g, alpha1, alpha2, beta1, beta2, bs_penalty, gamma,
    ):
        return self._k["expected_q"](
            _c(p, np.float64), _c(y, np.float64), _c(x_src, np.float64),
            _c(x_dst, np.float64), _c(is_bs, np.bool_),
            _c(v_targets, np.float64), _c(v_self, np.float64),
            float(g), float(alpha1), float(alpha2), float(beta1),
            float(beta2), float(bs_penalty), float(gamma),
        )
