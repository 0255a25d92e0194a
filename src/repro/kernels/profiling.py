"""Kernel profiling: a transparent counting/timing backend wrapper.

:class:`ProfiledBackend` wraps any resolved
:class:`~repro.kernels.base.KernelBackend` and records, per kernel
method, the invocation count, the element count, and an estimate of the
bytes touched — all **deterministic** (pure functions of the input
shapes, so they merge across shards and agree between a pool and a
serial sweep) — plus wall-clock under the existing ``time/``
convention (``time/kernel/<method>``, stripped by
``deterministic_view`` like every wall-clock metric).  When a
:class:`~repro.telemetry.trace.SpanTracer` is attached, each
invocation additionally becomes a ``kernel`` span nested inside the
pipeline phase that issued it.

The wrapper is numerically invisible: every method delegates to the
inner backend unchanged (``distance_block_blocked`` delegates the
*whole* chunked call, so one engine-level call counts once), the
``name`` attribute proxies the inner instance, and no
hook touches an RNG stream — profiled runs are bit-identical to bare
ones.  The engine only wraps when profiling is requested
(``Telemetry(profile_kernels=True)`` or an attached span sink),
keeping the default path free of indirection.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from .base import KernelBackend

__all__ = ["ProfiledBackend"]


class ProfiledBackend(KernelBackend):
    """Counts, sizes, and times every kernel call of an inner backend.

    Parameters
    ----------
    inner:
        The resolved backend doing the actual numeric work.
    registry:
        Optional :class:`~repro.telemetry.MetricRegistry` receiving
        ``prof/kernels/<method>/{calls,elements,bytes}`` counters
        (deterministic) and ``time/kernel/<method>`` wall-clock.
    tracer:
        Optional :class:`~repro.telemetry.SpanTracer` receiving one
        ``kernel`` span per invocation.
    """

    #: Unlike a bare backend, the wrapper pickles by value: its counter
    #: caches are per-run state.  Its ``inner`` backend still reduces
    #: by name through :meth:`KernelBackend.__reduce__`.
    __reduce__ = object.__reduce__

    def __init__(self, inner: KernelBackend, registry=None, tracer=None) -> None:
        self.inner = inner
        self.registry = registry
        self.tracer = tracer
        # Proxy the inner identity: manifests and fingerprints must
        # record the backend that does the arithmetic, not the wrapper.
        self.name = inner.name
        #: method -> (calls, elements, bytes, time) metric cache so the
        #: hot path skips registry dict lookups after first use.
        self._counters: dict[str, tuple] = {}

    def _record(self, method: str, t0: float, elements: int, nbytes: int) -> None:
        dur = perf_counter() - t0
        reg = self.registry
        if reg is not None:
            cached = self._counters.get(method)
            if cached is None:
                base = f"prof/kernels/{method}/"
                cached = (
                    reg.counter(base + "calls"),
                    reg.counter(base + "elements"),
                    reg.counter(base + "bytes"),
                    reg.counter(f"time/kernel/{method}"),
                )
                self._counters[method] = cached
            calls, elems, nbytes_c, timer = cached
            calls.add(1)
            elems.add(int(elements))
            nbytes_c.add(int(nbytes))
            timer.add(dur)
        if self.tracer is not None:
            self.tracer.kernel(method, t0, dur, int(elements), int(nbytes))

    # -- geometry ------------------------------------------------------
    def distance_block(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        t0 = perf_counter()
        out = self.inner.distance_block(src, dst)
        n, m = src.shape[0], dst.shape[0]
        # (n, m) float64 output + both (·, 3) float64 position inputs.
        self._record("distance_block", t0, n * m, 8 * (n * m + 3 * (n + m)))
        return out

    def distance_block_blocked(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        max_block_mb: float | None = None,
    ) -> np.ndarray:
        # Delegate the whole chunked call: the inner loop calls the
        # *inner* backend's distance_block per chunk, so one
        # engine-level call is one profiled record, not one per chunk.
        t0 = perf_counter()
        out = self.inner.distance_block_blocked(src, dst, max_block_mb)
        n, m = src.shape[0], dst.shape[0]
        self._record("distance_block", t0, n * m, 8 * (n * m + 3 * (n + m)))
        return out

    # -- channel -------------------------------------------------------
    def bernoulli(self, p: np.ndarray, u: np.ndarray) -> np.ndarray:
        t0 = perf_counter()
        out = self.inner.bernoulli(p, u)
        n = p.size
        # Two float64 inputs + bool output.
        self._record("bernoulli", t0, n, 17 * n)
        return out

    # -- energy --------------------------------------------------------
    def grouped_discharge(
        self,
        residual: np.ndarray,
        alive: np.ndarray,
        idx: np.ndarray,
        amounts: np.ndarray,
        death_line: float,
    ) -> np.ndarray:
        t0 = perf_counter()
        out = self.inner.grouped_discharge(residual, alive, idx, amounts, death_line)
        k = idx.size
        # idx + amounts in, residual/alive touched per charge, drawn out.
        self._record("grouped_discharge", t0, k, 8 * 5 * k)
        return out

    # -- link estimation ----------------------------------------------
    def ewma_fold_shared(
        self,
        row: np.ndarray,
        targets: np.ndarray,
        obs: np.ndarray,
        alpha: float,
        pow_table: np.ndarray,
    ) -> None:
        t0 = perf_counter()
        self.inner.ewma_fold_shared(row, targets, obs, alpha, pow_table)
        m = targets.size
        self._record("ewma_fold_shared", t0, m, 8 * 3 * m)

    def ewma_fold_pairs(
        self,
        est: np.ndarray,
        nodes: np.ndarray,
        targets: np.ndarray,
        obs: np.ndarray,
        alpha: float,
        pow_table: np.ndarray,
    ) -> None:
        t0 = perf_counter()
        self.inner.ewma_fold_pairs(est, nodes, targets, obs, alpha, pow_table)
        m = nodes.size
        self._record("ewma_fold_pairs", t0, m, 8 * 4 * m)

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
        t0 = perf_counter()
        out = self.inner.expected_q(
            p, y, x_src, x_dst, is_bs, v_targets, v_self,
            g, alpha1, alpha2, beta1, beta2, bs_penalty, gamma,
        )
        n = p.size
        # p, y, q blocks plus the per-row/per-col vectors, float64.
        self._record("expected_q", t0, n, 8 * 5 * n)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ProfiledBackend inner={self.inner!r}>"
