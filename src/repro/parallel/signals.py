"""Graceful-drain signal handling for long-running sweep processes.

``kill -TERM`` (or Ctrl-C) against a shard runner or the scheduler
should not tear the process mid-cell: artifacts are append-only and
atomic per row, but an abrupt exit discards the in-flight cell's work
and leaves the run log claiming ``running`` forever.
:func:`drain_on_signals` installs SIGTERM/SIGINT handlers that merely
*latch* a :class:`DrainFlag`; the work loops poll
the flag at safe boundaries (cell boundaries for sweeps, round
boundaries inside a checkpointing engine), finish the unit they are
on, snapshot and log the stop, and return cleanly.

A second signal while draining falls back to the previously installed
handler (typically ``KeyboardInterrupt``/termination), so an operator
can always escalate.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager

__all__ = ["DrainFlag", "drain_on_signals"]

#: Signals a drain context latches.
_DRAIN_SIGNALS = (signal.SIGTERM, signal.SIGINT)


class DrainFlag:
    """A latchable "please stop at the next safe boundary" flag.

    Callable (``flag()``) so it slots directly into the engine's
    ``stop_requested`` hook and the sweep loops' polling sites.
    """

    def __init__(self) -> None:
        self._set = False
        #: Signal number that latched the flag (None = never latched,
        #: or latched programmatically via :meth:`request`).
        self.signum: int | None = None

    def request(self, signum: int | None = None) -> None:
        self._set = True
        if signum is not None and self.signum is None:
            self.signum = signum

    @property
    def requested(self) -> bool:
        return self._set

    def __call__(self) -> bool:
        return self._set


@contextmanager
def drain_on_signals(flag: DrainFlag | None = None):
    """Latch ``flag`` on the first SIGTERM/SIGINT; yield the flag.

    The first signal latches and *re-installs the previous handlers*,
    so a second signal behaves exactly as it would have without the
    drain context (escalation path).  Handlers are always restored on
    exit.  Must run on the main thread (CPython restricts
    ``signal.signal`` to it); worker processes never call this — the
    coordinator drains and stops assigning instead.
    """
    flag = flag if flag is not None else DrainFlag()
    previous = {}

    def restore() -> None:
        while previous:
            signum, handler = previous.popitem()
            signal.signal(signum, handler)

    def on_signal(signum, frame) -> None:
        flag.request(signum)
        restore()

    try:
        for signum in _DRAIN_SIGNALS:
            previous[signum] = signal.signal(signum, on_signal)
    except ValueError:
        # Not the main thread (or an embedded interpreter): drain
        # signals cannot be installed; the flag still works when
        # latched programmatically.
        restore()
        yield flag
        return
    try:
        yield flag
    finally:
        restore()
