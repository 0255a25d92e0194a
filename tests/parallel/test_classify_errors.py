"""The pinned deterministic-vs-transient failure taxonomy.

This table is the spec that the scheduler's re-lease policy runs on:
a *deterministic* failure is a pure
function of the cell's inputs (retrying or re-leasing it cannot change
the outcome), a *transient* one is environmental and may heal between
attempts.  Changing a classification changes how many times a cluster
re-runs a failing cell — it should be a deliberate edit here, not an
accident of an exception hierarchy.
"""

import pickle

import pytest

from repro.parallel.scheduler import run_scheduled
from repro.parallel.sharding import SweepSpec, classify_error, load_artifact

#: (exception instance, expected class) — the taxonomy table.
TAXONOMY = [
    # Bad values / types / lookups: the cell itself is broken.
    (ValueError("bad lambda"), "deterministic"),
    (TypeError("not callable"), "deterministic"),
    (KeyError("protocol"), "deterministic"),
    (IndexError("row 9 of 3"), "deterministic"),
    (AttributeError("no such field"), "deterministic"),
    (AssertionError("invariant broke"), "deterministic"),
    (ZeroDivisionError("k == 0"), "deterministic"),
    (OverflowError("energy overflow"), "deterministic"),
    (NotImplementedError("protocol stub"), "deterministic"),
    # Serialising the same result fails the same way on every worker.
    (pickle.PicklingError("unpicklable summary"), "deterministic"),
    (pickle.UnpicklingError("corrupt payload"), "deterministic"),
    # RecursionError subclasses RuntimeError, but unbounded recursion
    # is a property of the computation, not of the host.
    (RecursionError("maximum depth"), "deterministic"),
    # Environmental: may heal between attempts.
    (RuntimeError("worker wedged"), "transient"),
    (OSError("flaky filesystem"), "transient"),
    (FileNotFoundError("dataset moved"), "transient"),
    (PermissionError("mount remounted ro"), "transient"),
    (TimeoutError("peer slow"), "transient"),
    (ConnectionResetError("broker dropped"), "transient"),
    (BrokenPipeError("pool pipe died"), "transient"),
    (MemoryError("host under pressure"), "transient"),
    (InterruptedError("signal during read"), "transient"),
    (BlockingIOError("EAGAIN"), "transient"),
]


@pytest.mark.parametrize(
    "exc, expected",
    TAXONOMY,
    ids=[type(e).__name__ for e, _ in TAXONOMY],
)
def test_taxonomy(exc, expected):
    assert classify_error(exc) == expected


def test_base_exceptions_classify_transient():
    # An interrupted worker says nothing about the cell.  _guarded_cell
    # never absorbs these (BaseException rips through), but the
    # scheduler records the classification for a lease it reclaims.
    assert classify_error(KeyboardInterrupt()) == "transient"
    assert classify_error(SystemExit(1)) == "transient"


class TestGuardedCellPolicy:
    """The retry policy the taxonomy drives: a cell runs once per lease
    grant, and only a transient failure earns another grant."""

    SPEC = SweepSpec(protocols=("direct",), lambdas=(4.0,), seeds=(0,), rounds=1)

    def _run(self, tmp_path, cell_fn, retries):
        """The one record of a one-cell, in-process run."""
        result = run_scheduled(
            self.SPEC, tmp_path / "one.jsonl",
            serial=True, retries=retries, cell_fn=cell_fn,
        )
        (record,) = load_artifact(result.path).records
        return record

    def test_deterministic_failure_never_retried(self, tmp_path):
        calls = []

        def boom(cell, options):
            calls.append(1)
            raise ValueError("same inputs, same crash")

        record = self._run(tmp_path, boom, retries=5)
        assert record["kind"] == "cell-error"
        assert record["error"]["class"] == "deterministic"
        assert record["error"]["type"] == "ValueError"
        assert record["attempts"] == 1
        assert len(calls) == 1

    def test_transient_failure_consumes_retry_budget(self, tmp_path):
        calls = []

        def flaky(cell, options):
            calls.append(1)
            raise OSError("still flaky")

        record = self._run(tmp_path, flaky, retries=2)
        assert record["kind"] == "cell-error"
        assert record["error"]["class"] == "transient"
        assert record["attempts"] == 3
        assert len(calls) == 3

    def test_transient_failure_heals_mid_budget(self, tmp_path):
        calls = []

        def heals(cell, options):
            calls.append(1)
            if len(calls) < 2:
                raise OSError("first try flaky")
            return {"ok": True}

        record = self._run(tmp_path, heals, retries=2)
        assert record["kind"] == "cell"
        assert record["summary"] == {"ok": True}
        assert record["attempts"] == 2
