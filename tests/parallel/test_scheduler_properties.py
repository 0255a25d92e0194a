"""Property tests: exactly-once under arbitrary scheduler interleavings.

Hypothesis drives the pure :class:`SweepScheduler` state machine
through random interleavings of every operation it exposes — leases,
steals, completions, transient and deterministic failures, worker
deaths, lease expiry, heartbeats, *and* adversarial stale reports from
workers whose leases were reclaimed — asserting the exactly-once
partition invariant after every single step, then driving the grid to
completion and checking that every cell finished exactly once.

This is the paper-level guarantee the chaos suite samples and this
suite exhausts: no interleaving of steals, reclaims, and duplicate
leases can lose a cell or finish one twice.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import paper_config
from repro.parallel.scheduler import SweepScheduler
from repro.parallel.sharding import SweepCell

WORKERS = ("w0", "w1", "w2", "w3")

#: The operation alphabet.  Stale variants deliberately report from a
#: worker that may not hold the lease (or for a finished cell).
OPS = (
    "acquire",
    "complete",
    "fail-transient",
    "fail-deterministic",
    "stale-complete",
    "stale-fail",
    "worker-lost",
    "expire-all",
    "heartbeat",
)


def make_cells(n: int) -> list[SweepCell]:
    return [SweepCell("proto", paper_config(seed=i)) for i in range(n)]


def finish_serially(sched: SweepScheduler, clock: float) -> None:
    """Drain whatever is left through one well-behaved worker."""
    # Release any leases still held by the chaos phase via expiry...
    while not sched.finished:
        clock += sched.lease_seconds + 1.0
        sched.reclaim_expired(clock)
        sched.check_invariants()
        while (cell := sched.acquire("closer", 0, clock)) is not None:
            sched.complete("closer", cell.cell_id, {"v": 1}, 1, clock)
            sched.check_invariants()


class TestExactlyOnce:
    @given(
        n_cells=st.integers(min_value=1, max_value=8),
        num_queues=st.integers(min_value=1, max_value=4),
        max_attempts=st.integers(min_value=1, max_value=3),
        data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_any_interleaving_yields_exactly_once_rows(
        self, n_cells, num_queues, max_attempts, data
    ):
        cells = make_cells(n_cells)
        sched = SweepScheduler(
            cells,
            num_queues,
            lease_seconds=10.0,
            max_lease_attempts=max_attempts,
        )
        clock = 0.0
        steps = data.draw(
            st.lists(st.sampled_from(OPS), max_size=4 * n_cells),
            label="interleaving",
        )
        for op in steps:
            clock += 1.0
            worker = data.draw(st.sampled_from(WORKERS), label=op)
            held = sched.lease_of(worker)
            if op == "acquire" and held is None:
                sched.acquire(worker, data.draw(
                    st.integers(0, 3), label="index"
                ), clock)
            elif op == "complete" and held is not None:
                sched.complete(worker, held.cell_id, {"v": 1}, 1, clock)
            elif op == "fail-transient" and held is not None:
                sched.fail(
                    worker, held.cell_id,
                    {"type": "OSError", "message": "x", "class": "transient"},
                    1, clock,
                )
            elif op == "fail-deterministic" and held is not None:
                sched.fail(
                    worker, held.cell_id,
                    {
                        "type": "ValueError",
                        "message": "x",
                        "class": "deterministic",
                    },
                    1, clock,
                )
            elif op == "stale-complete":
                # A late success for an arbitrary cell: accepted iff the
                # cell is unfinished, counted duplicate otherwise —
                # never a second row.
                cell = data.draw(st.sampled_from(cells), label="stale cell")
                sched.complete(worker, cell.cell_id, {"v": 1}, 1, clock)
            elif op == "stale-fail":
                cell = data.draw(st.sampled_from(cells), label="stale cell")
                sched.fail(
                    worker, cell.cell_id,
                    {"type": "OSError", "message": "x", "class": "transient"},
                    1, clock,
                )
            elif op == "worker-lost":
                sched.worker_lost(worker, clock)
            elif op == "expire-all":
                clock += sched.lease_seconds + 1.0
                sched.reclaim_expired(clock)
            elif op == "heartbeat":
                sched.heartbeat(worker, clock)
            sched.check_invariants()

        finish_serially(sched, clock)

        finished = set(sched.rows) | set(sched.errors)
        assert finished == {c.cell_id for c in cells}
        assert not (set(sched.rows) & set(sched.errors))
        # Attempt budget held for every cell that ever leased.
        assert all(
            1 <= a <= max_attempts for a in sched.attempts.values()
        )
        # The event log is a gapless, seq-ordered history.
        assert [e["seq"] for e in sched.events] == list(
            range(1, len(sched.events) + 1)
        )

    @given(
        n_cells=st.integers(min_value=1, max_value=10),
        num_queues=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_pure_drain_completes_every_cell_without_duplicates(
        self, n_cells, num_queues
    ):
        # The no-chaos baseline: a fleet of greedy workers draining the
        # queues (with steals) finishes the grid exactly once.
        sched = SweepScheduler(make_cells(n_cells), num_queues)
        clock = 0.0
        while not sched.finished:
            clock += 1.0
            progressed = False
            for i, worker in enumerate(WORKERS):
                if sched.lease_of(worker) is not None:
                    continue
                cell = sched.acquire(worker, i, clock)
                if cell is None:
                    continue
                progressed = True
                sched.complete(worker, cell.cell_id, {"v": 1}, 1, clock)
                sched.check_invariants()
            assert progressed, "scheduler wedged with work outstanding"
        assert len(sched.rows) == n_cells
        assert sched.duplicates == 0
        assert not sched.errors
