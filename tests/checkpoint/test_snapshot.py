"""Tests for crash-safe engine checkpointing (repro.checkpoint).

The headline contract — a run SIGKILLed between snapshots and resumed
is bit-identical end-to-end to one never interrupted, down to the bytes
of every later snapshot — is
``TestRoundtripIdentity::test_sigkill_and_resume_matches_uninterrupted``,
which kills a real child process. The other tests cover the snapshot
format, the refusal taxonomy, rotation, and the in-process resume
identity.
"""

import dataclasses
import hashlib
import json
import os
import pickle
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sweep import PROTOCOLS
from repro.checkpoint import (
    CHECKPOINT_SCHEMA,
    CHECKPOINT_SUFFIX,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointMismatchError,
    CheckpointVersionError,
    CheckpointWriter,
    DrainInterrupted,
    latest_valid,
    read_checkpoint,
    run_signature,
    snapshot_paths,
    write_checkpoint,
)
from repro.config import RoutingConfig, paper_config
from repro.kernels import (
    BackendUnavailableError,
    NumpyBackend,
    ProfiledBackend,
    get_backend,
)
from repro.network.mobility import MobilityConfig
from repro.network.packet import PacketCounts
from repro.simulation import SimulationEngine, build_scenario
from repro.telemetry import SpanTracer, Telemetry
from repro.telemetry.manifest import config_fingerprint
from repro.telemetry.registry import deterministic_view
from tests.simulation.test_batched_equivalence import engine_state, pruned_config

ROOT = Path(__file__).resolve().parents[2]


def _config(rounds=8, seed=3, faults=None, routing="direct", **kwargs):
    config = dataclasses.replace(
        paper_config(rounds=rounds, seed=seed, **kwargs),
        routing=RoutingConfig(kind=routing),
    )
    if faults:
        from repro.faults import build_fault_plan

        config = config.replace(faults=build_fault_plan(faults, config))
    return config


def _engine(config, *, batched=True, telemetry=False, **kwargs):
    tel = Telemetry() if telemetry else None
    return SimulationEngine(
        config, PROTOCOLS["qlec"](), batched=batched, telemetry=tel, **kwargs
    )


def _round_stats(result):
    return [dataclasses.asdict(r) for r in result.per_round]


def _assert_same_run(got, want, got_engine, want_engine):
    """What a resumed or checkpointing run must reproduce bit for bit:
    summary, round rows, the run-total latency sample, the fault and
    routing reports, and the telemetry deterministic view."""
    assert got.summary() == want.summary()
    assert _round_stats(got) == _round_stats(want)
    g, w = got.packets.latency_sample, want.packets.latency_sample
    assert g.count == w.count
    assert g.values.tobytes() == w.values.tobytes()
    assert got.faults == want.faults
    assert got.extras.get("routing") == want.extras.get("routing")
    assert deterministic_view(
        got_engine.telemetry.snapshot()
    ) == deterministic_view(want_engine.telemetry.snapshot())


def _chaos_config(**kwargs):
    return _config(seed=0, faults="ch-kill", routing="tree", **kwargs)


#: Kill-and-resume cases: (config, batched, checkpoint every, kill after
#: round, telemetry). The pruned shape checkpoints every round. The
#: ch-kill + tree cases die after round 3, which is not a snapshot
#: boundary, so the resume re-executes round 2 from the round-2
#: snapshot; that is also the round whose head kill draws on the fault
#: stream, so a snapshot that lost the stream would show. At lambda = 1
#: packets wait in source buffers at the snapshot. A telemetry registry
#: holds wall-clock phase times, so only the cases without one can
#: compare snapshot bytes.
KILL_CASES = {
    "pruned": (pruned_config, True, 1, 3, False),
    "batched": (_chaos_config, True, 2, 3, True),
    "scalar": (_chaos_config, False, 2, 3, True),
    "congested": (lambda: _chaos_config(mean_interarrival=1.0), True, 2, 3, False),
}


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run_until_killed(case: str, checkpoint_dir: str) -> None:
    """Child-process body: run ``case`` checkpointed and SIGKILL the
    process once its kill round has finished."""
    make, batched, every, kill_round, telemetry = KILL_CASES[case]
    engine = _engine(make(), batched=batched, telemetry=telemetry)

    def kill_switch() -> bool:
        if engine.state.round_index >= kill_round:
            os.kill(os.getpid(), signal.SIGKILL)
        return False

    engine.run(checkpoint_every=every, checkpoint_dir=Path(checkpoint_dir),
               checkpoint_tag=case, stop_requested=kill_switch)


class TestRoundtripIdentity:
    @pytest.mark.parametrize("case", sorted(KILL_CASES))
    def test_sigkill_and_resume_matches_uninterrupted(self, tmp_path, case):
        make, batched, every, kill_round, telemetry = KILL_CASES[case]
        config = make()
        reference = _engine(config, batched=batched, telemetry=telemetry)
        ckpt = {"checkpoint_every": every, "checkpoint_keep_last": config.rounds,
                "checkpoint_tag": case}
        want = reference.run(checkpoint_dir=tmp_path / "reference", **ckpt)
        killed = tmp_path / "killed"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH", "")]
        )
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from tests.checkpoint.test_snapshot import "
             "run_until_killed as f; f(*sys.argv[1:])", case, str(killed)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        found = latest_valid(
            killed, case, config_fingerprint=config_fingerprint(config),
            run=run_signature(reference),
        )
        assert found is not None
        _, header, engine = found
        assert header["round_index"] == kill_round // every * every
        if case == "congested":
            assert engine.buffers.total > 0
        got = engine.run(checkpoint_dir=tmp_path / "resumed", **ckpt)
        _assert_same_run(got, want, engine, reference)
        assert got.total_energy == want.total_energy
        assert engine_state(engine) == engine_state(reference)
        resumed = snapshot_paths(tmp_path / "resumed", case)
        assert len(resumed) >= 2
        if not telemetry:
            for path in resumed:
                assert _sha256(path) == _sha256(tmp_path / "reference" / path.name)

    @pytest.mark.parametrize("batched", [True, False])
    def test_snapshot_restore_finish_is_bit_identical(self, tmp_path, batched):
        config = _config(faults="ch-kill", routing="tree")
        baseline = _engine(config, batched=batched, telemetry=True)
        expected = baseline.run()

        # Snapshot just before the head kill, so the restored run draws
        # the victims from the fault stream it restored.
        (kill,) = config.faults.events
        interrupted = _engine(config, batched=batched, telemetry=True)
        for _ in range(kill.round):
            interrupted.run_round()
        assert interrupted.faults.fault_rounds == set()
        path = tmp_path / f"run-r{kill.round:08d}{CHECKPOINT_SUFFIX}"
        header = write_checkpoint(interrupted, path)
        assert header["round_index"] == kill.round
        assert header["config_fingerprint"] == config_fingerprint(config)

        restored_header, restored = read_checkpoint(
            path,
            config_fingerprint=config_fingerprint(config),
            run=run_signature(interrupted),
        )
        assert restored_header == header
        resumed = restored.run()
        assert kill.round in resumed.faults["fault_rounds"]
        _assert_same_run(resumed, expected, restored, baseline)

    def test_resume_past_the_reservoir_cap_keeps_the_sample(self, tmp_path):
        # The kill cases above deliver fewer packets than the latency
        # reservoir holds, so their sample is the exact stream.  This
        # run is sampling when it is snapshotted: the restored run must
        # keep drawing the uninterrupted run's replacements.
        def engine():
            config, nodes, bs = build_scenario("chaos-underwater-deep", 0)
            return SimulationEngine(
                config, PROTOCOLS["qlec"](), nodes=nodes, bs=bs
            )

        reference = engine()
        want = reference.run()
        interrupted = engine()
        for _ in range(36):
            interrupted.run_round()
        sample = interrupted._totals.latency_sample
        assert sample.count > sample.capacity
        path = tmp_path / f"run-r00000036{CHECKPOINT_SUFFIX}"
        write_checkpoint(interrupted, path)
        restored = read_checkpoint(path)[1]
        got = restored.run()
        assert got.summary() == want.summary()
        g, w = got.packets.latency_sample, want.packets.latency_sample
        assert g.count == w.count > sample.count
        assert g.values.tobytes() == w.values.tobytes()
        assert g._rng.bit_generator.state == w._rng.bit_generator.state

    def test_checkpointing_run_equals_plain_run(self, tmp_path):
        """Snapshots are pure observation, with every RNG stream
        (protocol, faults, routing) live."""
        config = _config(faults="ch-kill", routing="tree")
        plain_engine = _engine(config, telemetry=True)
        plain = plain_engine.run()
        checkpointing = _engine(config, telemetry=True)
        checkpointed = checkpointing.run(
            checkpoint_every=3, checkpoint_dir=tmp_path
        )
        _assert_same_run(checkpointed, plain, checkpointing, plain_engine)
        assert snapshot_paths(tmp_path, "run")  # snapshots were written

    def test_resume_from_engine_run_snapshot(self, tmp_path):
        config = _config()
        expected = _engine(config).run()
        _engine(config).run(checkpoint_every=2, checkpoint_dir=tmp_path)
        found = latest_valid(
            tmp_path, "run", config_fingerprint=config_fingerprint(config)
        )
        assert found is not None
        path, header, engine = found
        assert header["round_index"] == 8  # newest boundary snapshot
        # Rewind proof on a mid-run snapshot: pick an older one.
        older = snapshot_paths(tmp_path, "run")[0]
        _, mid_engine = read_checkpoint(older)
        resumed = mid_engine.run()
        assert resumed.summary() == expected.summary()


class TestLiveStateEncoding:
    """Snapshots store live state: the packet arena's live rows and the
    non-empty source buffers, not their capacity."""

    @pytest.mark.parametrize("mean_interarrival", [0.5, 1.0])
    @pytest.mark.parametrize("name", ["qlec", "fcm", "kmeans"])
    def test_resume_with_buffered_packets_is_bit_identical(
        self, tmp_path, name, mean_interarrival
    ):
        config = paper_config(
            mean_interarrival=mean_interarrival, rounds=6, seed=1
        )
        expected = SimulationEngine(config, PROTOCOLS[name]()).run()

        engine = SimulationEngine(config, PROTOCOLS[name]())
        for _ in range(3):
            engine.run_round()
        # Congested: packets wait in source buffers across the boundary.
        assert engine.buffers.total > 0 and engine.arena.n_live > 0
        path = tmp_path / f"run-r00000003{CHECKPOINT_SUFFIX}"
        write_checkpoint(engine, path)
        resumed = read_checkpoint(path)[1].run()
        assert resumed.summary() == expected.summary()
        assert resumed.total_energy == expected.total_energy
        assert _round_stats(resumed) == _round_stats(expected)

    @pytest.mark.parametrize("name", ["qlec", "fcm", "kmeans", "chaos"])
    def test_restored_engine_pickles_to_the_same_bytes(self, tmp_path, name):
        if name == "chaos":
            config, nodes, bs = build_scenario("chaos-underwater-deep", 0)
            assert config.routing.kind == "tree"
            engine = SimulationEngine(
                config, PROTOCOLS["qlec"](), nodes=nodes, bs=bs
            )
        else:
            engine = SimulationEngine(
                paper_config(seed=3, rounds=8), PROTOCOLS[name]()
            )
        for _ in range(3):
            engine.run_round()
        path = tmp_path / f"run-r00000003{CHECKPOINT_SUFFIX}"
        write_checkpoint(engine, path)
        payload = path.read_bytes().split(b"\n", 1)[1]
        _, restored = read_checkpoint(path)
        assert pickle.dumps(restored, protocol=pickle.HIGHEST_PROTOCOL) == payload

    @pytest.mark.parametrize(
        "name", ["qlec", "fcm", "kmeans", "heed", "deec", "leach", "qelar"]
    )
    def test_later_rounds_pickle_to_the_same_bytes(self, tmp_path, name):
        # Arrays kept from the restore and arrays made after it must
        # share numpy's dtype objects, or the restored engine pickles
        # one dtype more than the uninterrupted one (FCM's heads did).
        engine = SimulationEngine(paper_config(seed=5, rounds=8), PROTOCOLS[name]())
        for _ in range(3):
            engine.run_round()
        path = tmp_path / f"run-r00000003{CHECKPOINT_SUFFIX}"
        write_checkpoint(engine, path)
        restored = read_checkpoint(path)[1]
        for _ in range(4):
            engine.run_round()
            restored.run_round()
            assert pickle.dumps(
                restored, protocol=pickle.HIGHEST_PROTOCOL
            ) == pickle.dumps(engine, protocol=pickle.HIGHEST_PROTOCOL)

    @given(
        name=st.sampled_from(["qlec", "fcm", "kmeans", "heed", "tl-leach"]),
        seed=st.integers(0, 7),
        before=st.integers(1, 4),
        after=st.integers(1, 3),
    )
    @settings(max_examples=12, deadline=None)
    def test_any_split_keeps_the_bytes(
        self, tmp_path_factory, name, seed, before, after
    ):
        config = paper_config(seed=seed, rounds=before + after)
        engine = SimulationEngine(config, PROTOCOLS[name]())
        for _ in range(before):
            engine.run_round()
        path = tmp_path_factory.mktemp("split") / f"run{CHECKPOINT_SUFFIX}"
        write_checkpoint(engine, path)
        restored = read_checkpoint(path)[1]
        assert pickle.dumps(
            restored, protocol=pickle.HIGHEST_PROTOCOL
        ) == path.read_bytes().split(b"\n", 1)[1]
        for _ in range(after):
            engine.run_round()
            restored.run_round()
        assert pickle.dumps(
            restored, protocol=pickle.HIGHEST_PROTOCOL
        ) == pickle.dumps(engine, protocol=pickle.HIGHEST_PROTOCOL)

    def test_ledger_shares_the_initial_energies(self, tmp_path):
        engine = _engine(_config(rounds=3))
        engine.run_round()
        assert engine.state.ledger._initial is engine.state.nodes.initial_energy
        path = tmp_path / f"run-r00000001{CHECKPOINT_SUFFIX}"
        write_checkpoint(engine, path)
        state = read_checkpoint(path)[1].state
        assert state.ledger._initial is state.nodes.initial_energy

    def test_mobility_step_keeps_one_initial_energy_array(self, tmp_path):
        config = paper_config(seed=4).replace(
            mobility=MobilityConfig(speed=10.0)
        )
        engine = SimulationEngine(config, PROTOCOLS["qlec"]())
        start = engine.state.nodes.positions
        for _ in range(2):
            engine.run_round()
        state = engine.state
        assert not np.array_equal(state.nodes.positions, start)  # moved
        assert np.shares_memory(state.ledger._initial, state.nodes.initial_energy)
        shared = len(pickle.dumps(engine, protocol=pickle.HIGHEST_PROTOCOL))
        state.ledger._initial = state.ledger._initial.copy()
        apart = len(pickle.dumps(engine, protocol=pickle.HIGHEST_PROTOCOL))
        assert apart - shared >= 8 * state.n
        # A resumed run keeps sharing through its next mobility step.
        path = tmp_path / f"run-r00000002{CHECKPOINT_SUFFIX}"
        state.ledger._initial = state.nodes.initial_energy
        write_checkpoint(engine, path)
        resumed = read_checkpoint(path)[1]
        resumed.run_round()
        assert np.shares_memory(
            resumed.state.ledger._initial, resumed.state.nodes.initial_energy
        )


class TestSnapshotCost:
    def test_snapshot_size_is_flat_in_round_index(self, tmp_path):
        engine = _engine(_config(rounds=50))
        sizes = {}
        for completed in range(1, 51):
            engine.run_round()
            if completed in (5, 50):
                header = write_checkpoint(
                    engine, tmp_path / f"run-r{completed:08d}{CHECKPOINT_SUFFIX}"
                )
                sizes[completed] = header["payload_bytes"]
        # A round adds a few counters (~150 B), never a latency sample.
        assert sizes[50] - sizes[5] <= 256 * (50 - 5), sizes

    def test_bs_distances_are_recomputed_not_stored(self, tmp_path):
        engine = _engine(_config(rounds=3))
        engine.run_round()
        moved = engine.state.nodes.positions * 0.5
        engine.state.update_positions(moved)
        expected = engine.state.topology.d_to_bs
        assert "_d_to_bs" not in engine.state.topology.__getstate__()
        path = tmp_path / f"run-r00000001{CHECKPOINT_SUFFIX}"
        write_checkpoint(engine, path)
        got = read_checkpoint(path)[1].state.topology.d_to_bs
        assert got.tobytes() == expected.tobytes()
        assert not got.flags.writeable

    def test_round_history_holds_counters_only(self):
        result = _engine(_config(rounds=4)).run()
        assert result.per_round
        assert all(type(rs.packets) is PacketCounts for rs in result.per_round)
        assert b"LatencyReservoir" not in pickle.dumps(result.per_round)
        assert result.packets.latency_sample.count == result.packets.delivered


class TestLinkTable:
    """The engine's per-round link table is derived state: it is dropped
    at round end, so a round-boundary snapshot neither carries it nor
    depends on whether it was built."""

    def _snapshot(self, tmp_path, name):
        engine = _engine(_config(rounds=6))
        for _ in range(3):
            engine.run_round()
        path = tmp_path / f"{name}-r00000003{CHECKPOINT_SUFFIX}"
        write_checkpoint(engine, path)
        return path

    def test_snapshot_carries_no_table_and_matches_table_off(
        self, tmp_path, monkeypatch
    ):
        from repro.simulation import links

        with_table = self._snapshot(tmp_path, "on").read_bytes()
        with monkeypatch.context() as m:
            m.setattr(links, "TILE_BYTES", 0)
            without = self._snapshot(tmp_path, "off").read_bytes()
        assert with_table == without
        assert b"RoundLinks" not in with_table
        assert CHECKPOINT_SCHEMA == 6

    def test_restore_and_finish_is_bit_identical(self, tmp_path):
        expected = _engine(_config(rounds=6)).run()
        path = self._snapshot(tmp_path, "run")
        _, restored = read_checkpoint(path)
        assert not restored.state.links.on
        # Restored keys are interned, as pickle's default restore makes
        # them, so the resumed run's snapshots pickle shared key strings
        # as memo references, as before the state had a link table.
        assert all(k is sys.intern(k) for k in restored.state.__dict__)
        resumed = restored.run()
        assert resumed.summary() == expected.summary()
        assert _round_stats(resumed) == _round_stats(expected)
        assert resumed.total_energy == expected.total_energy


class TestBackendByName:
    def _roundtrip(self, engine, tmp_path):
        path = tmp_path / f"run-r00000001{CHECKPOINT_SUFFIX}"
        write_checkpoint(engine, path)
        return read_checkpoint(path)[1]

    def test_restored_backend_is_the_registry_singleton(self, tmp_path):
        engine = _engine(_config(rounds=3))
        engine.run_round()
        restored = self._roundtrip(engine, tmp_path)
        singleton = get_backend(engine.kernels.name)
        assert restored.kernels is singleton
        assert restored.state.kernels is singleton

    def test_profiled_backend_keeps_its_counters(self, tmp_path):
        engine = SimulationEngine(
            _config(rounds=3), PROTOCOLS["qlec"](),
            telemetry=Telemetry(profile_kernels=True),
        )
        engine.run_round()
        restored = self._roundtrip(engine, tmp_path)
        wrapper = restored.kernels
        assert type(wrapper) is ProfiledBackend
        assert wrapper.inner is get_backend(engine.kernels.name)
        assert wrapper.registry is restored.telemetry.registry

        def kernel_counts(eng):
            snap = eng.telemetry.registry.snapshot()
            return {k: v for k, v in snap.items() if k.startswith("prof/kernels/")}

        assert kernel_counts(restored)
        assert kernel_counts(restored) == kernel_counts(engine)
        # The cached counters alias the restored registry, so the next
        # round keeps counting into the same totals.
        engine.run_round()
        restored.run_round()
        assert kernel_counts(restored) == kernel_counts(engine)

    def test_traced_engine_restores_one_span_sink(self, tmp_path):
        engine = SimulationEngine(
            _config(rounds=3, faults="ch-kill"), PROTOCOLS["qlec"](),
            telemetry=Telemetry(), tracer=SpanTracer(),
        )
        engine.run_round()
        restored = self._roundtrip(engine, tmp_path)
        spans = restored.telemetry.spans
        assert restored.telemetry.registry is not None
        assert restored.kernels.tracer is spans
        assert restored.faults.tracer is spans
        assert spans.events == engine.telemetry.spans.events

    def test_restore_without_the_backend_refuses(self, tmp_path):
        # A snapshot of a run on a backend this build lacks: the
        # doctored name pickles as ``get_backend("numba")``.
        class NumbaNamed(NumpyBackend):
            name = "numba"

        engine = _engine(_config(rounds=3), backend=NumbaNamed())
        engine.run_round()
        path = tmp_path / f"run-r00000001{CHECKPOINT_SUFFIX}"
        write_checkpoint(engine, path)
        with pytest.raises(BackendUnavailableError, match="numba"):
            read_checkpoint(path)


class TestDrain:
    def test_drain_snapshots_and_raises(self, tmp_path):
        config = _config()
        engine = _engine(config)
        with pytest.raises(DrainInterrupted) as exc_info:
            engine.run(
                checkpoint_every=100,  # no periodic boundary hit
                checkpoint_dir=tmp_path,
                stop_requested=lambda: True,
            )
        exc = exc_info.value
        assert exc.round_index == 1  # stopped after the first round
        assert exc.snapshot_path is not None and exc.snapshot_path.exists()
        assert not isinstance(exc, CheckpointError)

        expected = _engine(config).run()
        _, restored = read_checkpoint(exc.snapshot_path)
        assert restored.run().summary() == expected.summary()

    def test_boundary_drain_writes_the_round_once(self, tmp_path, monkeypatch):
        from repro.checkpoint import snapshot as snapshot_mod

        written = []

        def counting_write(engine, path):
            written.append(path)
            return write_checkpoint(engine, path)

        monkeypatch.setattr(snapshot_mod, "write_checkpoint", counting_write)
        polls = iter([False, True])
        with pytest.raises(DrainInterrupted) as exc_info:
            _engine(_config()).run(
                checkpoint_every=1,  # every round is a boundary
                checkpoint_dir=tmp_path,
                stop_requested=lambda: next(polls),
            )
        exc = exc_info.value
        assert exc.round_index == 2
        assert [p.name for p in written] == [
            f"run-r{r:08d}{CHECKPOINT_SUFFIX}" for r in (1, 2)
        ]
        assert exc.snapshot_path == written[-1] and exc.snapshot_path.exists()

    def test_drain_without_checkpointing_carries_no_snapshot(self):
        engine = _engine(_config())
        with pytest.raises(DrainInterrupted) as exc_info:
            engine.run(stop_requested=lambda: True)
        assert exc_info.value.snapshot_path is None

    def test_checkpoint_every_requires_directory(self):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            _engine(_config()).run(checkpoint_every=2)


class TestRefusalTaxonomy:
    @pytest.fixture()
    def snapshot(self, tmp_path):
        engine = _engine(_config(rounds=3))
        engine.run_round()
        path = tmp_path / f"t-r00000001{CHECKPOINT_SUFFIX}"
        write_checkpoint(engine, path)
        return path

    def test_torn_tail_is_corrupt(self, snapshot):
        raw = snapshot.read_bytes()
        snapshot.write_bytes(raw[:-64])
        with pytest.raises(CheckpointCorruptError, match="torn payload"):
            read_checkpoint(snapshot)

    def test_flipped_payload_byte_is_corrupt(self, snapshot):
        raw = bytearray(snapshot.read_bytes())
        raw[-20] ^= 0xFF
        snapshot.write_bytes(bytes(raw))
        with pytest.raises(CheckpointCorruptError, match="checksum"):
            read_checkpoint(snapshot)

    def test_missing_header_newline_is_corrupt(self, tmp_path):
        path = tmp_path / f"x-r00000001{CHECKPOINT_SUFFIX}"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(CheckpointCorruptError, match="truncated"):
            read_checkpoint(path)

    def test_foreign_kind_is_corrupt(self, tmp_path):
        path = tmp_path / f"x-r00000001{CHECKPOINT_SUFFIX}"
        path.write_bytes(b'{"kind": "shard-status"}\npayload')
        with pytest.raises(CheckpointCorruptError, match="not an engine"):
            read_checkpoint(path)

    def test_config_fingerprint_mismatch(self, snapshot):
        with pytest.raises(CheckpointMismatchError, match="changed scenario"):
            read_checkpoint(snapshot, config_fingerprint="0" * 16)

    def test_run_shape_mismatch(self, snapshot):
        other = run_signature(_engine(_config(rounds=3), telemetry=True))
        with pytest.raises(CheckpointMismatchError, match="run shape"):
            read_checkpoint(snapshot, run=other)

    def _rewrite_header(self, path, **overrides):
        raw = path.read_bytes()
        nl = raw.find(b"\n")
        header = json.loads(raw[:nl])
        header.update(overrides)
        path.write_bytes(
            json.dumps(header, sort_keys=True).encode() + raw[nl:]
        )

    def test_cross_version_refused_before_deserializing(self, snapshot):
        self._rewrite_header(snapshot, version="0.0.0-other")
        with pytest.raises(CheckpointVersionError, match="0.0.0-other"):
            read_checkpoint(snapshot)

    def test_schema_1_snapshot_refused(self, snapshot):
        # Schema 1 pickled a latency reservoir into every history round.
        self._rewrite_header(snapshot, schema=1)
        with pytest.raises(CheckpointVersionError, match="schema 1"):
            read_checkpoint(snapshot)

    def test_schema_2_snapshot_refused(self, tmp_path):
        # Schema 2 pickled a separate engine tracer and a Telemetry
        # without a span sink; resuming one would fail mid-run.  Schema
        # 3 pickled backends as ``(name, equivalence)``, which
        # ``get_backend`` no longer takes; loading one would fail inside
        # ``pickle.loads``.  Schema 4 pickled the packet arena and the
        # source buffers at full capacity, which their restore no
        # longer reads.  Schema 5 pickled the engine's separate round
        # trace recorder, an attribute the engine no longer has.
        engine = _engine(_config(rounds=3), telemetry=True, tracer=SpanTracer())
        engine.run_round()
        path = tmp_path / f"t-r00000001{CHECKPOINT_SUFFIX}"
        write_checkpoint(engine, path)
        for schema in (2, 3, 4, 5):
            self._rewrite_header(path, schema=schema)
            with pytest.raises(CheckpointVersionError, match=f"schema {schema}"):
                read_checkpoint(path)

    def test_unknown_schema_refused(self, snapshot):
        self._rewrite_header(snapshot, schema=999)
        with pytest.raises(CheckpointVersionError, match="schema"):
            read_checkpoint(snapshot)

    def test_missing_required_key_is_corrupt(self, snapshot):
        raw = snapshot.read_bytes()
        nl = raw.find(b"\n")
        header = json.loads(raw[:nl])
        del header["payload_sha256"]
        snapshot.write_bytes(
            json.dumps(header, sort_keys=True).encode() + raw[nl:]
        )
        with pytest.raises(CheckpointCorruptError, match="missing keys"):
            read_checkpoint(snapshot)


class TestRotationAndDegradation:
    def test_keep_last_rotation(self, tmp_path):
        engine = _engine(_config(rounds=6))
        writer = CheckpointWriter(tmp_path, "run", every=1, keep_last=2)
        for _ in range(5):
            engine.run_round()
            writer.maybe(engine)
        names = [p.name for p in snapshot_paths(tmp_path, "run")]
        assert names == [
            f"run-r00000004{CHECKPOINT_SUFFIX}",
            f"run-r00000005{CHECKPOINT_SUFFIX}",
        ]

    def test_latest_valid_skips_corrupt_newest(self, tmp_path):
        engine = _engine(_config(rounds=6))
        writer = CheckpointWriter(tmp_path, "run", every=1, keep_last=3)
        for _ in range(3):
            engine.run_round()
            writer.maybe(engine)
        paths = snapshot_paths(tmp_path, "run")
        paths[-1].write_bytes(paths[-1].read_bytes()[:-100])  # tear newest
        found = latest_valid(tmp_path, "run")
        assert found is not None
        path, header, _ = found
        assert path == paths[-2]
        assert header["round_index"] == 2

    def test_latest_valid_none_when_nothing_validates(self, tmp_path):
        assert latest_valid(tmp_path, "run") is None
        (tmp_path / f"run-r00000001{CHECKPOINT_SUFFIX}").write_bytes(b"junk")
        assert latest_valid(tmp_path, "run") is None

    def test_latest_valid_respects_expectations(self, tmp_path):
        engine = _engine(_config(rounds=3))
        engine.run_round()
        CheckpointWriter(tmp_path, "run", every=1).maybe(engine)
        assert (
            latest_valid(tmp_path, "run", config_fingerprint="0" * 16) is None
        )
        assert latest_valid(tmp_path, "run") is not None

    def test_writer_validates_knobs(self, tmp_path):
        with pytest.raises(ValueError, match="every"):
            CheckpointWriter(tmp_path, "t", every=0)
        with pytest.raises(ValueError, match="keep_last"):
            CheckpointWriter(tmp_path, "t", every=1, keep_last=0)
