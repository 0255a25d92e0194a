"""Tests for crash-safe engine checkpointing (repro.checkpoint).

The headline contract — SIGKILL + resume is bit-identical end-to-end —
is enforced by ``scripts/check_checkpoint_equivalence.py`` in CI; these
tests cover the snapshot format, the refusal taxonomy, rotation, and
the in-process resume identity.
"""

import dataclasses
import json
import pickle

import pytest

from repro.analysis.sweep import PROTOCOLS
from repro.checkpoint import (
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
    register_backend,
)
from repro.network.packet import PacketCounts
from repro.simulation import SimulationEngine
from repro.telemetry import SpanTracer, Telemetry
from repro.telemetry.manifest import config_fingerprint
from repro.telemetry.registry import deterministic_view


def _config(rounds=8, seed=3, faults=None, routing="direct"):
    config = dataclasses.replace(
        paper_config(rounds=rounds, seed=seed),
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


class TestRoundtripIdentity:
    @pytest.mark.parametrize("batched", [True, False])
    def test_snapshot_restore_finish_is_bit_identical(self, tmp_path, batched):
        config = _config(faults="ch-kill", routing="tree")
        baseline = _engine(config, batched=batched, telemetry=True)
        expected = baseline.run()

        interrupted = _engine(config, batched=batched, telemetry=True)
        for _ in range(4):
            interrupted.run_round()
        path = tmp_path / f"run-r00000004{CHECKPOINT_SUFFIX}"
        header = write_checkpoint(interrupted, path)
        assert header["round_index"] == 4
        assert header["config_fingerprint"] == config_fingerprint(config)

        restored_header, restored = read_checkpoint(
            path,
            config_fingerprint=config_fingerprint(config),
            run=run_signature(interrupted),
        )
        assert restored_header == header
        resumed = restored.run()

        assert resumed.summary() == expected.summary()
        assert _round_stats(resumed) == _round_stats(expected)
        got = resumed.packets.latency_sample
        want = expected.packets.latency_sample
        assert got.count == want.count
        assert got.values.tobytes() == want.values.tobytes()
        assert deterministic_view(
            restored.telemetry.snapshot()
        ) == deterministic_view(baseline.telemetry.snapshot())
        assert resumed.faults == expected.faults
        assert resumed.extras.get("routing") == expected.extras.get("routing")

    def test_checkpointing_run_equals_plain_run(self, tmp_path):
        config = _config()
        plain = _engine(config).run()
        checkpointed = _engine(config).run(
            checkpoint_every=3, checkpoint_dir=tmp_path
        )
        assert checkpointed.summary() == plain.summary()
        assert _round_stats(checkpointed) == _round_stats(plain)
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

    def test_restore_without_the_backend_refuses(self, tmp_path, clean_registry):
        class GhostBackend(NumpyBackend):
            name = "ghost"

        register_backend("ghost", GhostBackend)
        engine = _engine(_config(rounds=3), backend="ghost")
        engine.run_round()
        path = tmp_path / f"run-r00000001{CHECKPOINT_SUFFIX}"
        write_checkpoint(engine, path)

        def missing():
            raise BackendUnavailableError("ghost is not installed here")

        register_backend("ghost", missing, override=True)
        with pytest.raises(BackendUnavailableError, match="ghost"):
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
        # ``pickle.loads``.
        engine = _engine(_config(rounds=3), telemetry=True, tracer=SpanTracer())
        engine.run_round()
        path = tmp_path / f"t-r00000001{CHECKPOINT_SUFFIX}"
        write_checkpoint(engine, path)
        for schema in (2, 3):
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
