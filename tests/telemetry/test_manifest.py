"""Tests for config fingerprints and run manifests."""

import json

import pytest

from repro import __version__
from repro.telemetry import (
    MANIFEST_KIND,
    MANIFEST_SCHEMA,
    SHARD_MANIFEST_KIND,
    config_fingerprint,
    run_manifest,
    shard_manifest,
    stable_fingerprint,
)
from tests.conftest import make_config


class TestConfigFingerprint:
    def test_stable_across_calls(self):
        assert config_fingerprint(make_config()) == config_fingerprint(make_config())

    def test_sensitive_to_any_tunable(self):
        base = config_fingerprint(make_config())
        assert config_fingerprint(make_config(seed=1)) != base
        assert config_fingerprint(make_config(n_nodes=31)) != base
        assert config_fingerprint(make_config(mean_interarrival=8.0)) != base

    def test_format(self):
        fp = config_fingerprint(make_config())
        assert len(fp) == 16
        int(fp, 16)  # hex digits only

    def test_block_budget_is_fingerprinted(self):
        assert config_fingerprint(make_config()) != config_fingerprint(
            make_config(max_block_mb=64.0)
        )


class TestRunManifest:
    def test_required_fields(self):
        m = run_manifest(make_config(seed=3), "qlec")
        assert m["kind"] == MANIFEST_KIND
        assert m["schema"] == MANIFEST_SCHEMA
        assert m["package"] == "repro"
        assert m["version"] == __version__
        assert m["protocol"] == "qlec"
        assert m["seed"] == 3
        assert m["n_nodes"] == 30
        assert m["rounds"] == 5
        assert m["equivalence"] == "bitwise"

    def test_json_serialisable(self):
        m = run_manifest(make_config(), "qlec")
        assert json.loads(json.dumps(m)) == m

    def test_extra_keys_merge(self):
        m = run_manifest(make_config(), "qlec", extra={"note": "test"})
        assert m["note"] == "test"

    def test_extra_cannot_shadow(self):
        with pytest.raises(ValueError):
            run_manifest(make_config(), "qlec", extra={"seed": 99})

    def test_backend_recorded_resolved_never_auto(self):
        m = run_manifest(make_config(), "qlec")  # config backend is "auto"
        assert m["backend"] != "auto"
        from repro.kernels import backend_names

        assert m["backend"] in backend_names()

    def test_backend_explicit_passthrough(self):
        m = run_manifest(make_config(), "qlec", backend="numpy")
        assert m["backend"] == "numpy"

    def test_backend_versions_recorded(self):
        m = run_manifest(make_config(), "qlec")
        versions = m["backend_versions"]
        import numpy as np

        assert versions["numpy"] == np.__version__
        # Key present even when the optional dep is absent (value null).
        assert "numba" in versions


class TestStableFingerprint:
    def test_insensitive_to_key_order(self):
        assert stable_fingerprint({"a": 1, "b": 2}) == stable_fingerprint(
            {"b": 2, "a": 1}
        )

    def test_sensitive_to_values(self):
        assert stable_fingerprint({"a": 1}) != stable_fingerprint({"a": 2})

    def test_format(self):
        fp = stable_fingerprint({"x": [1, 2.5, "s"]})
        assert len(fp) == 16
        int(fp, 16)

    def test_config_fingerprint_is_stable_fingerprint(self):
        import dataclasses

        cfg = make_config()
        assert config_fingerprint(cfg) == stable_fingerprint(
            dataclasses.asdict(cfg)
        )


class TestShardManifest:
    SPEC = {"protocols": ["direct"], "lambdas": [4.0], "seeds": [0]}

    def test_required_fields(self):
        m = shard_manifest(self.SPEC, stable_fingerprint(self.SPEC), 2, 3)
        assert m["kind"] == SHARD_MANIFEST_KIND
        assert m["schema"] == MANIFEST_SCHEMA
        assert m["version"] == __version__
        assert (m["shard"], m["num_shards"]) == (2, 3)
        assert m["spec"] == self.SPEC
        assert json.loads(json.dumps(m)) == m

    def test_merged_marker_allowed(self):
        m = shard_manifest(self.SPEC, stable_fingerprint(self.SPEC), 0, 0)
        assert (m["shard"], m["num_shards"]) == (0, 0)

    @pytest.mark.parametrize("shard,total", [(0, 3), (4, 3), (-1, 1)])
    def test_out_of_range_rejected(self, shard, total):
        with pytest.raises(ValueError):
            shard_manifest(self.SPEC, "ab" * 8, shard, total)
