"""Backend provenance in sweep sharding: cell IDs, payloads, artifacts.

The ``stop_on_death`` lesson applied to kernel backends: a cell's
identity pins the *resolved* kernel backend, so an artifact whose rows
were computed on another backend (by a build that had one) is never
resumed or merged as if it were this build's.
"""

import copy
import json

import pytest

from repro.parallel.sharding import (
    SweepCell,
    SweepSpec,
    load_artifact,
    merge_artifacts,
    run_shard,
)

SPEC = SweepSpec(protocols=("direct",), lambdas=(4.0,), seeds=(0,), rounds=2)


def _foreign(cell: SweepCell, backend: str = "numba") -> SweepCell:
    """``cell`` as a build with another backend enumerated it: the same
    config with a doctored backend name (which no config here accepts)."""
    config = copy.copy(cell.config)
    object.__setattr__(config, "backend", backend)
    return SweepCell(cell.protocol, config, cell.stop_on_death)


def _doctor_rows(path, backend: str = "numba") -> None:
    """Rewrite an artifact's cell rows as another backend's rows."""
    foreign = {c.cell_id: _foreign(c, backend) for c in SPEC.cells()}
    lines = []
    for line in path.read_text().splitlines():
        record = json.loads(line)
        if record.get("kind") == "cell":
            cell = foreign[record["cell_id"]]
            record.update(cell_id=cell.cell_id, backend=backend)
        lines.append(json.dumps(record, sort_keys=True))
    path.write_text("\n".join(lines) + "\n")


class TestSpecBackendField:
    def test_default_selector_is_auto(self):
        assert SPEC.backend == "auto"

    def test_payload_roundtrip_keeps_selector(self):
        spec = SweepSpec(
            protocols=("direct",), lambdas=(4.0,), seeds=(0,),
            backend="numpy",
        )
        payload = spec.to_payload()
        assert payload["backend"] == "numpy"
        assert SweepSpec.from_payload(payload) == spec

    def test_fingerprint_covers_backend_selector(self):
        a = SweepSpec(protocols=("direct",), lambdas=(4.0,), seeds=(0,))
        b = SweepSpec(
            protocols=("direct",), lambdas=(4.0,), seeds=(0,),
            backend="numpy",
        )
        assert a.fingerprint != b.fingerprint

    def test_rejects_empty_backend(self):
        with pytest.raises(ValueError, match="backend"):
            SweepSpec(
                protocols=("direct",), lambdas=(4.0,), seeds=(0,),
                backend="",
            )

    def test_rejects_removed_backend(self):
        with pytest.raises(ValueError, match="backend must be one of"):
            SweepSpec(
                protocols=("direct",), lambdas=(4.0,), seeds=(0,),
                backend="numba",
            )


class TestCellIdentity:
    def test_cells_pin_resolved_backend(self):
        for cell in SPEC.cells():
            assert cell.backend == "numpy"  # resolved, never "auto"

    def test_cell_ids_differ_across_resolved_backends(self):
        """A cell resolved to another backend has a *different* cell
        ID, so a resume or merge of its rows recomputes instead of
        silently mixing backends."""
        numpy_cells = SPEC.cells()
        numba_cells = [_foreign(c) for c in numpy_cells]

        assert [c.backend for c in numpy_cells] == ["numpy"]
        assert [c.backend for c in numba_cells] == ["numba"]
        assert {c.cell_id for c in numpy_cells}.isdisjoint(
            c.cell_id for c in numba_cells
        )
        # The config fingerprint moves too: the backend is part of the
        # scenario config the cell runs.
        assert (
            numpy_cells[0].config_fingerprint
            != numba_cells[0].config_fingerprint
        )

    def test_explicit_selector_matches_resolution(self):
        explicit = SweepSpec(
            protocols=("direct",), lambdas=(4.0,), seeds=(0,), rounds=2,
            backend="numpy",
        )
        assert [c.backend for c in explicit.cells()] == ["numpy"]


class TestArtifactProvenance:
    def test_cell_rows_record_backend(self, tmp_path):
        spec = SweepSpec(
            protocols=("direct",), lambdas=(4.0,), seeds=(0,), rounds=2,
            backend="numpy",
        )
        result = run_shard(spec, 1, 1, tmp_path / "s.jsonl", serial=True)
        assert result.ok
        art = load_artifact(result.path)
        assert art.manifest["spec"]["backend"] == "numpy"
        for row in art.cell_rows:
            assert row["backend"] == "numpy"

    def test_backend_switch_invalidates_resume(self, tmp_path):
        """Rows computed under another resolved backend are stale: a
        resume recomputes every cell."""
        path = tmp_path / "s.jsonl"
        first = run_shard(SPEC, 1, 1, path, serial=True)
        assert len(first.executed) == len(SPEC)

        # Same spec, same build — resume recomputes nothing.
        again = run_shard(SPEC, 1, 1, path, serial=True)
        assert again.executed == []

        _doctor_rows(path)
        healed = run_shard(SPEC, 1, 1, path, serial=True)
        assert sorted(healed.executed) == sorted(first.executed)
        assert [r["backend"] for r in load_artifact(path).cell_rows] == ["numpy"]

    def test_foreign_backend_rows_refused_by_merge(self, tmp_path):
        path = tmp_path / "s.jsonl"
        run_shard(SPEC, 1, 1, path, serial=True)
        _doctor_rows(path)
        with pytest.raises(ValueError, match="not in the grid"):
            merge_artifacts([path])
