"""Unit and property-based tests for sweep-level sharding.

The property-based half drives the merge contract: folding shard
artifacts must be order-insensitive (any permutation) and
subset-associative (merging pre-merged halves), always reproducing the
serial sweep exactly.  The simulations themselves run once in
module-scoped fixtures; every hypothesis example only re-merges
in-memory artifacts, so hundreds of examples stay cheap.
"""

import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sweep import sweep_from_spec
from repro.config import paper_config
from repro.parallel.sharding import (
    CELL_KIND,
    SHARD_TELEMETRY_KIND,
    ShardArtifact,
    SweepCell,
    SweepSpec,
    load_artifact,
    merge_artifacts,
    parse_shard_arg,
    partition_cells,
    run_shard,
    write_merged_artifact,
)
from repro.telemetry import deterministic_view
from repro.telemetry.manifest import (
    SHARD_MANIFEST_KIND,
    config_fingerprint,
    stable_fingerprint,
)

SPEC = SweepSpec(
    protocols=("direct",),
    lambdas=(4.0, 8.0),
    seeds=(0, 1, 2),
    rounds=2,
    telemetry=True,
)


@pytest.fixture(scope="module")
def serial_sweep():
    return sweep_from_spec(SPEC, serial=True)


@pytest.fixture(scope="module")
def singleton_artifacts(tmp_path_factory):
    """One artifact per cell (K = N singleton shards)."""
    root = tmp_path_factory.mktemp("singletons")
    n = len(SPEC)
    paths = []
    for k in range(1, n + 1):
        res = run_shard(SPEC, k, n, root / f"s{k}.jsonl", serial=True)
        assert len(res.cells) == 1 and not res.errors
        paths.append(res.path)
    return [load_artifact(p) for p in paths]


class TestSpec:
    def test_payload_roundtrip(self):
        clone = SweepSpec.from_payload(SPEC.to_payload())
        assert clone == SPEC
        assert clone.fingerprint == SPEC.fingerprint

    def test_payload_roundtrips_through_json(self):
        clone = SweepSpec.from_payload(json.loads(json.dumps(SPEC.to_payload())))
        assert clone.fingerprint == SPEC.fingerprint

    def test_fingerprint_sensitive_to_grid(self):
        other = SweepSpec(
            protocols=("direct",), lambdas=(4.0, 8.0), seeds=(0, 1), rounds=2
        )
        assert other.fingerprint != SPEC.fingerprint

    def test_coerces_sequences(self):
        spec = SweepSpec(protocols=["direct"], lambdas=[4], seeds=[0])
        assert spec.protocols == ("direct",)
        assert spec.lambdas == (4.0,)

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec(protocols=(), lambdas=(4.0,), seeds=(0,))

    def test_spec_rejects_unknown_tier(self):
        with pytest.raises(ValueError, match="equivalence"):
            SweepSpec(
                protocols=("direct",), lambdas=(8.0,), seeds=(0,),
                equivalence="statistical",
            )

    def test_len_is_grid_size(self):
        assert len(SPEC) == 1 * 2 * 3

    def test_cells_enumerate_in_canonical_order(self):
        assert [(c.protocol, c.lam, c.seed) for c in SPEC.cells()] == [
            (p, lam, seed)
            for p in SPEC.protocols
            for lam in SPEC.lambdas
            for seed in SPEC.seeds
        ]

    def test_cells_carry_resolved_configs(self):
        for cell in SPEC.cells():
            assert cell.config == SPEC.config(cell.lam, cell.seed)
            assert cell.config.backend != "auto"
            assert cell.config.rounds == SPEC.rounds


class TestCellIdentity:
    def test_ids_are_16_hex(self):
        for cell in SPEC.cells():
            int(cell.cell_id, 16)
            assert len(cell.cell_id) == 16

    def test_ids_unique_and_stable(self):
        a = [c.cell_id for c in SPEC.cells()]
        b = [c.cell_id for c in SPEC.cells()]
        assert a == b
        assert len(set(a)) == len(a)

    def test_id_embeds_config_fingerprint(self):
        """Changing the scenario (rounds) moves every cell ID."""
        other = SweepSpec(
            protocols=("direct",), lambdas=(4.0, 8.0), seeds=(0, 1, 2),
            rounds=3, telemetry=True,
        )
        assert {c.cell_id for c in other.cells()}.isdisjoint(
            {c.cell_id for c in SPEC.cells()}
        )

    def test_id_survives_grid_extension(self):
        """Adding a protocol leaves existing cells' IDs untouched."""
        wider = SweepSpec(
            protocols=("direct", "kmeans"), lambdas=(4.0, 8.0),
            seeds=(0, 1, 2), rounds=2, telemetry=True,
        )
        assert {c.cell_id for c in SPEC.cells()} <= {
            c.cell_id for c in wider.cells()
        }

    def test_id_embeds_stop_on_death(self):
        """stop_on_death shapes the simulation outcome but is not a
        SimulationConfig field; it must still move every cell ID."""
        flipped = SweepSpec(
            protocols=("direct",), lambdas=(4.0, 8.0), seeds=(0, 1, 2),
            rounds=2, stop_on_death=True, telemetry=True,
        )
        assert {c.cell_id for c in flipped.cells()}.isdisjoint(
            {c.cell_id for c in SPEC.cells()}
        )

    def test_identity_is_pure(self):
        a = SweepCell("direct", paper_config(seed=0))
        b = SweepCell("direct", paper_config(seed=0))
        assert a == b and a.cell_id == b.cell_id
        assert a.cell_id != SweepCell(
            "direct", paper_config(seed=0), stop_on_death=True
        ).cell_id

    def test_id_hashes_protocol_config_and_stop_on_death_only(self):
        cell = SPEC.cells()[0]
        assert cell.cell_id == stable_fingerprint(
            {
                "protocol": cell.protocol,
                "config_fingerprint": config_fingerprint(cell.config),
                "stop_on_death": False,
            }
        )

    def test_cell_survives_pickling(self):
        cell = SPEC.cells()[0]
        clone = pickle.loads(pickle.dumps(cell))
        assert clone == cell and clone.cell_id == cell.cell_id


class TestOverrides:
    """Generic config overrides: any SimulationConfig knob sweeps
    without sweep plumbing, and it is part of cell identity."""

    def _spec(self, **overrides):
        return SweepSpec(
            protocols=("direct",), lambdas=(4.0,), seeds=(0, 1), rounds=2,
            overrides=overrides,
        )

    def test_overrides_reach_every_cell_config(self):
        for cell in self._spec(queue={"capacity": 3}).cells():
            assert cell.config.queue.capacity == 3
            assert cell.config.traffic.mean_interarrival == 4.0

    def test_overrides_move_cell_ids_and_fingerprint(self):
        plain, tuned = self._spec(), self._spec(queue={"capacity": 3})
        assert plain.fingerprint != tuned.fingerprint
        assert {c.cell_id for c in plain.cells()}.isdisjoint(
            c.cell_id for c in tuned.cells()
        )

    def test_payload_round_trips_through_json(self):
        spec = self._spec(queue={"capacity": 3}, n_clusters=4)
        clone = SweepSpec.from_payload(json.loads(json.dumps(spec.to_payload())))
        assert clone == spec and clone.fingerprint == spec.fingerprint

    def test_typo_rejected_at_the_spec(self):
        with pytest.raises(ValueError, match="unknown"):
            self._spec(queue={"capacty": 3})

    @pytest.mark.parametrize(
        "axis", [{"seed": 7}, {"traffic": {"mean_interarrival": 9.0}}]
    )
    def test_grid_axes_cannot_be_overridden(self, axis):
        with pytest.raises(ValueError, match="option owns"):
            self._spec(**axis)

    @pytest.mark.parametrize(
        "axis", [{"seed": 0}, {"traffic": {"mean_interarrival": 4.0}}]
    )
    def test_axis_override_equal_to_first_grid_point_rejected(self, axis):
        """An override equal to the first grid point would pass a check
        of that point alone, then collapse every other λ (or seed) onto
        it: one config, one cell ID, for distinct grid points."""
        with pytest.raises(ValueError, match="option owns"):
            SweepSpec(
                protocols=("direct",), lambdas=(4.0, 8.0), seeds=(0, 1),
                rounds=2, overrides=axis,
            )

    @pytest.mark.parametrize(
        "override, option",
        [
            ({"backend": "auto"}, "backend"),
            ({"equivalence": "statistical"}, "equivalence"),
            ({"max_block_mb": 1.0}, "max_block_mb"),
            ({"routing": {"kind": "tree"}}, "routing"),
            ({"routing": None}, "routing"),
            ({"rounds": 5}, "rounds"),
            ({"deployment": {"initial_energy": 5.0}}, "initial_energy"),
            ({"faults": None}, "faults"),
            ({"traffic": 3}, "lambdas"),
        ],
    )
    def test_spec_owned_fields_cannot_be_overridden(self, override, option):
        """A field a named option sets is the manifest's record of the
        run; an override would run cells the spec does not describe."""
        with pytest.raises(ValueError, match=f"'{option}' option owns"):
            self._spec(**override)

    def test_siblings_of_owned_fields_stay_sweepable(self):
        spec = self._spec(
            routing={"range_factor": 3.0},
            deployment={"n_nodes": 50},
            traffic={"packet_bits": 2000},
        )
        for cell in spec.cells():
            assert cell.config.routing.range_factor == 3.0
            assert cell.config.routing.kind == "direct"
            assert cell.config.deployment.n_nodes == 50

    def test_empty_sub_mapping_is_a_no_op(self):
        assert [c.config for c in self._spec(traffic={}).cells()] == [
            c.config for c in self._spec().cells()
        ]

    def test_caller_mapping_is_copied(self):
        knobs = {"queue": {"capacity": 3}}
        spec = SweepSpec(
            protocols=("direct",), lambdas=(4.0,), seeds=(0,), overrides=knobs
        )
        knobs["queue"]["capacity"] = 5
        assert spec.overrides == {"queue": {"capacity": 3}}

    def test_overridden_sweep_row_equals_direct_run(self):
        from repro.analysis.sweep import run_cell

        overrides = {"traffic": {"packet_bits": 2000}}
        spec = SweepSpec(
            protocols=("direct",), lambdas=(4.0,), seeds=(0,), rounds=2,
            overrides=overrides,
        )
        [row] = sweep_from_spec(spec, serial=True).rows
        assert row == run_cell("direct", 4.0, 0, rounds=2, overrides=overrides)
        assert row != run_cell("direct", 4.0, 0, rounds=2)


class TestPartition:
    def test_disjoint_and_covering(self):
        cells = SPEC.cells()
        for k in (1, 2, 3, len(cells), len(cells) + 3):
            shards = partition_cells(cells, k)
            ids = [c.cell_id for shard in shards for c in shard]
            assert sorted(ids) == sorted(c.cell_id for c in cells)
            assert len(ids) == len(set(ids))

    def test_balanced(self):
        shards = partition_cells(SPEC.cells(), 4)
        sizes = [len(s) for s in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_singletons_at_k_equals_n(self):
        cells = SPEC.cells()
        shards = partition_cells(cells, len(cells))
        assert all(len(s) == 1 for s in shards)

    def test_assignment_ignores_enumeration_order(self):
        cells = SPEC.cells()
        shards = partition_cells(cells, 3)
        reversed_shards = partition_cells(list(reversed(cells)), 3)
        for a, b in zip(shards, reversed_shards):
            assert {c.cell_id for c in a} == {c.cell_id for c in b}

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            partition_cells(SPEC.cells(), 0)


class TestParseShardArg:
    def test_parses(self):
        assert parse_shard_arg("1/1") == (1, 1)
        assert parse_shard_arg("2/3") == (2, 3)

    @pytest.mark.parametrize("bad", ["0/3", "4/3", "x/3", "3", "1/2/3", ""])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_shard_arg(bad)


class TestArtifactFormat:
    def test_header_and_record_kinds(self, singleton_artifacts):
        art = singleton_artifacts[0]
        assert art.manifest["kind"] == SHARD_MANIFEST_KIND
        assert art.manifest["spec_fingerprint"] == SPEC.fingerprint
        kinds = [r["kind"] for r in art.records]
        assert kinds == [CELL_KIND, SHARD_TELEMETRY_KIND]

    def test_torn_tail_tolerated(self, singleton_artifacts, tmp_path):
        text = singleton_artifacts[0].path.read_text()
        torn = tmp_path / "torn.jsonl"
        torn.write_text(text + '{"kind": "cell", "cell_id": "dead')
        art = load_artifact(torn)
        assert len(art.records) == len(singleton_artifacts[0].records)

    def test_malformed_middle_line_rejected(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            json.dumps({"kind": SHARD_MANIFEST_KIND, "spec": {}}) + "\n"
            "not json\n"
            + json.dumps({"kind": CELL_KIND}) + "\n"
        )
        with pytest.raises(ValueError, match="malformed"):
            load_artifact(bad)

    def test_missing_header_rejected(self, tmp_path):
        bad = tmp_path / "headless.jsonl"
        bad.write_text(json.dumps({"kind": CELL_KIND}) + "\n")
        with pytest.raises(ValueError, match="header"):
            load_artifact(bad)


class TestMergeProperties:
    """The satellite property suite: order-insensitivity and
    subset-associativity of the artifact merge, against the serial run."""

    def _check(self, merged, serial_sweep):
        assert merged.complete
        assert merged.sweep.rows == serial_sweep.rows
        assert deterministic_view(merged.sweep.telemetry) == deterministic_view(
            serial_sweep.telemetry
        )

    @given(perm=st.permutations(list(range(6))))
    @settings(max_examples=30, deadline=None)
    def test_merge_is_order_insensitive(
        self, perm, singleton_artifacts, serial_sweep
    ):
        arts = [singleton_artifacts[i] for i in perm]
        self._check(merge_artifacts(arts), serial_sweep)

    @given(mask=st.lists(st.booleans(), min_size=6, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_merge_is_subset_associative(
        self, mask, singleton_artifacts, serial_sweep, tmp_path_factory
    ):
        """merge(merge(A), merge(B)) == merge(A + B) == serial, for any
        2-colouring of the artifacts into halves A and B."""
        half_a = [a for a, m in zip(singleton_artifacts, mask) if m]
        half_b = [a for a, m in zip(singleton_artifacts, mask) if not m]
        root = tmp_path_factory.mktemp("halves")
        halves = []
        for i, half in enumerate((half_a, half_b)):
            if not half:
                continue
            merged_half = merge_artifacts(half)  # partial: cells missing
            path = write_merged_artifact(
                merged_half, half, root / f"half{i}.jsonl"
            )
            halves.append(path)
        self._check(merge_artifacts(halves), serial_sweep)

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_duplicate_coverage_is_idempotent(
        self, data, singleton_artifacts, serial_sweep
    ):
        """Merging the same artifact several times changes nothing."""
        extra = data.draw(
            st.lists(st.sampled_from(singleton_artifacts), max_size=4)
        )
        self._check(
            merge_artifacts(list(singleton_artifacts) + extra), serial_sweep
        )


def _with_doctored_telemetry(art, predicate):
    """Copy ``art`` with every telemetry metric matching ``predicate``
    numerically perturbed (cell rows and trailer alike)."""
    def bump(metric):
        metric = dict(metric)
        if "value" in metric:
            metric["value"] = metric["value"] + 1
        else:
            metric["total"] = metric["total"] + 1.0
        return metric

    records = []
    touched = 0
    for r in art.records:
        r = json.loads(json.dumps(r))  # deep copy
        for key in ("telemetry", "snapshot"):
            snap = r.get(key)
            if not snap:
                continue
            for name in snap:
                if predicate(name):
                    snap[name] = bump(snap[name])
                    touched += 1
        records.append(r)
    assert touched, "expected the predicate to match at least one metric"
    return ShardArtifact(manifest=dict(art.manifest), records=records, path=None)


class TestDuplicateCoverageTelemetry:
    """Instrumented artifacts covering the same cell legitimately
    disagree on wall-clock ``time/`` metrics; the merge conflict check
    must compare only the deterministic view of the snapshots."""

    def test_independent_rerun_overlaps_cleanly(
        self, singleton_artifacts, serial_sweep, tmp_path
    ):
        """A fresh 1/1 artifact (new wall-clock readings) merges with
        the singleton shards without a spurious conflict."""
        res = run_shard(SPEC, 1, 1, tmp_path / "whole.jsonl", serial=True)
        merged = merge_artifacts(
            [res.path, *singleton_artifacts]
        ).require_complete()
        assert merged.sweep.rows == serial_sweep.rows
        assert deterministic_view(merged.sweep.telemetry) == deterministic_view(
            serial_sweep.telemetry
        )

    def test_wallclock_difference_is_not_a_conflict(self, singleton_artifacts):
        art = singleton_artifacts[0]
        doctored = _with_doctored_telemetry(
            art, lambda name: name.startswith("time/")
        )
        merged = merge_artifacts([art, doctored])
        assert len(merged.sweep.rows) == 1

    def test_deterministic_telemetry_difference_still_conflicts(
        self, singleton_artifacts
    ):
        art = singleton_artifacts[0]
        doctored = _with_doctored_telemetry(
            art, lambda name: not name.startswith("time/")
        )
        with pytest.raises(ValueError, match="conflicting"):
            merge_artifacts([art, doctored])


class TestMergeValidation:
    def test_empty_merge_rejected(self):
        with pytest.raises(ValueError, match="no artifacts"):
            merge_artifacts([])

    def test_spec_mismatch_rejected(self, singleton_artifacts, tmp_path):
        other = SweepSpec(
            protocols=("direct",), lambdas=(4.0,), seeds=(0,), rounds=2
        )
        res = run_shard(other, 1, 1, tmp_path / "other.jsonl", serial=True)
        with pytest.raises(ValueError, match="fingerprint"):
            merge_artifacts([singleton_artifacts[0], res.path])

    def test_unknown_spec_key_rejected_by_name(self, singleton_artifacts):
        # An artifact written by a build whose spec has an option this
        # one lacks.
        art = singleton_artifacts[0]
        manifest = dict(art.manifest)
        manifest["spec"] = {**manifest["spec"], "tier": "statistical"}
        foreign = ShardArtifact(manifest=manifest, records=art.records, path=None)
        with pytest.raises(ValueError, match=r"\['tier'\]"):
            merge_artifacts([foreign])
        with pytest.raises(ValueError, match="does not know"):
            SweepSpec.from_payload(manifest["spec"])

    def test_conflicting_rows_rejected(self, singleton_artifacts):
        art = singleton_artifacts[0]
        doctored = ShardArtifact(
            manifest=dict(art.manifest),
            records=[
                {**r, "summary": {**r["summary"], "pdr": -1.0}}
                if r["kind"] == CELL_KIND
                else r
                for r in art.records
            ],
            path=None,
        )
        with pytest.raises(ValueError, match="conflicting"):
            merge_artifacts([art, doctored])

    def test_foreign_cell_rejected(self, singleton_artifacts):
        art = singleton_artifacts[0]
        doctored = ShardArtifact(
            manifest=dict(art.manifest),
            records=[
                {**r, "cell_id": "f" * 16} if r["kind"] == CELL_KIND else r
                for r in art.records
            ],
            path=None,
        )
        with pytest.raises(ValueError, match="not in the grid"):
            merge_artifacts([doctored])

    def test_partial_merge_reports_missing(self, singleton_artifacts):
        merged = merge_artifacts(singleton_artifacts[:2])
        assert not merged.complete
        assert len(merged.missing) == 4
        assert len(merged.sweep.rows) == 2
        with pytest.raises(ValueError, match="incomplete"):
            merged.require_complete()
