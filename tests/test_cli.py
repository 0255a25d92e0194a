"""Tests for the command-line interface and the report generator."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig3_defaults(self):
        args = build_parser().parse_args(["fig3"])
        assert args.command == "fig3"
        assert args.lambdas == [2.0, 4.0, 8.0, 16.0]

    def test_fig4_options(self):
        args = build_parser().parse_args(
            ["fig4", "--nodes", "100", "--clusters", "9", "--compare"]
        )
        assert args.nodes == 100
        assert args.compare

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["teleport"])

    @pytest.mark.parametrize(
        "command", ["quickstart", "fig3", "fig4", "sweep", "scenario"]
    )
    def test_backend_flag_accepted(self, command):
        argv = [command, "table2"] if command == "scenario" else [command]
        args = build_parser().parse_args(argv + ["--backend", "numpy"])
        assert args.backend == "numpy"

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--workers", "0"],
            ["sweep", "--retries", "-1"],
            ["sweep", "--lease-seconds", "0"],
            ["sweep", "--lease-seconds", "-1"],
            ["sweep", "--checkpoint-every", "0", "--checkpoint-dir", "d"],
            ["scenario", "table2", "--checkpoint-every", "0"],
            ["scenario", "table2", "--keep-last", "0"],
            ["resume", "x.ckpt", "--checkpoint-every", "0"],
            ["quickstart", "--max-block-mb", "0"],
            ["quickstart", "--max-block-mb", "-1"],
            ["scenario", "table2", "--max-block-mb", "0"],
            ["scenario", "table2", "--max-block-mb", "-1"],
            ["sweep", "--rounds", "0"],
            ["sweep", "--lambdas", "-4"],
            ["sweep", "--energy", "-1"],
            ["fig4", "--nodes", "0"],
            ["lifespan", "--rounds", "0"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_bad_numbers_rejected_at_the_parser(self, argv, capsys):
        # Each used to surface late: a traceback, per-cell error rows,
        # or checkpointing silently switched off.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["quickstart", "--backend", "numba"],
            ["fig3", "--backend", "numba"],
            ["fig4", "--backend", "numba"],
            ["sweep", "--backend", "numba"],
            ["scenario", "table2", "--backend", "numba"],
            ["sweep", "--compress", "zst"],
            ["sweep", "--compress", "auto"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_removed_choices_rejected_at_the_parser(self, argv, capsys):
        # The numba backend and the zstd codec are gone; a script that
        # still names them fails before any work starts.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_backend_defaults_to_auto(self):
        assert build_parser().parse_args(["quickstart"]).backend == "auto"

    def test_backend_rejects_unknown_choice(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["quickstart", "--backend", "tpu"])

    def test_equivalence_accepts_only_bitwise(self, capsys):
        args = build_parser().parse_args(["sweep", "--equivalence", "bitwise"])
        assert args.equivalence == "bitwise"
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["sweep", "--equivalence", "statistical"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestCommands:
    def test_quickstart_prints_table(self, capsys):
        assert main(["quickstart", "--seed", "1", "--lam", "16"]) == 0
        out = capsys.readouterr().out
        for name in ("qlec", "fcm", "kmeans", "direct"):
            assert name in out

    def test_kopt_command(self, capsys):
        assert main(["kopt"]) == 0
        assert "Theorem 1" in capsys.readouterr().out

    def test_fig4_small_command(self, capsys):
        rc = main(
            ["fig4", "--nodes", "80", "--clusters", "8", "--rounds", "2"]
        )
        assert rc == 0
        assert "Fig. 4" in capsys.readouterr().out


class TestReport:
    def test_quick_report(self, tmp_path, monkeypatch):
        from repro.analysis.report import ReportConfig, generate_report

        text = generate_report(
            ReportConfig(
                seeds=(0,),
                lambdas=(8.0,),
                quick=True,
                serial=True,
            )
        )
        assert text.startswith("# QLEC reproduction report")
        assert "Fig. 3" in text
        assert "Theorem 1" in text
        assert "Complexity" in text

    @pytest.mark.slow
    def test_report_command_writes_file(self, tmp_path, capsys):
        out_file = tmp_path / "REPORT.md"
        # quick+serial keeps this test to a few seconds.
        import repro.analysis.report as report_mod

        original = report_mod.ReportConfig
        rc = main(["report", "--out", str(out_file), "--quick", "--serial"])
        assert rc == 0
        assert out_file.exists()
        assert "Fig. 3" in out_file.read_text()
        assert original is report_mod.ReportConfig


class TestNewCommands:
    def test_scenario_list(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        assert "table2" in out and "underwater" in out

    def test_scenario_run_with_layout(self, capsys):
        assert main(
            ["scenario", "table2", "--protocol", "direct", "--layout"]
        ) == 0
        out = capsys.readouterr().out
        assert "S" in out  # the BS marker in the layout
        assert "direct" in out

    def test_scenario_unknown_raises(self):
        with pytest.raises(KeyError):
            main(["scenario", "atlantis"])

    def test_convergence_command(self, capsys):
        assert main(["convergence"]) == 0
        assert "X / N" in capsys.readouterr().out

    def test_lifespan_command_small(self, capsys):
        assert main(
            ["lifespan", "--rounds", "6", "--seeds", "0", "--energy", "0.03"]
        ) == 0
        assert "FND" in capsys.readouterr().out


class TestShardCommands:
    GRID = [
        "--protocols", "direct", "--lambdas", "4", "8", "--seeds", "0", "1",
        "--rounds", "2", "--serial",
    ]

    def _run_shards(self, tmp_path, num_shards):
        paths = []
        for k in range(1, num_shards + 1):
            out = tmp_path / f"s{k}.jsonl"
            assert main(
                ["sweep", *self.GRID, "--shard", f"{k}/{num_shards}",
                 "--out", str(out)]
            ) == 0
            paths.append(str(out))
        return paths

    def test_sweep_writes_artifact(self, tmp_path, capsys):
        out = tmp_path / "shard.jsonl"
        assert main(["sweep", *self.GRID, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "shard 1/1: 4 of 4 cells" in stdout
        assert "executed 4, resumed 0, errors 0" in stdout
        assert out.exists()

    def test_sweep_resume_skips(self, tmp_path, capsys):
        out = tmp_path / "shard.jsonl"
        assert main(["sweep", *self.GRID, "--out", str(out)]) == 0
        assert main(["sweep", *self.GRID, "--out", str(out)]) == 0
        assert "executed 0, resumed 4" in capsys.readouterr().out

    def test_merge_recovers_grid(self, tmp_path, capsys):
        paths = self._run_shards(tmp_path, 2)
        capsys.readouterr()
        assert main(["merge", *reversed(paths), "--strict"]) == 0
        stdout = capsys.readouterr().out
        assert "4 of 4 cells recovered" in stdout
        assert "direct" in stdout

    def test_merge_strict_fails_on_missing(self, tmp_path, capsys):
        paths = self._run_shards(tmp_path, 2)
        assert main(["merge", paths[0], "--strict"]) == 1
        assert "MISSING" in capsys.readouterr().out

    def test_merge_writes_sweep_json(self, tmp_path):
        from repro.analysis import load_sweep

        paths = self._run_shards(tmp_path, 2)
        out = tmp_path / "merged.json"
        assert main(["merge", *paths, "--out", str(out)]) == 0
        assert len(load_sweep(out).rows) == 4

    def test_fig3_from_artifacts(self, tmp_path, capsys):
        grid = [
            "--protocols", "direct", "kmeans", "--lambdas", "4", "8",
            "--seeds", "0", "--rounds", "2", "--serial",
        ]
        out = tmp_path / "all.jsonl"
        assert main(["sweep", *grid, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["fig3", "--from-artifacts", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "Fig. 3(a)" in stdout and "kmeans" in stdout

    def test_set_overrides_reach_the_artifact(self, tmp_path):
        from repro.parallel import load_artifact

        out = tmp_path / "s.jsonl"
        assert main(
            ["sweep", *self.GRID, "--set", "queue.capacity=2", "n_clusters=3",
             "--out", str(out)]
        ) == 0
        art = load_artifact(out)
        assert art.manifest["spec"]["overrides"] == {
            "queue": {"capacity": 2}, "n_clusters": 3,
        }
        assert {c.config.n_clusters for c in art.spec.cells()} == {3}
        assert len(art.cell_rows) == 4

    def test_set_rejects_malformed_pairs(self):
        with pytest.raises(ValueError, match="KEY=VALUE"):
            main(["sweep", *self.GRID, "--set", "n_clusters"])

    def test_sweep_bad_shard_selector(self):
        with pytest.raises(ValueError):
            main(["sweep", *self.GRID, "--shard", "3/2"])


class TestVersionCommand:
    def test_version_subcommand(self, capsys):
        assert main(["version"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        assert "numpy" in out

    def test_version_flag_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("repro ")

    def test_version_reports_package_version(self, capsys):
        from repro import __version__

        main(["version"])
        assert __version__ in capsys.readouterr().out


class TestStatusCommand:
    GRID = [
        "--protocols", "direct", "--lambdas", "4", "8", "--seeds", "0", "1",
        "--rounds", "2", "--serial",
    ]

    def test_status_matches_merged_artifact(self, tmp_path, capsys):
        """Acceptance: on a 2-shard sweep, `repro status` reports cells
        done/failed matching the merged artifact exactly."""
        from repro.parallel import merge_artifacts

        paths = []
        for k in (1, 2):
            out = tmp_path / f"s{k}.jsonl"
            assert main(
                ["sweep", *self.GRID, "--shard", f"{k}/2", "--out", str(out)]
            ) == 0
            paths.append(out)
        capsys.readouterr()
        assert main(["status", str(tmp_path)]) == 0
        stdout = capsys.readouterr().out
        merged = merge_artifacts(paths)
        done = len(merged.sweep.rows)
        failed = len(merged.errors)
        assert f"fleet: {done}/{done + failed} cells done, " in stdout
        assert f"{failed} failed (complete)" in stdout
        assert "1/2" in stdout and "2/2" in stdout

    def test_status_accepts_artifact_paths(self, tmp_path, capsys):
        out = tmp_path / "s.jsonl"
        assert main(
            ["sweep", *self.GRID, "--shard", "1/1", "--out", str(out)]
        ) == 0
        capsys.readouterr()
        assert main(["status", str(out)]) == 0
        assert "complete" in capsys.readouterr().out

    def test_status_renders_a_drained_run(self, tmp_path, capsys):
        from repro.parallel import SweepSpec, run_shard

        spec = SweepSpec(
            protocols=("direct",), lambdas=(4.0,), seeds=(0, 1), rounds=2
        )
        out = tmp_path / "s.jsonl"
        run_shard(spec, 1, 1, out, serial=True, stop_requested=lambda: True)
        capsys.readouterr()
        assert main(["status", str(out)]) == 0
        header, _, row, fleet = capsys.readouterr().out.splitlines()[1:]

        def cells(line):
            return [c.strip() for c in line.split("|")]

        assert cells(header) == [
            "shard", "state", "done", "failed", "retried", "reclaimed",
            "total", "cell_s", "eta_s", "age_s",
        ]
        assert cells(row)[:7] == ["1/1", "stopped", "1", "0", "0", "0", "2"]
        assert fleet == "fleet: 1/2 cells done, 0 failed (running)"

    def test_status_no_sidecars_exits_2(self, tmp_path, capsys):
        assert main(["status", str(tmp_path)]) == 2
        assert "no status sidecars" in capsys.readouterr().err


class TestScenarioTrace:
    def test_trace_writes_jsonl_and_chrome(self, tmp_path, capsys):
        import json

        trace_path = tmp_path / "run.trace.jsonl"
        assert main(
            ["scenario", "table2", "--protocol", "direct", "--faults",
             "ch-kill", "--trace", str(trace_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "trace:" in out
        first = json.loads(trace_path.read_text().splitlines()[0])
        assert first["kind"] == "manifest"
        chrome_path = tmp_path / "run.trace.chrome.json"
        doc = json.loads(chrome_path.read_text())
        assert doc["traceEvents"]

    def test_trace_contains_fault_instants(self, tmp_path):
        from repro.telemetry import read_trace_jsonl

        trace_path = tmp_path / "run.trace.jsonl"
        assert main(
            ["scenario", "table2", "--protocol", "direct", "--faults",
             "ch-kill", "--trace", str(trace_path)]
        ) == 0
        events = read_trace_jsonl(trace_path)["events"]
        assert any(ev["cat"] == "fault" for ev in events)

    def test_trace_records_rounds_and_paths(self, tmp_path, capsys):
        from repro.telemetry import read_trace_jsonl

        trace_path = tmp_path / "run.trace.jsonl"
        assert main(
            ["scenario", "chaos-partition", "--routing", "tree",
             "--trace", str(trace_path)]
        ) == 0
        out = capsys.readouterr().out
        trace = read_trace_jsonl(trace_path)
        assert trace["summary"]["dropped"] == 0
        events = trace["events"]
        rounds = {ev["id"]: ev for ev in events if ev["name"] == "round"}
        ends = [ev for ev in events if ev["name"] == "round/end"]
        paths = [ev for ev in events if ev["name"] == "routing/path"]
        assert len(ends) == len(rounds) == trace["manifest"]["rounds"]
        assert paths
        for ev in ends + paths:
            assert rounds[ev["parent"]]["args"]["round"] == ev["args"]["round"]
        delivered = sum(ev["args"]["delivered"] for ev in ends)
        assert f"| {delivered} " in out  # the summary table's delivered


class TestSchedulerCli:
    GRID = [
        "--protocols", "direct", "--lambdas", "4", "8", "--seeds", "0", "1",
        "--rounds", "2",
    ]

    def test_scheduler_runs_whole_grid(self, tmp_path, capsys):
        out = tmp_path / "sched.jsonl"
        assert main(
            ["sweep", *self.GRID, "--scheduler", "--workers", "2",
             "--out", str(out)]
        ) == 0
        stdout = capsys.readouterr().out
        assert "scheduled: 4 cells" in stdout
        assert "executed 4, resumed 0, errors 0" in stdout
        assert out.exists()

    def test_scheduler_resume_skips(self, tmp_path, capsys):
        out = tmp_path / "sched.jsonl"
        args = ["sweep", *self.GRID, "--scheduler", "--out", str(out)]
        assert main(args) == 0
        before = out.read_bytes()
        assert main(args) == 0
        assert "executed 0, resumed 4" in capsys.readouterr().out
        assert out.read_bytes() == before

    def test_scheduler_rejects_shard_selector(self, capsys):
        assert main(
            ["sweep", *self.GRID, "--scheduler", "--shard", "1/2"]
        ) == 2
        assert "cannot be combined" in capsys.readouterr().err

    def test_compressed_scheduled_artifact_merges(self, tmp_path, capsys):
        out = tmp_path / "sched.jsonl.gz"
        assert main(
            ["sweep", *self.GRID, "--scheduler", "--compress", "gz",
             "--out", str(out)]
        ) == 0
        capsys.readouterr()
        assert main(["merge", str(out), "--strict"]) == 0
        assert "4 of 4 cells recovered" in capsys.readouterr().out

    def test_merge_of_a_zstd_artifact_exits_2(self, tmp_path, capsys):
        path = tmp_path / "s.jsonl.zst"
        path.write_bytes(b"\x28\xb5\x2f\xfd" + bytes(16))
        assert main(["merge", str(path)]) == 2
        assert "zstd" in capsys.readouterr().err


class TestStatusUnderScheduler:
    GRID = [
        "--protocols", "direct", "--lambdas", "4", "8", "--seeds", "0", "1",
        "--rounds", "2",
    ]

    def test_rollup_mixes_compressed_shards_and_scheduler(
        self, tmp_path, capsys
    ):
        # A fleet of two gz static shards plus one scheduled run: the
        # rollup must count every sidecar and label the scheduler row.
        for k in (1, 2):
            assert main(
                ["sweep", *self.GRID, "--serial", "--shard", f"{k}/2",
                 "--compress", "gz",
                 "--out", str(tmp_path / f"s{k}.jsonl.gz")]
            ) == 0
        assert main(
            ["sweep", *self.GRID, "--scheduler",
             "--out", str(tmp_path / "sched.jsonl")]
        ) == 0
        capsys.readouterr()
        assert main(["status", str(tmp_path)]) == 0
        stdout = capsys.readouterr().out
        assert "sched" in stdout
        assert "1/2" in stdout and "2/2" in stdout
        assert "reclaimed" in stdout
        assert "fleet: 8/8 cells done, 0 failed (complete)" in stdout


class TestCheckpointCommands:
    def test_checkpoint_flags_parse(self):
        args = build_parser().parse_args(
            ["scenario", "table2", "--checkpoint-every", "5",
             "--checkpoint-dir", "ck", "--keep-last", "2"]
        )
        assert args.checkpoint_every == 5
        assert args.checkpoint_dir == "ck"
        assert args.keep_last == 2
        args = build_parser().parse_args(["sweep"])
        assert args.checkpoint_every is None  # default off

    def test_scenario_checkpoints_then_resume(self, tmp_path, capsys):
        ckpt = tmp_path / "ck"
        assert main(
            ["scenario", "table2", "--protocol", "direct", "--seed", "1",
             "--checkpoint-every", "2", "--checkpoint-dir", str(ckpt)]
        ) == 0
        capsys.readouterr()
        from repro.checkpoint import snapshot_paths

        snaps = snapshot_paths(ckpt, "direct-table2-s1")
        assert snaps
        # Finish the run again from a mid-run snapshot via the CLI.
        assert main(["resume", str(snaps[0])]) == 0
        out = capsys.readouterr().out
        assert "resuming from round" in out
        assert "resumed run" in out

    def test_resume_refuses_corrupt_snapshot_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad-r00000001.ckpt"
        bad.write_bytes(b'{"kind": "engine-checkpoint"}\njunk')
        assert main(["resume", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_sweep_with_checkpointing_matches_plain(self, tmp_path, capsys):
        grid = ["--protocols", "direct", "--lambdas", "4", "--seeds", "0",
                "--rounds", "2", "--serial"]
        assert main(
            ["sweep", *grid, "--out", str(tmp_path / "a.jsonl")]
        ) == 0
        assert main(
            ["sweep", *grid, "--out", str(tmp_path / "b.jsonl"),
             "--checkpoint-every", "1",
             "--checkpoint-dir", str(tmp_path / "ck")]
        ) == 0
        capsys.readouterr()
        from repro.parallel import load_artifact

        rows = lambda p: [
            r["summary"] for r in load_artifact(p).records
            if r.get("kind") == "cell"
        ]
        assert rows(tmp_path / "a.jsonl") == rows(tmp_path / "b.jsonl")
        assert list((tmp_path / "ck").glob("*.ckpt"))
