"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``quickstart``   one Table-2 run per protocol, printed side by side
``fig3``         regenerate the three panels of Fig. 3
``fig4``         the large-scale dataset evenness report (Fig. 4)
``kopt``         Theorem-1 / Lemma-1 validation
``complexity``   the O(RN) / O(kX) measurements (§4.3)
``ablation``     QLEC design-choice ablation
``lifespan``     alive-node curves + FND/HND/LND milestones
``convergence``  Theorem-3 X measurement (expected vs sampled backups)
``sensitivity``  QLEC hyperparameter robustness sweep
``scenario``     run one protocol on a named scenario from the catalog
``resume``       finish a checkpointed run from an engine snapshot
``sweep``        run a sweep grid (or one shard of it) into a JSONL artifact
``status``       render the live progress of sharded sweep invocations
``merge``        fold shard artifacts back into one sweep
``report``       run everything and write REPORT.md
``version``      package version plus kernel-dependency provenance
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["main", "build_parser"]


def _version_text() -> str:
    from . import __version__
    from .kernels import backend_versions

    deps = ", ".join(
        f"{name} {ver}" for name, ver in sorted(backend_versions().items())
    )
    return f"repro {__version__} ({deps})"


class _VersionAction(argparse.Action):
    """``--version`` ahead of subcommand dispatch (argparse's built-in
    'version' action would need the string eagerly; the kernel-registry
    import stays deferred this way)."""

    def __init__(self, option_strings, dest, **kwargs):
        super().__init__(option_strings, dest, nargs=0, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        print(_version_text())
        parser.exit(0)


def _add_backend_arg(cmd: argparse.ArgumentParser) -> None:
    from .config import BACKEND_CHOICES, EQUIVALENCE_CHOICES

    cmd.add_argument(
        "--backend", type=str, default="auto",
        choices=BACKEND_CHOICES,
        help="kernel backend for the batched slot pipeline; both "
             "choices run the numpy reference",
    )
    cmd.add_argument(
        "--equivalence", type=str, default="bitwise",
        choices=EQUIVALENCE_CHOICES,
        help="numeric contract; 'bitwise' is the only one",
    )
    cmd.add_argument(
        "--max-block-mb", type=_positive_float, default=None, metavar="MB",
        help="stream the relay-scoring distance block in chunks so its "
             "temporaries stay under this budget (large-N runs); "
             "bit-identical to the unblocked computation",
    )


def _add_routing_arg(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "--routing", type=str, default="direct",
        choices=("direct", "tree", "qspt"),
        help="multi-hop routing substrate: 'direct' (default) keeps the "
             "single-hop CH->BS uplink bit-identical to committed golden "
             "traces; 'tree' builds an ETX cluster tree with mesh repair; "
             "'qspt' learns shortest-path trees with distributed "
             "Q-learning (see docs/routing.md)",
    )


def _checked(convert, ok, what: str):
    """An argparse ``type=`` that converts and range-checks a value, so
    a bad number exits 2 with a usage message before anything runs."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not a {what}")
        return value

    return parse


_positive_int = _checked(int, lambda v: v >= 1, "positive integer")
_non_negative_int = _checked(int, lambda v: v >= 0, "non-negative integer")
_positive_float = _checked(float, lambda v: v > 0, "positive number")


def _add_checkpoint_args(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "--checkpoint-every", type=_positive_int, default=None, metavar="N",
        help="snapshot the complete engine state every N rounds so a "
             "killed or drained run resumes bit-identically (see "
             "docs/checkpointing.md); default off — runs without it "
             "execute exactly as before",
    )
    cmd.add_argument(
        "--checkpoint-dir", type=str, default="checkpoints", metavar="DIR",
        help="directory holding the rotated .ckpt snapshots",
    )
    cmd.add_argument(
        "--keep-last", type=_positive_int, default=3, metavar="K",
        help="rotated snapshots kept per run (older ones are unlinked); "
             "restore degrades to the newest snapshot that validates",
    )


def _add_faults_arg(cmd: argparse.ArgumentParser) -> None:
    # Choices deferred to runtime would hide typos until the run starts.
    # The catalog loads no numpy (tests/test_import_budget.py holds it).
    from .faults import fault_scenario_names

    cmd.add_argument(
        "--faults", type=str, default=None, metavar="SCENARIO",
        choices=fault_scenario_names(),
        help="overlay a named fault plan from the chaos catalog "
             f"({', '.join(fault_scenario_names())}); the plan is "
             "seeded, deterministic, and part of the run fingerprint",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="QLEC (ICPP 2019) reproduction — experiment drivers",
    )
    parser.add_argument(
        "--version", action=_VersionAction,
        help="print package version and kernel-dependency versions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    quick = sub.add_parser("quickstart", help="compare protocols on Table 2")
    quick.add_argument("--seed", type=int, default=7)
    quick.add_argument("--lam", type=float, default=4.0,
                       help="mean packet inter-arrival (congestion level)")
    quick.add_argument("--telemetry", action="store_true",
                       help="print the per-phase time/energy/drop breakdown")
    _add_backend_arg(quick)
    _add_routing_arg(quick)

    fig3 = sub.add_parser("fig3", help="regenerate Fig. 3 (a)-(c)")
    fig3.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    fig3.add_argument("--lambdas", type=float, nargs="+",
                      default=[2.0, 4.0, 8.0, 16.0])
    fig3.add_argument("--serial", action="store_true",
                      help="disable the process pool")
    fig3.add_argument("--telemetry", action="store_true",
                      help="print the sweep-merged telemetry breakdown")
    fig3.add_argument("--from-artifacts", type=str, nargs="+", default=None,
                      metavar="PATH",
                      help="aggregate pre-run shard artifacts instead of "
                           "simulating (see 'repro sweep' / 'repro merge')")
    _add_backend_arg(fig3)

    swp = sub.add_parser(
        "sweep", help="run a sweep grid (or one shard of it) into a JSONL artifact"
    )
    swp.add_argument("--protocols", type=str, nargs="+",
                     default=["qlec", "fcm", "kmeans"])
    swp.add_argument("--lambdas", type=_positive_float, nargs="+",
                     default=[2.0, 4.0, 8.0, 16.0])
    swp.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    swp.add_argument("--rounds", type=_positive_int, default=20)
    swp.add_argument("--energy", type=_positive_float, default=0.25)
    swp.add_argument("--shard", type=str, default="1/1", metavar="k/K",
                     help="which shard of the grid this invocation runs")
    swp.add_argument("--out", type=str, default=None,
                     help="artifact path (default sweep-shard-<k>of<K>.jsonl)")
    swp.add_argument("--no-resume", action="store_true",
                     help="recompute every cell even if the artifact "
                          "already has matching rows")
    swp.add_argument("--retries", type=_non_negative_int, default=1,
                     help="re-leases a cell gets after a transient "
                          "failure, a dead worker or an expired lease, "
                          "before it is recorded as an error row")
    swp.add_argument("--serial", action="store_true",
                     help="run the cells in this process, in order")
    swp.add_argument("--workers", type=_positive_int, default=None)
    swp.add_argument("--set", type=str, nargs="+", default=[],
                     metavar="KEY=VALUE",
                     help="override any SimulationConfig field in every "
                          "cell, dotted for nested configs (e.g. "
                          "queue.capacity=32 n_clusters=8); VALUE is JSON "
                          "or a plain string, and part of cell identity")
    swp.add_argument("--telemetry", action="store_true",
                     help="instrument every cell; snapshots ride in the "
                          "artifact and merge across shards")
    swp.add_argument("--scheduler", action="store_true",
                     help="run the whole grid under the lease scheduler "
                          "(one queue, canonical order) instead of one "
                          "static shard "
                          "(incompatible with --shard other than 1/1); "
                          "worker deaths are reclaimed and respawned")
    swp.add_argument("--lease-seconds", type=_positive_float, default=None,
                     metavar="S",
                     help="lease duration before a silent worker's cell "
                          "is reclaimed (default 300 with --scheduler; "
                          "a static shard's leases never expire unless "
                          "this is given)")
    swp.add_argument("--compress", type=str, default=None,
                     choices=("none", "gz"), metavar="CODEC",
                     help="artifact compression (none/gz); default keeps "
                          "an existing artifact's codec")
    _add_backend_arg(swp)
    _add_faults_arg(swp)
    _add_routing_arg(swp)
    _add_checkpoint_args(swp)

    mrg = sub.add_parser(
        "merge", help="fold shard artifacts back into one sweep"
    )
    mrg.add_argument("artifacts", type=str, nargs="+",
                     help="shard artifact paths, any subset, any order")
    mrg.add_argument("--out", type=str, default=None,
                     help="write the merged rows as a sweep JSON file")
    mrg.add_argument("--artifact-out", type=str, default=None,
                     help="write the merge itself as an artifact "
                          "(pre-merged half for a later 'repro merge')")
    mrg.add_argument("--strict", action="store_true",
                     help="exit non-zero when cells are missing or errored")
    mrg.add_argument("--telemetry", action="store_true",
                     help="print the merged telemetry breakdown")

    fig4 = sub.add_parser("fig4", help="large-scale dataset run (Fig. 4)")
    fig4.add_argument("--nodes", type=_positive_int, default=2896)
    fig4.add_argument("--clusters", type=int, default=272)
    fig4.add_argument("--rounds", type=int, default=10)
    fig4.add_argument("--seed", type=int, default=0)
    fig4.add_argument("--compare", action="store_true",
                      help="also run FCM and k-means on the same network")
    fig4.add_argument("--csv", type=str, default=None,
                      help="path to a real Global Power Plant Database CSV")
    _add_backend_arg(fig4)

    sub.add_parser("kopt", help="Theorem 1 validation")
    sub.add_parser("complexity", help="O(RN) / O(kX) measurements")

    abl = sub.add_parser("ablation", help="QLEC design-choice ablation")
    abl.add_argument("--lam", type=float, default=4.0)
    abl.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])

    life = sub.add_parser("lifespan", help="alive curves + FND/HND/LND")
    life.add_argument("--rounds", type=_positive_int, default=60)
    life.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    life.add_argument("--energy", type=float, default=0.1)

    sub.add_parser("convergence", help="Theorem-3 X measurement")

    sens = sub.add_parser("sensitivity", help="QLEC hyperparameter robustness")
    sens.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    sens.add_argument("--axes", type=str, nargs="+", default=None)

    scen = sub.add_parser("scenario", help="run a protocol on a named scenario")
    scen.add_argument("name", type=str, help="scenario name (see --list)")
    scen.add_argument("--protocol", type=str, default="qlec")
    scen.add_argument("--seed", type=int, default=0)
    scen.add_argument("--layout", action="store_true",
                      help="print the ASCII network layout")
    scen.add_argument("--telemetry", action="store_true",
                      help="print the per-phase time/energy/drop breakdown")
    scen.add_argument("--trace", type=str, default=None, metavar="PATH",
                      help="write a hierarchical span trace of the run: "
                           "schema-linted JSONL at PATH plus a Chrome "
                           "trace-event twin (<stem>.chrome.json) "
                           "loadable in Perfetto/chrome://tracing")
    _add_backend_arg(scen)
    _add_faults_arg(scen)
    _add_routing_arg(scen)
    _add_checkpoint_args(scen)

    res = sub.add_parser(
        "resume", help="finish a checkpointed run from an engine snapshot"
    )
    res.add_argument("snapshot", type=str,
                     help="path to a .ckpt snapshot written by a "
                          "checkpointing run (scenario/sweep cell)")
    res.add_argument("--checkpoint-every", type=_positive_int, default=None,
                     metavar="N",
                     help="keep snapshotting every N rounds while "
                          "finishing (snapshots land next to the input)")
    res.add_argument("--keep-last", type=_positive_int, default=3, metavar="K",
                     help="rotated snapshots kept while finishing")

    stat = sub.add_parser(
        "status", help="render live progress of sharded sweep invocations"
    )
    stat.add_argument("paths", type=str, nargs="+",
                      help="artifact paths, run logs, or directories "
                           "to scan for *.events.jsonl")

    sub.add_parser("version", help="package and kernel-dependency versions")

    rep = sub.add_parser("report", help="run everything, write REPORT.md")
    rep.add_argument("--out", type=str, default="REPORT.md")
    rep.add_argument("--quick", action="store_true")
    rep.add_argument("--serial", action="store_true")

    return parser


def _cmd_quickstart(args) -> int:
    from .analysis import render_table, render_telemetry
    from .analysis.sweep import PROTOCOLS, run_cell
    from .telemetry import merge_snapshots

    rows = [
        run_cell(
            name, args.lam, args.seed,
            telemetry=args.telemetry, backend=args.backend,
            max_block_mb=args.max_block_mb, routing=args.routing,
        )
        for name in ("qlec", "fcm", "kmeans", "deec", "leach", "direct")
    ]
    snaps = [s for row in rows if (s := row.pop("telemetry", None))]
    print(render_table(rows, title=f"Table-2 scenario, lambda={args.lam}"))
    if args.telemetry:
        merged = merge_snapshots(*snaps) if snaps else None
        print()
        print(render_telemetry(merged, title="Telemetry (all protocols)"))
    _ = PROTOCOLS  # documented entry point for custom protocols
    return 0


def _cmd_fig3(args) -> int:
    from .analysis import render_telemetry
    from .experiments import Fig3Config, fig3_from_artifacts, run_fig3

    if args.from_artifacts:
        result = fig3_from_artifacts(args.from_artifacts)
    else:
        result = run_fig3(
            Fig3Config(
                lambdas=tuple(args.lambdas),
                seeds=tuple(args.seeds),
                serial=args.serial,
                telemetry=args.telemetry,
                backend=args.backend,
                max_block_mb=args.max_block_mb,
            )
        )
    print(result.render())
    if args.telemetry and result.telemetry is not None:
        print()
        print(render_telemetry(result.telemetry, title="Telemetry (sweep merge)"))
    return 0


def _cmd_fig4(args) -> int:
    from .experiments import Fig4Config, run_fig4

    report = run_fig4(
        Fig4Config(
            n_nodes=args.nodes,
            n_clusters=args.clusters,
            rounds=args.rounds,
            seed=args.seed,
            dataset_path=args.csv,
            compare=("fcm", "kmeans") if args.compare else (),
            backend=args.backend,
            max_block_mb=args.max_block_mb,
        )
    )
    print(report.render())
    return 0


def _cmd_kopt(_args) -> int:
    from .experiments import run_kopt_validation

    print(run_kopt_validation().render())
    return 0


def _cmd_complexity(_args) -> int:
    from .experiments import (
        measure_qlearning_updates,
        measure_selection_scaling,
        render_complexity_report,
    )

    print(
        render_complexity_report(
            measure_selection_scaling(), measure_qlearning_updates()
        )
    )
    return 0


def _cmd_ablation(args) -> int:
    from .experiments import render_ablation, run_ablation

    print(
        render_ablation(
            run_ablation(mean_interarrival=args.lam, seeds=tuple(args.seeds))
        )
    )
    return 0


def _cmd_report(args) -> int:
    from .analysis.report import ReportConfig, generate_report

    text = generate_report(ReportConfig(quick=args.quick, serial=args.serial))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {args.out} ({len(text)} chars)")
    return 0


def _cmd_lifespan(args) -> int:
    from .experiments import LifespanCurveConfig, run_lifespan_curves

    result = run_lifespan_curves(
        LifespanCurveConfig(
            rounds=args.rounds,
            seeds=tuple(args.seeds),
            initial_energy=args.energy,
        )
    )
    print(result.render())
    return 0


def _cmd_convergence(_args) -> int:
    from .experiments import render_convergence_study, run_convergence_study

    print(render_convergence_study(run_convergence_study()))
    return 0


def _cmd_sensitivity(args) -> int:
    from .experiments import render_sensitivity, run_sensitivity

    print(
        render_sensitivity(
            run_sensitivity(axes=args.axes, seeds=tuple(args.seeds))
        )
    )
    return 0


def _cmd_scenario(args) -> int:
    from pathlib import Path

    from .analysis import network_ascii, render_table, render_telemetry
    from .analysis.sweep import PROTOCOLS
    from .simulation import SimulationEngine, build_scenario, scenario_names
    from .telemetry import SpanTracer, Telemetry

    if args.name in ("--list", "list"):
        print("\n".join(scenario_names()))
        return 0
    config, nodes, bs = build_scenario(args.name, seed=args.seed)
    if args.max_block_mb is not None:
        config = config.replace(max_block_mb=args.max_block_mb)
    if args.routing != "direct":
        from .config import RoutingConfig

        config = config.replace(routing=RoutingConfig(kind=args.routing))
    if args.faults:
        from .faults import build_fault_plan

        config = config.replace(faults=build_fault_plan(args.faults, config))
    tel = Telemetry() if args.telemetry else None
    tracer = SpanTracer() if args.trace else None
    engine = SimulationEngine(
        config, PROTOCOLS[args.protocol](), nodes=nodes, bs=bs,
        telemetry=tel, backend=args.backend, tracer=tracer,
    )
    if args.checkpoint_every:
        from .checkpoint import DrainInterrupted, checkpoint_tag
        from .parallel import drain_on_signals

        with drain_on_signals() as stop:
            try:
                result = engine.run(
                    checkpoint_every=args.checkpoint_every,
                    checkpoint_dir=args.checkpoint_dir,
                    checkpoint_keep_last=args.keep_last,
                    checkpoint_tag=checkpoint_tag(
                        args.protocol, args.name, f"s{args.seed}"
                    ),
                    stop_requested=stop,
                )
            except DrainInterrupted as exc:
                print(
                    f"drained after round {exc.round_index}: "
                    f"snapshot {exc.snapshot_path}; finish with "
                    f"'repro resume {exc.snapshot_path}'"
                )
                return 0
    else:
        result = engine.run()
    if tracer is not None:
        trace_path = Path(args.trace)
        tracer.write_jsonl(trace_path)
        chrome_path = trace_path.with_name(trace_path.stem + ".chrome.json")
        tracer.write_chrome(chrome_path)
        s = tracer.summary()
        print(
            f"trace: {s['events']} events ({s['dropped']} dropped) -> "
            f"{trace_path} + {chrome_path}"
        )
    if args.layout:
        print(
            network_ascii(
                result.positions, bs_position=engine.state.bs.position
            )
        )
        print()
    print(render_table([result.summary()],
                       title=f"{args.protocol} on scenario {args.name!r}"))
    if result.faults is not None:
        f = result.faults
        deaths = ", ".join(
            f"{k}={v}" for k, v in sorted(f["deaths_by_cause"].items())
        ) or "none"
        print()
        print(
            f"faults: plan {f['plan_fingerprint']} injected {f['injected']} "
            f"(absorbed {f['absorbed']}, fatal {f['fatal']}); "
            f"deaths {deaths}; revived {f['revived']}"
        )
    routing = result.extras.get("routing")
    if routing is not None:
        print()
        print(
            f"routing: {routing['kind']} substrate — "
            f"repairs {routing['repairs']}, fallbacks {routing['fallbacks']}, "
            f"discovery broadcasts {routing['broadcasts']}"
        )
    if tel is not None:
        print()
        print(render_telemetry(tel.snapshot()))
    return 0


def _cmd_resume(args) -> int:
    from pathlib import Path

    from .analysis import render_table, render_telemetry
    from .checkpoint import CHECKPOINT_SUFFIX, DrainInterrupted, read_checkpoint
    from .parallel import drain_on_signals

    path = Path(args.snapshot)
    header, engine = read_checkpoint(path)
    stem = path.name[: -len(CHECKPOINT_SUFFIX)]
    tag = stem.rpartition("-r")[0] or stem
    run_kwargs = {}
    if args.checkpoint_every:
        run_kwargs = {
            "checkpoint_every": args.checkpoint_every,
            "checkpoint_dir": path.parent,
            "checkpoint_keep_last": args.keep_last,
            "checkpoint_tag": tag,
        }
    print(
        f"resuming from round {header['round_index']} of "
        f"{engine.config.rounds} ({path})"
    )
    with drain_on_signals() as stop:
        try:
            result = engine.run(stop_requested=stop, **run_kwargs)
        except DrainInterrupted as exc:
            print(
                f"drained after round {exc.round_index}: "
                f"snapshot {exc.snapshot_path}"
            )
            return 0
    print(render_table([result.summary()], title=f"resumed run {tag!r}"))
    if engine.telemetry.registry is not None:
        print()
        print(render_telemetry(engine.telemetry.snapshot()))
    return 0


def _parse_overrides(items) -> dict:
    """``--set a.b=VALUE`` pairs as a nested override mapping; VALUE is
    JSON when it parses as JSON, else a plain string."""
    import json

    overrides: dict = {}
    for item in items:
        path, sep, raw = item.partition("=")
        if not sep or not path:
            raise ValueError(f"--set {item!r} is not of the form KEY=VALUE")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        *parents, leaf = path.split(".")
        node = overrides
        for key in parents:
            node = node.setdefault(key, {})
        node[leaf] = value
    return overrides


def _cmd_sweep(args) -> int:
    from .parallel import (
        SweepSpec,
        drain_on_signals,
        parse_shard_arg,
        run_scheduled,
        run_shard,
    )
    from .telemetry.jsonl import compression_suffix

    shard, num_shards = parse_shard_arg(args.shard)
    if args.scheduler and (shard, num_shards) != (1, 1):
        print(
            "error: --scheduler runs the whole grid; "
            "it cannot be combined with --shard "
            f"{shard}/{num_shards}",
            file=sys.stderr,
        )
        return 2
    spec = SweepSpec(
        protocols=tuple(args.protocols),
        lambdas=tuple(args.lambdas),
        seeds=tuple(args.seeds),
        initial_energy=args.energy,
        rounds=args.rounds,
        telemetry=args.telemetry,
        backend=args.backend,
        faults=args.faults,
        max_block_mb=args.max_block_mb,
        routing=args.routing,
        overrides=_parse_overrides(args.set),
    )
    suffix = compression_suffix(args.compress or "none")
    name = "scheduled" if args.scheduler else f"shard-{shard}of{num_shards}"
    out = args.out or f"sweep-{name}.jsonl{suffix}"
    with drain_on_signals() as stop:
        options = dict(
            serial=args.serial,
            resume=not args.no_resume,
            retries=args.retries,
            compression=args.compress,
            checkpoint_every=args.checkpoint_every,
            checkpoint_dir=args.checkpoint_dir if args.checkpoint_every else None,
            checkpoint_keep_last=args.keep_last,
            stop_requested=stop,
        )
        if args.lease_seconds is not None:
            options["lease_seconds"] = args.lease_seconds
        if args.scheduler:
            run = run_scheduled(spec, out, num_workers=args.workers, **options)
            print(f"scheduled: {len(spec)} cells -> {run.path}")
        else:
            run = run_shard(
                spec, shard, num_shards, out, max_workers=args.workers, **options
            )
            print(
                f"shard {shard}/{num_shards}: {len(run.cells)} of {len(spec)} "
                f"cells -> {run.path}"
            )
    print(
        f"  executed {len(run.executed)}, resumed {len(run.skipped)}, "
        f"errors {len(run.errors)}; reclaims {run.reclaims}, "
        f"worker deaths {run.worker_deaths}"
    )
    for err in run.errors:
        print(
            f"  ERROR cell {err['cell_id']} "
            f"({err['protocol']}, lambda={err['lambda']}, seed={err['seed']}): "
            f"{err['error']['type']}: {err['error']['message']}"
        )
    if stop.requested:
        print("drained: artifact left resumable; re-run the same command to finish")
    return 1 if run.errors else 0


def _cmd_status(args) -> int:
    import time

    from .analysis import render_table
    from .parallel import find_status_files, load_status

    files = find_status_files(args.paths)
    if not files:
        print(
            "error: no status sidecars (*.events.jsonl run logs) found",
            file=sys.stderr,
        )
        return 2
    rows = []
    statuses = []
    now = time.time()
    for path in files:
        st = load_status(path)
        statuses.append(st)
        ewma = st["ewma_cell_seconds"]
        eta = st["eta_seconds"]
        shard_label = (
            "sched"
            if (st["shard"], st["num_shards"]) == (0, 0)
            else f"{st['shard']}/{st['num_shards']}"
        )
        rows.append({
            "shard": shard_label,
            "state": st["state"],
            "done": st["done"],
            "failed": st["failed"],
            "retried": st["retried"],
            "reclaimed": st["reclaimed"],
            "total": st["cells_total"],
            "cell_s": "-" if ewma is None else f"{ewma:.2f}",
            "eta_s": "-" if eta is None else f"{eta:.1f}",
            "age_s": f"{max(0.0, now - st['updated_unix']):.0f}",
        })
    print(render_table(rows, title="Shard status"))
    done = sum(s["done"] for s in statuses)
    failed = sum(s["failed"] for s in statuses)
    total = sum(s["cells_total"] for s in statuses)
    fleet_state = (
        "complete"
        if all(s["state"] == "complete" for s in statuses)
        else "running"
    )
    print(f"fleet: {done}/{total} cells done, {failed} failed ({fleet_state})")
    return 0


def _cmd_version(_args) -> int:
    print(_version_text())
    return 0


def _cmd_merge(args) -> int:
    from .analysis import render_table, render_telemetry, save_sweep
    from .parallel import merge_artifacts, write_merged_artifact

    merged = merge_artifacts(args.artifacts)
    spec = merged.spec
    print(
        f"merged {len(args.artifacts)} artifact(s): "
        f"{len(merged.sweep.rows)} of {len(spec)} cells recovered"
    )
    print(render_table(merged.sweep.rows, title="Merged sweep"))
    if args.telemetry and merged.sweep.telemetry is not None:
        print()
        print(render_telemetry(merged.sweep.telemetry, title="Telemetry (merge)"))
    for err in merged.errors:
        print(
            f"ERROR cell {err['cell_id']} "
            f"({err['protocol']}, lambda={err['lambda']}, seed={err['seed']}): "
            f"{err['error']['type']}: {err['error']['message']}"
        )
    if merged.missing:
        print(f"MISSING {len(merged.missing)} cell(s): {merged.missing}")
    if args.out:
        save_sweep(merged.sweep, args.out)
        print(f"wrote {args.out}")
    if args.artifact_out:
        write_merged_artifact(merged, args.artifacts, args.artifact_out)
        print(f"wrote {args.artifact_out}")
    incomplete = bool(merged.errors or merged.missing)
    return 1 if (args.strict and incomplete) else 0


_COMMANDS = {
    "quickstart": _cmd_quickstart,
    "fig3": _cmd_fig3,
    "fig4": _cmd_fig4,
    "kopt": _cmd_kopt,
    "complexity": _cmd_complexity,
    "ablation": _cmd_ablation,
    "lifespan": _cmd_lifespan,
    "convergence": _cmd_convergence,
    "sensitivity": _cmd_sensitivity,
    "scenario": _cmd_scenario,
    "resume": _cmd_resume,
    "status": _cmd_status,
    "sweep": _cmd_sweep,
    "merge": _cmd_merge,
    "report": _cmd_report,
    "version": _cmd_version,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    from .checkpoint import CheckpointError
    from .kernels import BackendUnavailableError
    from .telemetry.jsonl import UnsupportedCodecError

    try:
        return _COMMANDS[args.command](args)
    except (
        BackendUnavailableError,
        UnsupportedCodecError,
        CheckpointError,
    ) as exc:
        # A backend this build does not have (named by an old
        # snapshot), an artifact in a codec it cannot read, or a
        # snapshot that fails validation (corrupt, wrong config, wrong
        # version) is a usage error, not a crash: say what is wrong and
        # how to proceed, exit distinctly.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
