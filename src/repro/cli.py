"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` -- show available experiments, workloads and schemes;
* ``experiment <name>`` -- regenerate one paper table/figure (or
  ``all`` of them) through the shared runner: ``--jobs N`` fans
  simulation cells across CPU cores, results are cached on disk under
  ``--cache-dir`` (disable with ``--no-cache``), and a wall-clock /
  cache-hit summary (with per-job elapsed/cache breakdown) is printed
  after the tables.  ``--telemetry`` collects engine-event telemetry
  for every computed cell; ``--trace-out DIR`` additionally writes the
  merged JSONL event log and Chrome trace there;
* ``derive --trh N [--k K] [--radius N]`` -- print a Graphene
  configuration for arbitrary parameters;
* ``attack --pattern P --scheme S`` -- run one attack/defense pair on
  the simulator and report flips/refreshes;
* ``trace <workload> <scheme>`` -- run one traced simulation with
  telemetry on and export a JSONL event log plus a Chrome
  ``trace_event`` file (open in ``chrome://tracing`` or Perfetto);
  the legacy form ``trace --workload W --out FILE`` still exports a
  raw ACT trace;
* ``verify fuzz|replay|corpus`` -- adversarial verification
  (:mod:`repro.verify`): run a differential-fuzzing campaign against
  the exact-count protection oracle (``fuzz``), re-run a saved
  reproducer artifact (``replay``), or replay the committed regression
  corpus (``corpus``).  Non-zero exit on any oracle violation.
* ``campaign run|resume|status|report`` -- checkpointed grid sweeps
  (:mod:`repro.campaign`): expand a declarative JSON grid into
  simulation cells, fan them across workers with a live terminal
  dashboard and durable per-cell checkpoints, resume an interrupted
  sweep without recomputing completed cells, inspect a campaign
  directory, or render its self-contained HTML report.  ``run`` and
  ``resume`` exit 0 when complete, 1 with failed cells, and 3 when a
  ``--max-cells`` bound stopped the sweep early (cells still pending).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from pathlib import Path

from .analysis.scaling import scheme_factories
from .core.config import GrapheneConfig
from .dram.faults import CouplingProfile
from .experiments import EXPERIMENT_NAMES, load
from .experiments.runner import ExperimentRunner, using_engine, using_runner
from .mitigations import no_mitigation_factory
from .sim.cache import ResultCache, default_cache_dir
from .sim.simulator import simulate
from .telemetry import (
    TelemetryBus,
    TimeSeriesSampler,
    session as telemetry_session,
    summarize,
    write_chrome_trace,
    write_jsonl,
)
from .workloads.adversarial import double_sided_rows
from .workloads.spec_like import REALISTIC_PROFILES, profile_events
from .workloads.synthetic import SYNTHETIC_PATTERNS, synthetic_events
from .workloads.trace import write_trace

#: Traceable workloads: every realistic profile, every synthetic
#: pattern, plus the canonical double-sided hammer.
TRACE_WORKLOADS = (
    sorted(REALISTIC_PROFILES)
    + sorted(SYNTHETIC_PATTERNS)
    + ["double-sided"]
)

TRACE_SCHEMES = ["none", "para", "cbt", "twice", "graphene", "comet",
                 "abacus"]

__all__ = ["main", "build_parser"]


def _job_count(text: str) -> int:
    """argparse type for ``--jobs``: non-negative int (0 = all cores)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be >= 0 (0 = all CPU cores), got {value}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Graphene: Strong yet Lightweight Row "
            "Hammer Protection' (MICRO 2020)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list experiments/workloads/schemes")

    experiment = commands.add_parser(
        "experiment", help="regenerate one paper table/figure (or all)"
    )
    experiment.add_argument(
        "name", choices=sorted(EXPERIMENT_NAMES) + ["all"],
        help="experiment id, or 'all' for every table/figure",
    )
    experiment.add_argument(
        "--jobs", type=_job_count, default=1, metavar="N",
        help="worker processes for simulation cells "
             "(1 = serial, 0 = all CPU cores; default 1); this is the "
             "only parallel axis: with --fast each cell runs the fast "
             "engine in-process inside its worker (see docs/scaling.md)",
    )
    experiment.add_argument(
        "--no-cache", action="store_true",
        help="recompute every cell, bypassing the on-disk result cache",
    )
    experiment.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result-cache directory (default: $REPRO_CACHE_DIR or "
             "~/.cache/repro-graphene)",
    )
    experiment.add_argument(
        "--fast", action="store_true",
        help="route simulation cells through the columnar fast engine "
             "(repro.core.fastpath); per-scheme batched kernels for "
             "graphene/para/twice/cbt/refresh-rate/comet/abacus/none/"
             "prohit/cra/mrloc, byte-identical results, cached under "
             "distinct keys; only runs under an events-level telemetry "
             "bus (--telemetry, --trace-out) fall back to the reference "
             "loop, with a warning, and the fallback reason is surfaced "
             "in the job summary",
    )
    experiment.add_argument(
        "--quiet", action="store_true",
        help="suppress per-job progress lines on stderr",
    )
    experiment.add_argument(
        "--telemetry", action="store_true",
        help="collect engine-event telemetry for every computed cell "
             "and print a summary after the tables",
    )
    experiment.add_argument(
        "--trace-out", default=None, metavar="DIR",
        help="write merged telemetry artifacts (events.jsonl, "
             "trace.json) to DIR; implies --telemetry",
    )
    experiment.add_argument(
        "--sample-interval-us", type=float, default=100.0, metavar="US",
        help="telemetry time-series sampling interval in simulated "
             "microseconds (default 100)",
    )

    derive = commands.add_parser(
        "derive", help="derive a Graphene configuration"
    )
    derive.add_argument("--trh", type=int, default=50_000,
                        help="Row Hammer threshold (default 50000)")
    derive.add_argument("--k", type=int, default=2,
                        help="reset-window divisor (default 2)")
    derive.add_argument("--radius", type=int, default=1,
                        help="blast radius n for +-n protection")
    derive.add_argument("--rows", type=int, default=65536,
                        help="rows per bank (default 65536)")

    attack = commands.add_parser(
        "attack", help="run an attack pattern against a defense"
    )
    attack.add_argument("--pattern", choices=sorted(SYNTHETIC_PATTERNS),
                        default="S3")
    attack.add_argument("--scheme", choices=TRACE_SCHEMES,
                        default="graphene")
    attack.add_argument("--trh", type=int, default=3_000,
                        help="Row Hammer threshold (scaled default 3000)")
    attack.add_argument("--duration-ms", type=float, default=16.0)
    attack.add_argument("--seed", type=int, default=42)

    trace = commands.add_parser(
        "trace",
        help="run a traced simulation (telemetry) or export an ACT "
             "trace file (legacy --out mode)",
    )
    trace.add_argument(
        "workload", nargs="?", choices=TRACE_WORKLOADS, default=None,
        help="workload to trace (realistic profile, adversarial "
             "pattern, or 'double-sided')",
    )
    trace.add_argument(
        "scheme", nargs="?", choices=TRACE_SCHEMES, default="graphene",
        help="mitigation scheme (default graphene)",
    )
    trace.add_argument("--trh", type=int, default=3_000,
                       help="Row Hammer threshold (scaled default 3000)")
    trace.add_argument(
        "--k", type=int, default=8, dest="k",
        help="reset-window divisor; the default 8 gives an 8 ms window "
             "so short traces still cross a WindowReset boundary",
    )
    trace.add_argument(
        "--duration-ms", type=float, default=None,
        help="simulated time (default 12 for telemetry traces, 4 for "
             "legacy --out mode)",
    )
    trace.add_argument("--seed", type=int, default=42)
    trace.add_argument(
        "--sample-interval-us", type=float, default=10.0, metavar="US",
        help="time-series sampling interval in simulated microseconds "
             "(default 10)",
    )
    trace.add_argument(
        "--max-events", type=int, default=1_000_000,
        help="event-retention cap; overflow is counted, not silently "
             "dropped (default 1000000)",
    )
    trace.add_argument(
        "--jsonl-out", default=None, metavar="FILE",
        help="JSONL event-log path "
             "(default trace-<workload>-<scheme>.jsonl)",
    )
    trace.add_argument(
        "--chrome-out", default=None, metavar="FILE",
        help="Chrome trace_event path "
             "(default trace-<workload>-<scheme>.trace.json)",
    )
    trace.add_argument(
        "--workload", dest="workload_flag", default=None,
        metavar="W", choices=sorted(REALISTIC_PROFILES),
        help="legacy flag form: workload profile for --out export",
    )
    trace.add_argument(
        "--out", default=None,
        help="legacy mode: write a raw ACT trace of the workload to "
             "this path instead of running a traced simulation",
    )

    verify = commands.add_parser(
        "verify",
        help="differential fuzzing against the protection oracle",
    )
    verify_sub = verify.add_subparsers(dest="verify_command", required=True)

    fuzz = verify_sub.add_parser(
        "fuzz", help="run a budgeted fuzz campaign (exit 1 on violations)"
    )
    fuzz.add_argument(
        "--budget", type=int, default=50, metavar="N",
        help="number of fuzz cells; generators and probabilistic "
             "schemes rotate round-robin (default 50)",
    )
    fuzz.add_argument("--seed", type=int, default=0,
                      help="campaign seed (default 0)")
    fuzz.add_argument(
        "--length", type=int, default=1000, metavar="N",
        help="ACTs per generated stream (default 1000)",
    )
    fuzz.add_argument(
        "--jobs", type=_job_count, default=1, metavar="N",
        help="worker processes for fuzz cells "
             "(1 = serial, 0 = all CPU cores; default 1)",
    )
    fuzz.add_argument(
        "--no-cache", action="store_true",
        help="recompute every cell, bypassing the on-disk result cache",
    )
    fuzz.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result-cache directory (default: $REPRO_CACHE_DIR or "
             "~/.cache/repro-graphene)",
    )
    fuzz.add_argument(
        "--artifact-dir", default="verify-artifacts", metavar="DIR",
        help="where shrunken failing-stream reproducers are written "
             "(default verify-artifacts/)",
    )
    fuzz.add_argument(
        "--no-shrink", action="store_true",
        help="skip delta-debugging of failing streams",
    )
    fuzz.add_argument(
        "--telemetry", action="store_true",
        help="collect telemetry (OracleViolation events included) and "
             "print a summary",
    )
    fuzz.add_argument(
        "--quiet", action="store_true",
        help="suppress per-cell progress lines on stderr",
    )

    replay = verify_sub.add_parser(
        "replay", help="re-run saved reproducer artifacts"
    )
    replay.add_argument(
        "artifact", nargs="+",
        help="artifact JSON path(s) written by 'verify fuzz'",
    )

    corpus = verify_sub.add_parser(
        "corpus", help="replay the committed regression corpus"
    )
    corpus.add_argument(
        "--dir", default="tests/corpus", metavar="DIR",
        help="corpus directory of artifact JSONs (default tests/corpus)",
    )

    campaign = commands.add_parser(
        "campaign",
        help="checkpointed grid sweeps with live observability",
    )
    campaign_sub = campaign.add_subparsers(
        dest="campaign_command", required=True
    )

    def _campaign_run_args(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--workers", type=_job_count, default=1, metavar="N",
            help="worker processes for simulation cells "
                 "(1 = serial, 0 = all CPU cores; default 1)",
        )
        sub.add_argument(
            "--max-cells", type=int, default=None, metavar="N",
            help="stop after N pending cells (checkpoint-then-exit; "
                 "exit code 3 when cells remain)",
        )
        sub.add_argument(
            "--batch-size", type=int, default=None, metavar="N",
            help="cells per runner batch (default 4 x workers)",
        )
        sub.add_argument(
            "--no-cache", action="store_true",
            help="recompute every cell, bypassing the campaign's "
                 "result cache",
        )
        sub.add_argument(
            "--no-dashboard", action="store_true",
            help="suppress the live terminal dashboard",
        )
        sub.add_argument(
            "--heartbeat-s", type=float, default=10.0, metavar="S",
            help="minimum spacing of manifest heartbeat lines "
                 "(default 10)",
        )

    campaign_run = campaign_sub.add_parser(
        "run", help="start a fresh campaign from a JSON grid spec"
    )
    campaign_run.add_argument("spec", help="campaign grid spec (JSON file)")
    campaign_run.add_argument(
        "--dir", required=True, metavar="DIR", dest="directory",
        help="campaign directory (manifest, telemetry, cache, report)",
    )
    _campaign_run_args(campaign_run)

    campaign_resume = campaign_sub.add_parser(
        "resume",
        help="resume an interrupted campaign (spec comes from the "
             "manifest; completed cells are never recomputed)",
    )
    campaign_resume.add_argument(
        "directory", metavar="DIR", help="campaign directory"
    )
    _campaign_run_args(campaign_resume)

    campaign_status = campaign_sub.add_parser(
        "status", help="summarize a campaign directory's manifest"
    )
    campaign_status.add_argument(
        "directory", metavar="DIR", help="campaign directory"
    )

    campaign_report = campaign_sub.add_parser(
        "report", help="render the self-contained HTML report"
    )
    campaign_report.add_argument(
        "directory", metavar="DIR", help="campaign directory"
    )
    campaign_report.add_argument(
        "--out", default=None, metavar="FILE",
        help="report path (default <DIR>/report.html)",
    )
    return parser


def _command_list() -> int:
    print("experiments:")
    for name in sorted(EXPERIMENT_NAMES):
        print(f"  {name}")
    print("\nrealistic workloads:")
    for name, profile in REALISTIC_PROFILES.items():
        print(f"  {name:12s} {profile.kind:16s} "
              f"{profile.acts_per_second_per_bank / 1e6:4.1f}M ACT/s/bank")
    print("\nadversarial patterns:", ", ".join(sorted(SYNTHETIC_PATTERNS)))
    print("schemes: none, para, prohit, mrloc, cbt, twice, cra, graphene, "
          "comet, abacus, refresh-rate")
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    cache = (
        None
        if args.no_cache
        else ResultCache(args.cache_dir or default_cache_dir())
    )
    telemetry_on = args.telemetry or args.trace_out is not None
    runner = ExperimentRunner(
        jobs=args.jobs,
        cache=cache,
        progress=not args.quiet,
        sample_interval_ns=(
            args.sample_interval_us * 1e3 if telemetry_on else None
        ),
    )
    names = (
        sorted(EXPERIMENT_NAMES) if args.name == "all" else [args.name]
    )
    engine = "fast" if args.fast else "reference"
    bus = TelemetryBus() if telemetry_on else None
    with telemetry_session(bus) if bus is not None else nullcontext():
        with using_runner(runner), using_engine(engine):
            for index, name in enumerate(names):
                if len(names) > 1:
                    prefix = "\n" if index else ""
                    print(f"{prefix}=== {name} ===")
                load(name).main()
        print(f"\n[{runner.stats.summary()}]")
        for line in runner.stats.breakdown():
            print(f"  {line}")
        cache_line = runner.cache_summary()
        if cache_line is not None:
            print(f"  {cache_line}")
    if bus is not None:
        print()
        print(summarize(bus.events, bus.registry.snapshot(), bus.dropped))
        if args.trace_out is not None:
            out_dir = Path(args.trace_out)
            out_dir.mkdir(parents=True, exist_ok=True)
            lines = write_jsonl(bus.events, out_dir / "events.jsonl")
            entries = write_chrome_trace(
                bus.events, out_dir / "trace.json",
                samples=bus.all_samples(), trace_name="repro-experiment",
            )
            print(f"wrote {lines:,} JSONL lines and a Chrome trace "
                  f"({entries:,} entries) to {out_dir}/")
    return 0


def _command_derive(args: argparse.Namespace) -> int:
    coupling = (
        CouplingProfile.adjacent_only()
        if args.radius == 1
        else CouplingProfile.inverse_square(args.radius)
    )
    config = GrapheneConfig(
        hammer_threshold=args.trh,
        reset_window_divisor=args.k,
        rows_per_bank=args.rows,
        coupling=coupling,
    )
    for key, value in config.summary().items():
        print(f"{key:32s} {value}")
    print(f"{'worst_case_energy_increase':32s} "
          f"{100 * config.worst_case_refresh_energy_increase():.3f}%")
    return 0


def _command_attack(args: argparse.Namespace) -> int:
    duration_ns = args.duration_ms * 1e6
    if args.scheme == "none":
        factory = no_mitigation_factory()
    else:
        factory = scheme_factories(args.trh)[args.scheme]
    rows = SYNTHETIC_PATTERNS[args.pattern](65536, args.seed)
    result = simulate(
        synthetic_events(rows, duration_ns=duration_ns),
        factory,
        scheme=args.scheme,
        workload=args.pattern,
        hammer_threshold=args.trh,
        duration_ns=duration_ns,
    )
    print(f"pattern={args.pattern} scheme={args.scheme} "
          f"T_RH={args.trh:,} duration={args.duration_ms:g}ms")
    print(f"  ACTs issued:          {result.acts:,}")
    print(f"  victim refreshes:     {result.victim_refresh_directives:,} "
          f"({result.victim_rows_refreshed:,} rows)")
    print(f"  refresh energy:       +{100 * result.refresh_energy_increase():.3f}%")
    print(f"  bit flips:            {result.bit_flips}")
    return 1 if result.bit_flips else 0


def _trace_events(workload: str, duration_ns: float, seed: int):
    """ACT stream for any traceable workload name."""
    if workload == "double-sided":
        rows = double_sided_rows(rows_per_bank=65536, seed=seed)
        return synthetic_events(rows, duration_ns=duration_ns)
    if workload in SYNTHETIC_PATTERNS:
        rows = SYNTHETIC_PATTERNS[workload](65536, seed)
        return synthetic_events(rows, duration_ns=duration_ns)
    return profile_events(
        REALISTIC_PROFILES[workload], duration_ns=duration_ns, seed=seed
    )


def _command_trace(args: argparse.Namespace) -> int:
    # Legacy mode: export a raw ACT trace, no telemetry.
    if args.out is not None:
        workload = args.workload_flag or args.workload or "mcf"
        if workload not in REALISTIC_PROFILES:
            print(f"error: --out export needs a realistic profile, "
                  f"not {workload!r}", file=sys.stderr)
            return 2
        duration_ms = 4.0 if args.duration_ms is None else args.duration_ms
        events = profile_events(
            REALISTIC_PROFILES[workload],
            duration_ns=duration_ms * 1e6,
            seed=args.seed,
        )
        count = write_trace(events, args.out)
        print(f"wrote {count:,} ACT events to {args.out}")
        return 0

    # Telemetry mode: run one simulation with the event bus installed.
    if args.workload is None:
        print("error: trace needs a workload (or --out for the legacy "
              "ACT-trace export)", file=sys.stderr)
        return 2
    duration_ms = 12.0 if args.duration_ms is None else args.duration_ms
    duration_ns = duration_ms * 1e6
    if args.scheme == "none":
        factory = no_mitigation_factory()
    else:
        factory = scheme_factories(
            args.trh, reset_window_divisor=args.k
        )[args.scheme]
    sampler = TimeSeriesSampler(args.sample_interval_us * 1e3)
    bus = TelemetryBus(sampler=sampler, max_events=args.max_events)
    with telemetry_session(bus):
        result = simulate(
            _trace_events(args.workload, duration_ns, args.seed),
            factory,
            scheme=args.scheme,
            workload=args.workload,
            hammer_threshold=args.trh,
            duration_ns=duration_ns,
        )
    sampler.finish()

    stem = f"trace-{args.workload}-{args.scheme}"
    jsonl_path = Path(args.jsonl_out or f"{stem}.jsonl")
    chrome_path = Path(args.chrome_out or f"{stem}.trace.json")
    lines = write_jsonl(
        bus.events, jsonl_path, run_summary=result.to_dict()
    )
    entries = write_chrome_trace(
        bus.events, chrome_path, samples=bus.all_samples(),
        trace_name=stem,
    )

    print(f"workload={args.workload} scheme={args.scheme} "
          f"T_RH={args.trh:,} k={args.k} duration={duration_ms:g}ms")
    print(f"  ACTs issued:          {result.acts:,}")
    print(f"  victim refreshes:     {result.victim_refresh_directives:,} "
          f"({result.victim_rows_refreshed:,} rows)")
    print(f"  bit flips:            {result.bit_flips}")
    print()
    print(summarize(bus.events, bus.registry.snapshot(), bus.dropped))
    print()
    print(f"wrote {lines:,} JSONL lines to {jsonl_path}")
    print(f"wrote Chrome trace ({entries:,} entries) to {chrome_path} "
          f"-- open in chrome://tracing or https://ui.perfetto.dev")
    return 0


def _replay_paths(paths) -> int:
    """Replay artifacts; print one verdict line each; exit 1 on any FAIL."""
    from .verify import artifact_verdict, replay_artifact

    paths = list(paths)
    failures = 0
    for path in paths:
        report, artifact = replay_artifact(path)
        ok, message = artifact_verdict(report, artifact)
        status = "ok" if ok else "FAIL"
        print(
            f"{status:4s} {path}: {message} "
            f"[{artifact['acts']} ACTs, {artifact['generator']} "
            f"seed {artifact['seed']}]"
        )
        failures += not ok
    print(f"{len(paths) - failures}/{len(paths)} artifacts ok")
    return 1 if failures else 0


def _command_verify(args: argparse.Namespace) -> int:
    from .verify import run_campaign

    if args.verify_command == "fuzz":
        cache = (
            None
            if args.no_cache
            else ResultCache(args.cache_dir or default_cache_dir())
        )
        runner = ExperimentRunner(
            jobs=args.jobs, cache=cache, progress=not args.quiet
        )
        bus = TelemetryBus() if args.telemetry else None
        with telemetry_session(bus) if bus is not None else nullcontext():
            report = run_campaign(
                args.budget,
                args.seed,
                length=args.length,
                runner=runner,
                shrink=not args.no_shrink,
                artifact_dir=args.artifact_dir,
            )
        for line in report.summary():
            print(line)
        print(f"[{runner.stats.summary()}]")
        if bus is not None:
            print()
            print(summarize(bus.events, bus.registry.snapshot(),
                            bus.dropped))
        return 0 if report.ok else 1
    if args.verify_command == "replay":
        return _replay_paths(args.artifact)
    if args.verify_command == "corpus":
        paths = sorted(str(p) for p in Path(args.dir).glob("*.json"))
        if not paths:
            print(f"error: no artifact JSONs under {args.dir}/",
                  file=sys.stderr)
            return 2
        return _replay_paths(paths)
    raise AssertionError("unreachable")


def _campaign_summary_lines(summary: dict) -> list[str]:
    counts = summary["manifest"]
    lines = [
        f"campaign {summary['name']}: {summary['status']}",
        f"  {counts['completed']}/{counts['total']} completed, "
        f"{counts['failed']} failed, {counts['pending']} pending "
        f"({summary['cells_skipped']} already done, "
        f"{len(summary['computed_keys'])} computed this run)",
    ]
    counters = summary.get("cache_counters")
    if counters:
        lines.append(
            f"  cache: {counters['hits']:,} hits / "
            f"{counters['misses']:,} misses "
            f"({100.0 * counters['hit_ratio']:.1f}% hit rate)"
        )
    snapshot = summary.get("snapshot") or {}
    if snapshot.get("violations"):
        lines.append(f"  oracle violations: {snapshot['violations']}")
    lines.append(f"  manifest:  {summary['manifest_path']}")
    lines.append(f"  telemetry: {summary['telemetry_path']}")
    return lines


def _command_campaign(args: argparse.Namespace) -> int:
    from .campaign import (
        CampaignDriver,
        CampaignManifest,
        DashboardRenderer,
        load_spec,
        write_report,
    )

    if args.campaign_command == "report":
        target = write_report(args.directory, output=args.out)
        print(f"wrote {target}")
        return 0

    if args.campaign_command == "status":
        manifest = CampaignManifest.open(args.directory)
        counts = manifest.status_counts()
        header = manifest.header or {}
        print(
            f"campaign {header.get('name', '?')} "
            f"(spec {manifest.spec_digest[:12]})"
        )
        print(
            f"  {counts['completed']}/{counts['total']} completed, "
            f"{counts['failed']} failed, {counts['pending']} pending"
        )
        for record in sorted(
            manifest.failed().values(), key=lambda r: r.cell_id
        ):
            print(f"  FAILED {record.cell_id}: {record.error}")
        return 0

    dashboard = (
        None if args.no_dashboard else DashboardRenderer(stream=sys.stderr)
    )
    kwargs = dict(
        workers=args.workers,
        use_cache=not args.no_cache,
        dashboard=dashboard,
        heartbeat_s=args.heartbeat_s,
        batch_size=args.batch_size,
    )
    if args.campaign_command == "run":
        driver = CampaignDriver.start(
            load_spec(args.spec), args.directory, **kwargs
        )
    else:
        driver = CampaignDriver.resume(args.directory, **kwargs)
    summary = driver.run(max_cells=args.max_cells)
    for line in _campaign_summary_lines(summary):
        print(line)
    if summary["status"] == "interrupted":
        return 3
    return 1 if summary["manifest"]["failed"] else 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _command_list()
    if args.command == "experiment":
        return _command_experiment(args)
    if args.command == "derive":
        return _command_derive(args)
    if args.command == "attack":
        return _command_attack(args)
    if args.command == "trace":
        return _command_trace(args)
    if args.command == "verify":
        return _command_verify(args)
    if args.command == "campaign":
        return _command_campaign(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
