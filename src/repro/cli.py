"""The ``repro`` command line interface.

Wires the named scenario registry to the experiment runner and the campaign
subsystem::

    python -m repro list --tag fast --json        # scenario table
    python -m repro reports                       # report ids
    python -m repro run --scenario march-2020-only --seed 7 --report table1
    python -m repro watch march-2020-only --hf-below 1.1 --follow
    python -m repro trace march-2020-only --chrome trace.json
    python -m repro sweep --scenario march-2020-only --seeds 8 --workers 4
    python -m repro serve --port 9464 --store runs --workers 4
    python -m repro compare

``run`` builds one scenario through
:class:`~repro.scenarios.ScenarioBuilder`, simulates it, and renders the
requested table/figure reports to stdout (or ``--output``).  ``watch`` is
the live monitoring loop: it streams tiered health alerts (the
:class:`~repro.observers.alerts.AlertPolicy` that ``serve`` applies), settled
liquidations and fired incidents to stdout while the world advances
(optionally teeing the full typed event stream to ``--jsonl``).  ``sweep``
fans a multi-seed campaign out over a worker pool, persisting every run to
the on-disk store (``runs/`` by default) so re-running the same sweep
resumes instead of re-simulating; ``compare`` renders cross-seed statistics
(mean / stddev / 95 % CI per scalar field) from the store.  ``serve`` turns
the same machinery into a long-running service: dispatch threads
executing submitted run/sweep jobs on persistent workers, with job
submission and dashboards over HTTP (``POST /jobs``, ``GET /jobs``,
``/alerts``, ``/metrics``) and graceful drain on SIGINT/SIGTERM — see
:mod:`repro.service`.  Progress lines
go to stderr so reports stay pipeable.  Installed via ``pip install -e .``
the same interface is available as the ``repro`` console script.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Sequence

from . import scenarios
from .experiments.runner import EXPERIMENT_IDS, EXPERIMENTS, render_all, run_all, run_one


def _status(message: str) -> None:
    # One write per line: `repro serve` reports runs from several threads.
    sys.stderr.write(f"{message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'An Empirical Study of DeFi Liquidations' (IMC 2021).",
    )
    sub = parser.add_subparsers(dest="command")

    run_parser = sub.add_parser("run", help="simulate a named scenario and render reports")
    run_parser.add_argument("--scenario", default="small", help="registered scenario name (see `repro list`)")
    run_parser.add_argument("--seed", type=int, default=None, help="override the scenario's seed")
    run_parser.add_argument(
        "--report",
        action="append",
        default=None,
        metavar="ID",
        help="report id (repeatable) or 'all'; default: table1",
    )
    run_parser.add_argument("--end-block", type=int, default=None, help="truncate the simulated window")
    run_parser.add_argument("--blocks-per-step", type=int, default=None, help="override the engine stride")
    run_parser.add_argument("--output", default=None, metavar="FILE", help="write the report to FILE instead of stdout")

    watch_parser = sub.add_parser(
        "watch", help="live-monitor a scenario: stream tiered health alerts and liquidations"
    )
    watch_parser.add_argument("scenario", nargs="?", default="small", help="registered scenario name")
    watch_parser.add_argument("--seed", type=int, default=None, help="override the scenario's seed")
    watch_parser.add_argument(
        "--hf-below",
        type=float,
        default=1.05,
        metavar="HF",
        help="warn when a position's health factor drops below HF, critical below min(HF, 1.0) (default: 1.05)",
    )
    watch_parser.add_argument(
        "--follow", action="store_true", help="also print one progress line per block stride"
    )
    watch_parser.add_argument(
        "--jsonl",
        default=None,
        metavar="FILE",
        help="tee the full typed event stream as JSON lines to FILE ('-' for stdout)",
    )
    watch_parser.add_argument("--end-block", type=int, default=None, help="truncate the simulated window")
    watch_parser.add_argument("--blocks-per-step", type=int, default=None, help="override the engine stride")
    watch_parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve a live Prometheus /metrics exposition on PORT while watching (0 = ephemeral)",
    )

    trace_parser = sub.add_parser(
        "trace", help="profile a scenario run: per-phase span timings and a Chrome trace"
    )
    trace_parser.add_argument("scenario", nargs="?", default="small", help="registered scenario name")
    trace_parser.add_argument("--seed", type=int, default=None, help="override the scenario's seed")
    trace_parser.add_argument("--end-block", type=int, default=None, help="truncate the simulated window")
    trace_parser.add_argument("--blocks-per-step", type=int, default=None, help="override the engine stride")
    trace_parser.add_argument(
        "--chrome",
        default=None,
        metavar="FILE",
        help="write Chrome trace-event JSON to FILE (load in chrome://tracing or Perfetto)",
    )
    trace_parser.add_argument(
        "--metrics", action="store_true", help="append the Prometheus exposition to the report"
    )
    trace_parser.add_argument("--output", default=None, metavar="FILE", help="write the report to FILE")

    list_parser = sub.add_parser("list", help="list registered scenarios")
    list_parser.add_argument("--tag", default=None, help="only scenarios carrying this tag")
    list_parser.add_argument("--json", action="store_true", help="machine-readable output")

    reports_parser = sub.add_parser("reports", help="list report ids accepted by `run --report`")
    reports_parser.add_argument("--json", action="store_true", help="machine-readable output")

    sweep_parser = sub.add_parser(
        "sweep", help="run a multi-seed campaign in parallel, persisting to the run store"
    )
    sweep_parser.add_argument("--scenario", default="small", help="registered scenario name")
    sweep_parser.add_argument("--seeds", type=int, default=4, metavar="N", help="number of independent seeds")
    sweep_parser.add_argument("--base-seed", type=int, default=0, help="SeedSequence entropy for the seed range")
    sweep_parser.add_argument("--workers", type=int, default=1, metavar="W", help="worker processes (1 = serial)")
    sweep_parser.add_argument(
        "--backend",
        default="auto",
        choices=("auto", "serial", "persistent"),
        help="execution backend (default: auto — serial when --workers 1, persistent otherwise)",
    )
    sweep_parser.add_argument("--store", default="runs", metavar="DIR", help="run store root (default: runs/)")
    sweep_parser.add_argument("--campaign", default=None, help="campaign name (default: the scenario name)")
    sweep_parser.add_argument(
        "--set",
        action="append",
        default=None,
        dest="overrides",
        metavar="KEY=VALUE",
        help="fixed builder override (repeatable), e.g. --set close_factor=0.5",
    )
    sweep_parser.add_argument(
        "--grid",
        action="append",
        default=None,
        metavar="KEY=V1,V2,...",
        help="swept builder override axis (repeatable); axes are crossed",
    )
    sweep_parser.add_argument(
        "--report",
        action="append",
        default=None,
        metavar="ID",
        help="experiment id to compute per run (repeatable); default: all",
    )

    serve_parser = sub.add_parser(
        "serve",
        help="run the simulation service: concurrent job execution with an HTTP job/alert/metrics surface",
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve /jobs, /alerts, /health and /metrics on PORT (0 = ephemeral)",
    )
    serve_parser.add_argument("--store", default="runs", metavar="DIR", help="run store root (default: runs/)")
    serve_parser.add_argument(
        "--workers", type=int, default=4, metavar="W", help="persistent worker processes (default: 4)"
    )
    serve_parser.add_argument(
        "--run",
        action="append",
        default=None,
        metavar="SCENARIO[:SEED]",
        help="submit a single-run job at startup (repeatable)",
    )
    serve_parser.add_argument(
        "--sweep",
        default=None,
        metavar="SCENARIO",
        help="submit a sweep job at startup (uses --seeds/--base-seed/--grid)",
    )
    serve_parser.add_argument("--seeds", type=int, default=4, metavar="N", help="seeds for the --sweep job")
    serve_parser.add_argument("--base-seed", type=int, default=0, help="SeedSequence entropy for the --sweep job")
    serve_parser.add_argument(
        "--set",
        action="append",
        default=None,
        dest="overrides",
        metavar="KEY=VALUE",
        help="builder override applied to startup jobs (repeatable)",
    )
    serve_parser.add_argument(
        "--grid",
        action="append",
        default=None,
        metavar="KEY=V1,V2,...",
        help="swept override axis for the --sweep job (repeatable)",
    )
    serve_parser.add_argument(
        "--report",
        action="append",
        default=None,
        metavar="ID",
        help="experiment id computed per run (repeatable); default: all",
    )
    serve_parser.add_argument("--campaign", default=None, help="campaign name for startup jobs")
    serve_parser.add_argument(
        "--hf-warning", type=float, default=1.05, metavar="HF", help="warning-tier health factor (default: 1.05)"
    )
    serve_parser.add_argument(
        "--hf-critical", type=float, default=1.0, metavar="HF", help="critical-tier health factor (default: 1.0)"
    )
    serve_parser.add_argument(
        "--cooldown-blocks",
        type=int,
        default=7200,
        metavar="N",
        help="blocks between repeat alerts for one position/tier (default: 7200, ~1 day)",
    )
    serve_parser.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="grace period for in-flight runs after SIGINT/SIGTERM before workers are terminated",
    )
    serve_parser.add_argument(
        "--exit-when-idle",
        action="store_true",
        help="exit once every submitted job has finished (instead of serving forever)",
    )
    serve_parser.add_argument(
        "--no-resume",
        action="store_true",
        help="do not re-enqueue incomplete journalled jobs from a previous service run",
    )

    # ``lint`` owns its full argument surface in repro.devtools.cli; main()
    # delegates before this parser ever sees the arguments.  The stub makes
    # the subcommand discoverable in ``repro --help``.
    sub.add_parser(
        "lint",
        add_help=False,
        help="repo-specific static analysis (determinism & invariant rules; see `repro lint --explain`)",
    )

    compare_parser = sub.add_parser("compare", help="cross-run statistics from the run store")
    compare_parser.add_argument("--store", default="runs", metavar="DIR", help="run store root (default: runs/)")
    compare_parser.add_argument(
        "--campaign", default=None, help="campaign name (default: the store's only campaign)"
    )
    compare_parser.add_argument(
        "--experiment",
        action="append",
        default=None,
        metavar="ID",
        help="restrict to these experiment ids (repeatable)",
    )
    compare_parser.add_argument("--json", action="store_true", help="emit the aggregate as JSON")
    compare_parser.add_argument("--output", default=None, metavar="FILE", help="write the report to FILE")
    return parser


def _dedupe(report_ids: Sequence[str]) -> list[str]:
    """Drop duplicate report ids, keeping first-occurrence order."""
    return list(dict.fromkeys(report_ids))


def _validate_reports(report_ids: Sequence[str], *, allow_all: bool = True) -> list[str] | None:
    """Return the unknown ids (``None`` means all valid)."""
    known = set(EXPERIMENTS)
    if allow_all:
        known.add("all")
    unknown = [report_id for report_id in report_ids if report_id not in known]
    return unknown or None


def _cmd_list(args: argparse.Namespace) -> int:
    definitions = scenarios.all_scenarios()
    names = sorted(definitions)
    if args.tag is not None:
        names = [name for name in names if args.tag in definitions[name].tags]
    if args.json:
        print(
            json.dumps(
                [
                    {
                        "name": name,
                        "description": definitions[name].description,
                        "tags": list(definitions[name].tags),
                    }
                    for name in names
                ],
                indent=2,
            )
        )
        return 0
    width = max((len(name) for name in names), default=0)
    for name in names:
        definition = definitions[name]
        tags = f"  [{', '.join(definition.tags)}]" if definition.tags else ""
        print(f"{name.ljust(width)}  {definition.description}{tags}")
    return 0


def _cmd_reports(args: argparse.Namespace) -> int:
    if args.json:
        print(
            json.dumps(
                [
                    {"id": experiment_id, "title": EXPERIMENTS[experiment_id].title}
                    for experiment_id in EXPERIMENT_IDS
                ],
                indent=2,
            )
        )
        return 0
    width = max(len(experiment_id) for experiment_id in EXPERIMENT_IDS)
    print(f"{'all'.ljust(width)}  every report below, in paper order")
    for experiment_id in EXPERIMENT_IDS:
        print(f"{experiment_id.ljust(width)}  {EXPERIMENTS[experiment_id].title}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        definition = scenarios.get(args.scenario)
    except scenarios.UnknownScenarioError as error:
        _status(f"error: {error.args[0]}")
        return 2

    report_ids = _dedupe(args.report or ["table1"])
    run_everything = "all" in report_ids
    unknown = _validate_reports(report_ids)
    if unknown:
        _status(f"error: unknown report id(s) {', '.join(unknown)}; known: all, {', '.join(EXPERIMENT_IDS)}")
        return 2

    builder = definition.builder(args.seed)
    if args.end_block is not None or args.blocks_per_step is not None:
        builder.with_window(end_block=args.end_block, blocks_per_step=args.blocks_per_step)
    config = builder.config
    _status(
        f"scenario {definition.name!r} (seed {config.seed}): "
        f"blocks {config.start_block:,} – {config.end_block:,}, {config.n_steps:,} steps"
    )
    started = time.perf_counter()
    result = builder.run()
    _status(f"simulated in {time.perf_counter() - started:.1f}s; rendering {', '.join(report_ids)}")

    if run_everything:
        text = render_all(run_all(result))
    else:
        records = result.records
        sections = [run_one(result, report_id, records).report for report_id in report_ids]
        text = "\n\n".join(sections) + "\n"

    _emit(text, args.output)
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    from .observers.watch import watch_run
    from .service.signals import termination_as_interrupt

    try:
        definition = scenarios.get(args.scenario)
    except scenarios.UnknownScenarioError as error:
        _status(f"error: {error.args[0]}")
        return 2

    builder = definition.builder(args.seed)
    if args.end_block is not None or args.blocks_per_step is not None:
        builder.with_window(end_block=args.end_block, blocks_per_step=args.blocks_per_step)
    config = builder.config
    _status(
        f"watching {definition.name!r} (seed {config.seed}): "
        f"blocks {config.start_block:,} – {config.end_block:,}, "
        f"warning below HF {args.hf_below}, critical below HF {min(1.0, args.hf_below)}"
    )
    jsonl = sys.stdout if args.jsonl == "-" else args.jsonl
    # With the JSON stream on stdout, narration moves to stderr so the
    # advertised jq-able stream stays valid JSONL.
    emit = _status if jsonl is sys.stdout else print
    started = time.perf_counter()
    try:
        # SIGTERM gets the same graceful path as Ctrl-C: sinks flushed,
        # probes finalized, exit 0 — so supervisors (systemd, CI, the
        # service) can stop a watch without losing its stream.
        with termination_as_interrupt():
            summary = watch_run(
                builder,
                hf_below=args.hf_below,
                follow=args.follow,
                jsonl=jsonl,
                emit=emit,
                metrics_port=args.metrics_port,
            )
    except KeyboardInterrupt:
        # Interrupted before the engine even started (e.g. during build).
        _status("watch interrupted")
        return 0
    streamed = (
        f", {summary.events_streamed} events streamed to {args.jsonl}"
        if summary.events_streamed is not None
        else ""
    )
    finished = "watch interrupted" if summary.interrupted else "watch finished"
    _status(
        f"{finished} at block {summary.result.final_block:,} in "
        f"{time.perf_counter() - started:.1f}s: {len(summary.alerts)} alerts "
        f"({sum(alert.tier == 'critical' for alert in summary.alerts)} critical), "
        f"{summary.liquidations} liquidations{streamed}"
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .observers.probes import LiquidationRecorder, MetricsAccumulator
    from .telemetry import Telemetry, enabled, render_phase_report, run_families

    try:
        definition = scenarios.get(args.scenario)
    except scenarios.UnknownScenarioError as error:
        _status(f"error: {error.args[0]}")
        return 2

    builder = definition.builder(args.seed)
    if args.end_block is not None or args.blocks_per_step is not None:
        builder.with_window(end_block=args.end_block, blocks_per_step=args.blocks_per_step)
    config = builder.config
    _status(
        f"tracing {definition.name!r} (seed {config.seed}): "
        f"blocks {config.start_block:,} – {config.end_block:,}, {config.n_steps:,} steps"
    )

    telemetry = Telemetry(name=definition.name)
    fold = MetricsAccumulator()
    telemetry.registry.add_collector(lambda: run_families(fold))
    builder.with_probes(lambda engine: LiquidationRecorder(), lambda engine: fold)
    started = time.perf_counter()
    with enabled(telemetry):
        result = builder.run()
    wall = time.perf_counter() - started
    _status(f"simulated in {wall:.1f}s; {len(telemetry.tracer.records)} spans recorded")

    events = result.chain.events
    text = render_phase_report(telemetry.tracer.records, wall_seconds=wall)
    text += f"archive: {len(events)} logs in {events.rows} rows\n"
    if args.metrics:
        text += "\n" + telemetry.registry.exposition()
    _emit(text, args.output)
    if args.chrome:
        telemetry.tracer.write_chrome_trace(args.chrome)
        _status(f"chrome trace written to {args.chrome} (load in chrome://tracing or Perfetto)")
    return 0


def _parse_override(item: str) -> tuple[str, str]:
    key, separator, value = item.partition("=")
    if not separator or not key or not value:
        raise ValueError(f"expected KEY=VALUE, got {item!r}")
    return key.strip(), value.strip()


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .campaigns import CampaignExecutor, CampaignSpec, RunStore

    try:
        scenarios.get(args.scenario)
    except scenarios.UnknownScenarioError as error:
        _status(f"error: {error.args[0]}")
        return 2

    report_ids = _dedupe(args.report) if args.report else ["all"]
    unknown = _validate_reports(report_ids)
    if unknown:
        _status(f"error: unknown report id(s) {', '.join(unknown)}; known: all, {', '.join(EXPERIMENT_IDS)}")
        return 2
    if "all" in report_ids:
        report_ids = list(EXPERIMENT_IDS)

    try:
        overrides = dict(_parse_override(item) for item in (args.overrides or []))
        grid = {
            key: [value for value in values.split(",") if value]
            for key, values in (_parse_override(item) for item in (args.grid or []))
        }
        spec = CampaignSpec(
            scenario=args.scenario,
            seeds=args.seeds,
            base_seed=args.base_seed,
            overrides=overrides,
            grid=grid,
            experiments=tuple(report_ids),
            name=args.campaign,
        )
    except (KeyError, ValueError) as error:
        _status(f"error: {error.args[0]}")
        return 2

    from .campaigns import WorkerConfig

    worker_config = WorkerConfig.resolve(backend=args.backend, workers=args.workers)
    total = len(spec.runs())
    _status(
        f"campaign {spec.campaign!r}: scenario {spec.scenario!r}, "
        f"{len(spec.variants())} variant(s) × {spec.seeds} seed(s) = {total} runs, "
        f"{worker_config.backend} backend × {worker_config.workers} worker(s), store {args.store}"
    )

    def progress(done: int, run_total: int, run_id: str, status: str, elapsed: float) -> None:
        timing = f" ({elapsed:.1f}s)" if status != "resumed" else ""
        _status(f"[{done}/{run_total}] {status} {run_id}{timing}")

    executor = CampaignExecutor(spec, RunStore(args.store), backend=worker_config, progress=progress)
    result = executor.execute()
    failures = f", {len(result.failed)} failed" if result.failed else ""
    _status(
        f"campaign {result.campaign!r} done in {result.elapsed_seconds:.1f}s: "
        f"{len(result.executed)} executed, {len(result.resumed)} resumed{failures} "
        f"from {result.store_root}"
    )
    for run_id, error in result.failed.items():
        _status(f"  failed {run_id}: {error}")
    return 1 if result.failed else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import AlertPolicy, ServiceConfig, ServiceSupervisor
    from .service.jobs import SubmissionError

    report_ids = _dedupe(args.report) if args.report else None
    if report_ids:
        unknown = _validate_reports(report_ids, allow_all=False)
        if unknown:
            _status(f"error: unknown report id(s) {', '.join(unknown)}; known: {', '.join(EXPERIMENT_IDS)}")
            return 2

    try:
        overrides = dict(_parse_override(item) for item in (args.overrides or []))
        grid = {
            key: [value for value in values.split(",") if value]
            for key, values in (_parse_override(item) for item in (args.grid or []))
        }
        policy = AlertPolicy(
            warning_hf=args.hf_warning,
            critical_hf=args.hf_critical,
            cooldown_blocks=args.cooldown_blocks,
        )
    except ValueError as error:
        _status(f"error: {error.args[0]}")
        return 2

    if args.port is None and not args.run and not args.sweep:
        _status("error: nothing to do — pass --port for the submission API and/or --run/--sweep startup jobs")
        return 2

    supervisor = ServiceSupervisor(
        ServiceConfig(
            store_root=args.store,
            workers=args.workers,
            policy=policy,
            drain_timeout=args.drain_timeout,
            resume=not args.no_resume,
        )
    )
    try:
        for item in args.run or []:
            scenario, _, seed = item.partition(":")
            payload: dict = {"kind": "run", "scenario": scenario, "overrides": overrides}
            if seed:
                payload["seed"] = int(seed)
            if report_ids:
                payload["experiments"] = report_ids
            if args.campaign:
                payload["campaign"] = args.campaign
            summary = supervisor.submit(payload)
            _status(f"queued {summary['job_id']}: run {scenario}")
        if args.sweep:
            payload = {
                "kind": "sweep",
                "scenario": args.sweep,
                "seeds": args.seeds,
                "base_seed": args.base_seed,
                "overrides": overrides,
                "grid": grid,
            }
            if report_ids:
                payload["experiments"] = report_ids
            if args.campaign:
                payload["campaign"] = args.campaign
            summary = supervisor.submit(payload)
            _status(f"queued {summary['job_id']}: sweep {args.sweep} ({summary['runs']['total']} runs)")
    except SubmissionError as error:
        _status(f"error: {error.args[0]}")
        return 2

    _status(
        f"service: store {args.store}, {args.workers} persistent worker(s), "
        f"alerts warn<{policy.warning_hf} crit<{policy.critical_hf} "
        f"cooldown {policy.cooldown_blocks} blocks"
    )
    try:
        result = supervisor.serve(
            http_port=args.port,
            exit_when_idle=args.exit_when_idle,
            announce=_status,
        )
    except KeyboardInterrupt:
        # Ctrl-C before serve() installed its drain handlers (during startup).
        _status("serve interrupted")
        return 0
    return 1 if result.failed_runs else 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .campaigns import RunStore, aggregate_campaign, render_comparison
    from .serialize import to_jsonable

    store = RunStore(args.store)
    campaign = args.campaign
    if campaign is None:
        candidates = store.campaigns()
        if len(candidates) == 1:
            campaign = candidates[0]
        elif not candidates:
            _status(f"error: no campaigns under {store.root}; run `repro sweep` first")
            return 2
        else:
            _status(f"error: multiple campaigns under {store.root}; pass --campaign ({', '.join(candidates)})")
            return 2

    experiment_ids = _dedupe(args.experiment) if args.experiment else None
    if experiment_ids:
        unknown = _validate_reports(experiment_ids, allow_all=False)
        if unknown:
            _status(f"error: unknown experiment id(s) {', '.join(unknown)}; known: {', '.join(EXPERIMENT_IDS)}")
            return 2

    try:
        aggregate = aggregate_campaign(store, campaign, experiment_ids)
    except FileNotFoundError as error:
        _status(f"error: {error.args[0]}")
        return 2

    if args.json:
        text = json.dumps(to_jsonable(aggregate), indent=2, sort_keys=True) + "\n"
    else:
        text = render_comparison(aggregate)
    _emit(text, args.output)
    return 0


def _emit(text: str, output: str | None) -> None:
    """Write ``text`` to ``output`` (reporting to stderr) or print it."""
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
        _status(f"report written to {output}")
    else:
        print(text)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "lint":
        # The lint CLI owns its own parser (rule codes, baseline modes,
        # the mypy gate) — hand the remaining arguments straight through.
        from .devtools.cli import main as lint_main

        return lint_main(argv[1:])
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "watch":
        return _cmd_watch(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "list":
        return _cmd_list(args)
    if args.command == "reports":
        return _cmd_reports(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "compare":
        return _cmd_compare(args)
    parser.print_help()
    return 2


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    raise SystemExit(main())
