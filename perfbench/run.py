"""Run one benchmark workload, or the steadiness report.

From the root of a checkout::

    python3 perfbench/run.py --workload paper-full --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --steadiness --seed 1 --seconds 20

A workload run prints every metric by name with its unit, a ``context``
line (commit, host, load, versions, seed), and as its last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` the run also makes a traced pass and reports the
per-layer ones.  The exit code is 0 when every output check held, 1 when
one failed, and 2 when the benchmark could not run at all (for instance
without the simulator's sources next to it).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import (  # noqa: E402
    ROOT,
    SRC,
    WORK,
    WORKLOADS,
    BenchmarkError,
    adopt_orphans,
    load_definition,
    reap_children,
    use_checkout_sources,
)

#: Which end-to-end metric, on which workload, each per-layer metric should
#: move (first matching prefix wins).  Written down before any change is
#: measured against the benchmark.
LAYER_TARGETS = (
    ("scenarios.", "runs_per_s on campaign-small and run_p50_s on service-stream; wall_s on paper-full only ~6 %"),
    ("simulation.", "wall_s on paper-full"),
    ("chain.", "wall_s on paper-full"),
    ("agents.", "wall_s on paper-full"),
    ("protocols.", "wall_s on paper-full"),
    ("oracle.", "wall_s on paper-full, through experiments.stablecoin_s"),
    ("analytics.", "wall_s on paper-full"),
    ("experiments.", "wall_s on paper-full; runs_per_s on campaign-small a little"),
    ("campaigns.backend_start_s", "setup_s on campaign-small"),
    ("campaigns.", "runs_per_s on campaign-small"),
    ("service.", "run_p50_s on service-stream"),
    ("runtime.", "wall_s and peak_rss_mb on paper-full"),
    ("loadgen.", "none: shows whether the service-stream generator kept its schedule"),
    ("trace_", "none: shows whether the traced pass is valid"),
)


def layer_target(name: str) -> str:
    return next(target for prefix, target in LAYER_TARGETS if name.startswith(prefix))


def source_digest() -> str:
    """SHA-256 over every file under ``src/`` (path and bytes), in path order."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def commit_sha() -> str | None:
    """The commit checked out here, when the checkout is a git repository."""
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_context(args: argparse.Namespace) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "commit": commit_sha(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def run_workload(args: argparse.Namespace) -> int:
    definition = load_definition()
    try:
        use_checkout_sources()
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    from perfbench import campaign, paper_full, service

    runner = {"paper-full": paper_full.run, "campaign-small": campaign.run, "service-stream": service.run}[args.workload]
    context = run_context(args)
    work_dir = WORK / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        outcome = runner(seed=args.seed, seconds=float(args.seconds), trace=bool(args.trace), work_dir=work_dir)
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    context["loadavg_end"] = list(os.getloadavg())

    wanted = definition["per_layer"] if args.trace else definition["end_to_end"]
    measured = outcome.per_layer if args.trace else outcome.end_to_end
    metrics = {}
    for spec in wanted:
        name = spec["name"]
        exercised = name in measured
        metrics[name] = {"value": float(measured.get(name, 0.0)), "unit": spec["unit"]}
        line = f"{name:<34} {metrics[name]['value']:>14.6f} {spec['unit']}"
        if args.trace:
            line += f"   moves: {layer_target(name)}" if exercised else "   (layer not driven by this workload)"
        print(line)
    unknown = sorted(set(measured) - set(metrics))
    if unknown:
        print(f"perfbench: measured metrics missing from BENCHMARK.json: {', '.join(unknown)}", file=sys.stderr)
        return 2
    for note in outcome.notes:
        print(f"# {note}")
    if args.trace:
        coverage = outcome.per_layer["trace_coverage_frac"]
        print(f"# layers account for {coverage * 100:.1f} % of wall of the traced world")
        print(f"# trace_overhead_frac {outcome.per_layer['trace_overhead_frac']:+.3f} against the untraced world of this run")
    print("context " + json.dumps(context, sort_keys=True))
    if outcome.check_error:
        print(f"perfbench: OUTPUT CHECK FAILED: {outcome.check_error}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": outcome.check_error is None,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if outcome.check_error is None else 1


#: Seconds to wait for leftover descendants after the workload process ended.
REAP_GRACE_S = 30.0


def supervise(argv: list[str]) -> int:
    """Run the workload in a child process, then wait for every descendant.

    multiprocessing's resource tracker outlives the process that started it
    (it exits once that process is gone), so the workload runs one process
    down and this one, as the reaper of orphans, returns only after the
    tracker and any other straggler have ended.
    """
    adopt_orphans()
    child = subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--supervised", *argv], cwd=ROOT)
    signal.signal(signal.SIGTERM, lambda signum, frame: child.send_signal(signum))
    try:
        returncode = child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        reap_children(REAP_GRACE_S)
    return returncode if returncode >= 0 else 128 - returncode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--supervised", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None, help="measured seconds (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--steadiness", action="store_true", help="repeat every workload interleaved, seeds from --seed on, and report the spread"
    )
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = load_definition()["run_seconds"]
    if args.steadiness:
        from perfbench.steadiness import report

        return report(first_seed=args.seed, seconds=args.seconds)
    if args.workload is None:
        parser.error("--workload is required (or --steadiness)")
    if not args.supervised:
        return supervise(sys.argv[1:] if argv is None else argv)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
