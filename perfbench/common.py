"""Shared plumbing: checkout layout, statistics, processes and resource use.

This module imports nothing from ``repro`` at import time, so the set-up
probe (``perfbench/ready.py``) can use it without paying for the
simulator's imports twice.
"""

from __future__ import annotations

import ctypes
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Root of the checkout the benchmark measures (the parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for run stores and service journals; removed after each run.
WORK = ROOT / ".perfbench-work"

WORKLOADS = ("paper-full", "campaign-small", "service-stream")

#: Workers of the campaign backend and of the service: ``nproc`` on the
#: reference host, so at most two simulation processes are busy at once.
WORKERS = 2

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 5

#: ``prctl`` option that re-parents orphaned descendants to the caller.
PR_SET_CHILD_SUBREAPER = 36


@dataclass
class Outcome:
    """What one workload run measured."""

    end_to_end: dict[str, float]
    attempted: int
    failed: int
    #: Per-layer metrics; filled only by traced runs.
    per_layer: dict[str, float] = field(default_factory=dict)
    #: Human notes printed with the metrics (sample counts, seeds).
    notes: list[str] = field(default_factory=list)
    #: The first output check that failed, or ``None``.
    check_error: str | None = None


class BenchmarkError(RuntimeError):
    """The benchmark could not run (missing sources, a dead service)."""


class CheckFailed(AssertionError):
    """An output check failed: the program produced a wrong result."""


def load_definition() -> dict:
    """``BENCHMARK.json``: metric names, units and bounds."""
    with (ROOT / "BENCHMARK.json").open(encoding="utf-8") as handle:
        return json.load(handle)


def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else.

    Raises :class:`BenchmarkError` when the sources are missing, so a
    directory holding only the benchmark fails instead of measuring some
    other installed copy.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no simulator sources under {SRC}; run from the root of a checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchmarkError(f"repro was imported from {origin}, not from {SRC}")


def child_env() -> dict[str, str]:
    """Environment for subprocesses: this checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("REPRO_SANITIZE", None)
    return env


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def peak_rss_mb(*, children: bool) -> float:
    """Largest resident set of this process, or of any waited-for descendant."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def time_ready_probe(workload: str, work_dir: Path) -> float:
    """Seconds from starting a fresh ``ready.py`` process until it is ready.

    The probe imports what the workload's process imports, starts what it
    starts, prints ``ready`` and shuts down; the shutdown is not timed.
    """
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "ready.py"), workload, str(work_dir)],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - started
    try:
        _, stderr = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        _, stderr = proc.communicate()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchmarkError(f"set-up probe for {workload} failed ({proc.returncode}): {stderr.strip()[-400:]}")
    return elapsed


def adopt_orphans() -> None:
    """Become the parent of every orphaned descendant (Linux ``prctl``).

    Helpers that outlive the process that started them -- multiprocessing's
    resource tracker of a workload process, of a ``ready.py`` probe or of
    ``repro serve`` -- are then re-parented to this process instead of to
    init, so :func:`reap_children` can wait for them.  A no-op elsewhere.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def child_pids() -> list[int]:
    """Process ids whose parent is this process, read from ``/proc``."""
    me = os.getpid()
    pids = []
    for entry in Path("/proc").glob("[0-9]*"):
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Fields after the parenthesised command name: state, ppid, ...
        if int(stat.rpartition(")")[2].split()[1]) == me:
            pids.append(int(entry.name))
    return pids


def reap_children(grace: float) -> None:
    """Wait until every child has ended; kill whatever is left after ``grace`` s."""
    deadline = time.monotonic() + grace
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() >= deadline:
            for pid in child_pids():
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = float("inf")
        time.sleep(0.02)


def ping_workers(backend, work_dir: Path) -> None:
    """Block until every worker of a started persistent backend serves its queue.

    The backend has no readiness call.  A run of an unregistered scenario
    fails inside the worker right after the job is unpickled, so its outcome
    proves the worker has imported the runtime and is reading its queue.
    Each ping has its own warm key, so the backend places one on each worker.
    """
    from repro.campaigns.executor import RunJob
    from repro.campaigns.spec import RunSpec

    jobs = [
        RunJob(
            store_root=str(work_dir),
            campaign="ping",
            run=RunSpec(scenario="perfbench-ping", overrides=(), seed=slot, seed_index=slot, variant="ping"),
            experiments=(),
            collect_telemetry=False,
        )
        for slot in range(backend.workers)
    ]
    for outcome in backend.run(jobs):
        if "perfbench-ping" not in (outcome.error or ""):
            raise BenchmarkError(f"worker ping came back unexpectedly: {outcome}")
