"""Campaign execution: job expansion, per-run execution, backend dispatch.

:class:`CampaignExecutor` expands a :class:`~repro.campaigns.spec.CampaignSpec`
into runs, skips the ones the store already holds (resume), and hands the
rest to an :class:`~repro.campaigns.backends.ExecutionBackend` — serial or
the persistent worker runtime (see :mod:`repro.campaigns.backends`).

Only :class:`RunJob` (plain strings/ints/tuples) crosses the process
boundary; each worker rebuilds its world from ``(scenario, overrides, seed)``
via the scenario registry, runs it, and writes the experiment JSON straight
into the store.  Because every run is independently seeded and the store
serialises deterministically, serial and parallel execution produce
byte-identical per-run files.

A job with a ``sample_below`` threshold also *streams* (the service's live
view of a run): its run fold is a :class:`ProgressProbe`, which buffers the
run's below-threshold health-factor samples and hands its counts on inside
the worker, and both leave the worker as picklable :class:`ProgressChunk` s,
without touching the store contract — the probe is passive.
"""

from __future__ import annotations

import gc
import multiprocessing
import resource
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable

from ..experiments.runner import run_json
from ..observers.events import SimEvent
from ..observers.probes import HealthSample, HealthSampler, LiquidationRecorder, MetricsAccumulator
from ..serialize import to_jsonable
from ..telemetry import runtime as telemetry_runtime
from ..telemetry.clock import perf_seconds
from ..telemetry.runtime import Telemetry, span
from .spec import CampaignSpec, RunSpec
from .store import RunStore

if TYPE_CHECKING:
    from ..protocols.base import LendingProtocol
    from .backends import ExecutionBackend, WorkerConfig

__all__ = [
    "CampaignExecutor",
    "CampaignResult",
    "ProgressChunk",
    "ProgressProbe",
    "RunJob",
    "execute_job",
]

#: Progress callback: ``(done, total, run_id, status, elapsed_seconds)``.
ProgressCallback = Callable[[int, int, str, str, float], None]

#: A streaming run hands its progress on every this many folded events and
#: health samples (and the rest when the run completes): one message per
#: chunk, not per event, crosses the process boundary.
STREAM_CHUNK_ITEMS = 256


def _status_of(outcome: RunOutcome) -> str:
    return "executed" if outcome.error is None else "failed"


@dataclass(frozen=True)
class RunJob:
    """The picklable unit of work handed to a worker process."""

    store_root: str
    campaign: str
    run: RunSpec
    experiments: tuple[str, ...]
    collect_telemetry: bool = True
    #: The worker configuration that dispatched this job, recorded into the
    #: run manifest (``"execution"``) so a resumed sweep can tell which
    #: backend produced each run.  ``None`` (direct ``execute_job`` calls)
    #: writes no execution block.
    worker_config: "WorkerConfig | None" = None
    #: Health-factor threshold of a streaming run (a service job): positions
    #: below it are sampled on every rescan and streamed next to the typed
    #: events.  ``None`` streams nothing.
    sample_below: float | None = None


@dataclass(frozen=True)
class RunOutcome:
    """What one worker reports back: identity, wall-clock time, any failure."""

    run_id: str
    elapsed_seconds: float
    error: str | None = None
    #: The per-run telemetry digest (also persisted into the manifest), or
    #: ``None`` when telemetry collection was off or the run failed early.
    telemetry: dict | None = None

    @property
    def worker(self) -> str | None:
        return (self.telemetry or {}).get("worker")


@dataclass
class CampaignResult:
    """Summary of one :meth:`CampaignExecutor.execute` call."""

    campaign: str
    store_root: str
    executed: list[str] = field(default_factory=list)
    resumed: list[str] = field(default_factory=list)
    failed: dict[str, str] = field(default_factory=dict)  # run_id -> error
    elapsed_seconds: float = 0.0
    #: Name of the execution backend that ran the campaign.
    backend: str = "serial"
    #: Per-worker utilisation aggregated from run telemetry:
    #: ``worker -> {"tasks", "busy_seconds", "idle_seconds"}``.
    workers: dict[str, dict] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return len(self.executed) + len(self.resumed) + len(self.failed)


#: Per-process worker state, keyed once per interpreter.  Pool and
#: persistent workers are long-lived across tasks, so ``last_end`` carries
#: from one task to the next and the gap is genuine idle time (waiting on
#: the parent's dispatch).
_WORKER_STATE: dict[str, float | int] = {}


def _worker_begin() -> tuple[str, int, float]:
    """Mark task start; returns ``(worker_name, task_index, idle_seconds)``."""
    now = perf_seconds()
    if not _WORKER_STATE:
        _WORKER_STATE["last_end"] = now
        _WORKER_STATE["tasks"] = 0
    idle = now - float(_WORKER_STATE["last_end"])
    _WORKER_STATE["tasks"] = int(_WORKER_STATE["tasks"]) + 1
    return multiprocessing.current_process().name, int(_WORKER_STATE["tasks"]), idle


def _worker_end() -> None:
    _WORKER_STATE["last_end"] = perf_seconds()


class _GcPauses:
    """Counts and times the collections this process makes while installed.

    A ``gc.callbacks`` hook, installed by ``with`` for one job only.
    """

    def __init__(self) -> None:
        self.collections = 0
        self.seconds = 0.0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        now = perf_seconds()
        if phase == "start":
            self._started = now
        else:
            self.collections += 1
            self.seconds += now - self._started

    def __enter__(self) -> "_GcPauses":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc_info: object) -> None:
        gc.callbacks.remove(self)


def _peak_rss_mb() -> float:
    """This process's resident-set high-water mark so far, in MB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes, macOS bytes.
    return round(peak / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0), 2)


def _valuation_cache_stats(snapshot: dict[str, float]) -> dict:
    """Warm-cache hit rate from the ``repro_valuation_cache_total`` series."""
    hits = builds = 0.0
    for series, value in snapshot.items():
        if not series.startswith("repro_valuation_cache_total{"):
            continue
        if 'outcome="hit"' in series:
            hits += value
        elif 'outcome="build"' in series:
            builds += value
    total = hits + builds
    return {
        "hits": int(hits),
        "builds": int(builds),
        "hit_rate": round(hits / total, 4) if total else None,
    }


@dataclass(frozen=True)
class ProgressChunk:
    """A streaming run's progress since its previous chunk.

    ``events`` counts the events published since the previous chunk, by
    kind; ``last_block`` is the run's latest mined block so far (0 before
    the first), and ``samples`` are the health samples taken since the
    previous chunk, in order.  Every field is a plain picklable value:
    chunks cross the worker pipe as they are.
    """

    events: dict[str, int]  # event kind -> count
    last_block: int
    samples: tuple[HealthSample, ...]


#: Receives a streaming run's progress, one chunk at a time.
ProgressSink = Callable[[ProgressChunk], None]


class ProgressProbe(MetricsAccumulator):
    """The run fold of a streaming run, handing its progress on in chunks.

    Folds the run like any :class:`~repro.observers.probes.MetricsAccumulator`
    and buffers the samples of a plain
    :class:`~repro.observers.probes.HealthSampler`, in order.  Every
    :data:`STREAM_CHUNK_ITEMS` folded events and samples, and once at
    :meth:`finalize`, it hands the per-kind counts since the previous chunk,
    the last mined block and the samples on as one :class:`ProgressChunk`.
    """

    def __init__(
        self,
        protocols: Iterable["LendingProtocol"],
        sample_below: float,
        on_progress: ProgressSink,
    ) -> None:
        super().__init__()
        self._on_progress = on_progress
        self._sampler = HealthSampler(protocols, sample_below, self._on_sample)
        self._handed_on: dict[str, int] = {}
        self._samples: list[HealthSample] = []
        self._items = 0

    def on_event(self, event: SimEvent) -> None:
        super().on_event(event)
        self._folded()
        self._sampler.on_event(event)

    def _on_sample(self, sample: HealthSample) -> None:
        self._samples.append(sample)
        self._folded()

    def _folded(self) -> None:
        self._items += 1
        if self._items >= STREAM_CHUNK_ITEMS:
            self._hand_on()

    def _hand_on(self) -> None:
        handed_on = self._handed_on
        self._on_progress(
            ProgressChunk(
                events={
                    kind: count - handed_on.get(kind, 0)
                    for kind, count in self.by_kind.items()
                    if count != handed_on.get(kind, 0)
                },
                last_block=self.final_block,
                samples=tuple(self._samples),
            )
        )
        self._handed_on = dict(self.by_kind)
        # A fresh list: the sink may keep the handed-on chunk.
        self._samples = []
        self._items = 0

    def finalize(self) -> None:
        """Hand on the rest, so it reaches the service before the outcome."""
        self._sampler.finalize()
        if self._items:
            self._hand_on()


def execute_job(job: RunJob, on_progress: ProgressSink | None = None) -> RunOutcome:
    """Execute one run end-to-end and persist it (runs inside workers).

    Failures are captured and reported back as the outcome's ``error``
    instead of raised, so one pathological run cannot abort a campaign (the
    other workers' completed runs are already durable in the store).

    Nothing is reset before the run: its world's chain mints the run's
    addresses and tx hashes, so they do not depend on the runs the process
    executed before, and serial and pooled execution write byte-identical
    files.

    When ``job.sample_below`` is set and ``on_progress`` is given, the run
    also streams: its fold is a :class:`ProgressProbe`, which hands its
    progress to ``on_progress`` in chunks, the last of them once the
    simulation completes.

    When ``job.collect_telemetry`` is set, the worker installs a
    :class:`~repro.telemetry.runtime.Telemetry` for the duration of the run
    and persists a digest into the manifest: per-phase span timings
    (build / run / reports / persist), valuation-cache hit rate, how long
    this worker sat idle before picking the task up, the process's peak
    RSS when the job ends, and the collections made during the job and
    their pauses.  Telemetry never touches the simulated world, so the
    experiment files remain byte-identical with telemetry on or off.

    The finished world is one large reference cycle, which this function
    does not free: the backend that called it runs one full collection
    after the job (a persistent worker once its outcome has been sent).
    That collection falls between two jobs, so its time counts in the next
    job's ``idle_seconds``, not in this job's ``elapsed_seconds``.
    """
    worker_name, task_index, idle_seconds = _worker_begin()
    started = perf_seconds()
    telemetry = Telemetry(name=job.run.run_id) if job.collect_telemetry else None
    scope = telemetry_runtime.enabled(telemetry) if telemetry else nullcontext()
    streaming = on_progress is not None and job.sample_below is not None
    try:
        with scope, _GcPauses() as gc_pauses:
            builder = job.run.builder()
            # Stream the liquidation records and the run fold while the world
            # advances instead of re-crawling the finished chain: run_json
            # reads result.records straight off the recorder probe and the
            # manifest persists the fold's metrics.
            builder.with_probes(
                lambda engine: LiquidationRecorder(),
                (lambda engine: ProgressProbe(engine.protocols, job.sample_below, on_progress))
                if streaming
                else (lambda engine: MetricsAccumulator()),
            )
            with span("job.build"):
                engine = builder.build()
            with span("job.run"):
                # The progress probe hands on its last chunk when the run completes.
                result = engine.run()
            with span("job.reports"):
                outputs = run_json(result, job.experiments)
            store = RunStore(job.store_root)
            with span("job.persist"):
                store.write_experiments(job.campaign, job.run, outputs)
        elapsed = perf_seconds() - started
        digest = _telemetry_digest(
            telemetry,
            worker=worker_name,
            task_index=task_index,
            idle_seconds=idle_seconds,
            elapsed_seconds=elapsed,
            gc_pauses=gc_pauses,
        )
        store.write_manifest(
            job.campaign,
            job.run,
            outputs,
            config_summary=builder.config.describe(),
            elapsed_seconds=elapsed,
            metrics=to_jsonable(result.metrics),
            telemetry=digest,
            execution=job.worker_config.describe() if job.worker_config is not None else None,
        )
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        return RunOutcome(
            run_id=job.run.run_id,
            elapsed_seconds=perf_seconds() - started,
            error=f"{type(exc).__name__}: {exc}",
        )
    finally:
        _worker_end()
    return RunOutcome(run_id=job.run.run_id, elapsed_seconds=elapsed, telemetry=digest)


def _telemetry_digest(
    telemetry: Telemetry | None,
    *,
    worker: str,
    task_index: int,
    idle_seconds: float,
    elapsed_seconds: float,
    gc_pauses: _GcPauses,
) -> dict | None:
    """Flatten a run's telemetry into the JSON block the manifest stores.

    ``peak_rss_mb`` is the process's high-water mark when the job ends: read
    in ``task_index`` order, a worker's manifests show whether it creeps.
    """
    if telemetry is None:
        return None
    summary = telemetry.summary()
    spans = summary["spans"]

    def seconds(name: str) -> float:
        return round(spans.get(name, {}).get("total_seconds", 0.0), 4)

    return {
        "worker": worker,
        "task_index": task_index,
        "idle_seconds": round(idle_seconds, 4),
        "elapsed_seconds": round(elapsed_seconds, 4),
        "build_seconds": seconds("job.build"),
        "run_seconds": seconds("job.run"),
        "reports_seconds": seconds("job.reports"),
        "persist_seconds": seconds("job.persist"),
        "peak_rss_mb": _peak_rss_mb(),
        "gc_collections": gc_pauses.collections,
        "gc_pause_seconds": round(gc_pauses.seconds, 4),
        "valuation_cache": _valuation_cache_stats(summary["metrics"]),
        "spans": {
            name: {
                "count": stats["count"],
                "total_seconds": round(stats["total_seconds"], 4),
                "self_seconds": round(stats["self_seconds"], 4),
            }
            for name, stats in spans.items()
        },
    }


class CampaignExecutor:
    """Fan a campaign's runs out over an execution backend, resuming from the store."""

    def __init__(
        self,
        spec: CampaignSpec,
        store: RunStore | None = None,
        *,
        backend: "ExecutionBackend | WorkerConfig | str | None" = None,
        progress: ProgressCallback | None = None,
        telemetry: bool = True,
    ) -> None:
        """``backend`` selects how runs execute (see :mod:`.backends`):

        * ``None`` — serial (the default);
        * a backend name (``"serial"`` / ``"persistent"``) — resolved with
          a host-derived worker count;
        * a :class:`~repro.campaigns.backends.WorkerConfig` — fully explicit;
        * a live :class:`~repro.campaigns.backends.ExecutionBackend`
          instance — caller-owned: the executor uses it but never closes
          it, so one persistent runtime can span many campaigns.
        """
        from .backends import WorkerConfig

        self.spec = spec
        self.store = store or RunStore()
        self._backend_instance: "ExecutionBackend | None" = None
        if backend is None:
            self.backend_config = WorkerConfig()
        elif isinstance(backend, WorkerConfig):
            self.backend_config = backend
        elif isinstance(backend, str):
            self.backend_config = WorkerConfig.resolve(backend=backend)
        else:
            self._backend_instance = backend
            self.backend_config = WorkerConfig(backend=backend.name, workers=backend.workers)
        self.progress = progress
        self.telemetry = telemetry

    def _report(self, done: int, total: int, run_id: str, status: str, elapsed: float) -> None:
        if self.progress is not None:
            self.progress(done, total, run_id, status, elapsed)

    @staticmethod
    def _record(result: CampaignResult, outcome: RunOutcome) -> None:
        if outcome.error is None:
            result.executed.append(outcome.run_id)
        else:
            result.failed[outcome.run_id] = outcome.error
        digest = outcome.telemetry
        if digest is not None:
            # Per-worker utilisation roll-up: how many tasks each worker
            # took, how long it computed, and how long it waited for dispatch.
            stats = result.workers.setdefault(
                digest["worker"], {"tasks": 0, "busy_seconds": 0.0, "idle_seconds": 0.0}
            )
            stats["tasks"] += 1
            stats["busy_seconds"] = round(stats["busy_seconds"] + digest["elapsed_seconds"], 4)
            stats["idle_seconds"] = round(stats["idle_seconds"] + digest["idle_seconds"], 4)

    def execute(self) -> CampaignResult:
        """Run (or resume) the campaign; returns the execution summary."""
        started = perf_seconds()
        campaign = self.spec.campaign
        runs = self.spec.runs()
        result = CampaignResult(
            campaign=campaign,
            store_root=str(self.store.root),
            backend=self.backend_config.backend,
        )

        pending: list[RunSpec] = []
        for run in runs:
            if self.store.is_complete(campaign, run, self.spec.experiments):
                result.resumed.append(run.run_id)
            else:
                pending.append(run)
        total = len(runs)
        done = len(result.resumed)
        for run_id in result.resumed:
            self._report(done, total, run_id, "resumed", 0.0)

        jobs = [
            RunJob(
                store_root=str(self.store.root),
                campaign=campaign,
                run=run,
                experiments=self.spec.experiments,
                collect_telemetry=self.telemetry,
                worker_config=self.backend_config,
            )
            for run in pending
        ]
        backend = self._backend_instance
        owned = backend is None
        if owned:
            backend = self.backend_config.create()
        try:
            if jobs:
                for outcome in backend.run(jobs):
                    done += 1
                    self._record(result, outcome)
                    self._report(done, total, outcome.run_id, _status_of(outcome), outcome.elapsed_seconds)
        finally:
            if owned:
                backend.close()

        result.executed.sort()
        result.resumed.sort()
        result.elapsed_seconds = perf_seconds() - started
        return result
