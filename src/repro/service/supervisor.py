"""The asyncio run supervisor behind ``repro serve``.

One process, three planes:

* **execution** — an :mod:`asyncio` loop with ``workers`` consumer tasks,
  each popping a queued run and executing it as a streaming
  :class:`~repro.campaigns.executor.RunJob` on the shared
  :class:`~repro.campaigns.backends.PersistentBackend`, whose workers
  :meth:`ServiceSupervisor.serve` forks before anything else starts.  Each
  worker folds its run's events into counts by kind and sends them, with
  the run's health samples, as
  :class:`~repro.campaigns.executor.ProgressChunk` s ahead of its outcome;
  the parent applies each chunk live to the run's state (steps, blocks,
  liquidations and incidents are counts of their event kinds) and the
  aggregate dashboard metrics, and feeds its samples to the tiered
  :class:`~repro.observers.alerts.AlertEngine` in order.  Single runs and
  sweep runs take the same path.
* **control** — job submission via :meth:`ServiceSupervisor.submit`
  (thread-safe; the HTTP ``POST /jobs`` route calls it from a server
  thread) and the journal + run-store resume contract on restart.
* **observation** — the extended
  :class:`~repro.telemetry.http.MetricsServer` surface: ``GET /jobs[/<id>]``,
  ``GET /alerts``, ``GET /health``, ``GET /metrics``.

Graceful drain: SIGINT/SIGTERM stops dispatching (queued runs stay
``queued`` in the journal), lets in-flight runs finish for up to
``drain_timeout`` seconds, then terminates the workers — the runs still in
flight are recorded ``interrupted``, and the manifest-last store contract
keeps them resumable.  The service then exits 0.
"""

from __future__ import annotations

import asyncio
import functools
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any

from ..campaigns.backends import PersistentBackend, WorkerConfig
from ..campaigns.executor import ProgressChunk, RunJob, RunOutcome
from ..campaigns.store import RunStore
from ..observers.alerts import TIERS, AlertEngine, AlertPolicy
from ..observers.events import BlockMined, IncidentFired, LiquidationSettled, StepStarted
from ..telemetry.http import MetricsServer
from ..telemetry.metrics import MetricsRegistry
from .jobs import JobRecord, RunState, ServiceJournal, SubmissionError, expand_job
from .signals import TERMINATION_SIGNALS

__all__ = ["ServiceConfig", "ServiceSupervisor", "ServiceSummary"]

#: Job states the ``repro_service_jobs`` gauge always reports (zero-filled).
_JOB_STATES = ("queued", "running", "completed", "failed", "interrupted")


@dataclass(frozen=True)
class ServiceConfig:
    """Everything ``repro serve`` needs to run a supervisor."""

    store_root: str = "runs"
    #: Persistent worker processes, and runs executing at once.
    workers: int = 4
    policy: AlertPolicy = field(default_factory=AlertPolicy)
    #: Seconds in-flight runs get to finish after a drain begins before the
    #: workers are terminated (0 terminates immediately).
    drain_timeout: float = 30.0
    telemetry: bool = True
    #: Re-enqueue incomplete journalled jobs on startup.
    resume: bool = True

    @property
    def effective_sample_below(self) -> float:
        """The workers' sampling threshold: :attr:`AlertPolicy.sample_below`.

        Kept as a property because ``perfbench``'s traced service world reads it.
        """
        return self.policy.sample_below


@dataclass
class ServiceSummary:
    """What one :meth:`ServiceSupervisor.serve` lifetime processed."""

    jobs: int = 0
    completed_runs: int = 0
    failed_runs: int = 0
    resumed_runs: int = 0
    interrupted_runs: int = 0
    drained: bool = False


class ServiceSupervisor:
    """Accepts jobs, executes them concurrently, and serves their state."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.store = RunStore(self.config.store_root)
        self.journal = ServiceJournal(self.config.store_root)
        self.alerts = AlertEngine(self.config.policy)
        self.summary = ServiceSummary()
        # The jobs table is read by HTTP server threads and mutated by the
        # loop (and by pre-loop submissions): one lock guards both it and
        # the journal file.
        self._lock = threading.Lock()
        self._jobs: dict[str, JobRecord] = {}
        self._order: list[str] = []
        self._next_job = 1
        self._pending: list[tuple[JobRecord, RunState]] = []
        self._queue: asyncio.Queue | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._draining = False
        # The persistent backend plus the thread pool its blocking
        # execute_one calls run on, both created when serve() starts.
        self._backend: PersistentBackend | None = None
        self._backend_pool: ThreadPoolExecutor | None = None
        self._active = 0
        self._dir_locks: dict[tuple[str, str], asyncio.Lock] = {}
        #: The live HTTP surface while serving with a port (tests read the
        #: bound ephemeral port off it).
        self.http_server: MetricsServer | None = None
        self.peak_active_runs = 0
        self._build_metrics()

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #
    def _build_metrics(self) -> None:
        registry = self.registry = MetricsRegistry()
        self._m_events = registry.counter(
            "repro_service_events_total", "Typed events of the runs, counted in the workers", ("kind",)
        )
        self._m_runs = registry.counter(
            "repro_service_runs_total", "Run outcomes", ("status",)
        )
        self._m_liquidations = registry.counter(
            "repro_service_liquidations_total", "Liquidations settled across all runs"
        )
        self._m_samples = registry.counter(
            "repro_service_hf_samples_total", "Health-factor samples consumed"
        )
        self._m_alerts = registry.counter(
            "repro_service_alerts_total", "Alerts raised", ("tier",)
        )
        for tier in TIERS:  # zero-fill so scrapes always see both tiers
            self._m_alerts.labels(tier=tier)
        self._m_active = registry.gauge(
            "repro_service_active_runs", "Runs currently executing on workers"
        )
        self._m_peak = registry.gauge(
            "repro_service_peak_active_runs", "Maximum runs executing at once"
        )
        self._m_queue = registry.gauge(
            "repro_service_queue_depth", "Runs waiting for a worker"
        )
        self._m_jobs = registry.gauge("repro_service_jobs", "Jobs by state", ("state",))

    def _refresh_job_gauge(self) -> None:
        counts = {state: 0 for state in _JOB_STATES}
        for record in self._jobs.values():
            counts[record.state] += 1
        for state, count in counts.items():
            self._m_jobs.labels(state=state).set(count)

    # ------------------------------------------------------------------ #
    # Submission (thread-safe)
    # ------------------------------------------------------------------ #
    def submit(self, payload: dict[str, Any], *, job_id: str | None = None) -> dict[str, Any]:
        """Validate and enqueue one job; returns its ``/jobs`` summary.

        Safe to call before :meth:`serve` (runs are queued until the loop
        starts) and from other threads while serving (the HTTP POST route).
        Raises :class:`~repro.service.jobs.SubmissionError` on bad payloads.
        """
        with self._lock:
            if job_id is None:
                job_id = f"job-{self._next_job:04d}"
                self._next_job += 1
            else:
                self._next_job = max(self._next_job, int(job_id.rsplit("-", 1)[-1]) + 1)
            record = expand_job(job_id, payload)
            self._jobs[record.job_id] = record
            self._order.append(record.job_id)
            self.summary.jobs += 1
            items = [(record, run_state) for _, run_state in sorted(record.runs.items())]
            self._refresh_job_gauge()
            self._save_journal_locked()
        for item in items:
            self._enqueue(item)
        return record.summary()

    def _enqueue(self, item: tuple[JobRecord, RunState]) -> None:
        loop, queue = self._loop, self._queue
        if loop is None or queue is None:
            self._pending.append(item)
        elif threading.get_ident() == getattr(loop, "_thread_ident", None):
            queue.put_nowait(item)
            self._m_queue.set(queue.qsize())
        else:
            loop.call_soon_threadsafe(self._enqueue_on_loop, item)

    def _enqueue_on_loop(self, item: tuple[JobRecord, RunState]) -> None:
        assert self._queue is not None
        self._queue.put_nowait(item)
        self._m_queue.set(self._queue.qsize())

    def _save_journal_locked(self) -> None:
        self.journal.save(self._next_job, [self._jobs[job_id] for job_id in self._order])

    def _save_journal(self) -> None:
        with self._lock:
            self._save_journal_locked()

    def _resume_from_journal(self) -> int:
        """Re-submit every journalled job that had not finished; returns count."""
        resumed = 0
        for entry in self.journal.incomplete_jobs():
            with self._lock:
                # Jobs submitted before serve() started are already live
                # (and journalled) — only re-enqueue truly orphaned entries.
                if entry.get("job_id") in self._jobs:
                    continue
            try:
                self.submit(entry["submission"], job_id=entry["job_id"])
            except (SubmissionError, KeyError, ValueError):
                continue  # a journal entry that no longer expands is dropped
            resumed += 1
        return resumed

    # ------------------------------------------------------------------ #
    # HTTP routes
    # ------------------------------------------------------------------ #
    def health(self) -> dict[str, Any]:
        """``GET /health``'s workers block: how many are alive, how they started."""
        backend = self._backend
        return {
            "workers": {
                "configured": self.config.workers,
                "alive": backend.alive_workers() if backend is not None else 0,
                "start_method": backend.start_method if backend is not None else None,
            }
        }

    def jobs_route(self, subpath: str) -> tuple[int, Any]:
        """``GET /jobs`` (listing) and ``GET /jobs/<id>`` (detail)."""
        with self._lock:
            if subpath:
                record = self._jobs.get(subpath)
                if record is None:
                    return 404, {"error": f"unknown job {subpath!r}"}
                return 200, record.detail()
            return 200, {
                "draining": self._draining,
                "jobs": [self._jobs[job_id].summary() for job_id in self._order],
            }

    def alerts_route(self, subpath: str) -> tuple[int, Any]:
        """``GET /alerts``: recent alerts, tier counters, the active policy."""
        with self._lock:
            return 200, self.alerts.payload()

    def submit_route(self, body: Any) -> tuple[int, Any]:
        """``POST /jobs``: submit a run or sweep job."""
        if self._draining:
            return 503, {"error": "service is draining; not accepting jobs"}
        try:
            summary = self.submit(body)
        except SubmissionError as error:
            return 400, {"error": str(error)}
        return 201, summary

    # ------------------------------------------------------------------ #
    # Drain
    # ------------------------------------------------------------------ #
    def begin_drain(self) -> None:
        """Stop dispatching; finish or terminate in-flight runs; then stop.

        Idempotent, and callable from signal handlers on the loop thread.
        """
        if self._draining:
            return
        self._draining = True
        self.summary.drained = True
        if self._loop is not None and self._queue is not None:
            for _ in range(self.config.workers):
                self._queue.put_nowait(_STOP)
            if self.config.drain_timeout <= 0:
                self._terminate_active()
            else:
                self._loop.call_later(self.config.drain_timeout, self._terminate_active)

    def _terminate_active(self) -> None:
        backend = self._backend
        if backend is not None and self._active:
            # In-flight runs come back as failed outcomes and are recorded
            # interrupted (resumable).
            backend.terminate()

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #
    async def serve(
        self,
        *,
        http_port: int | None = None,
        exit_when_idle: bool = False,
        install_signals: bool = True,
        announce=None,
    ) -> ServiceSummary:
        """Run the service until drained (or idle, with ``exit_when_idle``).

        The workers start first, before the journal resume, the signal
        handlers, the dispatch pool and the HTTP server: no other thread,
        socket or handler exists yet, so they are forked from this warm
        process (see :func:`~repro.campaigns.backends.worker_start_method`)
        and are alive before ``/health`` first answers.

        ``announce`` (a ``str -> None`` callable) receives human status
        lines — the CLI passes its stderr printer.
        """
        emit = announce or (lambda line: None)
        backend = self._backend = PersistentBackend(self.config.workers).start()
        emit(
            f"[service] {backend.workers} worker(s) started by {backend.start_method} "
            f"in {backend.start_seconds:.3f} s"
        )
        pool = self._backend_pool = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="svc-backend"
        )
        loop = asyncio.get_running_loop()
        self._loop = loop
        loop._thread_ident = threading.get_ident()  # type: ignore[attr-defined]
        self._queue = asyncio.Queue()
        installed: list = []
        server = None
        idler = None
        try:
            if self.config.resume:
                resumed = self._resume_from_journal()
                if resumed:
                    emit(f"[service] re-enqueued {resumed} incomplete job(s) from the journal")
            for item in self._pending:
                self._queue.put_nowait(item)
            self._pending.clear()
            self._m_queue.set(self._queue.qsize())

            # Before the port is announced: a client may send SIGTERM as soon
            # as it reads the listening line, and without the handler that
            # kills the process instead of draining it.
            if install_signals:
                for signum in TERMINATION_SIGNALS:
                    try:
                        loop.add_signal_handler(signum, self.begin_drain)
                        installed.append(signum)
                    except (NotImplementedError, RuntimeError):  # pragma: no cover
                        pass

            if http_port is not None:
                server = self.http_server = MetricsServer(
                    self.registry,
                    port=http_port,
                    json_routes={"/jobs": self.jobs_route, "/alerts": self.alerts_route},
                    post_routes={"/jobs": self.submit_route},
                    health=self.health,
                ).start()
                emit(f"[service] listening on http://127.0.0.1:{server.port} (/jobs /alerts /health /metrics)")

            workers = [
                asyncio.ensure_future(self._worker_loop(index, emit))
                for index in range(self.config.workers)
            ]
            if exit_when_idle:
                idler = asyncio.ensure_future(self._idle_watch())
            await asyncio.gather(*workers)
        finally:
            if idler is not None:
                idler.cancel()
            for signum in installed:
                loop.remove_signal_handler(signum)
            if server is not None:
                server.stop()
            self._backend = self._backend_pool = None
            backend.close()
            pool.shutdown(wait=False)
            self._save_journal()
            self._loop = None
            self._queue = None
        emit(
            f"[service] drained: {self.summary.completed_runs} completed, "
            f"{self.summary.resumed_runs} resumed, {self.summary.failed_runs} failed, "
            f"{self.summary.interrupted_runs} interrupted"
        )
        return self.summary

    async def _idle_watch(self) -> None:
        """End the service once every submitted run has reached a terminal state."""
        assert self._queue is not None
        while True:
            await asyncio.sleep(0.2)
            if self._draining:
                return
            with self._lock:
                jobs_exist = bool(self._jobs)
                all_done = all(
                    record.state in ("completed", "failed", "interrupted")
                    for record in self._jobs.values()
                )
            if jobs_exist and all_done and self._queue.empty() and not self._active:
                self.begin_drain()
                return

    async def _worker_loop(self, index: int, emit) -> None:
        assert self._queue is not None
        while True:
            item = await self._queue.get()
            self._m_queue.set(self._queue.qsize())
            if item is _STOP:
                return
            record, run_state = item
            if self._draining:
                continue  # stays "queued": the journal re-enqueues it on restart
            try:
                await self._execute(record, run_state, emit)
            except Exception as exc:  # noqa: BLE001 - supervisor must survive
                self._finish_run(record, run_state, "failed", f"{type(exc).__name__}: {exc}")
                emit(f"[service] {record.job_id}/{run_state.spec.run_id} supervisor error: {exc}")

    async def _execute(self, record: JobRecord, run_state: RunState, emit) -> None:
        spec = run_state.spec
        key = (record.campaign, spec.run_id)
        lock = self._dir_locks.setdefault(key, asyncio.Lock())
        async with lock:
            if self.store.is_complete(record.campaign, spec, record.experiments):
                self._finish_run(record, run_state, "resumed")
                emit(f"[service] {record.job_id}: resumed {spec.run_id} from the store")
                return
            run_state.status = "running"
            self._save_journal()
            self._refresh_gauges()
            await self._run(record, run_state, emit)

    def _refresh_gauges(self) -> None:
        with self._lock:
            self._refresh_job_gauge()

    def _set_active(self, delta: int) -> None:
        self._active += delta
        self.peak_active_runs = max(self.peak_active_runs, self._active)
        self._m_active.set(self._active)
        self._m_peak.set(self.peak_active_runs)

    async def _run(self, record: JobRecord, run_state: RunState, emit) -> None:
        """Execute one run on a persistent worker, applying its progress live.

        ``execute_one`` blocks, so it runs on the dispatch pool; the progress
        chunks it receives hop onto the loop, where they are applied in
        order ahead of the outcome.
        """
        spec = run_state.spec
        backend, pool = self._backend, self._backend_pool
        assert backend is not None and pool is not None
        job = RunJob(
            store_root=str(self.store.root),
            campaign=record.campaign,
            run=spec,
            experiments=record.experiments,
            collect_telemetry=self.config.telemetry,
            worker_config=WorkerConfig(backend=backend.name, workers=backend.workers),
            sample_below=self.config.effective_sample_below,
        )
        apply = functools.partial(self._apply_progress, record, run_state)
        assert self._loop is not None
        loop = self._loop
        self._set_active(+1)
        try:
            outcome = await loop.run_in_executor(
                pool,
                functools.partial(
                    backend.execute_one, job, lambda chunk: loop.call_soon_threadsafe(apply, chunk)
                ),
            )
        except RuntimeError as error:
            if not self._draining:
                raise
            # The drain closed the backend before this run reached a worker.
            outcome = RunOutcome(run_id=spec.run_id, elapsed_seconds=0.0, error=str(error))
        finally:
            self._set_active(-1)

        if outcome.error is not None:
            if self._draining:
                # A drain terminated the workers mid-run: the store holds no
                # completed manifest, so the run resumes on restart.
                self._finish_run(record, run_state, "interrupted")
                emit(f"[service] {record.job_id}: interrupted {spec.run_id} (resumable)")
            else:
                self._finish_run(record, run_state, "failed", outcome.error)
                emit(f"[service] {record.job_id}: failed {spec.run_id}: {outcome.error}")
            return
        self._finish_run(record, run_state, "completed")
        emit(
            f"[service] {record.job_id}: completed {spec.run_id} "
            f"({run_state.blocks} blocks, {run_state.liquidations} liquidations, "
            f"{run_state.alerts} alerts)"
        )

    def _apply_progress(self, record: JobRecord, run_state: RunState, chunk: ProgressChunk) -> None:
        events = chunk.events
        liquidations = events.get(LiquidationSettled.__name__, 0)
        run_state.events += sum(events.values())
        run_state.steps += events.get(StepStarted.__name__, 0)
        run_state.blocks += events.get(BlockMined.__name__, 0)
        run_state.last_block = chunk.last_block
        run_state.liquidations += liquidations
        run_state.incidents += events.get(IncidentFired.__name__, 0)
        for kind, count in events.items():
            self._m_events.labels(kind=kind).inc(count)
        self._m_liquidations.inc(liquidations)
        self._m_samples.inc(len(chunk.samples))
        job_id, run_id = record.job_id, run_state.spec.run_id
        with self._lock:
            raised = [
                alert
                for sample in chunk.samples
                for alert in self.alerts.observe(sample, job_id=job_id, run_id=run_id)
            ]
        run_state.alerts += len(raised)
        for alert in raised:
            self._m_alerts.labels(tier=alert.tier).inc()

    def _finish_run(
        self, record: JobRecord, run_state: RunState, status: str, error: str | None = None
    ) -> None:
        run_state.status = status
        run_state.error = error
        self._m_runs.labels(status=status).inc()
        if status == "completed":
            self.summary.completed_runs += 1
        elif status == "failed":
            self.summary.failed_runs += 1
        elif status == "resumed":
            self.summary.resumed_runs += 1
        elif status == "interrupted":
            self.summary.interrupted_runs += 1
        with self._lock:
            self.alerts.clear_run(record.job_id, run_state.spec.run_id)
            self._refresh_job_gauge()
            self._save_journal_locked()


#: Queue sentinel ending one worker loop.
_STOP = object()
