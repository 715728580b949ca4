"""The run supervisor behind ``repro serve``.

One process, three planes:

* **execution** — ``workers`` plain dispatch threads share one queue of
  runs.  Each pops a run and executes it as a streaming
  :class:`~repro.campaigns.executor.RunJob` on the shared
  :class:`~repro.campaigns.backends.PersistentBackend`, whose workers
  :meth:`ServiceSupervisor.serve` forks before anything else starts.  Each
  worker folds its run's events into counts by kind and sends them, with
  the run's health samples, as
  :class:`~repro.campaigns.executor.ProgressChunk` s ahead of its outcome;
  the dispatch thread waiting on that run applies each chunk where it
  arrives to the run's state (steps, blocks, liquidations and incidents are
  counts of their event kinds) and the aggregate dashboard metrics, and
  feeds its samples to the tiered
  :class:`~repro.observers.alerts.AlertEngine` in order.  Single runs and
  sweep runs take the same path.  The dispatch threads write run state,
  metrics and alerts only under the supervisor's one lock: the metrics
  registry has none of its own.
* **control** — job submission via :meth:`ServiceSupervisor.submit`
  (thread-safe; the HTTP ``POST /jobs`` route calls it from a server
  thread) and the journal + run-store resume contract on restart.
* **observation** — the extended
  :class:`~repro.telemetry.http.MetricsServer` surface: ``GET /jobs[/<id>]``,
  ``GET /alerts``, ``GET /health``, ``GET /metrics``.

The thread that calls :meth:`ServiceSupervisor.serve` only waits: for
SIGINT/SIGTERM or :meth:`ServiceSupervisor.begin_drain`, or, with
``exit_when_idle``, for every run to finish.  Graceful drain then stops
dispatching (queued runs stay ``queued`` in the journal), lets in-flight
runs finish for up to ``drain_timeout`` seconds, then terminates the
workers — the runs still in flight are recorded ``interrupted``, and the
manifest-last store contract keeps them resumable.  The service then
exits 0.
"""

from __future__ import annotations

import functools
import queue
import signal
import threading
import time
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

#: Seconds between the idle checks of ``serve(exit_when_idle=True)``.
_IDLE_POLL_SECONDS = 0.2


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
        # One lock guards all shared state: the jobs table and the journal
        # file (read by HTTP server threads), and the run states, metrics,
        # alert engine and summary the dispatch threads write.
        self._lock = threading.Lock()
        self._jobs: dict[str, JobRecord] = {}
        self._order: list[str] = []
        self._next_job = 1
        #: Runs waiting for a dispatch thread; a drain appends one _STOP per thread.
        self._queue: queue.Queue = queue.Queue()
        # Drain requests for the thread in serve().  A signal handler runs on
        # the main thread, possibly while it holds a threading.Event's own
        # lock inside Event.wait; SimpleQueue.put is reentrant, so a handler
        # can post here without deadlocking.
        self._drain_requests: queue.SimpleQueue = queue.SimpleQueue()
        self._draining = False
        # The persistent backend, created when serve() starts.
        self._backend: PersistentBackend | None = None
        self._active = 0
        self._dir_locks: dict[tuple[str, str], threading.Lock] = {}
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

        Safe to call before :meth:`serve` (runs wait in the queue until the
        dispatch threads start) and from other threads while serving (the
        HTTP POST route).  Raises
        :class:`~repro.service.jobs.SubmissionError` on bad payloads.
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
            for _, run_state in sorted(record.runs.items()):
                self._queue.put((record, run_state))
            self._m_queue.set(self._queue.qsize())
            self._refresh_job_gauge()
            self._save_journal_locked()
        return record.summary()

    def _save_journal_locked(self) -> None:
        self.journal.save(self._next_job, [self._jobs[job_id] for job_id in self._order])

    def _save_journal(self) -> None:
        with self._lock:
            self._save_journal_locked()

    def _resume_from_journal(self) -> int:
        """Re-submit every journalled job that had not finished; returns count.

        Their runs dispatch ahead of the runs submitted before :meth:`serve`.
        """
        submitted = [self._queue.get_nowait() for _ in range(self._queue.qsize())]
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
        with self._lock:
            for item in submitted:
                self._queue.put(item)
            self._m_queue.set(self._queue.qsize())
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
        """Ask :meth:`serve` to drain: stop dispatching, finish or terminate
        in-flight runs, then return.

        Idempotent, and callable from any thread and from a signal handler:
        it only posts a request that the thread in :meth:`serve` acts on.
        """
        self._drain_requests.put(None)

    def _wait_for_drain(self, exit_when_idle: bool) -> None:
        """Block until a drain is requested or, with ``exit_when_idle``,
        every submitted run has reached a terminal state."""
        timeout = _IDLE_POLL_SECONDS if exit_when_idle else None
        while True:
            try:
                return self._drain_requests.get(timeout=timeout)
            except queue.Empty:
                with self._lock:
                    if self._jobs and all(
                        record.state in ("completed", "failed", "interrupted")
                        for record in self._jobs.values()
                    ):
                        return

    def _drain(self, dispatchers: list[threading.Thread]) -> None:
        """Stop the dispatch threads; in-flight runs get ``drain_timeout`` seconds."""
        with self._lock:
            # A dispatch thread checks this flag under the lock before it
            # starts a run, so no run starts after this point.
            self._draining = True
            self.summary.drained = True
        for _ in dispatchers:
            self._queue.put(_STOP)
        deadline = time.monotonic() + self.config.drain_timeout
        for thread in dispatchers:
            thread.join(max(deadline - time.monotonic(), 0.0))
        with self._lock:
            in_flight = self._active
        if in_flight and self._backend is not None:
            # In-flight runs come back as failed outcomes and are recorded
            # interrupted (resumable).
            self._backend.terminate()
        for thread in dispatchers:
            thread.join()

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #
    def serve(
        self,
        *,
        http_port: int | None = None,
        exit_when_idle: bool = False,
        announce=None,
    ) -> ServiceSummary:
        """Run the service until drained (or idle, with ``exit_when_idle``).

        The workers start first, before the journal resume, the signal
        handlers, the dispatch threads and the HTTP server: no other
        thread, socket or handler exists yet, so they are forked from this
        warm process (see :func:`~repro.campaigns.backends.worker_start_method`)
        and are alive before ``/health`` first answers.  SIGINT/SIGTERM
        handlers are installed when this runs on the main thread (the only
        thread that can install them); elsewhere, call :meth:`begin_drain`.

        ``announce`` (a ``str -> None`` callable) receives human status
        lines — the CLI passes its stderr printer.  Lines about runs come
        from the dispatch threads.
        """
        emit = announce or (lambda line: None)
        backend = self._backend = PersistentBackend(self.config.workers).start()
        emit(
            f"[service] {backend.workers} worker(s) started by {backend.start_method} "
            f"in {backend.start_seconds:.3f} s"
        )
        previous_handlers: dict[int, Any] = {}
        server = None
        try:
            if self.config.resume:
                resumed = self._resume_from_journal()
                if resumed:
                    emit(f"[service] re-enqueued {resumed} incomplete job(s) from the journal")

            # Before the port is announced: a client may send SIGTERM as soon
            # as it reads the listening line, and without the handler that
            # kills the process instead of draining it.
            if threading.current_thread() is threading.main_thread():
                previous_handlers = {
                    signum: signal.signal(signum, lambda *_: self.begin_drain())
                    for signum in TERMINATION_SIGNALS
                }

            if http_port is not None:
                server = self.http_server = MetricsServer(
                    self.registry,
                    port=http_port,
                    json_routes={"/jobs": self.jobs_route, "/alerts": self.alerts_route},
                    post_routes={"/jobs": self.submit_route},
                    health=self.health,
                ).start()
                emit(f"[service] listening on http://127.0.0.1:{server.port} (/jobs /alerts /health /metrics)")

            dispatchers = [
                threading.Thread(
                    target=self._dispatch, args=(emit,), name=f"service-dispatch-{index}", daemon=True
                )
                for index in range(self.config.workers)
            ]
            for thread in dispatchers:
                thread.start()
            self._wait_for_drain(exit_when_idle)
            self._drain(dispatchers)
        finally:
            for signum, handler in previous_handlers.items():
                signal.signal(signum, handler)
            if server is not None:
                server.stop()
            self._backend = None
            backend.close()
            self._save_journal()
        emit(
            f"[service] drained: {self.summary.completed_runs} completed, "
            f"{self.summary.resumed_runs} resumed, {self.summary.failed_runs} failed, "
            f"{self.summary.interrupted_runs} interrupted"
        )
        return self.summary

    def _dispatch(self, emit) -> None:
        """One dispatch thread: execute queued runs until a drain stops it."""
        while True:
            item = self._queue.get()
            with self._lock:
                self._m_queue.set(self._queue.qsize())
            if item is _STOP:
                return
            record, run_state = item
            try:
                self._execute(record, run_state, emit)
            except Exception as exc:  # noqa: BLE001 - supervisor must survive
                self._finish_run(record, run_state, "failed", f"{type(exc).__name__}: {exc}")
                emit(f"[service] {record.job_id}/{run_state.spec.run_id} supervisor error: {exc}")

    def _execute(self, record: JobRecord, run_state: RunState, emit) -> None:
        """Resume one run from the store, or execute it on a persistent worker.

        Runs of one ``(campaign, run_id)`` execute one at a time.
        """
        spec = run_state.spec
        with self._lock:
            dir_lock = self._dir_locks.setdefault((record.campaign, spec.run_id), threading.Lock())
        with dir_lock:
            complete = self.store.is_complete(record.campaign, spec, record.experiments)
            with self._lock:
                if self._draining:
                    return  # stays "queued": the journal re-enqueues it on restart
                if not complete:
                    run_state.status = "running"
                    self._set_active_locked(+1)
                    self._refresh_job_gauge()
                    self._save_journal_locked()
            if complete:
                self._finish_run(record, run_state, "resumed")
                emit(f"[service] {record.job_id}: resumed {spec.run_id} from the store")
                return
            self._run(record, run_state, emit)

    def _set_active_locked(self, delta: int) -> None:
        self._active += delta
        self.peak_active_runs = max(self.peak_active_runs, self._active)
        self._m_active.set(self._active)
        self._m_peak.set(self.peak_active_runs)

    def _run(self, record: JobRecord, run_state: RunState, emit) -> None:
        """Execute one run on a persistent worker, applying its progress live.

        ``execute_one`` calls the progress sink on this thread, each chunk
        in order ahead of the outcome.
        """
        spec = run_state.spec
        backend = self._backend
        assert backend is not None
        job = RunJob(
            store_root=str(self.store.root),
            campaign=record.campaign,
            run=spec,
            experiments=record.experiments,
            worker_config=WorkerConfig(backend=backend.name, workers=backend.workers),
            sample_below=self.config.effective_sample_below,
        )
        try:
            outcome = backend.execute_one(job, functools.partial(self._apply_progress, record, run_state))
        except RuntimeError as error:
            if not self._draining:
                raise
            # The drain closed the backend before this run reached a worker.
            outcome = RunOutcome(run_id=spec.run_id, elapsed_seconds=0.0, error=str(error))
        finally:
            with self._lock:
                self._set_active_locked(-1)

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
        job_id, run_id = record.job_id, run_state.spec.run_id
        with self._lock:
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
            for sample in chunk.samples:
                for alert in self.alerts.observe(sample, job_id=job_id, run_id=run_id):
                    run_state.alerts += 1
                    self._m_alerts.labels(tier=alert.tier).inc()

    def _finish_run(
        self, record: JobRecord, run_state: RunState, status: str, error: str | None = None
    ) -> None:
        with self._lock:
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
            self.alerts.clear_run(record.job_id, run_state.spec.run_id)
            self._refresh_job_gauge()
            self._save_journal_locked()


#: Queue sentinel ending one dispatch thread.
_STOP = object()
