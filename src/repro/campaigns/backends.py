"""Campaign execution backends.

The :class:`ExecutionBackend` protocol is the seam between *what* a
campaign runs (:class:`~repro.campaigns.executor.RunJob`) and *how* it
runs.  Two implementations ship, selected by :class:`WorkerConfig`:

``serial``
    In-process, one run after another — the ground truth the persistent
    backend is byte-compared against.
``persistent``
    Long-lived worker processes started once and reused across campaigns
    and service jobs.  A caller that runs a single Python thread forks them
    from its own, already-imported interpreter; otherwise they are spawned
    (see :func:`worker_start_method`).  Jobs go to the least-loaded worker;
    outcomes (and the progress chunks of streaming jobs) come back over
    each worker's own result pipe, where a collector thread routes them to
    the dispatching caller.  That makes :meth:`PersistentBackend.run` safe
    to call from several threads at once (the service supervisor does).

Both produce byte-identical :class:`~repro.campaigns.store.RunStore`
files: every run is independently seeded and its world's chain mints
its own addresses and tx hashes, so a warm worker carries nothing from
one run into the next.

The protocol exists so tests can substitute fakes; :class:`WorkerConfig`
is the one worker-configuration surface shared by the executor kwargs,
``repro sweep`` flags and ``repro serve`` flags.  It round-trips through
run manifests (the ``"execution"`` block) so a resumed sweep records
which backend produced each run.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import queue
import signal
import threading
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait
from typing import Any, Iterator, Mapping, Protocol, Sequence, runtime_checkable

from ..telemetry.clock import perf_seconds
from .executor import _WORKER_STATE, ProgressChunk, ProgressSink, RunJob, RunOutcome, execute_job

__all__ = [
    "ExecutionBackend",
    "PersistentBackend",
    "SerialBackend",
    "WorkerConfig",
    "worker_start_method",
]

#: The backend names :class:`WorkerConfig` accepts.
_BACKENDS = ("serial", "persistent")

#: Identifies one in-flight run across campaigns and stores.
RunKey = tuple[str, str, str]


def _run_key(job: RunJob) -> RunKey:
    """``(store_root, campaign, run_id)``: run ids repeat across campaigns."""
    return (job.store_root, job.campaign, job.run.run_id)


@dataclass(frozen=True)
class WorkerConfig:
    """The unified worker configuration: which backend, how many workers.

    One dataclass behind ``CampaignExecutor(backend=...)``,
    ``repro sweep --backend/--workers`` and ``repro serve --workers``.
    :meth:`describe` / :meth:`from_payload` round-trip it through the run
    manifest's ``"execution"`` block.
    """

    backend: str = "serial"
    workers: int = 1

    def __post_init__(self) -> None:
        if not self.backend:
            raise ValueError("backend name must be non-empty")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    @classmethod
    def resolve(cls, backend: str | None = None, workers: int | None = None) -> "WorkerConfig":
        """Resolve CLI-style inputs: ``auto`` picks serial or persistent.

        ``backend=None``/``"auto"`` maps to serial when ``workers`` is unset
        or 1, persistent otherwise.  A persistent backend with no worker
        count gets a host-derived default (2–4, capped by CPU count).
        """
        name = backend or "auto"
        if name == "auto":
            name = "serial" if not workers or int(workers) <= 1 else "persistent"
        if name == "serial":
            return cls()
        _check_backend(name)
        if workers is None:
            workers = min(4, max(2, os.cpu_count() or 1))
        return cls(backend=name, workers=max(int(workers), 1))

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "WorkerConfig":
        """Rebuild from a manifest ``"execution"`` block."""
        return cls(backend=str(payload["backend"]), workers=int(payload["workers"]))

    def describe(self) -> dict[str, Any]:
        """The JSON-ready manifest form (see :meth:`from_payload`)."""
        return {"backend": self.backend, "workers": self.workers}

    def create(self) -> "ExecutionBackend":
        """Instantiate the configured backend."""
        _check_backend(self.backend)
        if self.backend == "serial":
            return SerialBackend()
        return PersistentBackend(self.workers)


def _check_backend(name: str) -> None:
    # Checked on use, not on construction: a test fake's name (and a
    # manifest from an older store) may be any string.
    if name not in _BACKENDS:
        raise ValueError(f"unknown execution backend {name!r}; known: {', '.join(_BACKENDS)}")


@runtime_checkable
class ExecutionBackend(Protocol):
    """How a campaign's pending runs execute.

    Implementations must keep the store byte-identity contract: a job's
    persisted files may not depend on which backend (or worker) ran it.
    ``run`` yields outcomes as runs finish (unordered on parallel
    backends); ``execute_one`` is the thread-safe single-run entry.
    ``close`` releases resources gracefully, ``terminate`` forcefully
    (in-flight runs surface as failed outcomes — resumable, since
    interrupted runs never write a manifest).  A process that executes
    jobs frees each finished world, one large reference cycle, before it
    takes its next job, so its resident set stays flat across jobs (the
    manifests' ``peak_rss_mb`` shows it).
    """

    name: str
    workers: int

    def run(self, jobs: Sequence[RunJob]) -> Iterator[RunOutcome]: ...

    def execute_one(self, job: RunJob) -> RunOutcome: ...

    def close(self) -> None: ...

    def terminate(self) -> None: ...


class SerialBackend:
    """In-process execution, one run after another (the ground truth).

    After each job it runs one full collection, which frees the finished
    world, before the outcome is returned.  The run's ``elapsed_seconds``
    excludes it; the next job's ``idle_seconds`` includes it.
    """

    name = "serial"
    workers = 1

    def __init__(self) -> None:
        # execute_job mutates process-global state (the telemetry install
        # and the worker bookkeeping): one lock keeps concurrent callers
        # from interleaving runs.
        self._lock = threading.Lock()

    def run(self, jobs: Sequence[RunJob]) -> Iterator[RunOutcome]:
        with self._lock:
            # Persistent workers are fresh per backend; give the serial path
            # the same contract, or task indices and idle gaps would span
            # earlier campaigns run in this process.
            _WORKER_STATE.clear()
            for job in jobs:
                yield self._execute(job)

    def execute_one(self, job: RunJob) -> RunOutcome:
        with self._lock:
            return self._execute(job)

    @staticmethod
    def _execute(job: RunJob) -> RunOutcome:
        outcome = execute_job(job)
        gc.collect()
        return outcome

    def close(self) -> None:
        pass

    def terminate(self) -> None:
        pass


def worker_start_method() -> str:
    """How a persistent worker starts from the calling process right now.

    ``fork`` while the process runs exactly one Python thread: the worker
    is a copy of the parent's warm interpreter, with NumPy and the
    simulator already imported.  ``spawn`` otherwise, because forking a
    process whose other threads may hold a lock can deadlock the child —
    that covers callers that already run threads and every respawn after
    a crash (the backend's collector thread is running by then).

    Native threads do not count: NumPy's OpenBLAS pool is not a Python
    thread, and forking next to it is safe, although CPython 3.12+ may
    still warn (``DeprecationWarning``) that the process is multi-threaded.
    """
    if threading.active_count() == 1 and "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return "spawn"


def persistent_worker_main(task_queue, results: Connection) -> None:
    """One long-lived worker process: pull jobs, execute, report.

    Runs until the ``None`` sentinel arrives.  Every message sent on the
    ``results`` pipe is ``(run key, payload)``: a streaming job's
    :class:`~repro.campaigns.executor.ProgressChunk` s first, then its
    :class:`RunOutcome`.  The pipe is this worker's alone, so they arrive
    in that order, and a worker killed mid-message garbles no other
    worker's results.

    Once the outcome is sent, the worker runs one full collection, which
    frees the finished world before the next job builds its own.  The
    job's reported latency does not include it; the next job's
    ``idle_seconds`` does.
    """
    # A forked worker inherits its parent's signal handlers and wakeup fd
    # (a caller's drain handler, an event loop's self-pipe): restore what a
    # fresh interpreter has, so it behaves like a spawned worker.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.set_wakeup_fd(-1)
    _WORKER_STATE.clear()
    while True:
        job = task_queue.get()
        if job is None:
            return
        key = _run_key(job)
        # execute_job captures run failures as outcome.error, so one
        # pathological run cannot take the worker down with it.
        outcome = execute_job(job, lambda chunk: results.send((key, chunk)))
        results.send((key, outcome))
        gc.collect()


def _close_queue(task_queue, *, flush: bool) -> None:
    """End a task queue's feeder thread, waiting for it only when ``flush``.

    A worker that exited cleanly read everything up to its sentinel; what
    a killed worker left unread is dropped.
    """
    task_queue.close()
    if flush:
        task_queue.join_thread()
    else:
        task_queue.cancel_join_thread()


class PersistentBackend:
    """Long-lived worker processes shared across campaigns.

    ``N`` worker processes are started once — by :meth:`start`, or else
    by the first :meth:`run` — and fed :class:`RunJob` messages over
    per-worker task queues, each job to the worker with the fewest
    outstanding runs; each worker sends its results back over its own
    pipe.  Each worker is forked from the caller when
    :func:`worker_start_method` says that is safe and spawned otherwise;
    :attr:`start_method` reports which, and :attr:`start_seconds` how long
    :meth:`start` took.

    A daemon collector thread routes each message to the queue of the
    :meth:`run` call that dispatched it, which makes dispatch thread-safe
    (the service supervisor calls :meth:`execute_one` from several dispatch
    threads concurrently).  The collector also sees a worker die, as the end of its
    result pipe: the dead worker's pending runs are reported as failed
    outcomes (never silently dropped — the campaign completes and a
    re-execute resumes exactly the lost runs) and its slot respawned.

    Use as a context manager, or call :meth:`close` when done; an
    executor-owned instance is closed by ``CampaignExecutor.execute``.
    """

    name = "persistent"

    def __init__(self, workers: int = 2) -> None:
        self.workers = max(int(workers), 1)
        self._lock = threading.Lock()
        #: How each slot's current worker was started (``None`` before start).
        self._start_methods: list[str | None] = [None] * self.workers
        #: Seconds :meth:`start` took to start every worker (``None`` before).
        self.start_seconds: float | None = None
        self._procs: list = [None] * self.workers
        self._task_queues: list = [None] * self.workers
        #: Each slot's end of its worker's result pipe; ``None`` once the
        #: worker has exited and the backend is closed.
        self._results: list[Connection | None] = [None] * self.workers
        self._collector: threading.Thread | None = None
        self._started = False
        self._closed = False
        #: run key -> (worker slot, the dispatching caller's message queue).
        self._pending: dict[RunKey, tuple[int, queue.Queue]] = {}
        self._outstanding: list[int] = [0] * self.workers

    # -------------------------------------------------------------- #
    # Lifecycle
    # -------------------------------------------------------------- #
    def start(self) -> "PersistentBackend":
        """Start the workers, then the collector (idempotent).

        Every worker starts before the collector thread does, so a caller
        that runs one Python thread forks all of them.
        """
        with self._lock:
            if self._started:
                return self
            if self._closed:
                raise RuntimeError("persistent backend already closed")
            started = perf_seconds()
            for slot in range(self.workers):
                self._start_worker_locked(slot)
            self.start_seconds = perf_seconds() - started
            self._collector = threading.Thread(
                target=self._collect, name="persistent-collector", daemon=True
            )
            self._started = True
        self._collector.start()
        return self

    @property
    def start_method(self) -> str | None:
        """How the workers were started: ``fork``, ``spawn``, or
        ``fork+spawn`` once a respawn differs; ``None`` before start."""
        methods = sorted({method for method in self._start_methods if method is not None})
        return "+".join(methods) or None

    def alive_workers(self) -> int:
        """How many worker processes are running right now."""
        with self._lock:
            return sum(1 for proc in self._procs if proc is not None and proc.is_alive())

    def _start_worker_locked(self, slot: int) -> None:
        context = multiprocessing.get_context(worker_start_method())
        task_queue = context.Queue()
        reader, writer = context.Pipe(duplex=False)
        proc = context.Process(
            target=persistent_worker_main,
            args=(task_queue, writer),
            name=f"persistent-{slot}",
            daemon=True,
        )
        proc.start()
        # The worker now holds the only write end, so its exit ends the pipe.
        writer.close()
        self._task_queues[slot] = task_queue
        self._results[slot] = reader
        self._procs[slot] = proc
        self._start_methods[slot] = context.get_start_method()

    def __enter__(self) -> "PersistentBackend":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Graceful shutdown: workers finish their queues, then exit."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            started = self._started
            if started:
                for task_queue in self._task_queues:
                    task_queue.put(None)
        if not started:
            return
        self._shutdown(graceful=True)

    def terminate(self) -> None:
        """Forceful shutdown: kill workers; pending runs fail (resumable)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            started = self._started
        if not started:
            return
        for proc in self._procs:
            if proc is not None and proc.is_alive():
                proc.terminate()
        self._shutdown(graceful=False)

    def _shutdown(self, *, graceful: bool) -> None:
        for proc in self._procs:
            if proc is not None:
                proc.join(timeout=30.0 if graceful else 5.0)
        for proc in self._procs:
            if proc is not None and proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=5.0)
        # The workers have exited: the collector drains what their pipes
        # still hold, sees every pipe end, and stops.
        if self._collector is not None:
            self._collector.join(timeout=10.0)
        for proc, task_queue in zip(self._procs, self._task_queues):
            _close_queue(task_queue, flush=proc.exitcode == 0)
        reason = (
            "persistent backend closed before the run completed"
            if graceful
            else "persistent backend terminated"
        )
        self._fail_pending(reason)

    def _fail_pending(self, reason: str) -> None:
        with self._lock:
            victims = list(self._pending.items())
            self._pending.clear()
            self._outstanding = [0] * self.workers
        for key, (_slot, sink) in victims:
            sink.put((key, RunOutcome(run_id=key[2], elapsed_seconds=0.0, error=reason)))

    # -------------------------------------------------------------- #
    # Dispatch
    # -------------------------------------------------------------- #
    def run(self, jobs: Sequence[RunJob], on_progress: ProgressSink | None = None) -> Iterator[RunOutcome]:
        """Yield the jobs' outcomes as they finish; streaming jobs' progress chunks go to ``on_progress``."""
        jobs = list(jobs)
        if not jobs:
            return
        yield from self._receive(self._dispatch(jobs), len(jobs), on_progress)

    def execute_one(self, job: RunJob, on_progress: ProgressSink | None = None) -> RunOutcome:
        """Execute one run; a streaming job's progress chunks go to ``on_progress`` first."""
        for outcome in self.run([job], on_progress):
            return outcome
        raise RuntimeError("backend produced no outcome")  # pragma: no cover

    def _dispatch(self, jobs: list[RunJob]) -> queue.Queue:
        """Queue ``jobs`` on the least-loaded workers; returns their message queue."""
        self.start()
        sink: queue.Queue = queue.Queue()
        keys = [_run_key(job) for job in jobs]
        with self._lock:
            if self._closed:
                raise RuntimeError("persistent backend is closed")
            duplicates = sorted("/".join(key[1:]) for key in keys if key in self._pending)
            if duplicates:
                raise ValueError(f"run(s) already in flight: {', '.join(duplicates)}")
            for key, job in zip(keys, jobs):
                slot = self._outstanding.index(min(self._outstanding))
                self._pending[key] = (slot, sink)
                self._outstanding[slot] += 1
                self._task_queues[slot].put(job)
        return sink

    @staticmethod
    def _receive(sink: queue.Queue, count: int, on_progress: ProgressSink | None) -> Iterator[RunOutcome]:
        """Yield ``count`` outcomes off ``sink``, handing progress chunks to ``on_progress``."""
        while count:
            _key, message = sink.get()
            if isinstance(message, RunOutcome):
                count -= 1
                yield message
            elif on_progress is not None:
                on_progress(message)

    # -------------------------------------------------------------- #
    # Collection
    # -------------------------------------------------------------- #
    def _collect(self) -> None:
        """Route messages to their dispatching callers; replace dead workers.

        Stops once the backend is closed and every worker's pipe has ended.
        """
        while True:
            with self._lock:
                slots = {reader: slot for slot, reader in enumerate(self._results) if reader is not None}
            if not slots:
                return
            for reader in wait(list(slots)):
                try:
                    key, message = reader.recv()
                except (EOFError, OSError):
                    self._worker_exited(slots[reader], reader)
                    continue
                self._deliver(key, message)

    def _deliver(self, key: RunKey, message: RunOutcome | ProgressChunk) -> None:
        with self._lock:
            entry = self._pending.get(key)
            if entry is None:
                return  # already synthesized as a worker-death failure
            slot, sink = entry
            if isinstance(message, RunOutcome):
                del self._pending[key]
                self._outstanding[slot] -= 1
        sink.put((key, message))

    def _worker_exited(self, slot: int, reader: Connection) -> None:
        """Fail the pending runs of the worker in ``slot``, which exited, and respawn it.

        Its queued-but-unstarted jobs are *not* re-run on another worker —
        re-dispatching could race a half-finished store write from the
        moment of death.  Its pending runs fail loudly instead; interrupted
        runs never wrote a manifest, so re-executing the campaign resumes
        exactly the lost runs.  After :meth:`close` or :meth:`terminate`
        the slot is only retired; the shutdown fails what is left.
        """
        reader.close()
        proc = self._procs[slot]
        proc.join(timeout=5.0)
        with self._lock:
            self._results[slot] = None
            if self._closed:
                return
            lost = [key for key, (s, _) in self._pending.items() if s == slot]
            sinks = [self._pending.pop(key)[1] for key in lost]
            self._outstanding[slot] = 0
            dead_queue = self._task_queues[slot]
            self._start_worker_locked(slot)
        _close_queue(dead_queue, flush=False)
        error = (
            f"persistent worker {slot} exited (code {proc.exitcode}) before "
            "completing the run; re-execute the campaign to resume it"
        )
        for key, sink in zip(lost, sinks):
            sink.put((key, RunOutcome(run_id=key[2], elapsed_seconds=0.0, error=error)))
