"""Campaign execution backends.

The :class:`ExecutionBackend` protocol is the seam between *what* a
campaign runs (:class:`~repro.campaigns.executor.RunJob`) and *how* it
runs.  Two implementations ship, selected by :class:`WorkerConfig`:

``serial``
    In-process, one run after another — the ground truth the persistent
    backend is byte-compared against.
``persistent``
    Long-lived worker processes started once and reused across campaigns
    and service jobs.  Jobs go to the least-loaded worker; outcomes (and
    the progress chunks of streaming jobs) come back over one shared result
    queue, where a collector thread routes them to the dispatching caller.
    That makes :meth:`PersistentBackend.run` safe to call from several
    threads at once (the service supervisor does).

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

import multiprocessing
import os
import queue
import threading
from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Protocol, Sequence, runtime_checkable

from .executor import _WORKER_STATE, ProgressChunk, ProgressSink, RunJob, RunOutcome, execute_job

__all__ = [
    "ExecutionBackend",
    "PersistentBackend",
    "SerialBackend",
    "WorkerConfig",
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
    interrupted runs never write a manifest).
    """

    name: str
    workers: int

    def run(self, jobs: Sequence[RunJob]) -> Iterator[RunOutcome]: ...

    def execute_one(self, job: RunJob) -> RunOutcome: ...

    def close(self) -> None: ...

    def terminate(self) -> None: ...


class SerialBackend:
    """In-process execution, one run after another (the ground truth)."""

    name = "serial"
    workers = 1

    def __init__(self) -> None:
        # execute_job mutates process-global state (the telemetry install
        # and the worker bookkeeping): one lock keeps concurrent callers —
        # the service's worker slots — from interleaving runs.
        self._lock = threading.Lock()

    def run(self, jobs: Sequence[RunJob]) -> Iterator[RunOutcome]:
        with self._lock:
            # Persistent workers are fresh per backend; give the serial path
            # the same contract, or task indices and idle gaps would span
            # earlier campaigns run in this process.
            _WORKER_STATE.clear()
            for job in jobs:
                yield execute_job(job)

    def execute_one(self, job: RunJob) -> RunOutcome:
        with self._lock:
            return execute_job(job)

    def close(self) -> None:
        pass

    def terminate(self) -> None:
        pass


def persistent_worker_main(task_queue, result_queue) -> None:
    """One long-lived worker process: pull jobs, execute, report.

    Runs until the ``None`` sentinel arrives.  Every message on the result
    queue is ``(run key, payload)``: a streaming job's
    :class:`~repro.campaigns.executor.ProgressChunk` s first, then its
    :class:`RunOutcome`.  One producer per worker keeps them
    in that order.
    """
    _WORKER_STATE.clear()
    while True:
        job = task_queue.get()
        if job is None:
            return
        key = _run_key(job)
        # execute_job captures run failures as outcome.error, so one
        # pathological run cannot take the worker down with it.
        outcome = execute_job(job, lambda chunk: result_queue.put((key, chunk)))
        result_queue.put((key, outcome))


class PersistentBackend:
    """Long-lived worker processes shared across campaigns.

    ``N`` spawn processes are started once (lazily, on the first
    :meth:`run`) and fed :class:`RunJob` messages over per-worker task
    queues, each job to the worker with the fewest outstanding runs; a
    shared result queue carries outcomes back.

    A daemon collector thread routes each message to the queue of the
    :meth:`run` call that dispatched it, which makes dispatch thread-safe
    (the service supervisor calls :meth:`execute_one` from several slots
    concurrently).  The collector also watches for worker death: a worker
    that disappears mid-task has its pending runs reported as failed
    outcomes (never silently dropped — the campaign completes and a
    re-execute resumes exactly the lost runs) and its slot respawned.

    Use as a context manager, or call :meth:`close` when done; an
    executor-owned instance is closed by ``CampaignExecutor.execute``.
    """

    name = "persistent"

    def __init__(self, workers: int = 2) -> None:
        self.workers = max(int(workers), 1)
        self._context = multiprocessing.get_context("spawn")
        self._lock = threading.Lock()
        self._procs: list = [None] * self.workers
        self._task_queues: list = [None] * self.workers
        self._result_queue = None
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
        """Spawn the workers and the collector (idempotent)."""
        with self._lock:
            if self._started:
                return self
            if self._closed:
                raise RuntimeError("persistent backend already closed")
            self._result_queue = self._context.Queue()
            for slot in range(self.workers):
                self._spawn_locked(slot)
            self._collector = threading.Thread(
                target=self._collect, name="persistent-collector", daemon=True
            )
            self._started = True
        self._collector.start()
        return self

    def _spawn_locked(self, slot: int) -> None:
        task_queue = self._context.Queue()
        proc = self._context.Process(
            target=persistent_worker_main,
            args=(task_queue, self._result_queue),
            name=f"persistent-{slot}",
            daemon=True,
        )
        proc.start()
        self._task_queues[slot] = task_queue
        self._procs[slot] = proc

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
        # The workers have exited, so their queued messages are all in the
        # pipe ahead of this sentinel: the collector drains them, then stops.
        self._result_queue.put(None)
        if self._collector is not None:
            self._collector.join(timeout=10.0)
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
    def run(self, jobs: Sequence[RunJob]) -> Iterator[RunOutcome]:
        jobs = list(jobs)
        if not jobs:
            return
        yield from self._receive(self._dispatch(jobs), len(jobs), None)

    def execute_one(self, job: RunJob, on_progress: ProgressSink | None = None) -> RunOutcome:
        """Execute one run; a streaming job's progress chunks go to ``on_progress`` first."""
        for outcome in self._receive(self._dispatch([job]), 1, on_progress):
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
                proc = self._procs[slot]
                if proc is None or not proc.is_alive():
                    # An idle worker died quietly: replace it before dispatch.
                    self._spawn_locked(slot)
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
        """Route messages to their dispatching callers; watch for deaths."""
        while True:
            try:
                item = self._result_queue.get(timeout=0.2)
            except queue.Empty:
                self._reap_dead_workers()
                continue
            except (EOFError, OSError):  # pragma: no cover - queue torn down
                return
            if item is None:
                return
            self._deliver(*item)

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

    def _reap_dead_workers(self) -> None:
        """Fail (and respawn) workers that died with tasks outstanding.

        The dead worker's queued-but-unstarted jobs are *not* re-run on
        another worker — re-dispatching could race a half-finished store
        write from the moment of death.  Its pending runs fail loudly
        instead; interrupted runs never wrote a manifest, so re-executing
        the campaign resumes exactly the lost runs.
        """
        victims: list[tuple[RunKey, queue.Queue, int, int | None]] = []
        with self._lock:
            if self._closed:
                return
            for slot, proc in enumerate(self._procs):
                if proc is None or proc.is_alive() or self._outstanding[slot] == 0:
                    continue
                exitcode = proc.exitcode
                lost = [key for key, (s, _) in self._pending.items() if s == slot]
                for key in lost:
                    victims.append((key, self._pending.pop(key)[1], slot, exitcode))
                self._outstanding[slot] = 0
                self._spawn_locked(slot)
        for key, sink, slot, exitcode in victims:
            sink.put(
                (
                    key,
                    RunOutcome(
                        run_id=key[2],
                        elapsed_seconds=0.0,
                        error=(
                            f"persistent worker {slot} exited (code {exitcode}) before "
                            "completing the run; re-execute the campaign to resume it"
                        ),
                    ),
                )
            )
