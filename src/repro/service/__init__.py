"""The simulation service: a long-running supervisor around the engine.

``repro serve`` promotes the one-shot ``repro watch`` loop into a
production-style service: a supervisor accepts jobs — single scenario
runs and campaign sweeps — and executes them concurrently on the
campaigns' persistent workers, one plain dispatch thread per worker taking
runs off one queue.  Each worker folds its run's typed events
into progress counters and sends them back with the run's health samples
(:class:`~repro.campaigns.executor.ProgressChunk`).  On top of that sit
per-run progress, the tiered health-factor alert engine of ``repro watch``
(:mod:`repro.observers.alerts`, re-exported here) fed by those samples, and
an HTTP surface (``/jobs``, ``/alerts``, ``/health``, ``/metrics``)
extending the telemetry :class:`~repro.telemetry.http.MetricsServer`.

Durability comes from the campaign :class:`~repro.campaigns.store.RunStore`:
every run is persisted experiment-files-first / manifest-last, so a drain
(SIGINT/SIGTERM) simply stops dispatching, lets in-flight runs finish or
terminates the workers, and exits 0 — a restarted service resumes the incomplete jobs from
the store's manifests and its own journal.
"""

from ..observers.alerts import Alert, AlertEngine, AlertPolicy
from .jobs import JobRecord, RunState, ServiceJournal, expand_job
from .supervisor import ServiceConfig, ServiceSupervisor

__all__ = [
    "Alert",
    "AlertEngine",
    "AlertPolicy",
    "JobRecord",
    "RunState",
    "ServiceConfig",
    "ServiceJournal",
    "ServiceSupervisor",
    "expand_job",
]
