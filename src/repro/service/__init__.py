"""The simulation service: a long-running supervisor around the engine.

``repro serve`` promotes the one-shot ``repro watch`` loop into a
production-style service: an asyncio supervisor accepts jobs — single
scenario runs and campaign sweeps — executes them concurrently on the
campaigns' persistent workers, and streams each run's typed
:class:`~repro.observers.events.SimEvent` s back to the parent as
line-delimited JSONL (the JsonlSink-to-parent transport).  On top of the stream sit per-job progress probes, the
tiered health-factor alert engine of ``repro watch``
(:mod:`repro.observers.alerts`, re-exported here) fed by the workers'
health samples, and an HTTP surface (``/jobs``, ``/alerts``, ``/health``,
``/metrics``) extending the telemetry :class:`~repro.telemetry.http.MetricsServer`.

Durability comes from the campaign :class:`~repro.campaigns.store.RunStore`:
every run is persisted experiment-files-first / manifest-last, so a drain
(SIGINT/SIGTERM) simply stops dispatching, lets in-flight runs finish or
terminates the workers, and exits 0 — a restarted service resumes the incomplete jobs from
the store's manifests and its own journal.
"""

from ..observers.alerts import Alert, AlertEngine, AlertPolicy
from .jobs import JobRecord, RunState, ServiceJournal, expand_job
from .supervisor import ServiceConfig, ServiceSupervisor
from .transport import EventStreamDecoder, decode_line, event_from_payload

__all__ = [
    "Alert",
    "AlertEngine",
    "AlertPolicy",
    "EventStreamDecoder",
    "JobRecord",
    "RunState",
    "ServiceConfig",
    "ServiceJournal",
    "ServiceSupervisor",
    "decode_line",
    "event_from_payload",
    "expand_job",
]
