"""The live monitoring loop behind ``python -m repro watch``.

This is the ``liquidation-alerter`` workload from the ROADMAP: build a
scenario, attach streaming probes, and narrate the run as it advances —
tiered health alerts the moment the :class:`~repro.observers.alerts.AlertEngine`
of ``repro serve`` raises them from a :class:`~repro.observers.probes.HealthSampler`,
liquidations and auction deals the moment they settle, incidents as they
fire.  The loop drives the ordinary :meth:`SimulationEngine.run`, so a
watched run is bit-identical to a bare one; all output comes from passive
probes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, TYPE_CHECKING, Callable

from .events import (
    AuctionDealt,
    BlockMined,
    IncidentFired,
    InterestAccrued,
    LiquidationSettled,
    PriceUpdated,
    RunCompleted,
    RunStarted,
    SimEvent,
    SnapshotTaken,
    StepStarted,
)
from .alerts import Alert, AlertEngine, AlertPolicy
from .probes import HealthSample, HealthSampler, LiquidationRecorder, MetricsAccumulator
from .sinks import JsonlSink

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..scenarios.builder import ScenarioBuilder
    from ..simulation.engine import SimulationResult


@dataclass
class WatchSummary:
    """What one watch run produced, for the caller's closing report."""

    result: "SimulationResult"
    liquidations: int
    #: Every alert raised, in order (the engine's own log is a ring buffer).
    alerts: list[Alert]
    events_streamed: int | None  # None when no JSONL sink was attached
    #: True when the run was cut short (Ctrl-C or a closed output pipe);
    #: probes were still finalized, so the JSONL stream is flushed and valid.
    interrupted: bool = False
    #: Bound metrics port (``--metrics-port``), or ``None`` when not serving.
    metrics_port: int | None = None
    #: Final Prometheus exposition text when metrics were served.
    metrics_exposition: str | None = None


class _ConsoleNarrator:
    """A probe that formats the stream into human-readable alert lines."""

    #: The narrator prints only the headline moments; bookkeeping events
    #: (mining, accrual, prices, snapshots, lifecycle) stay silent by design.
    IGNORED_EVENTS = (
        BlockMined,
        InterestAccrued,
        PriceUpdated,
        RunCompleted,
        RunStarted,
        SnapshotTaken,
    )

    def __init__(self, emit: Callable[[str], None], follow: bool) -> None:
        self.emit = emit
        self.follow = follow

    def on_event(self, event: SimEvent) -> None:
        if isinstance(event, LiquidationSettled):
            record = event.record
            flash = " (flash loan)" if record.used_flash_loan else ""
            self.emit(
                f"[block {record.block_number:>10,}] LIQUIDATED  {record.platform:<9} "
                f"{record.borrower}: repaid {record.repaid_usd:,.0f} USD {record.debt_symbol}, "
                f"seized {record.collateral_usd:,.0f} USD {record.collateral_symbol}, "
                f"profit {record.profit_usd:,.0f} USD [{record.mechanism}]{flash}"
            )
        elif isinstance(event, AuctionDealt):
            outcome = f"won by {event.winner}" if event.winner else "expired without a bid"
            self.emit(
                f"[block {event.block_number:>10,}] AUCTION     MakerDAO auction "
                f"#{event.auction_id} ({event.collateral_symbol}) {outcome}"
            )
        elif isinstance(event, IncidentFired):
            self.emit(f"[block {event.block_number:>10,}] INCIDENT    {event.name}")
        elif self.follow and isinstance(event, StepStarted):
            self.emit(f"[block {event.block_number:>10,}] step {event.step_index}")

    def finalize(self) -> None:
        """Nothing to seal; lines were emitted live."""


def watch_run(
    builder: "ScenarioBuilder",
    *,
    hf_below: float = 1.05,
    follow: bool = False,
    jsonl: "str | IO[str] | None" = None,
    emit: Callable[[str], None] = print,
    metrics_port: int | None = None,
) -> WatchSummary:
    """Run ``builder``'s scenario while streaming alerts through ``emit``.

    Parameters
    ----------
    hf_below:
        The policy's warning tier; its critical tier is ``min(1.0,
        hf_below)`` (1.0 means "already liquidatable").
    follow:
        Also emit one progress line per block stride.
    jsonl:
        Optional path or text handle receiving the full typed event stream
        as JSON lines.
    emit:
        Line consumer for the human-readable narration (defaults to
        ``print``).
    metrics_port:
        Serve a live Prometheus exposition of the run on this port while it
        advances (0 picks a free ephemeral port; the bound port is on the
        summary).  ``None`` disables the endpoint.

    A ``KeyboardInterrupt`` (or the output pipe closing under the narration)
    ends the watch early but cleanly: probes are finalized, so a ``--jsonl``
    stream is flushed and remains valid JSONL, and the summary reports what
    was seen up to the interrupt with ``interrupted=True``.
    """
    engine = builder.build()
    policy = AlertPolicy(warning_hf=hf_below, critical_hf=min(1.0, hf_below))
    alert_engine = AlertEngine(policy)
    run_id = f"seed-{builder.config.seed}"
    alerts: list[Alert] = []

    def observe(sample: HealthSample) -> None:
        for alert in alert_engine.observe(sample, job_id="watch", run_id=run_id):
            alerts.append(alert)
            emit(
                f"[block {alert.block_number:>10,}] {alert.tier.upper():<11} {alert.platform:<9} "
                f"{alert.owner}: HF {alert.health_factor:.4f}, debt {alert.debt_usd:,.0f} USD "
                f"({alert.reason})"
            )

    recorder = engine.attach_probe(LiquidationRecorder())
    engine.attach_probe(HealthSampler(engine.protocols, policy.sample_below, observe))
    sink = engine.attach_probe(JsonlSink(jsonl)) if jsonl is not None else None
    engine.attach_probe(_ConsoleNarrator(emit, follow))

    server = None
    registry = None
    if metrics_port is not None:
        from ..telemetry import MetricsRegistry, run_families
        from ..telemetry.http import MetricsServer

        fold = engine.attach_probe(MetricsAccumulator())
        registry = MetricsRegistry()
        registry.add_collector(lambda: run_families(fold))
        server = MetricsServer(registry, port=metrics_port)
        server.start()
        bound_port = server.port
        # Announce up front: with port 0 the ephemeral port is only knowable
        # now, and scrapers want the URL while the run is still advancing.
        emit(f"[metrics] serving http://127.0.0.1:{bound_port}/metrics")

    interrupted = False
    try:
        result = engine.run()
    except (KeyboardInterrupt, BrokenPipeError):
        from ..simulation.engine import SimulationResult

        interrupted = True
        try:
            # The engine never reached its own bus.finalize(): seal probes
            # here so the JSONL sink flushes and closes cleanly.
            if engine.bus.active:
                engine.bus.finalize()
        except (BrokenPipeError, ValueError):
            pass  # the sink's own handle is the broken pipe; nothing to save
        result = SimulationResult(engine=engine)
    finally:
        if server is not None:
            server.stop()

    return WatchSummary(
        result=result,
        liquidations=len(recorder.records),
        alerts=alerts,
        events_streamed=sink.events_written if sink is not None else None,
        interrupted=interrupted,
        metrics_port=bound_port if server is not None else None,
        metrics_exposition=registry.exposition() if registry is not None else None,
    )
