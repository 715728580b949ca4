"""Run-level telemetry: metrics registry, tracing spans, profiling hooks.

The observability layer of the reproduction, answering *where wall-clock
time and memory pressure actually go* while keeping instrumented runs
bit-identical to bare ones:

* :mod:`repro.telemetry.metrics` — a zero-dependency metrics registry
  (counters, gauges, histograms with label sets) and Prometheus-style text
  exposition;
* :mod:`repro.telemetry.spans` — nested wall-clock tracing spans with
  per-phase aggregation and Chrome trace-event JSON export;
* :mod:`repro.telemetry.runtime` — the on/off switch: :func:`enabled`
  scopes a :class:`Telemetry` instance and the instrumented call sites
  (engine stride phases, chain packing, position-book sync, valuation
  cache, campaign workers) pick it up through the near-zero-cost
  :func:`span` / :func:`active` helpers;
* :mod:`repro.telemetry.families` — :func:`run_families`, a run's
  Prometheus series read off its
  :class:`~repro.observers.probes.MetricsAccumulator` at scrape time;
* :mod:`repro.telemetry.http` — :class:`~repro.telemetry.http.MetricsServer`,
  the ``/metrics`` exposition endpoint behind ``repro watch --metrics-port``.
  Import it from there: the package does not, so a world process never
  loads ``http.server``.

Quickstart::

    from repro import scenarios
    from repro.observers.probes import MetricsAccumulator
    from repro.telemetry import enabled, render_phase_report, run_families

    with enabled() as telemetry:
        engine = scenarios.get("small").build(seed=7)
        fold = engine.attach_probe(MetricsAccumulator())
        telemetry.registry.add_collector(lambda: run_families(fold))
        engine.run()
    print(render_phase_report(telemetry.tracer.records))
    print(telemetry.registry.exposition())
    telemetry.tracer.write_chrome_trace("trace.json")

or, from the shell::

    repro trace small --chrome trace.json --metrics
    repro watch small --metrics-port 9464     # then curl :9464/metrics
"""

from .families import run_families
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .runtime import Telemetry, active, enabled, span
from .spans import SpanRecord, Tracer, aggregate_spans, render_phase_report

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SpanRecord",
    "Telemetry",
    "Tracer",
    "active",
    "aggregate_spans",
    "enabled",
    "render_phase_report",
    "run_families",
    "span",
]
