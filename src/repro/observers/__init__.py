"""Streaming observer API: typed events, the bus, probes and sinks.

This package turns a simulation run from an artefact you crawl afterwards
into a *stream* you consume as the world advances:

* :mod:`repro.observers.events` — the :class:`SimEvent` taxonomy
  (``StepStarted``, ``PriceUpdated``, ``LiquidationSettled``,
  ``BlockMined``…);
* :mod:`repro.observers.bus` — the :class:`ObserverBus` every
  :class:`~repro.simulation.engine.SimulationEngine` carries, plus the
  two-method :class:`Probe` protocol (``on_event`` / ``finalize``);
* :mod:`repro.observers.probes` — built-in probes:
  :class:`LiquidationRecorder`, :class:`HealthSampler`,
  :class:`MetricsAccumulator`;
* :mod:`repro.observers.alerts` — the tiered alert policy
  (:class:`AlertPolicy`, :class:`AlertEngine`) that turns health samples
  into alerts under both ``repro watch`` and ``repro serve``;
* :mod:`repro.observers.sinks` — :class:`JsonlSink`, streaming events as
  JSON lines;
* :mod:`repro.observers.watch` — the live monitoring loop behind
  ``python -m repro watch``.

Quickstart::

    from repro import scenarios
    from repro.observers import LiquidationRecorder, MetricsAccumulator

    builder = scenarios.get("march-2020-only").builder(seed=7)
    builder.with_probes(lambda engine: LiquidationRecorder())
    result = builder.run()
    print(len(result.records))        # streamed, no post-hoc crawl

The probe/sink/watch modules are imported lazily: the engine imports this
package for the bus and the event types, while the probes import the
analytics layer, which imports the engine — eager imports here would cycle.
"""

from __future__ import annotations

from .bus import ObserverBus, Probe
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

__all__ = [
    "AuctionDealt",
    "BlockMined",
    "HealthSampler",
    "IncidentFired",
    "InterestAccrued",
    "JsonlSink",
    "LiquidationRecorder",
    "LiquidationSettled",
    "MetricsAccumulator",
    "ObserverBus",
    "PriceUpdated",
    "Probe",
    "RunCompleted",
    "RunStarted",
    "SimEvent",
    "SnapshotTaken",
    "StepStarted",
    "watch_run",
]

#: Lazily resolved attributes → their defining submodule.
_LAZY = {
    "HealthSampler": "probes",
    "LiquidationRecorder": "probes",
    "MetricsAccumulator": "probes",
    "JsonlSink": "sinks",
    "watch_run": "watch",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
