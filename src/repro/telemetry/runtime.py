"""The run-level telemetry context: one switch, near-zero cost when off.

A :class:`Telemetry` bundles one :class:`~repro.telemetry.metrics.MetricsRegistry`
and one :class:`~repro.telemetry.spans.Tracer`.  Scoping it with
:func:`enabled` makes it the process's *active* telemetry;
the instrumented call sites — the engine's stride phases, the chain's block
packing, the position book's sync, the protocol valuation cache, the campaign
workers — all consult the active instance through two cheap module-level
helpers:

* :func:`span` — returns the active tracer's span, or a shared no-op context
  manager when telemetry is off.  The disabled cost is one global read, one
  ``is None`` test and a constant return: ``benchmarks/test_telemetry_overhead.py``
  pins it in the tens of nanoseconds, far below timing noise on any stride.
* :func:`active` — the active :class:`Telemetry` (or ``None``), for call
  sites that bump counters and therefore want to skip even label lookup when
  telemetry is off.

Telemetry is strictly *observational*: it reads clocks and engine state but
never mutates the world, consumes RNG streams or reorders execution, so
telemetry-on runs are bit-identical to telemetry-off runs (the same
discipline — and the same test matrix shape — as the observer bus).
"""

from __future__ import annotations

from contextlib import contextmanager
from types import TracebackType
from typing import Any, Iterator, Mapping

from .metrics import Counter, MetricsRegistry
from .spans import Tracer, _OpenSpan, aggregate_spans

__all__ = [
    "Telemetry",
    "active",
    "enabled",
    "span",
]


class _NoopSpan:
    """The shared do-nothing context manager returned while telemetry is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        return None


_NOOP_SPAN = _NoopSpan()

#: The process's active telemetry; ``None`` means off (the default).
_active: "Telemetry | None" = None


class Telemetry:
    """One run's telemetry: a metrics registry plus a tracer."""

    def __init__(self, name: str = "repro") -> None:
        self.name = name
        self.registry = MetricsRegistry()
        self.tracer = Tracer()

    def span(self, name: str, args: Mapping[str, Any] | None = None) -> _OpenSpan:
        """A tracing span on this instance's tracer."""
        return self.tracer.span(name, args)

    def counter(self, name: str, help: str = "", labelnames: tuple[str, ...] = ()) -> Counter:
        """Shortcut to :meth:`MetricsRegistry.counter`."""
        return self.registry.counter(name, help, labelnames)

    def summary(self) -> dict[str, Any]:
        """JSON-ready digest: per-phase span aggregates plus flat metrics.

        This is the shape the campaign workers persist into run manifests.
        """
        return {
            "spans": {
                name: {
                    "count": entry["count"],
                    "total_seconds": round(entry["total_seconds"], 6),
                    "self_seconds": round(entry["self_seconds"], 6),
                }
                for name, entry in aggregate_spans(self.tracer.records).items()
            },
            "metrics": self.registry.snapshot(),
        }


def active() -> Telemetry | None:
    """The installed telemetry, or ``None`` when telemetry is off."""
    return _active


@contextmanager
def enabled(telemetry: Telemetry | None = None) -> Iterator[Telemetry]:
    """Scope with ``telemetry`` (a fresh instance by default) installed.

    The previously active instance — usually ``None`` — is restored on exit,
    so scopes nest correctly.
    """
    global _active
    previous = _active
    _active = telemetry if telemetry is not None else Telemetry()
    try:
        yield _active
    finally:
        _active = previous


def span(name: str, args: Mapping[str, Any] | None = None) -> _NoopSpan | _OpenSpan:
    """A span on the active tracer, or the shared no-op when telemetry is off.

    This is the helper the instrumented packages import; its disabled path
    must stay allocation-free.
    """
    telemetry = _active
    if telemetry is None:
        return _NOOP_SPAN
    return telemetry.tracer.span(name, args)
