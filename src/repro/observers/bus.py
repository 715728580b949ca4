"""The observer bus: fan-out of :class:`SimEvent` s to attached probes.

The bus is deliberately minimal — an ordered list of probes and a dispatch
loop — because its fast path matters more than its feature set: a run with no
probes attached must cost essentially nothing extra (the engine checks
:attr:`ObserverBus.active` before even *constructing* events, and the
``test_watch_overhead`` benchmark holds the active bus under 5 % overhead).

Probes follow the two-method :class:`Probe` protocol: ``on_event`` receives
every published event during the run, ``finalize`` is called once when the
run completes (engine-driven runs call it from ``run()``; manual ``step()``
loops call :meth:`ObserverBus.finalize` themselves).  Probes must be passive
observers — they may read any engine state but must not mutate the world,
consume engine RNG streams, or submit transactions; seed-pinned runs with
probes attached are bit-identical to bare runs (enforced by test).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .events import SimEvent


@runtime_checkable
class Probe(Protocol):
    """What the bus requires of an attached observer."""

    def on_event(self, event: "SimEvent") -> None:
        """Receive one published event (called in emission order)."""

    def finalize(self) -> None:
        """The run completed; seal any accumulated state (idempotent)."""


class ObserverBus:
    """Dispatches simulation events to attached probes, in attachment order."""

    def __init__(self) -> None:
        self._probes: list[Probe] = []

    def __len__(self) -> int:
        return len(self._probes)

    @property
    def active(self) -> bool:
        """Whether any probe is attached (the engine's emission gate)."""
        return bool(self._probes)

    def attach(self, probe: Probe) -> Probe:
        """Attach ``probe`` and return it (for fluent local use)."""
        self._probes.append(probe)
        return probe

    def emit(self, event: "SimEvent") -> None:
        """Publish one event to every probe."""
        for probe in self._probes:
            probe.on_event(event)

    def finalize(self) -> None:
        """Signal run completion to every probe."""
        for probe in self._probes:
            probe.finalize()

    def find(self, probe_type: type) -> "Probe | None":
        """The first attached probe of ``probe_type`` (or ``None``)."""
        for probe in self._probes:
            if isinstance(probe, probe_type):
                return probe
        return None
