"""The JSONL transport: typed events across a process boundary.

A streaming run serialises every :class:`~repro.observers.events.SimEvent`
as one JSON line (the :class:`~repro.observers.sinks.JsonlSink` contract);
its persistent worker forwards the lines in chunks over the backend's
result queue, and the supervisor parses them back into typed events on the
parent side.  This module owns both directions of that contract:

* :func:`event_from_payload` — the exact inverse of
  :meth:`SimEvent.payload`, rebuilding the typed event (including the
  nested :class:`~repro.analytics.records.LiquidationRecord` that
  ``LiquidationSettled`` flattens into its payload);
* :class:`EventStreamDecoder` — an incremental line decoder that survives
  the realities of a pipe: chunks split mid-line, a final truncated line
  when the producer is killed mid-write, and the occasional malformed line
  (dropped and counted, never fatal).

Lines that are JSON objects but not events (no ``"event"`` key) are service
messages — health-factor samples — and are passed through as plain dicts
for the supervisor to dispatch on their ``"service"`` key.

The decoder works on any text stream: over an OS pipe, a slow consumer
fills the pipe buffer and the producer's blocking ``write`` stalls until
the reader drains it, so events are throttled, never dropped (pinned by
test).
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Iterator, Union

from ..analytics.records import LiquidationRecord
from ..observers import events as _events
from ..observers.events import LiquidationSettled, SimEvent

__all__ = [
    "EVENT_TYPES",
    "EventStreamDecoder",
    "decode_line",
    "encode_message",
    "event_from_payload",
]

#: Every concrete event class of the taxonomy, keyed by its ``kind`` name —
#: collected by introspection so a taxonomy extension is picked up here
#: without a registry edit (mirroring the EVT004 lint rule's fresh parse).
EVENT_TYPES: dict[str, type[SimEvent]] = {
    obj.__name__: obj
    for obj in vars(_events).values()
    if isinstance(obj, type) and issubclass(obj, SimEvent) and obj is not SimEvent
}

_RECORD_FIELDS = tuple(field.name for field in dataclasses.fields(LiquidationRecord))

#: A decoded line: a typed event, or a service message passed through.
Message = Union[SimEvent, dict]


def encode_message(payload: dict[str, Any]) -> str:
    """One service-message line (same sorted-keys convention as the sink)."""
    return json.dumps(payload, sort_keys=True) + "\n"


def event_from_payload(payload: dict[str, Any]) -> SimEvent:
    """Rebuild the typed event a :meth:`SimEvent.payload` dict came from.

    Raises ``KeyError`` for an unknown kind and ``TypeError`` for a payload
    whose fields do not match the event class — both count as malformed
    lines to the :class:`EventStreamDecoder`.
    """
    kind = payload["event"]
    event_type = EVENT_TYPES[kind]
    if event_type is LiquidationSettled:
        record = LiquidationRecord(**{name: payload[name] for name in _RECORD_FIELDS})
        return LiquidationSettled(
            step_index=payload["step_index"],
            block_number=payload["block_number"],
            record=record,
        )
    kwargs: dict[str, Any] = {}
    for field in dataclasses.fields(event_type):
        value = payload[field.name]
        # ``payload()`` runs through dataclasses.asdict, which renders
        # tuples (e.g. InterestAccrued.protocols) as JSON arrays.
        kwargs[field.name] = tuple(value) if isinstance(value, list) else value
    return event_type(**kwargs)


def decode_line(line: str) -> Message | None:
    """Decode one transport line; ``None`` means malformed (skip it)."""
    try:
        payload = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(payload, dict):
        return None
    if "event" in payload:
        try:
            return event_from_payload(payload)
        except (KeyError, TypeError):
            return None
    return payload


class EventStreamDecoder:
    """Incremental decoder of the JSONL pipe stream.

    Feed it chunks as they arrive (any split, including mid-line) and it
    yields complete messages; call :meth:`flush` at EOF to account for a
    truncated final line.  Malformed lines are dropped and counted — a
    worker killed mid-write must never poison the supervisor's stream.
    """

    def __init__(self) -> None:
        self._buffer = ""
        self.events_decoded = 0
        self.service_messages = 0
        self.lines_dropped = 0
        #: The most recent dropped line (truncated to keep memory bounded).
        self.last_dropped: str | None = None

    def feed(self, chunk: str) -> Iterator[Message]:
        """Decode every complete line in ``chunk`` plus any buffered prefix."""
        self._buffer += chunk
        while True:
            line, separator, rest = self._buffer.partition("\n")
            if not separator:
                break
            self._buffer = rest
            message = self._decode(line)
            if message is not None:
                yield message

    def flush(self) -> Iterator[Message]:
        """Finish the stream: a leftover partial line is truncated output.

        A complete JSON object that merely lost its trailing newline (the
        producer exited between ``write`` and the final flush) still decodes;
        anything else is counted as dropped.
        """
        tail, self._buffer = self._buffer, ""
        if tail.strip():
            message = self._decode(tail)
            if message is not None:
                yield message

    def _decode(self, line: str) -> Message | None:
        if not line.strip():
            return None
        message = decode_line(line)
        if message is None:
            self.lines_dropped += 1
            self.last_dropped = line[:200]
        elif isinstance(message, SimEvent):
            self.events_decoded += 1
        else:
            self.service_messages += 1
        return message
