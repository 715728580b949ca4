"""Event sinks: probes that forward the stream out of the process.

:class:`JsonlSink` serialises every event's :meth:`SimEvent.payload` as one
JSON line — the same diff-friendly, ``jq``-able convention the campaign
store uses.  It accepts a path (opened lazily, closed on finalize) or any
writable text handle (left open, so ``sys.stdout`` works for ``repro watch
--jsonl -``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Iterable

from .events import SimEvent

#: One shared encoder: ``json.dumps(payload, sort_keys=True)`` without
#: building an encoder per line.
_ENCODER = json.JSONEncoder(sort_keys=True)


class JsonlSink:
    """Writes every received event as a JSON line.

    Parameters
    ----------
    target:
        A file path (``str`` / ``Path``) or an open text handle.  Paths are
        opened on the first event and closed by :meth:`finalize`; handles
        are flushed but never closed (the caller owns them).
    kinds:
        Optional allow-list of event type names (e.g. ``{"LiquidationSettled",
        "BlockMined"}``); ``None`` streams everything.
    """

    def __init__(self, target: str | Path | IO[str], kinds: Iterable[str] | None = None) -> None:
        self._path: Path | None = None
        self._handle: IO[str] | None = None
        if isinstance(target, (str, Path)):
            self._path = Path(target)
        else:
            self._handle = target
        self.kinds = frozenset(kinds) if kinds is not None else None
        self.events_written = 0
        self._opened_once = False

    def on_event(self, event: SimEvent) -> None:
        if self.kinds is not None and event.kind not in self.kinds:
            return
        if self._handle is None:
            # Truncate on the first open only: a second run() of the same
            # engine re-opens after finalize() closed the handle, and must
            # append rather than wipe the first run's stream.
            mode = "a" if self._opened_once else "w"
            self._handle = self._path.open(mode, encoding="utf-8")
            self._opened_once = True
        self._handle.write(_ENCODER.encode(event.payload()) + "\n")
        self.events_written += 1

    def finalize(self) -> None:
        """Flush, and close the handle if this sink opened it."""
        if self._handle is None:
            return
        self._handle.flush()
        if self._path is not None:
            self._handle.close()
            self._handle = None
