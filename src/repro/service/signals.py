"""Shared graceful-shutdown helpers.

Containers and process supervisors stop services with SIGTERM, not Ctrl-C.
The CLI loops (``repro watch``, the service worker) already have a clean
KeyboardInterrupt path — flush sinks, finalize probes, exit 0 — so the
helper here simply routes SIGTERM into that same path.  ``repro serve``
installs its own handler for both signals — it only asks the waiting main
thread to drain — but shares :data:`TERMINATION_SIGNALS` so every entry
point drains on the same set.
"""

from __future__ import annotations

import signal
import threading
from contextlib import contextmanager
from types import FrameType
from typing import Iterator

__all__ = ["TERMINATION_SIGNALS", "termination_as_interrupt"]

#: The signals that mean "stop now, but cleanly" for every repro process.
TERMINATION_SIGNALS: tuple[signal.Signals, ...] = (signal.SIGINT, signal.SIGTERM)


def _raise_interrupt(signum: int, frame: FrameType | None) -> None:
    raise KeyboardInterrupt


@contextmanager
def termination_as_interrupt(*signums: signal.Signals) -> Iterator[None]:
    """Deliver the given signals (default: SIGTERM) as ``KeyboardInterrupt``.

    Inside the context, a SIGTERM behaves exactly like Ctrl-C, so one
    interrupt path covers interactive use and container supervision alike.
    Previous handlers are restored on exit.  Signal handlers can only be
    installed from the main thread; elsewhere (test runners driving the CLI
    from a worker thread) the context is a no-op.
    """
    if not signums:
        signums = (signal.SIGTERM,)
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = {signum: signal.signal(signum, _raise_interrupt) for signum in signums}
    try:
        yield
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
