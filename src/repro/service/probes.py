"""Worker-side probes feeding the service's JSONL transport.

These run *inside* the persistent worker, attached to the engine's observer
bus next to the standard recorder/metrics probes.  Like every probe they are
passive — they read cached valuations but never mutate the world — so a
service-executed run stays bit-identical to a standalone one (the store
equivalence test in ``tests/test_service.py`` pins this for every registered
scenario).
"""

from __future__ import annotations

from typing import IO, TYPE_CHECKING, Iterable

import numpy as np

from ..observers.events import (
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
from .transport import encode_message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..protocols.base import LendingProtocol

__all__ = ["DEFAULT_SAMPLE_BELOW", "HealthSampleProbe"]

#: Default sampling threshold: a margin above the default warning tier so
#: the alert engine sees positions approaching the tiers, not only in them.
DEFAULT_SAMPLE_BELOW = 1.1


class HealthSampleProbe:
    """Streams below-threshold health-factor samples to the supervisor.

    Where :class:`~repro.observers.probes.HealthFactorWatcher` alerts once
    per threshold *entry*, the service needs the raw trajectory: the parent's
    :class:`~repro.service.alerts.AlertEngine` owns tiering, cooldowns and
    rapid-deterioration detection, and all three need repeated samples of
    the same position.  So this probe re-emits every at-risk position on
    every rescan — one ``hf_sample`` service line each — and leaves the
    policy to the consumer.

    The rescan schedule is the watcher's: only protocols whose position book
    holds a price-dirtied asset column (or that accrued interest this
    stride) are swept, riding the block's shared cached valuation.
    """

    #: Samples move on prices, accrual and mining; lifecycle/report events
    #: carry nothing a sampler reacts to.
    IGNORED_EVENTS = (
        AuctionDealt,
        IncidentFired,
        LiquidationSettled,
        RunCompleted,
        RunStarted,
        SnapshotTaken,
        StepStarted,
    )

    def __init__(
        self,
        handle: IO[str],
        protocols: Iterable["LendingProtocol"],
        sample_below: float = DEFAULT_SAMPLE_BELOW,
    ) -> None:
        self.handle = handle
        self.protocols = list(protocols)
        self.sample_below = float(sample_below)
        self.samples_written = 0
        self._dirty_symbols: set[str] = set()
        self._accrued_protocols: set[str] = set()

    def on_event(self, event: SimEvent) -> None:
        if isinstance(event, PriceUpdated):
            self._dirty_symbols.add(event.symbol.upper())
        elif isinstance(event, InterestAccrued):
            self._accrued_protocols.update(event.protocols)
        elif isinstance(event, BlockMined):
            self._sample(event)

    def _sample(self, event: BlockMined) -> None:
        if not self._dirty_symbols and not self._accrued_protocols:
            return
        dirty = self._dirty_symbols
        accrued = self._accrued_protocols
        self._dirty_symbols = set()
        self._accrued_protocols = set()
        for protocol in self.protocols:
            if protocol.name not in accrued and not dirty.intersection(protocol.book.assets):
                continue
            valuation = protocol.valuation()
            health = valuation.health_factors()
            for row in np.flatnonzero(health < self.sample_below).tolist():
                position = valuation.book.position_at(row)
                self.handle.write(
                    encode_message(
                        {
                            "service": "hf_sample",
                            "platform": protocol.name,
                            "owner": position.owner.value,
                            "health_factor": float(health[row]),
                            "debt_usd": float(valuation.debt_usd[row]),
                            "block_number": event.block_number,
                            "step_index": event.step_index,
                        }
                    )
                )
                self.samples_written += 1

    def finalize(self) -> None:
        """Flush so the last strides' samples reach the parent before the outcome."""
        self.handle.flush()
