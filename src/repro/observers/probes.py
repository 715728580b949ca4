"""Built-in analytics probes for the observer bus.

Each probe consumes the engine's typed :class:`~repro.observers.events.SimEvent`
stream incrementally, replacing a post-hoc crawl of the finished chain:

* :class:`LiquidationRecorder` — streams the exact
  :class:`~repro.analytics.records.LiquidationRecord` list that
  :func:`~repro.analytics.records.extract_liquidations` would crawl after the
  run (field-for-field equal, proven by test);
* :class:`HealthSampler` — the one health-factor rescan: tracks which asset
  prices moved (and which protocols accrued) this stride, rescans only the
  protocols whose columnar :class:`~repro.core.position_book.PositionBook`
  holds a dirtied column, and hands every position below a threshold to a
  callback — the :class:`~repro.observers.alerts.AlertEngine` of
  ``repro watch``, or the progress chunks of a ``repro serve`` worker;
* :class:`MetricsAccumulator` — incremental per-step aggregates (liquidation
  counts and USD totals, blocks, incidents, price updates…) that campaign
  workers persist without re-crawling the chain.

Probes are passive: they read engine state but never mutate the world or
consume engine RNG streams, so seed-pinned runs with probes attached stay
bit-identical to bare runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple

import numpy as np

from ..analytics.records import LiquidationRecord
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

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..protocols.base import LendingProtocol


class LiquidationRecorder:
    """Streams the normalised liquidation records as they settle.

    After :meth:`finalize`, :attr:`records` equals
    ``extract_liquidations(result)`` exactly — same records, same order —
    because both paths share the per-event normalisers of
    :mod:`repro.analytics.records` and both order by emission
    ``(block, log index)``.
    """

    #: Everything that is not a settlement carries no liquidation record.
    IGNORED_EVENTS = (
        AuctionDealt,
        BlockMined,
        IncidentFired,
        InterestAccrued,
        PriceUpdated,
        RunCompleted,
        RunStarted,
        SnapshotTaken,
        StepStarted,
    )

    def __init__(self) -> None:
        self._records: list[LiquidationRecord] = []

    @property
    def records(self) -> list[LiquidationRecord]:
        """The records streamed so far (a copy, safe to mutate)."""
        return list(self._records)

    def on_event(self, event: SimEvent) -> None:
        if isinstance(event, LiquidationSettled):
            self._records.append(event.record)

    def finalize(self) -> None:
        # Mirror extract_liquidations' stable sort; the stream already
        # arrives in block order, so this is an identity pass.
        self._records.sort(key=lambda record: record.block_number)


class HealthSample(NamedTuple):
    """One position below the sampling threshold at one rescan."""

    platform: str
    owner: str
    health_factor: float
    debt_usd: float
    block_number: int
    step_index: int


class HealthSampler:
    """Samples every position whose health factor is below ``sample_below``.

    The sampler collects the symbols whose oracle price changed during the
    stride (:class:`PriceUpdated` events) and, once the stride's block is
    mined, rescans *only* the protocols whose position book carries one of
    those price-dirtied asset columns.  Prices are not the only thing that
    moves health factors: interest accrual scales debts without touching an
    oracle, so an :class:`InterestAccrued` stride marks the accruing
    protocols dirty wholesale.  A sweep reads the protocol's cached
    :class:`~repro.core.position_book.BookValuation` — one vectorized pass
    per block shared with the snapshot providers and the analytics sweeps —
    so watching a whole multi-protocol world stays cheap even at production
    position counts.

    Every position below the threshold reaches ``on_sample`` on every
    rescan, as a :class:`HealthSample`.  Turning repeated samples into
    alerts (tiers, cooldowns, rapid deterioration) is the consumer's job: an
    :class:`~repro.observers.alerts.AlertEngine`, in-process under
    ``repro watch`` and fed from the workers' progress chunks under
    ``repro serve``.
    """

    #: Health factors move only on price changes, accrual and mining; the
    #: lifecycle/report events carry nothing a sampler reacts to.
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
        protocols: Iterable["LendingProtocol"],
        sample_below: float,
        on_sample: Callable[[HealthSample], None],
    ) -> None:
        self.protocols = list(protocols)
        self.sample_below = float(sample_below)
        self.on_sample = on_sample
        self._dirty_symbols: set[str] = set()
        self._accrued_protocols: set[str] = set()

    def on_event(self, event: SimEvent) -> None:
        if isinstance(event, PriceUpdated):
            self._dirty_symbols.add(event.symbol.upper())
        elif isinstance(event, InterestAccrued):
            self._accrued_protocols.update(event.protocols)
        elif isinstance(event, BlockMined):
            self._rescan(event)

    def _rescan(self, event: BlockMined) -> None:
        if not self._dirty_symbols and not self._accrued_protocols:
            return
        dirty = self._dirty_symbols
        accrued = self._accrued_protocols
        self._dirty_symbols = set()
        self._accrued_protocols = set()
        for protocol in self.protocols:
            if protocol.name not in accrued and not dirty.intersection(protocol.book.assets):
                continue
            # The block's shared aggregate valuation: when the engine also
            # snapshots or scans this block, the sync + vectorized pass is
            # paid once and the sweep rides the cache.  The flagged rows are
            # read straight from the fast arrays — no per-row scalar
            # confirmation, samples are not seed-pinned.
            valuation = protocol.valuation()
            health = valuation.health_factors()
            for row in np.flatnonzero(health < self.sample_below).tolist():
                self.on_sample(
                    HealthSample(
                        platform=protocol.name,
                        owner=valuation.book.position_at(row).owner.value,
                        health_factor=float(health[row]),
                        debt_usd=float(valuation.debt_usd[row]),
                        block_number=event.block_number,
                        step_index=event.step_index,
                    )
                )

    def finalize(self) -> None:
        """Nothing to seal; samples were delivered live."""


class MetricsAccumulator:
    """Incremental per-step aggregates of one run.

    The resulting :attr:`metrics` dict is what campaign workers persist into
    the run manifest, and what :attr:`SimulationResult.metrics
    <repro.simulation.engine.SimulationResult.metrics>` returns; there is no
    post-hoc substitute.  ``price_updates`` counts the run's
    :class:`PriceUpdated` events, so the oracle posts made while the
    scenario was built are not in it.
    """

    #: Accrual strides and run lifecycle markers add no per-step aggregate;
    #: steps/blocks already delimit the run.
    IGNORED_EVENTS = (InterestAccrued, RunCompleted, RunStarted)

    def __init__(self) -> None:
        self.steps = 0
        self.blocks = 0
        self.final_block = 0
        self.incidents_fired = 0
        self.price_updates = 0
        self.snapshots = 0
        self.auctions_dealt = 0
        self.auctions_settled = 0
        self.liquidations = 0
        self.repaid_usd = 0.0
        self.collateral_usd = 0.0
        self.profit_usd = 0.0
        self.flash_loans = 0
        self.unprofitable = 0
        self.by_platform: dict[str, int] = {}

    def on_event(self, event: SimEvent) -> None:
        if isinstance(event, StepStarted):
            self.steps += 1
        elif isinstance(event, BlockMined):
            self.blocks += 1
            self.final_block = event.block_number
        elif isinstance(event, LiquidationSettled):
            record = event.record
            self.liquidations += 1
            self.repaid_usd += record.repaid_usd
            self.collateral_usd += record.collateral_usd
            self.profit_usd += record.profit_usd
            if record.used_flash_loan:
                self.flash_loans += 1
            if not record.is_profitable:
                self.unprofitable += 1
            self.by_platform[record.platform] = self.by_platform.get(record.platform, 0) + 1
        elif isinstance(event, AuctionDealt):
            self.auctions_dealt += 1
            if event.winner is not None:
                self.auctions_settled += 1
        elif isinstance(event, PriceUpdated):
            self.price_updates += 1
        elif isinstance(event, IncidentFired):
            self.incidents_fired += 1
        elif isinstance(event, SnapshotTaken):
            self.snapshots += 1

    def finalize(self) -> None:
        """Nothing to seal; the aggregates are maintained incrementally."""

    @property
    def metrics(self) -> dict:
        """The aggregates as a JSON-ready dict (the campaign-store contract)."""
        return {
            "steps": self.steps,
            "blocks": self.blocks,
            "final_block": self.final_block,
            "incidents_fired": self.incidents_fired,
            "price_updates": self.price_updates,
            "snapshots": self.snapshots,
            "auctions": {"dealt": self.auctions_dealt, "settled": self.auctions_settled},
            "liquidations": {
                "count": self.liquidations,
                "repaid_usd": self.repaid_usd,
                "collateral_usd": self.collateral_usd,
                "profit_usd": self.profit_usd,
                "flash_loans": self.flash_loans,
                "unprofitable": self.unprofitable,
                "by_platform": dict(sorted(self.by_platform.items())),
            },
        }

