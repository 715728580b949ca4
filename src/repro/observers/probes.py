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
* :class:`MetricsAccumulator` — the one fold of a run's events (counts by
  kind, liquidation counts and USD totals, oracle posts, per-stride gas),
  behind the run manifest, a service job's progress and the Prometheus run
  families alike.

Probes are passive: they read engine state but never mutate the world or
consume engine RNG streams, so seed-pinned runs with probes attached stay
bit-identical to bare runs.
"""

from __future__ import annotations

from bisect import bisect_left
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
    rescan, as a :class:`HealthSample`, with two exceptions.  A MakerDAO
    vault whose collateral sits in a running auction
    (:meth:`~repro.protocols.base.LendingProtocol.owners_in_auction`) keeps
    its debt until the deal settles, so it reads HF 0.0, but it is already
    being liquidated.  A position whose collateral is worth 0 — a vault
    left with the debt its auction did not raise, a fixed-spread row with
    debt and no collateral — is bad debt: nothing can liquidate it, and the
    bad-debt report already counts it.  Turning repeated samples into
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
            rows = np.flatnonzero((health < self.sample_below) & (valuation.collateral_usd > 0)).tolist()
            in_auction = protocol.owners_in_auction() if rows else frozenset()
            for row in rows:
                owner = valuation.book.position_at(row).owner.value
                if owner in in_auction:
                    continue
                self.on_sample(
                    HealthSample(
                        platform=protocol.name,
                        owner=owner,
                        health_factor=float(health[row]),
                        debt_usd=float(valuation.debt_usd[row]),
                        block_number=event.block_number,
                        step_index=event.step_index,
                    )
                )

    def finalize(self) -> None:
        """Nothing to seal; samples were delivered live."""


class MetricsAccumulator:
    """The one fold of a run's events: counts and sums, nothing else.

    The run manifest's :attr:`metrics`, a service worker's progress (the
    :class:`~repro.campaigns.executor.ProgressProbe` subclass) and the
    Prometheus run families (:func:`repro.telemetry.families.run_families`)
    all derive from these counters.  ``price_updates`` counts the run's
    :class:`PriceUpdated` events, so the oracle posts made while the
    scenario was built are not in it.
    """

    #: Counted by kind only: nothing else in the fold follows them.
    IGNORED_EVENTS = (IncidentFired, InterestAccrued, RunCompleted, RunStarted, SnapshotTaken)

    #: Upper bounds of the per-stride gas buckets (the last bucket is open).
    GAS_BUCKETS = (1e6, 5e6, 1e7, 5e7, 1e8, 5e8, 1e9, 5e9)

    def __init__(self) -> None:
        self.by_kind: dict[str, int] = {}
        self.step_index = 0
        self.final_block = 0
        self.price_updates_by_oracle: dict[str, int] = {}
        #: ``(platform, mechanism) -> settled liquidations``.
        self.liquidations_by_mechanism: dict[tuple[str, str], int] = {}
        self.repaid_usd = 0.0
        self.collateral_usd = 0.0
        self.profit_usd = 0.0
        #: Profit with each loss clipped at 0 (a Prometheus counter only rises).
        self.gain_usd = 0.0
        self.flash_loans = 0
        self.unprofitable = 0
        self.auctions_settled = 0
        #: Mined strides per :data:`GAS_BUCKETS` bucket, plus one open bucket.
        self.gas_buckets = [0] * (len(self.GAS_BUCKETS) + 1)
        self.gas_used = 0.0

    def on_event(self, event: SimEvent) -> None:
        kind = event.kind
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1
        if isinstance(event, StepStarted):
            self.step_index = event.step_index
        elif isinstance(event, BlockMined):
            self.final_block = event.block_number
            self.gas_used += event.gas_used
            self.gas_buckets[bisect_left(self.GAS_BUCKETS, event.gas_used)] += 1
        elif isinstance(event, PriceUpdated):
            oracle = event.oracle
            self.price_updates_by_oracle[oracle] = self.price_updates_by_oracle.get(oracle, 0) + 1
        elif isinstance(event, LiquidationSettled):
            record = event.record
            key = (record.platform, record.mechanism)
            self.liquidations_by_mechanism[key] = self.liquidations_by_mechanism.get(key, 0) + 1
            self.repaid_usd += record.repaid_usd
            self.collateral_usd += record.collateral_usd
            self.profit_usd += record.profit_usd
            self.gain_usd += max(record.profit_usd, 0.0)
            if record.used_flash_loan:
                self.flash_loans += 1
            if not record.is_profitable:
                self.unprofitable += 1
        elif isinstance(event, AuctionDealt):
            if event.winner is not None:
                self.auctions_settled += 1

    def finalize(self) -> None:
        """Nothing to seal; the counters are maintained incrementally."""

    def count(self, event_type: type[SimEvent]) -> int:
        """How many events of ``event_type`` the run published so far."""
        return self.by_kind.get(event_type.__name__, 0)

    @property
    def metrics(self) -> dict:
        """The aggregates as a JSON-ready dict (the campaign-store contract)."""
        by_platform: dict[str, int] = {}
        for (platform, _), count in self.liquidations_by_mechanism.items():
            by_platform[platform] = by_platform.get(platform, 0) + count
        return {
            "steps": self.count(StepStarted),
            "blocks": self.count(BlockMined),
            "final_block": self.final_block,
            "incidents_fired": self.count(IncidentFired),
            "price_updates": self.count(PriceUpdated),
            "snapshots": self.count(SnapshotTaken),
            "auctions": {"dealt": self.count(AuctionDealt), "settled": self.auctions_settled},
            "liquidations": {
                "count": self.count(LiquidationSettled),
                "repaid_usd": self.repaid_usd,
                "collateral_usd": self.collateral_usd,
                "profit_usd": self.profit_usd,
                "flash_loans": self.flash_loans,
                "unprofitable": self.unprofitable,
                "by_platform": dict(sorted(by_platform.items())),
            },
        }
