"""The typed simulation event taxonomy.

The paper's measurement pipeline "crawls blockchain events and reads
blockchain states" — post-hoc, against a finished archive.  The observer API
turns the same information into a *stream*: as the engine advances, it
publishes one :class:`SimEvent` per noteworthy occurrence, in a fixed order
within each block stride:

========================  =====================================================
event                     emitted when
========================  =====================================================
:class:`RunStarted`       once, when :meth:`SimulationEngine.run` begins
:class:`StepStarted`      at the top of every block stride
:class:`IncidentFired`    a scheduled scenario event (crash, override…) fires
:class:`PriceUpdated`     an oracle posts a fresh price for a symbol
:class:`InterestAccrued`  interest accrual scaled the active protocols' debts
:class:`SnapshotTaken`    the archive captures a state snapshot
:class:`AuctionDealt`     a MakerDAO auction settles (with or without winner)
:class:`LiquidationSettled`  a liquidation lands — fixed-spread call or won
                          auction — carrying the normalised
                          :class:`~repro.analytics.records.LiquidationRecord`
:class:`BlockMined`       the stride's block has been produced (last per step)
:class:`RunCompleted`     once, after the final stride and end-of-run snapshot
========================  =====================================================

Events are ``slots`` dataclasses: construction is on the engine's hot path
(dozens of :class:`PriceUpdated` per stride) and slotted init is ~2× cheaper
than a frozen one, which is what keeps the active bus under the 5 % overhead
budget of ``benchmarks/test_watch_overhead.py``.  Treat instances as
immutable — probes receive the same object and must not mutate it.  Each
event carries ``step_index`` and ``block_number`` (the engine's step counter
and the chain block the event refers to) and serialises itself with
:meth:`SimEvent.payload` — the JSON-line contract of
:class:`~repro.observers.sinks.JsonlSink`.

This module is imported by the engine, so it must not import the analytics
package (which imports the engine); the ``LiquidationRecord`` reference is a
type-checking-only forward reference.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..analytics.records import LiquidationRecord


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    """A dataclass's field names, in order."""
    return tuple(field.name for field in dataclasses.fields(cls))


@dataclass(slots=True)
class SimEvent:
    """Base class of every streamed simulation event.

    Attributes
    ----------
    step_index:
        The engine's step counter when the event was published (0-based; the
        step that is *currently advancing*).
    block_number:
        The chain block the event refers to — the pending block for
        pre-mining phases, the mined block for :class:`BlockMined` and the
        settlement block for :class:`LiquidationSettled`.
    """

    step_index: int
    block_number: int

    @property
    def kind(self) -> str:
        """The event's type name, e.g. ``"LiquidationSettled"``."""
        return type(self).__name__

    def payload(self) -> dict[str, Any]:
        """A JSON-safe dict of this event (the :class:`JsonlSink` contract).

        Shallow: the field values themselves, in field order, then
        ``"event"`` — what ``dataclasses.asdict`` gives for these flat
        events, without its recursive deep copy.
        """
        data = {name: getattr(self, name) for name in _field_names(type(self))}
        data["event"] = self.kind
        return data


@dataclass(slots=True)
class RunStarted(SimEvent):
    """A :meth:`SimulationEngine.run` call began."""

    n_steps: int
    end_block: int


@dataclass(slots=True)
class StepStarted(SimEvent):
    """A new block stride is about to advance (first event of every step)."""


@dataclass(slots=True)
class IncidentFired(SimEvent):
    """A scheduled one-shot scenario event fired."""

    name: str
    scheduled_block: int


@dataclass(slots=True)
class PriceUpdated(SimEvent):
    """An oracle posted a fresh price for ``symbol``."""

    oracle: str
    symbol: str
    price: float


@dataclass(slots=True)
class InterestAccrued(SimEvent):
    """Interest accrual ran on the active protocols this stride.

    Accrual scales outstanding debts, so health factors can cross below an
    alert threshold without any oracle price moving — the health sampler
    treats this as a whole-book rescan trigger.
    """

    protocols: tuple[str, ...]


@dataclass(slots=True)
class SnapshotTaken(SimEvent):
    """The archive captured a state snapshot keyed at ``block_number``."""


@dataclass(slots=True)
class AuctionDealt(SimEvent):
    """A MakerDAO auction was finalised (``Deal``).

    ``winner`` is ``None`` for auctions that expired without a bid (the
    collateral returns to the vault; the paper does not count these as
    liquidations, so no :class:`LiquidationSettled` follows them).
    """

    auction_id: int
    borrower: str
    winner: str | None
    collateral_symbol: str
    debt_repaid: float
    collateral_won: float


@dataclass(slots=True)
class LiquidationSettled(SimEvent):
    """A liquidation settled on-chain, as a normalised record.

    ``record`` is the exact :class:`~repro.analytics.records.LiquidationRecord`
    the post-hoc :func:`~repro.analytics.records.extract_liquidations` crawl
    would produce for the same chain log — proven equivalent by test.
    """

    record: "LiquidationRecord"

    def payload(self) -> dict[str, Any]:
        record = self.record
        data = {name: getattr(record, name) for name in _field_names(type(record))}
        data.update(
            event=self.kind,
            step_index=self.step_index,
            block_number=self.block_number,
        )
        return data


@dataclass(slots=True)
class BlockMined(SimEvent):
    """The stride's block was produced (always the last event of a step)."""

    n_receipts: int
    gas_used: int
    base_gas_price_wei: int


@dataclass(slots=True)
class RunCompleted(SimEvent):
    """The run finished; ``block_number`` is the pending (never-mined) block."""

    final_block: int
