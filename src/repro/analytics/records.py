"""Liquidation record extraction — the analytics pipeline's ground truth.

The paper "gather[s] data by crawling blockchain events … and reading
blockchain states" (Section 4.1).  :func:`extract_liquidations` performs the
same crawl against the simulated chain: it filters the liquidation event
signatures of the four protocols, normalises each into a
:class:`LiquidationRecord` valued at the oracle price of the settlement
block, and exposes the resulting list to every downstream analysis.

The per-event normalisers (:func:`fixed_spread_record`,
:func:`auction_record`, :func:`record_from_event`) are shared with the
streaming path: the engine's observer bus translates freshly mined chain
logs through the same functions, so the records a
:class:`~repro.observers.probes.LiquidationRecorder` streams during the run
are field-for-field identical to this post-hoc crawl (proven by test).
Both paths produce records in emission order — ``(block, log index)`` —
which the final stable sort by block number preserves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from ..chain.chain import Blockchain
from ..chain.events import EventFilter, EventLog
from ..oracle.chainlink import PriceOracle
from .common import FIXED_SPREAD_LIQUIDATION_EVENTS, month_of_block

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports observers)
    from ..simulation.engine import SimulationResult

#: Every event signature :func:`record_from_event` can turn into a record.
LIQUIDATION_EVENTS = FIXED_SPREAD_LIQUIDATION_EVENTS + ("Deal",)


@dataclass(frozen=True)
class LiquidationRecord:
    """One normalised liquidation event.

    ``profit_usd`` follows the paper's definition: the liquidator's bonus
    assuming the purchased collateral is sold immediately at the settlement
    block's oracle price.  For auctions, it is the difference between the
    collateral won and the debt repaid (and can be negative — the paper's
    641 unprofitable MakerDAO liquidations).
    """

    platform: str
    mechanism: str
    block_number: int
    month: str
    liquidator: str
    borrower: str
    debt_symbol: str
    collateral_symbol: str
    repaid_usd: float
    collateral_usd: float
    profit_usd: float
    used_flash_loan: bool = False
    auction_id: int | None = None

    @property
    def is_profitable(self) -> bool:
        """Whether the liquidation yielded a non-negative bonus."""
        return self.profit_usd >= 0.0


def fixed_spread_record(chain: Blockchain, event: EventLog) -> LiquidationRecord:
    """Normalise one fixed-spread liquidation event log."""
    data = event.data
    return LiquidationRecord(
        platform=data["platform"],
        mechanism="fixed-spread",
        block_number=event.block_number,
        month=month_of_block(chain, event.block_number),
        liquidator=data["liquidator"],
        borrower=data["borrower"],
        debt_symbol=data["debt_symbol"],
        collateral_symbol=data["collateral_symbol"],
        repaid_usd=data["repay_usd"],
        collateral_usd=data["collateral_usd"],
        profit_usd=data["profit_usd"],
        used_flash_loan=bool(data.get("used_flash_loan", False)),
    )


def auction_record(chain: Blockchain, oracle: PriceOracle, event: EventLog) -> LiquidationRecord | None:
    """Normalise one MakerDAO ``Deal`` event log.

    The valuation reads the oracle *at the settlement block*; because posted
    price history is append-only with increasing block numbers, the result is
    the same whether the event is normalised as it settles (streaming) or
    after the run (post-hoc crawl).
    """
    data = event.data
    if not data.get("winner"):
        # Auctions that expired without a single bid return the collateral to
        # the vault; the paper does not count them as liquidations.
        return None
    collateral_symbol = data["collateral_symbol"]
    collateral_price = oracle.price_at(collateral_symbol, event.block_number)
    dai_price = oracle.price_at("DAI", event.block_number)
    collateral_usd = data["collateral_won"] * collateral_price
    repaid_usd = data["debt_repaid"] * dai_price
    return LiquidationRecord(
        platform=data["platform"],
        mechanism="auction",
        block_number=event.block_number,
        month=month_of_block(chain, event.block_number),
        liquidator=data["winner"],
        borrower=data["borrower"],
        debt_symbol="DAI",
        collateral_symbol=collateral_symbol,
        repaid_usd=repaid_usd,
        collateral_usd=collateral_usd,
        profit_usd=collateral_usd - repaid_usd,
        auction_id=data.get("auction_id"),
    )


def record_from_event(
    chain: Blockchain, oracle: PriceOracle, event: EventLog
) -> LiquidationRecord | None:
    """Normalise any chain log into a liquidation record, if it is one.

    Returns ``None`` for non-liquidation signatures and for winnerless
    auction deals.  This is the single normalisation point shared by the
    post-hoc crawl and the engine's streaming translation.
    """
    if event.name in FIXED_SPREAD_LIQUIDATION_EVENTS:
        return fixed_spread_record(chain, event)
    if event.name == "Deal":
        return auction_record(chain, oracle, event)
    return None


def extract_liquidations(result: "SimulationResult") -> list[LiquidationRecord]:
    """Crawl the chain's event logs and normalise every settled liquidation.

    One pass over the liquidation signatures in emission order — ``(block
    number, log index)`` — so the resulting list is exactly what a
    :class:`LiquidationRecorder` probe streamed during the run.
    """
    chain = result.chain
    oracle = result.oracle
    records: list[LiquidationRecord] = []
    for event in chain.get_logs(EventFilter.create(names=LIQUIDATION_EVENTS)):
        record = record_from_event(chain, oracle, event)
        if record is not None:
            records.append(record)
    records.sort(key=lambda record: record.block_number)
    return records


def filter_market(
    records: Iterable[LiquidationRecord],
    debt_symbol: str = "DAI",
    collateral_symbol: str = "ETH",
) -> list[LiquidationRecord]:
    """Restrict records to one debt/collateral market (Figure 9, Table 8)."""
    debt_symbol = debt_symbol.upper()
    collateral_symbol = collateral_symbol.upper()
    return [
        record
        for record in records
        if record.debt_symbol == debt_symbol and record.collateral_symbol == collateral_symbol
    ]


def records_by_platform(records: Iterable[LiquidationRecord]) -> dict[str, list[LiquidationRecord]]:
    """Group records by platform name."""
    grouped: dict[str, list[LiquidationRecord]] = {}
    for record in records:
        grouped.setdefault(record.platform, []).append(record)
    return grouped
