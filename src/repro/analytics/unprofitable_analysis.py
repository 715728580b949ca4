"""Unprofitable liquidation opportunities (Section 4.4.3, Table 3).

For each fixed spread platform snapshot, counts the liquidatable positions
whose best attainable fixed-spread bonus cannot cover an assumed transaction
fee (10 or 100 USD).  Unlike :mod:`repro.core.unprofitable`, which takes one
parameter set, this layer asks the protocol for the parameters of each
position's best collateral market, because Aave's spread differs per market.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..core.unprofitable import best_liquidation_profit
from ..protocols.fixed_spread_protocol import FixedSpreadProtocol
from ..simulation.engine import SimulationResult

#: The transaction fees (USD) evaluated by Table 3.
DEFAULT_FEES_USD = (10.0, 100.0)


@dataclass(frozen=True)
class UnprofitableCell:
    """One (platform, fee) cell of Table 3."""

    platform: str
    transaction_fee_usd: float
    liquidatable_positions: int
    unprofitable_count: int
    unprofitable_collateral_usd: float

    @property
    def unprofitable_share(self) -> float:
        """Fraction of liquidatable positions that are unprofitable to close."""
        if self.liquidatable_positions == 0:
            return 0.0
        return self.unprofitable_count / self.liquidatable_positions


def platform_unprofitable(
    protocol: FixedSpreadProtocol,
    transaction_fee_usd: float,
) -> UnprofitableCell:
    """Evaluate unprofitable opportunities on one platform snapshot.

    The candidate set comes from the block's shared
    :class:`~repro.core.position_book.BookValuation` margin prefilter
    instead of a full position walk; every flagged row is still confirmed
    with the scalar health factor, so the cell is bit-identical to a sweep
    over every indebted position.
    """
    valuation = protocol.valuation()
    prices = valuation.prices
    thresholds = valuation.thresholds
    candidates = valuation.positions(valuation.candidate_rows())
    liquidatable = 0
    unprofitable = 0
    unprofitable_collateral = 0.0
    for position in candidates:
        if not position.is_liquidatable(prices, thresholds):
            continue
        collateral_values = position.collateral_values(prices)
        if not collateral_values:
            continue
        liquidatable += 1
        collateral_symbol = max(collateral_values, key=collateral_values.get)
        params = protocol.params_for(collateral_symbol)
        profit = best_liquidation_profit(position, params, prices)
        if profit <= transaction_fee_usd:
            unprofitable += 1
            unprofitable_collateral += position.total_collateral_usd(prices)
    return UnprofitableCell(
        platform=protocol.name,
        transaction_fee_usd=transaction_fee_usd,
        liquidatable_positions=liquidatable,
        unprofitable_count=unprofitable,
        unprofitable_collateral_usd=unprofitable_collateral,
    )


def unprofitable_table(
    result: SimulationResult,
    platforms: Sequence[str] = ("Aave V2", "Compound", "dYdX"),
    fees_usd: Sequence[float] = DEFAULT_FEES_USD,
) -> dict[str, dict[float, UnprofitableCell]]:
    """Table 3: unprofitable liquidation opportunities per platform and fee."""
    table: dict[str, dict[float, UnprofitableCell]] = {}
    for name in platforms:
        try:
            protocol = result.protocol(name)
        except KeyError:
            continue
        if not isinstance(protocol, FixedSpreadProtocol):
            continue
        table[name] = {fee: platform_unprofitable(protocol, fee) for fee in fees_usd}
    return table
