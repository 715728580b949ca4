"""Profit-volume comparison of liquidation mechanisms (Section 5.1, Figure 9).

The monthly profit-volume ratio divides the month's accumulated liquidation
profit by the month's average collateral volume, restricted to the DAI-debt /
ETH-collateral market so that asset-mix differences do not bias the
comparison.  Collateral volume comes from the chain's archive snapshots (the
paper reads the equivalent state from its archive node).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from ..core.comparison import (
    ProfitVolumePoint,
    average_ratio_by_platform,
    median_ratio_by_platform,
    monthly_profit_volume_ratios,
    rank_platforms,
)
from ..simulation.engine import SimulationResult
from .common import month_of_block
from .monthly import monthly_profit_by_platform
from .records import LiquidationRecord, filter_market


@dataclass(frozen=True)
class ProfitVolumeReport:
    """Figure 9's dataset plus its per-platform summary."""

    points: tuple[ProfitVolumePoint, ...]
    average_ratios: dict[str, float]
    median_ratios: dict[str, float]
    ranking: tuple[str, ...]

    def platform_points(self, platform: str) -> list[ProfitVolumePoint]:
        """The monthly series of one platform."""
        return [point for point in self.points if point.platform == platform]


def monthly_collateral_volume(
    result: SimulationResult,
    debt_symbol: str = "DAI",
    collateral_symbol: str = "ETH",
) -> dict[str, dict[str, float]]:
    """Average monthly collateral volume per platform for one market.

    For every archive snapshot, sums the ``collateral_symbol`` collateral of
    positions owing ``debt_symbol``, then averages the snapshots that fall in
    the same month: ``{platform: {"YYYY-MM": average_usd}}``.
    """
    debt_symbol = debt_symbol.upper()
    collateral_symbol = collateral_symbol.upper()
    chain = result.chain
    sums: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for block_number in chain.snapshot_blocks:
        snapshot = chain.snapshot_at(block_number)
        month = month_of_block(chain, block_number)
        for platform, platform_snapshot in snapshot.items():
            positions = platform_snapshot["positions"]
            price = platform_snapshot["prices"].get(collateral_symbol, 0.0)
            volume = 0.0
            # Summed left to right in row order: the report bytes depend on it.
            for collateral_amount in positions.collateral_of_debtors(debt_symbol, collateral_symbol):
                volume += collateral_amount * price
            sums[platform][month] += volume
            counts[platform][month] += 1
    averages: dict[str, dict[str, float]] = {}
    for platform, months in sums.items():
        averages[platform] = {
            month: months[month] / counts[platform][month] for month in months if counts[platform][month]
        }
    return averages


def profit_volume_report(
    result: SimulationResult,
    records: list[LiquidationRecord],
    debt_symbol: str = "DAI",
    collateral_symbol: str = "ETH",
) -> ProfitVolumeReport:
    """Figure 9: monthly profit-volume ratios of the DAI/ETH market."""
    market_records = filter_market(records, debt_symbol, collateral_symbol)
    profits = monthly_profit_by_platform(market_records)
    volumes = monthly_collateral_volume(result, debt_symbol, collateral_symbol)
    points = monthly_profit_volume_ratios(profits, volumes)
    averages = average_ratio_by_platform(points)
    medians = median_ratio_by_platform(points)
    ranking = tuple(rank_platforms(points))
    return ProfitVolumeReport(
        points=tuple(points),
        average_ratios=averages,
        median_ratios=medians,
        ranking=ranking,
    )
