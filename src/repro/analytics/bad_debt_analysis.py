"""Bad debt measurement across platforms (Section 4.4.2, Table 2).

Applies the Type I / Type II classification of :mod:`repro.core.bad_debt` to
each platform's open positions at the snapshot block, for the paper's two
assumed closing costs (10 USD and 100 USD).  dYdX's insurance fund writes off
under-collateralized positions, which is why its Type I column stays empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.bad_debt import BadDebtReport, bad_debt_report_from_values
from ..protocols.base import LendingProtocol
from ..simulation.engine import SimulationResult

#: The closing costs (USD) evaluated by Table 2 for Type II bad debt.
DEFAULT_FEES_USD = (10.0, 100.0)


@dataclass(frozen=True)
class PlatformBadDebt:
    """Table 2's row for one platform: Type I plus Type II per fee level."""

    platform: str
    type_i_count: int
    type_i_collateral_usd: float
    type_ii_by_fee: dict[float, BadDebtReport]
    total_positions: int

    @property
    def type_i_share(self) -> float:
        """Fraction of open positions that are Type I bad debt."""
        if self.total_positions == 0:
            return 0.0
        return self.type_i_count / self.total_positions

    def locked_liquidity_usd(self, fee_usd: float) -> float:
        """Collateral locked in bad debt of either type at the given fee."""
        report = self.type_ii_by_fee.get(fee_usd)
        type_ii = report.type_ii_collateral_usd if report else 0.0
        return self.type_i_collateral_usd + type_ii


def platform_bad_debt(
    protocol: LendingProtocol,
    fees_usd: Sequence[float] = DEFAULT_FEES_USD,
) -> PlatformBadDebt:
    """Classify one protocol's open positions at its current prices.

    The per-position values come from the block's shared
    :class:`~repro.core.position_book.BookValuation` — one vectorized pass
    valued once and reused across the fee levels, instead of one full
    position walk per fee.  The pinned per-row values are bit-identical to
    the scalar formulas, so the table equals
    :func:`~repro.core.bad_debt.bad_debt_report` over every indebted
    position.
    """
    valuation = protocol.valuation()
    rows = np.flatnonzero(valuation.has_debt).tolist()
    valued = [valuation.pinned_row_values(row) for row in rows]
    by_fee = {fee: bad_debt_report_from_values(valued, fee) for fee in fees_usd}
    reference = by_fee[fees_usd[0]] if fees_usd else bad_debt_report_from_values(valued, 0.0)
    return PlatformBadDebt(
        platform=protocol.name,
        type_i_count=reference.type_i_count,
        type_i_collateral_usd=reference.type_i_collateral_usd,
        type_ii_by_fee=by_fee,
        total_positions=reference.total_positions,
    )


def bad_debt_table(
    result: SimulationResult,
    platforms: Sequence[str] = ("Aave V2", "Compound", "dYdX"),
    fees_usd: Sequence[float] = DEFAULT_FEES_USD,
) -> dict[str, PlatformBadDebt]:
    """Table 2: the bad-debt snapshot for the fixed spread platforms."""
    table: dict[str, PlatformBadDebt] = {}
    for name in platforms:
        try:
            protocol = result.protocol(name)
        except KeyError:
            continue
        table[name] = platform_bad_debt(protocol, fees_usd)
    return table
