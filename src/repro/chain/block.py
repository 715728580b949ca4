"""Block data structure.

Blocks aggregate executed transactions and carry the timestamp used by
time-based measurements (auction durations in Figure 7, monthly aggregation
in Figures 5 and 9).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import partial

from .receipts import summarize_gas
from .transaction import Receipt, TxKind


@dataclass
class Block:
    """A mined block of the simulated chain.

    Attributes
    ----------
    number:
        Monotonically increasing block height, starting at the scenario's
        configured inception block.
    timestamp:
        Unix timestamp (seconds).  Timestamps advance by the configured
        inter-block time so that block spans convert to wall-clock durations.
    receipts:
        Receipts of the executed transactions, in inclusion order.
    gas_limit:
        Maximum gas the block could have packed.
    gas_used:
        Gas actually consumed by the included transactions.
    base_gas_price:
        The prevailing "market" gas price (wei) at the time the block was
        mined.  The analytics layer computes moving averages over this series
        to reproduce the average-gas-price curve of Figure 6.
    fill_gas_prices:
        Gas prices (wei) of the background fill the block packed, in
        inclusion order, as an ``array("q")``: one machine integer each
        instead of an ``int`` object.  Fill is a mempool lane without
        transactions (:meth:`~repro.chain.chain.Blockchain.submit_fill`), so
        its price is all it leaves; together with the receipts these are
        every entry the block executed.
    """

    number: int
    timestamp: int
    receipts: list[Receipt] = field(default_factory=list)
    gas_limit: int = 0
    gas_used: int = 0
    base_gas_price: int = 0
    fill_gas_prices: array[int] = field(default_factory=partial(array, "q"))

    def __post_init__(self) -> None:
        if not self.gas_used and self.receipts:
            self.gas_used = summarize_gas(self.receipts)

    @property
    def median_gas_price(self) -> float:
        """Median gas price (wei) of the block's executed transactions,
        receipted and background fill alike.

        Falls back to the prevailing base gas price for empty blocks so the
        moving-average series in Figure 6 has no gaps.
        """
        prices = [receipt.gas_price for receipt in self.receipts]
        prices += self.fill_gas_prices
        if not prices:
            return float(self.base_gas_price)
        prices.sort()
        mid = len(prices) // 2
        if len(prices) % 2:
            return float(prices[mid])
        return (prices[mid - 1] + prices[mid]) / 2.0

    @property
    def utilization(self) -> float:
        """Fraction of the gas limit consumed (1.0 means a full block)."""
        if self.gas_limit <= 0:
            return 0.0
        return self.gas_used / self.gas_limit

    def transactions_of_kind(self, kind: TxKind) -> list[Receipt]:
        """Return receipts whose transaction kind equals ``kind``."""
        return [receipt for receipt in self.receipts if receipt.kind == kind]
