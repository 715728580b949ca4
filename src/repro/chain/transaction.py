"""Transactions and execution receipts.

A transaction in the simulator is a *callable action* plus the metadata the
paper's measurements rely on: the sender, the gas price bid, and the gas the
action consumes.  This is what lets the gas-competition analysis (Figure 6)
and the congestion modelling (Section 4.3.1's March 2020 incident) work: the
mempool orders pending transactions by gas price and a block only has room
for a bounded amount of gas.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from .types import Address, GWEI, tx_hash_of


class TxStatus(enum.Enum):
    """Lifecycle of a transaction in the simulator."""

    PENDING = "pending"
    SUCCESS = "success"
    REVERTED = "reverted"
    DROPPED = "dropped"


class TxKind(enum.Enum):
    """Coarse classification of the action a transaction performs.

    The analytics layer uses the kind to separate liquidation transactions
    from ordinary traffic, mirroring how the paper filters liquidation events
    out of the full event stream.
    """

    TRANSFER = "transfer"
    DEPOSIT = "deposit"
    BORROW = "borrow"
    REPAY = "repay"
    WITHDRAW = "withdraw"
    LIQUIDATION = "liquidation"
    AUCTION_INITIATE = "auction_initiate"
    AUCTION_BID = "auction_bid"
    AUCTION_FINALIZE = "auction_finalize"
    ORACLE_UPDATE = "oracle_update"
    OTHER = "other"


@dataclass
class Transaction:
    """A pending or executed transaction.

    Attributes
    ----------
    sender:
        The externally-owned account submitting the transaction (borrower,
        liquidator, keeper, oracle poster …).
    gas_price:
        Bid in wei per unit of gas.  Competition for liquidations is
        expressed by liquidators raising this bid.
    gas_limit:
        Upper bound of gas the sender is willing to consume; also the amount
        the mempool reserves when packing blocks.
    hash_id:
        The id the building chain reserved from its own hash sequence
        (:meth:`~repro.chain.chain.Blockchain.reserve_hash_ids`);
        :attr:`tx_hash` is derived from it on first read.
    action:
        A zero-argument callable executed when the transaction is included in
        a block.  It returns an arbitrary result and may raise
        :class:`TransactionReverted` to signal an on-chain revert (e.g. an
        unprofitable flash-loan liquidation).
    kind:
        Coarse action classification used by analytics.
    metadata:
        Free-form annotations (platform name, borrower address, …) consumed
        by analytics and tests.  Every executed transaction gets a receipt
        carrying a copy; background fill is not a transaction at all (see
        :meth:`~repro.chain.chain.Blockchain.submit_fill`).
    """

    sender: Address
    gas_price: int
    gas_limit: int
    hash_id: int
    action: Optional[Callable[[], Any]] = None
    kind: TxKind = TxKind.OTHER
    metadata: dict[str, Any] = field(default_factory=dict)
    submitted_block: int = 0
    status: TxStatus = TxStatus.PENDING
    _tx_hash: str | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def tx_hash(self) -> str:
        """The transaction hash, computed on first read.

        The hash is a pure function of :attr:`hash_id`, so it is the string
        an eager hash at construction would have produced; transactions
        whose hash nobody reads never pay for the sha256.
        """
        tx_hash = self._tx_hash
        if tx_hash is None:
            tx_hash = self._tx_hash = tx_hash_of(self.hash_id)
        return tx_hash

    @property
    def gas_price_gwei(self) -> float:
        """The gas-price bid expressed in gwei (as plotted in Figure 6)."""
        return self.gas_price / GWEI

    def fee_wei(self, gas_used: int | None = None) -> int:
        """Transaction fee in wei for ``gas_used`` units (defaults to limit)."""
        used = self.gas_limit if gas_used is None else gas_used
        return used * self.gas_price

    def fee_eth(self, gas_used: int | None = None) -> float:
        """Transaction fee in ETH."""
        return self.fee_wei(gas_used) / 10**18


class TransactionReverted(Exception):
    """Raised by a transaction action to signal an on-chain revert.

    A reverted transaction still consumes gas (and therefore still pays a
    fee), but produces no state change and no events — matching Ethereum
    semantics and, importantly, the atomic flash-loan behaviour described in
    Section 2.2.2 ("the whole transaction is reverted without incurring any
    state change").
    """


@dataclass
class Receipt:
    """The result of executing a transaction inside a block."""

    tx_hash: str
    sender: Address
    block_number: int
    status: TxStatus
    gas_used: int
    gas_price: int
    kind: TxKind
    result: Any = None
    error: str | None = None
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def fee_wei(self) -> int:
        """Total fee paid, in wei."""
        return self.gas_used * self.gas_price

    @property
    def fee_eth(self) -> float:
        """Total fee paid, in ETH."""
        return self.fee_wei / 10**18

    @property
    def gas_price_gwei(self) -> float:
        """Gas price paid, in gwei."""
        return self.gas_price / GWEI

    @property
    def succeeded(self) -> bool:
        """Whether the transaction executed without reverting."""
        return self.status is TxStatus.SUCCESS
