"""Flash-loan pools (Section 2.2.2, Section 4.4.4).

A flash loan lends any amount of a pool's liquidity for the duration of a
single transaction; if the principal plus fee is not returned by the end of
the callback, the entire transaction reverts and no state change persists.
The simulator enforces exactly that: the borrower's callback runs inside
:meth:`FlashLoanPool.flash_loan`, and an unpaid loan raises
:class:`~repro.chain.transaction.TransactionReverted`, which the chain layer
translates into a reverted receipt.

Two fee schedules are provided, matching the platforms the paper measures:
Aave-style (0.09 %) and dYdX-style (effectively free, 2 wei), which is why
"dYdX flash loans are more popular than Aave" in Table 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..chain.chain import Blockchain
from ..chain.transaction import TransactionReverted
from ..chain.types import Address, make_address
from ..tokens.token import Token


class FlashLoanError(Exception):
    """Raised for requests that can never execute (e.g. exceeding liquidity)."""


@dataclass
class FlashLoanPool:
    """A single-asset flash-loan pool.

    Attributes
    ----------
    platform:
        Name of the hosting platform (``"Aave V1"``, ``"Aave V2"``,
        ``"dYdX"``), recorded in the emitted ``FlashLoan`` events and used by
        the Table 4 analysis.
    token:
        The asset lent by the pool.
    fee_rate:
        Proportional fee charged on the borrowed amount.
    """

    platform: str
    token: Token
    fee_rate: float = 0.0009
    chain: Blockchain | None = None
    #: A world's builder passes one minted by the world's chain; the
    #: default is for pools built outside any world.
    address: Address = field(default_factory=lambda: make_address("flash-pool"))

    def __post_init__(self) -> None:
        if self.fee_rate < 0:
            raise ValueError("fee rate must be non-negative")

    @property
    def liquidity(self) -> float:
        """Available liquidity of the pool."""
        return self.token.balance_of(self.address)

    def fund(self, provider: Address, amount: float) -> None:
        """Deposit liquidity into the pool."""
        self.token.transfer(provider, self.address, amount)

    def fee_for(self, amount: float) -> float:
        """Flash-loan fee for borrowing ``amount``."""
        return amount * self.fee_rate

    def flash_loan(
        self,
        borrower: Address,
        amount: float,
        callback: Callable[[float, float], None],
        purpose: str = "",
    ) -> float:
        """Lend ``amount`` to ``borrower`` for the duration of ``callback``.

        ``callback(amount, fee)`` receives the borrowed amount and the fee
        owed; by the time it returns, the borrower must hold at least
        ``amount + fee`` so the pool can pull the repayment.  Otherwise the
        transaction reverts (and the temporary transfer is rolled back).

        Returns the fee paid.
        """
        if amount <= 0:
            raise FlashLoanError("flash loan amount must be positive")
        if amount > self.liquidity:
            raise FlashLoanError(
                f"flash loan of {amount:.4f} {self.token.symbol} exceeds pool liquidity {self.liquidity:.4f}"
            )
        fee = self.fee_for(amount)
        self.token.transfer(self.address, borrower, amount)
        try:
            callback(amount, fee)
            repayment = amount + fee
            if self.token.balance_of(borrower) + 1e-9 < repayment:
                raise TransactionReverted(
                    f"flash loan of {amount:.4f} {self.token.symbol} cannot be repaid"
                )
            self.token.transfer(borrower, self.address, repayment)
        except TransactionReverted:
            # Roll back the principal transfer; any intermediate transfers the
            # callback performed are the callback's responsibility to avoid
            # (liquidator agents only commit state after profitability checks).
            borrower_balance = self.token.balance_of(borrower)
            self.token.transfer(borrower, self.address, min(amount, borrower_balance))
            raise
        if self.chain is not None:
            self.chain.emit_event(
                "FlashLoan",
                emitter=self.address,
                data={
                    "platform": self.platform,
                    "borrower": borrower.value,
                    "token": self.token.symbol,
                    "amount": amount,
                    "fee": fee,
                    "purpose": purpose,
                },
            )
        return fee


@dataclass
class FlashLoanProvider:
    """A collection of flash-loan pools across platforms and assets."""

    pools: dict[tuple[str, str], FlashLoanPool] = field(default_factory=dict)

    def register(self, pool: FlashLoanPool) -> FlashLoanPool:
        """Register a pool under (platform, token symbol)."""
        self.pools[(pool.platform, pool.token.symbol)] = pool
        return pool

    def pool(self, platform: str, symbol: str) -> FlashLoanPool:
        """Look up the pool for (platform, symbol)."""
        try:
            return self.pools[(platform, symbol.upper())]
        except KeyError as exc:
            raise FlashLoanError(f"no {platform} flash-loan pool for {symbol}") from exc

    def cheapest_pool(self, symbol: str) -> FlashLoanPool | None:
        """The lowest-fee pool lending ``symbol`` with non-zero liquidity.

        Liquidator agents use this to pick dYdX over Aave when both can fund
        the liquidation, reproducing Table 4's platform split.
        """
        candidates = [
            pool
            for (platform, pool_symbol), pool in self.pools.items()
            if pool_symbol == symbol.upper() and pool.liquidity > 0
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda pool: (pool.fee_rate, -pool.liquidity))
