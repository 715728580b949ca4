"""Shared fixed spread liquidation flow for Aave, Compound and dYdX.

The three pool-based protocols differ in parameters (close factor, spread per
market) and event names, but share the atomic liquidation flow of
Section 3.2.2: a liquidator repays part of the debt and instantly receives
discounted collateral, settled within a single transaction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from ..chain.transaction import TransactionReverted
from ..chain.types import Address
from ..core.fixed_spread import FixedSpreadQuote, LiquidationError, apply_liquidation, quote_liquidation
from ..core.position import Position
from .base import LendingProtocol, ProtocolError


@dataclass(frozen=True)
class LiquidationResult:
    """Outcome of an executed fixed spread liquidation call."""

    platform: str
    liquidator: Address
    borrower: Address
    quote: FixedSpreadQuote
    block_number: int
    used_flash_loan: bool = False


class FixedSpreadProtocol(LendingProtocol):
    """A lending pool with atomic fixed spread liquidations."""

    def liquidation_mechanism(self) -> str:
        """Fixed spread protocols settle liquidations atomically."""
        return "fixed-spread"

    # ------------------------------------------------------------------ #
    # Liquidation
    # ------------------------------------------------------------------ #
    def quote_liquidation_call(
        self,
        borrower: Address,
        debt_symbol: str,
        collateral_symbol: str,
        repay_amount: float,
    ) -> FixedSpreadQuote:
        """Preview a liquidation without executing it (what bots do off-chain)."""
        position = self.position_of(borrower)
        params = self.params_for(collateral_symbol)
        return quote_liquidation(
            position,
            debt_symbol.upper(),
            collateral_symbol.upper(),
            repay_amount,
            params,
            self.prices(),
            self.liquidation_thresholds(),
        )

    def liquidation_call(
        self,
        liquidator: Address,
        borrower: Address,
        debt_symbol: str,
        collateral_symbol: str,
        repay_amount: float,
        used_flash_loan: bool = False,
    ) -> LiquidationResult:
        """Execute a fixed spread liquidation (Aave's ``liquidationCall`` et al.).

        The liquidator transfers ``repay_amount`` of the debt asset to the
        pool and receives the discounted collateral.  Rule violations revert
        the transaction.
        """
        debt_symbol = debt_symbol.upper()
        collateral_symbol = collateral_symbol.upper()
        position = self.position_of(borrower)
        params = self.params_for(collateral_symbol)
        try:
            quote = quote_liquidation(
                position,
                debt_symbol,
                collateral_symbol,
                repay_amount,
                params,
                self.prices(),
                self.liquidation_thresholds(),
            )
        except LiquidationError as exc:
            raise TransactionReverted(f"{self.name} liquidation reverted: {exc}") from exc
        debt_token = self.registry.get(debt_symbol)
        collateral_token = self.registry.get(collateral_symbol)
        if debt_token.balance_of(liquidator) + 1e-9 < quote.repay_amount:
            raise TransactionReverted(
                f"liquidator lacks {quote.repay_amount:.4f} {debt_symbol} to repay the debt"
            )
        if collateral_token.balance_of(self.address) + 1e-9 < quote.collateral_amount:
            # The seized collateral was lent out: the pool is fully utilized
            # in that asset and the seize cannot be paid out.
            raise TransactionReverted(
                f"{self.name} pool lacks {quote.collateral_amount:.4f} {collateral_symbol} "
                f"liquidity to pay out the seized collateral"
            )
        debt_token.transfer(liquidator, self.address, quote.repay_amount)
        collateral_token.transfer(self.address, liquidator, quote.collateral_amount)
        apply_liquidation(position, quote)
        result = LiquidationResult(
            platform=self.name,
            liquidator=liquidator,
            borrower=borrower,
            quote=quote,
            block_number=self.chain.current_block,
            used_flash_loan=used_flash_loan,
        )
        self.chain.emit_event(
            self.LIQUIDATION_EVENT,
            emitter=self.address,
            data={
                "platform": self.name,
                "liquidator": liquidator.value,
                "borrower": borrower.value,
                "debt_symbol": debt_symbol,
                "collateral_symbol": collateral_symbol,
                "repay_amount": quote.repay_amount,
                "repay_usd": quote.repay_usd,
                "collateral_amount": quote.collateral_amount,
                "collateral_usd": quote.collateral_usd,
                "profit_usd": quote.profit_usd,
                "used_flash_loan": used_flash_loan,
                "mechanism": "fixed-spread",
            },
        )
        return result

    def quote_best_opportunity(self, borrower: Address) -> FixedSpreadQuote | None:
        """Quote the liquidation a rational bot would attempt on ``borrower``.

        Picks the largest (debt, collateral) pair, caps the repayment at the
        close factor and previews the call; returns ``None`` when there is
        nothing (or nothing valid) to liquidate.  For many candidates at
        once prefer :meth:`quote_opportunities`, which shares one oracle
        sweep across the whole batch.
        """
        return self._quote_best(
            self.position_of(borrower), self.prices(), self.liquidation_thresholds()
        )

    def quote_opportunities(
        self, positions: Iterable[Position]
    ) -> list[tuple[Position, FixedSpreadQuote]]:
        """Batched :meth:`quote_best_opportunity` over candidate positions.

        Fetches ``prices()`` / ``liquidation_thresholds()`` once and reuses
        them for every candidate — prices cannot move within a block stride,
        so the result is exactly the per-candidate quotes, minus the
        repeated oracle sweeps that dominate post-crash strides when
        hundreds of rows are flagged.  Candidates with nothing (or nothing
        valid) to liquidate are dropped.
        """
        positions = list(positions)
        if not positions:
            return []
        prices = self.prices()
        thresholds = self.liquidation_thresholds()
        quoted: list[tuple[Position, FixedSpreadQuote]] = []
        for position in positions:
            quote = self._quote_best(position, prices, thresholds)
            if quote is not None:
                quoted.append((position, quote))
        return quoted

    def _quote_best(
        self,
        position: Position,
        prices: Mapping[str, float],
        thresholds: Mapping[str, float],
    ) -> FixedSpreadQuote | None:
        """The shared single-candidate quote against pre-fetched prices."""
        if not position.collateral:
            return None  # bad debt: nothing to seize
        debt_values = position.debt_values(prices)
        collateral_values = position.collateral_values(prices)
        if not debt_values or not collateral_values:
            return None
        debt_symbol = max(debt_values, key=debt_values.get)
        collateral_symbol = max(collateral_values, key=collateral_values.get)
        repay_amount = position.debt.get(debt_symbol, 0.0) * self.close_factor
        if repay_amount <= 0:
            return None
        try:
            return quote_liquidation(
                position,
                debt_symbol,
                collateral_symbol,
                repay_amount,
                self.params_for(collateral_symbol),
                prices,
                thresholds,
            )
        except LiquidationError:
            return None

    def best_liquidation_pair(self, borrower: Address) -> tuple[str, str] | None:
        """The (debt, collateral) pair with the largest outstanding values.

        This is the pair a rational liquidator targets; ``None`` if the
        position carries no debt or no collateral.
        """
        position = self.position_of(borrower)
        prices = self.prices()
        debt_values = position.debt_values(prices)
        collateral_values = position.collateral_values(prices)
        if not debt_values or not collateral_values:
            return None
        debt_symbol = max(debt_values, key=debt_values.get)
        collateral_symbol = max(collateral_values, key=collateral_values.get)
        return debt_symbol, collateral_symbol

    def max_repay_amount(self, borrower: Address, debt_symbol: str) -> float:
        """Close-factor cap of the borrower's outstanding ``debt_symbol`` debt."""
        position = self.position_of(borrower)
        return position.debt.get(debt_symbol.upper(), 0.0) * self.close_factor

    def ensure_market(self, symbol: str) -> None:
        """Raise unless ``symbol`` has a configured market."""
        if symbol.upper() not in self.markets:
            raise ProtocolError(f"{self.name} has no {symbol} market")
