"""Fixed spread liquidation model (Section 3.2.2).

The fixed spread mechanism — used by Aave, Compound and dYdX — lets a
liquidator atomically repay up to ``close_factor × debt`` and purchase
collateral at a ``1 + LS`` premium.  This module contains the *pure* model:
given a position, prices and parameters, what can be repaid, what collateral
is seized and what profit results.  The protocol classes wrap this model with
token transfers and event emission.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .position import DUST, Position
from .terminology import LiquidationParams, collateral_to_claim


class LiquidationError(Exception):
    """Raised when a liquidation request violates the mechanism's rules."""


@dataclass(frozen=True)
class FixedSpreadQuote:
    """The outcome of a prospective fixed spread liquidation.

    All ``*_usd`` figures are valued at the supplied oracle prices, matching
    the paper's profit definition ("we assume that the purchased collateral
    is immediately sold by the liquidator at the price given by the price
    oracle", Section 4.3.1).
    """

    debt_symbol: str
    collateral_symbol: str
    repay_amount: float
    repay_usd: float
    collateral_amount: float
    collateral_usd: float
    profit_usd: float
    health_factor_before: float
    health_factor_after: float


def max_repayable_debt(
    position: Position,
    debt_symbol: str,
    params: LiquidationParams,
    prices: Mapping[str, float],
) -> float:
    """Maximum amount of ``debt_symbol`` repayable in one liquidation call.

    This is the close-factor cap of the *current* outstanding debt in that
    currency — the "up-to-close-factor" quantity of Section 5.2.
    """
    owed = position.debt.get(debt_symbol, 0.0)
    return owed * params.close_factor


def quote_liquidation(
    position: Position,
    debt_symbol: str,
    collateral_symbol: str,
    repay_amount: float,
    params: LiquidationParams,
    prices: Mapping[str, float],
    thresholds: Mapping[str, float],
    enforce_close_factor: bool = True,
) -> FixedSpreadQuote:
    """Compute the effect of repaying ``repay_amount`` of ``debt_symbol``.

    Raises :class:`LiquidationError` when the position is healthy, the repay
    amount exceeds the close-factor cap, or the collateral cannot cover the
    seizure.
    """
    if repay_amount <= 0:
        raise LiquidationError("repay amount must be positive")
    hf_before = position.health_factor(prices, thresholds)
    if not hf_before < 1.0:
        raise LiquidationError("position is healthy (HF >= 1); nothing to liquidate")
    owed = position.debt.get(debt_symbol, 0.0)
    if owed <= DUST:
        raise LiquidationError(f"position owes no {debt_symbol}")
    cap = owed * params.close_factor
    if enforce_close_factor and repay_amount > cap * (1 + 1e-9):
        raise LiquidationError(
            f"repay amount {repay_amount:.6f} exceeds close factor cap {cap:.6f} {debt_symbol}"
        )
    repay_amount = min(repay_amount, owed)
    debt_price = prices[debt_symbol]
    collateral_price = prices[collateral_symbol]
    repay_usd = repay_amount * debt_price
    seize_usd = collateral_to_claim(repay_usd, params.liquidation_spread)
    seize_amount = seize_usd / collateral_price
    held = position.collateral.get(collateral_symbol, 0.0)
    if seize_amount > held + 1e-9:
        # Clamp to the available collateral: the liquidator cannot seize more
        # than exists; the repay amount shrinks proportionally.
        seize_amount = held
        seize_usd = seize_amount * collateral_price
        repay_usd = seize_usd / (1.0 + params.liquidation_spread)
        repay_amount = repay_usd / debt_price
    preview = position.copy()
    preview.reduce_debt(debt_symbol, min(repay_amount, preview.debt.get(debt_symbol, 0.0)))
    preview.remove_collateral(collateral_symbol, min(seize_amount, preview.collateral.get(collateral_symbol, 0.0)))
    hf_after = preview.health_factor(prices, thresholds)
    return FixedSpreadQuote(
        debt_symbol=debt_symbol,
        collateral_symbol=collateral_symbol,
        repay_amount=repay_amount,
        repay_usd=repay_usd,
        collateral_amount=seize_amount,
        collateral_usd=seize_usd,
        profit_usd=seize_usd - repay_usd,
        health_factor_before=hf_before,
        health_factor_after=hf_after,
    )


def apply_liquidation(
    position: Position,
    quote: FixedSpreadQuote,
) -> None:
    """Apply a previously computed quote to the position (mutating it)."""
    position.reduce_debt(quote.debt_symbol, min(quote.repay_amount, position.debt.get(quote.debt_symbol, 0.0)))
    position.remove_collateral(
        quote.collateral_symbol,
        min(quote.collateral_amount, position.collateral.get(quote.collateral_symbol, 0.0)),
    )


def liquidate(
    position: Position,
    debt_symbol: str,
    collateral_symbol: str,
    repay_amount: float,
    params: LiquidationParams,
    prices: Mapping[str, float],
    thresholds: Mapping[str, float],
    enforce_close_factor: bool = True,
) -> FixedSpreadQuote:
    """Quote and immediately apply a fixed spread liquidation."""
    quote = quote_liquidation(
        position,
        debt_symbol,
        collateral_symbol,
        repay_amount,
        params,
        prices,
        thresholds,
        enforce_close_factor=enforce_close_factor,
    )
    apply_liquidation(position, quote)
    return quote
