"""Borrower agents.

Borrowers open leveraged positions on a lending protocol and manage them with
varying degrees of attention.  Three behavioural traits drive the study's
headline phenomena:

* *attentiveness* — attentive borrowers top up collateral when their health
  factor approaches 1, inattentive ones do not and get liquidated when prices
  fall (the bulk of Figure 4's liquidation volume);
* *diversification* — Aave V2 borrowers prefer multi-asset collateral, which
  is what makes Aave V2 less sensitive to single-currency declines in
  Figure 8 (Section 4.5.1);
* *dust positions* — a population of very small positions whose excess
  collateral cannot cover a closing transaction fee, producing Table 2's
  Type II bad debt.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .. import sanitize
from ..core.position import Position
from ..protocols.base import LendingProtocol, ProtocolError
from .base import Agent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simulation.engine import SimulationEngine


@dataclass
class BorrowerProfile:
    """Behavioural parameters of one borrower."""

    collateral_symbols: tuple[str, ...] = ("ETH",)
    debt_symbol: str = "DAI"
    collateral_usd: float = 50_000.0
    target_health_factor: float = 1.25
    attentive: bool = True
    topup_trigger: float = 1.08
    entry_step: int = 0


class BorrowerAgent(Agent):
    """A borrower managing a single position on one protocol."""

    def __init__(
        self,
        label: str,
        rng: np.random.Generator,
        protocol: LendingProtocol,
        profile: BorrowerProfile,
    ) -> None:
        super().__init__(label, rng)
        self.protocol = protocol
        self.profile = profile
        self.opened = False
        self.closed = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def act(self, engine: "SimulationEngine") -> None:
        """Open the position at the entry step, then manage it."""
        if self.closed:
            return
        if not self.opened:
            if engine.step_index >= self.profile.entry_step and engine.is_active(self.protocol):
                self._open_position(engine)
            return
        if self.profile.attentive:
            self._manage_position(engine)

    def _open_position(self, engine: "SimulationEngine") -> None:
        """Deposit collateral and borrow up to the target health factor."""
        prices = self.protocol.prices()
        thresholds = self.protocol.liquidation_thresholds()
        weights = self._collateral_weights()
        deposited_value = 0.0
        capacity = 0.0
        for symbol, weight in weights.items():
            if symbol not in self.protocol.markets or not self.protocol.markets[symbol].collateral_enabled:
                continue
            price = prices.get(symbol)
            if not price or price <= 0:
                continue
            value = self.profile.collateral_usd * weight
            amount = value / price
            token = engine.registry.ensure(symbol)
            token.mint(self.address, amount)
            try:
                self.protocol.deposit(self.address, symbol, amount)
            except ProtocolError:
                continue
            deposited_value += value
            capacity += value * thresholds.get(symbol, 0.0)
        if deposited_value <= 0 or capacity <= 0:
            self.closed = True
            return
        debt_symbol = self.profile.debt_symbol
        debt_price = prices.get(debt_symbol, self.protocol.oracle.price(debt_symbol))
        target_debt_usd = capacity / self.profile.target_health_factor
        borrow_amount = target_debt_usd / debt_price
        try:
            self.protocol.borrow(self.address, debt_symbol, borrow_amount)
        except ProtocolError:
            # Not enough pool liquidity or capacity rounding: try a smaller loan.
            try:
                self.protocol.borrow(self.address, debt_symbol, borrow_amount * 0.9)
            except ProtocolError:
                self.closed = True
                return
        self.opened = True

    def _manage_position(self, engine: "SimulationEngine") -> None:
        """Top up collateral when the health factor nears the liquidation point."""
        position = self.protocol.position_of(self.address)
        # The prefilter skips exactly the positions the scalar check below
        # would return on (HF ≥ trigger), before any side effect.
        if self.protocol.clears_health_floor(position, self.profile.topup_trigger):
            if engine.sanitize_step:
                self._cross_check_skip(engine, position)
            return
        if not position.has_debt:
            return
        prices = self.protocol.prices()
        thresholds = self.protocol.liquidation_thresholds()
        health = position.health_factor(prices, thresholds)
        if health >= self.profile.topup_trigger:
            return
        # Restore the target health factor by adding more of the main collateral.
        main_symbol = self.profile.collateral_symbols[0]
        if main_symbol not in self.protocol.markets:
            return
        price = prices.get(main_symbol, 0.0)
        if price <= 0:
            return
        debt_usd = position.total_debt_usd(prices)
        capacity_needed = debt_usd * self.profile.target_health_factor
        capacity_now = position.borrowing_capacity(prices, thresholds)
        shortfall_usd = max(capacity_needed - capacity_now, 0.0)
        threshold = thresholds.get(main_symbol, 0.0)
        if threshold <= 0 or shortfall_usd <= 0:
            return
        amount = shortfall_usd / threshold / price
        token = engine.registry.ensure(main_symbol)
        token.mint(self.address, amount)
        try:
            self.protocol.deposit(self.address, main_symbol, amount)
        except ProtocolError:
            pass

    def _cross_check_skip(self, engine: "SimulationEngine", position: Position) -> None:
        """Sanitizer: a position the prefilter skipped must really have a
        scalar health factor at or above the top-up trigger."""
        health = position.health_factor(self.protocol.prices(), self.protocol.liquidation_thresholds())
        if health < self.profile.topup_trigger:
            raise sanitize.SanitizerError(
                f"borrower prefilter of {self.protocol.name} skipped {self.label} at "
                f"step {engine.step_index} (block {engine.chain.current_block}) with "
                f"scalar health factor {health!r} below its top-up trigger "
                f"{self.profile.topup_trigger!r}; the health column is stale or its margin too loose"
            )

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _collateral_weights(self) -> dict[str, float]:
        """Normalised collateral allocation across the profile's symbols."""
        symbols = self.profile.collateral_symbols
        if len(symbols) == 1:
            return {symbols[0]: 1.0}
        raw = self.rng.dirichlet(np.ones(len(symbols)) * 2.0)
        return {symbol: float(weight) for symbol, weight in zip(symbols, raw)}
