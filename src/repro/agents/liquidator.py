"""Fixed spread liquidation bots.

Liquidators "observe the blockchain for unhealthy positions … typically
operate bots … and are engaging in a competitive environment, where other
liquidators may try to front-run each other" (Section 3.1).  The agent below
reproduces the behaviours the paper measures:

* competitive gas bidding — most liquidation transactions pay an
  above-average gas price (73.97 % in Figure 6);
* optional flash-loan funding (Section 4.4.4 / Table 4), preferring the
  cheapest flash-loan venue (dYdX over Aave);
* profit-gated participation — opportunities whose spread cannot cover the
  transaction fee are skipped (which is what lets unprofitable opportunities
  accumulate, Table 3);
* optionally, the paper's *optimal* two-step strategy (Section 5.2), which is
  disabled by default because the paper does not observe it in the wild — the
  ablation benchmark turns it on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..chain.transaction import TransactionReverted, TxKind
from ..chain.types import LIQUIDATION_GAS
from ..core.fixed_spread import LiquidationError
from ..core.optimal_strategy import SimplePosition, optimal_first_repay
from ..protocols.fixed_spread_protocol import FixedSpreadProtocol
from .base import Agent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simulation.engine import LiquidationOpportunity, SimulationEngine


@dataclass
class LiquidatorProfile:
    """Behavioural parameters of one liquidation bot."""

    detection_probability: float = 0.4
    gas_multiplier_mean: float = 1.6
    gas_multiplier_sigma: float = 0.45
    flash_loan_probability: float = 0.25
    min_profit_margin: float = 1.3
    holding_symbol: str = "USDC"
    initial_capital_usd: float = 5_000_000.0
    use_optimal_strategy: bool = False
    offline_during_congestion: bool = False


class LiquidatorAgent(Agent):
    """A bot monitoring the fixed spread protocols for liquidatable positions."""

    def __init__(self, label: str, rng: np.random.Generator, profile: LiquidatorProfile | None = None) -> None:
        super().__init__(label, rng)
        self.profile = profile or LiquidatorProfile()
        self.funded = False
        self.liquidations_attempted = 0

    # ------------------------------------------------------------------ #
    # Funding
    # ------------------------------------------------------------------ #
    def _ensure_funding(self, engine: "SimulationEngine") -> None:
        """Mint the bot's working capital in its holding currency on first use."""
        if self.funded:
            return
        symbol = self.profile.holding_symbol
        price = engine.oracle.price(symbol)
        token = engine.registry.ensure(symbol)
        token.mint(self.address, self.profile.initial_capital_usd / max(price, 1e-9))
        self.funded = True

    # ------------------------------------------------------------------ #
    # Acting
    # ------------------------------------------------------------------ #
    def act(self, engine: "SimulationEngine") -> None:
        """Scan this step's opportunities and submit liquidation transactions.

        Each detected opportunity draws a competitive gas-price bid around
        the prevailing base price (lognormal multiplier) and is skipped
        when the fee, scaled by the profit margin, exceeds its expected
        profit.  Nothing the bids read changes while the bot submits, so
        the base price, the ETH price and the profile terms are read once
        per call; the draws keep their order.
        """
        profile = self.profile
        if profile.offline_during_congestion and engine.chain.gas_market.is_congested:
            return
        opportunities = engine.fixed_spread_opportunities()
        if not opportunities:
            return
        self._ensure_funding(engine)
        rng = self.rng
        detection_probability = profile.detection_probability
        base = engine.chain.gas_market.base_gas_price_wei
        log_mean = np.log(profile.gas_multiplier_mean)
        sigma = profile.gas_multiplier_sigma
        eth_price = engine.oracle.price("ETH")
        margin = profile.min_profit_margin
        for opportunity in opportunities:
            if rng.random() > detection_probability:
                continue
            gas_price = max(int(base * float(rng.lognormal(log_mean, sigma))), 1)
            fee_usd = gas_price * LIQUIDATION_GAS / 1e18 * eth_price
            if opportunity.expected_profit_usd < fee_usd * margin:
                continue
            use_flash = rng.random() < profile.flash_loan_probability
            self._submit(engine, opportunity, gas_price, use_flash)

    def _submit(
        self, engine: "SimulationEngine", opportunity: "LiquidationOpportunity", gas_price: int, use_flash: bool
    ) -> None:
        """Submit the liquidation of ``opportunity`` at ``gas_price``."""
        protocol = opportunity.protocol
        borrower = opportunity.borrower
        debt_symbol = opportunity.debt_symbol
        collateral_symbol = opportunity.collateral_symbol
        repay_amount = opportunity.repay_amount
        if self.profile.use_optimal_strategy:
            self._submit_optimal(engine, opportunity, gas_price, use_flash)
            return

        def action() -> object:
            return self._execute_liquidation(
                engine, protocol, borrower, debt_symbol, collateral_symbol, repay_amount, use_flash
            )

        engine.chain.submit_call(
            sender=self.address,
            action=action,
            gas_price=gas_price,
            gas_limit=LIQUIDATION_GAS,
            kind=TxKind.LIQUIDATION,
            metadata={
                "platform": protocol.name,
                "borrower": borrower.value,
                "liquidator": self.address.value,
                "strategy": "up-to-close-factor",
                "flash_loan": use_flash,
            },
        )
        self.liquidations_attempted += 1

    def _submit_optimal(
        self,
        engine: "SimulationEngine",
        opportunity: "LiquidationOpportunity",
        gas_price: int,
        use_flash: bool,
    ) -> None:
        """Submit the two successive liquidations of Algorithm 2 as one action."""
        protocol = opportunity.protocol
        borrower = opportunity.borrower
        debt_symbol = opportunity.debt_symbol
        collateral_symbol = opportunity.collateral_symbol

        def action() -> object:
            prices = protocol.prices()
            thresholds = protocol.liquidation_thresholds()
            position = protocol.position_of(borrower)
            params = protocol.params_for(collateral_symbol)
            simple = SimplePosition(
                collateral_usd=position.total_collateral_usd(prices),
                debt_usd=position.total_debt_usd(prices),
            )
            try:
                repay_1_usd = optimal_first_repay(simple, params)
            except Exception as exc:  # pragma: no cover - defensive
                raise TransactionReverted(str(exc)) from exc
            debt_price = prices[debt_symbol]
            repay_1 = min(repay_1_usd / debt_price, position.debt.get(debt_symbol, 0.0) * params.close_factor)
            first = self._execute_liquidation(
                engine, protocol, borrower, debt_symbol, collateral_symbol, repay_1, use_flash
            )
            remaining = protocol.position_of(borrower).debt.get(debt_symbol, 0.0)
            repay_2 = remaining * params.close_factor
            if repay_2 <= 0:
                return first
            second = self._execute_liquidation(
                engine, protocol, borrower, debt_symbol, collateral_symbol, repay_2, use_flash
            )
            return (first, second)

        engine.chain.submit_call(
            sender=self.address,
            action=action,
            gas_price=gas_price,
            gas_limit=LIQUIDATION_GAS * 2,
            kind=TxKind.LIQUIDATION,
            metadata={
                "platform": protocol.name,
                "borrower": borrower.value,
                "liquidator": self.address.value,
                "strategy": "optimal",
                "flash_loan": use_flash,
            },
        )
        self.liquidations_attempted += 1

    # ------------------------------------------------------------------ #
    # Execution-time logic (runs when the transaction is included)
    # ------------------------------------------------------------------ #
    def _execute_liquidation(
        self,
        engine: "SimulationEngine",
        protocol: FixedSpreadProtocol,
        borrower,
        debt_symbol: str,
        collateral_symbol: str,
        repay_amount: float,
        use_flash: bool,
    ) -> object:
        """Perform the liquidation with either flash-loan or inventory funding."""
        repay_amount = min(
            repay_amount,
            protocol.position_of(borrower).debt.get(debt_symbol, 0.0) * protocol.close_factor,
        )
        if repay_amount <= 0:
            raise TransactionReverted("position already liquidated by a competitor")
        if use_flash:
            pool = engine.flash_loans.cheapest_pool(debt_symbol)
            if pool is not None and pool.liquidity >= repay_amount:
                return self._flash_liquidation(engine, pool, protocol, borrower, debt_symbol, collateral_symbol, repay_amount)
        return self._inventory_liquidation(engine, protocol, borrower, debt_symbol, collateral_symbol, repay_amount)

    def _flash_liquidation(
        self,
        engine: "SimulationEngine",
        pool,
        protocol: FixedSpreadProtocol,
        borrower,
        debt_symbol: str,
        collateral_symbol: str,
        repay_amount: float,
    ) -> object:
        """Section 4.4.4's flow: flash-borrow, liquidate, swap collateral, repay."""
        results = {}

        def callback(amount: float, fee: float) -> None:
            result = protocol.liquidation_call(
                self.address, borrower, debt_symbol, collateral_symbol, repay_amount, used_flash_loan=True
            )
            results["liquidation"] = result
            debt_token = engine.registry.get(debt_symbol)
            owed = amount + fee
            shortfall = owed - debt_token.balance_of(self.address)
            if shortfall > 0:
                engine.market_maker.buy_exact(self.address, collateral_symbol, debt_symbol, shortfall)

        pool.flash_loan(self.address, repay_amount, callback, purpose=f"liquidation:{protocol.name}")
        self._realise_profit(engine, collateral_symbol)
        return results.get("liquidation")

    def _inventory_liquidation(
        self,
        engine: "SimulationEngine",
        protocol: FixedSpreadProtocol,
        borrower,
        debt_symbol: str,
        collateral_symbol: str,
        repay_amount: float,
    ) -> object:
        """Fund the repayment from the bot's own capital."""
        debt_token = engine.registry.get(debt_symbol)
        shortfall = repay_amount - debt_token.balance_of(self.address)
        if shortfall > 0:
            holding = self.profile.holding_symbol
            holding_token = engine.registry.get(holding)
            needed_input = engine.market_maker.quote_input_for(holding, debt_symbol, shortfall)
            if holding_token.balance_of(self.address) < needed_input:
                raise TransactionReverted("liquidator lacks capital for the repayment")
            engine.market_maker.buy_exact(self.address, holding, debt_symbol, shortfall)
        try:
            result = protocol.liquidation_call(
                self.address, borrower, debt_symbol, collateral_symbol, repay_amount, used_flash_loan=False
            )
        except LiquidationError as exc:  # pragma: no cover - protocol converts already
            raise TransactionReverted(str(exc)) from exc
        self._realise_profit(engine, collateral_symbol)
        return result

    def _realise_profit(self, engine: "SimulationEngine", collateral_symbol: str) -> None:
        """Sell remaining seized collateral into the bot's holding currency."""
        holding = self.profile.holding_symbol
        if collateral_symbol.upper() == holding.upper():
            return
        collateral_token = engine.registry.get(collateral_symbol)
        balance = collateral_token.balance_of(self.address)
        if balance > 0:
            engine.market_maker.convert(self.address, collateral_symbol, holding, balance)
