"""Out-of-protocol market settlement for simulation participants.

The paper values every liquidation by assuming "the purchased collateral is
immediately sold by the liquidator at the price given by the price oracle"
(Section 4.3.1).  :class:`MarketMaker` provides exactly that venue: a
deep-pocketed counterparty that converts any registered asset into any other
at the oracle price minus a configurable slippage haircut.  Liquidators use
it to flip seized collateral (or to source repayment capital inside a flash
loan), and keepers use it to realise auction proceeds.

When a constant-product AMM pool exists for a pair, callers may prefer the
AMM; the market maker is the fallback that keeps the simulation solvent for
long-tail assets without having to bootstrap dozens of pools.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..chain.types import Address, make_address
from ..oracle.chainlink import PriceOracle
from ..tokens.registry import TokenRegistry


class MarketError(Exception):
    """Raised on conversions that cannot be quoted or settled."""


@dataclass
class MarketMaker:
    """An oracle-priced OTC conversion venue with practically unlimited depth."""

    oracle: PriceOracle
    registry: TokenRegistry
    slippage: float = 0.001
    #: A world's builder passes one minted by the world's chain; the
    #: default is for a market maker built outside any world.
    address: Address = field(default_factory=lambda: make_address("market-maker"))
    inventory_usd: float = 5e10

    def __post_init__(self) -> None:
        if not 0.0 <= self.slippage < 1.0:
            raise ValueError("slippage must lie in [0, 1)")
        self._seeded: set[str] = set()

    def _ensure_inventory(self, symbol: str) -> None:
        """Lazily mint a deep inventory of ``symbol`` to the market maker."""
        key = symbol.upper()
        if key in self._seeded:
            return
        token = self.registry.ensure(key)
        price = max(self.oracle.price(key), 1e-9)
        token.mint(self.address, self.inventory_usd / price)
        self._seeded.add(key)

    def quote(self, from_symbol: str, to_symbol: str, amount: float) -> float:
        """Amount of ``to_symbol`` received for selling ``amount`` of ``from_symbol``."""
        if amount < 0:
            raise MarketError("conversion amount must be non-negative")
        price_from = self.oracle.price(from_symbol)
        price_to = self.oracle.price(to_symbol)
        if price_to <= 0:
            raise MarketError(f"no positive price for {to_symbol}")
        return amount * price_from * (1.0 - self.slippage) / price_to

    def quote_input_for(self, from_symbol: str, to_symbol: str, amount_out: float) -> float:
        """Amount of ``from_symbol`` to sell in order to receive ``amount_out``."""
        if amount_out < 0:
            raise MarketError("conversion amount must be non-negative")
        price_from = self.oracle.price(from_symbol)
        price_to = self.oracle.price(to_symbol)
        if price_from <= 0:
            raise MarketError(f"no positive price for {from_symbol}")
        return amount_out * price_to / (price_from * (1.0 - self.slippage))

    def convert(self, trader: Address, from_symbol: str, to_symbol: str, amount: float) -> float:
        """Sell ``amount`` of ``from_symbol`` for ``to_symbol`` at the oracle price.

        Returns the amount of ``to_symbol`` delivered to the trader.
        """
        amount_out = self.quote(from_symbol, to_symbol, amount)
        self._ensure_inventory(to_symbol)
        self._ensure_inventory(from_symbol)
        from_token = self.registry.get(from_symbol)
        to_token = self.registry.get(to_symbol)
        from_token.transfer(trader, self.address, amount)
        to_token.transfer(self.address, trader, amount_out)
        return amount_out

    def buy_exact(self, trader: Address, from_symbol: str, to_symbol: str, amount_out: float) -> float:
        """Buy exactly ``amount_out`` of ``to_symbol``; returns the input spent."""
        amount_in = self.quote_input_for(from_symbol, to_symbol, amount_out)
        self._ensure_inventory(to_symbol)
        self._ensure_inventory(from_symbol)
        from_token = self.registry.get(from_symbol)
        to_token = self.registry.get(to_symbol)
        from_token.transfer(trader, self.address, amount_in)
        to_token.transfer(self.address, trader, amount_out)
        return amount_in
