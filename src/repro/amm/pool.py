"""Constant-product automated market maker (Uniswap V2 style).

Liquidators that do not want price exposure flip the seized collateral into
the debt currency immediately; in a flash-loan liquidation this swap happens
inside the same transaction (Section 4.4.4, step 3).  The AMM also doubles as
an *on-chain* price oracle (Section 2.2.1), which is "known to be vulnerable
to manipulation" — the manipulation test exercises exactly that property.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..chain.chain import Blockchain
from ..chain.types import Address, make_address
from ..tokens.token import Token


class SwapError(Exception):
    """Raised on invalid swaps (empty reserves, zero amounts, bad token)."""


@dataclass
class ConstantProductPool:
    """A two-asset x·y = k pool.

    Reserves are owned by the pool's own address on the underlying token
    ledgers, so the conservation invariant is enforced by the token layer as
    well as by the pool arithmetic.
    """

    token_a: Token
    token_b: Token
    fee: float = 0.003
    chain: Blockchain | None = None
    #: A world's builder passes one minted by the world's chain; the
    #: default is for pools built outside any world.
    address: Address = field(default_factory=lambda: make_address("amm-pool"))

    def __post_init__(self) -> None:
        if self.token_a.symbol == self.token_b.symbol:
            raise ValueError("pool requires two distinct tokens")
        if not 0.0 <= self.fee < 1.0:
            raise ValueError("fee must lie in [0, 1)")

    # ------------------------------------------------------------------ #
    # Reserves and pricing
    # ------------------------------------------------------------------ #
    @property
    def reserve_a(self) -> float:
        """Reserve of ``token_a`` held by the pool."""
        return self.token_a.balance_of(self.address)

    @property
    def reserve_b(self) -> float:
        """Reserve of ``token_b`` held by the pool."""
        return self.token_b.balance_of(self.address)

    @property
    def invariant(self) -> float:
        """The constant-product invariant k = reserve_a · reserve_b."""
        return self.reserve_a * self.reserve_b

    def spot_price(self, of_symbol: str) -> float:
        """Marginal price of one unit of ``of_symbol`` in units of the other token."""
        if self.reserve_a <= 0 or self.reserve_b <= 0:
            raise SwapError("pool has no liquidity")
        if of_symbol.upper() == self.token_a.symbol:
            return self.reserve_b / self.reserve_a
        if of_symbol.upper() == self.token_b.symbol:
            return self.reserve_a / self.reserve_b
        raise SwapError(f"{of_symbol} is not in this pool")

    def _oriented(self, token_in_symbol: str) -> tuple[Token, Token]:
        symbol = token_in_symbol.upper()
        if symbol == self.token_a.symbol:
            return self.token_a, self.token_b
        if symbol == self.token_b.symbol:
            return self.token_b, self.token_a
        raise SwapError(f"{token_in_symbol} is not in this pool")

    def get_amount_out(self, token_in_symbol: str, amount_in: float) -> float:
        """Output amount for an exact-input swap, after fees."""
        if amount_in <= 0:
            raise SwapError("swap amount must be positive")
        token_in, token_out = self._oriented(token_in_symbol)
        reserve_in = token_in.balance_of(self.address)
        reserve_out = token_out.balance_of(self.address)
        if reserve_in <= 0 or reserve_out <= 0:
            raise SwapError("pool has no liquidity")
        effective_in = amount_in * (1.0 - self.fee)
        return reserve_out * effective_in / (reserve_in + effective_in)

    def price_impact(self, token_in_symbol: str, amount_in: float) -> float:
        """Relative slippage of an exact-input swap versus the spot price."""
        spot = self.spot_price(token_in_symbol)
        executed = self.get_amount_out(token_in_symbol, amount_in) / amount_in
        if spot <= 0:
            return 0.0
        return 1.0 - executed / spot

    # ------------------------------------------------------------------ #
    # Liquidity and swaps
    # ------------------------------------------------------------------ #
    def add_liquidity(self, provider: Address, amount_a: float, amount_b: float) -> None:
        """Deposit reserves into the pool (no LP-token accounting needed here)."""
        if amount_a < 0 or amount_b < 0:
            raise SwapError("liquidity amounts must be non-negative")
        self.token_a.transfer(provider, self.address, amount_a)
        self.token_b.transfer(provider, self.address, amount_b)

    def swap(self, trader: Address, token_in_symbol: str, amount_in: float) -> float:
        """Execute an exact-input swap and return the amount received."""
        token_in, token_out = self._oriented(token_in_symbol)
        amount_out = self.get_amount_out(token_in_symbol, amount_in)
        token_in.transfer(trader, self.address, amount_in)
        token_out.transfer(self.address, trader, amount_out)
        if self.chain is not None:
            self.chain.emit_event(
                "Swap",
                emitter=self.address,
                data={
                    "trader": trader.value,
                    "token_in": token_in.symbol,
                    "token_out": token_out.symbol,
                    "amount_in": amount_in,
                    "amount_out": amount_out,
                },
            )
        return amount_out
