"""Chainlink-style off-chain price oracle.

Aave and Compound base their pricing on external oracles (Section 2.2.1,
3.3).  The essential behaviours the measurements depend on are:

* prices are *posted* on-chain, so the protocol only sees a delayed, discrete
  snapshot of the market price (updates happen on a deviation threshold or a
  heartbeat interval);
* posted prices can be *irregular* — the November 2020 Compound incident was
  caused by an anomalous DAI price reported by its oracle, which the paper
  identifies as the source of an 8.38 M USD profit spike (Figure 5);
* the full posted history is readable at any past block, which is how the
  paper normalises liquidation values "at the block when the liquidation is
  settled".
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from ..chain.chain import Blockchain
from ..chain.types import Address, make_address
from .feed import PriceFeed


@dataclass
class OracleConfig:
    """Posting policy of the oracle."""

    deviation_threshold: float = 0.005
    heartbeat_blocks: int = 1_200
    name: str = "chainlink"


class PriceOracle:
    """An on-chain posted price oracle fed from a :class:`PriceFeed`.

    The oracle keeps, per symbol, the full history of posted ``(block,
    price)`` pairs.  ``price(symbol)`` returns the latest posted price, and
    ``price_at(symbol, block)`` performs the archive-style historical lookup
    the analytics pipeline uses.
    """

    def __init__(
        self,
        chain: Blockchain,
        feed: PriceFeed,
        config: OracleConfig | None = None,
        address: Address | None = None,
    ) -> None:
        self.chain = chain
        self.feed = feed
        self.config = config or OracleConfig()
        self.address = address or make_address(self.config.name)
        self._history: dict[str, list[tuple[int, float]]] = {}
        #: Per symbol, the blocks of ``_history`` in the same order, so an
        #: archive lookup bisects without rebuilding the list.
        self._blocks: dict[str, list[int]] = {}
        #: Per symbol, the latest posted price (the last entry of ``_history``).
        self._latest: dict[str, float] = {}
        self._overrides: dict[str, float] = {}
        self._last_update_block: dict[str, int] = {}
        #: The ``(symbol, posted_price)`` pairs of the most recent
        #: :meth:`update_from_feed` call.  The engine's observer bus reads
        #: this to publish ``PriceUpdated`` events without re-querying each
        #: symbol's price on the hot path.
        self.last_updates: list[tuple[str, float]] = []
        #: Monotonic post counter: bumps on every :meth:`post_price`.  A
        #: posted-price query (:meth:`price`) can only change when this
        #: version changes or — for symbols with no posted history yet,
        #: which fall back to the market feed — when the block advances, so
        #: ``(current_block, version)`` keys cached valuations exactly.
        self.version = 0

    # ------------------------------------------------------------------ #
    # Posting
    # ------------------------------------------------------------------ #
    def post_price(self, symbol: str, price: float, block_number: int | None = None) -> None:
        """Record a posted price for ``symbol`` at ``block_number``."""
        key = symbol.upper()
        block = self.chain.current_block if block_number is None else block_number
        price = float(price)
        self._history.setdefault(key, []).append((block, price))
        self._blocks.setdefault(key, []).append(block)
        self._latest[key] = price
        self._last_update_block[key] = block
        self.version += 1
        self.chain.emit_event(
            "AnswerUpdated",
            emitter=self.address,
            data={"symbol": key, "price": price, "oracle": self.config.name},
        )

    def update_from_feed(self, block_number: int | None = None) -> list[str]:
        """Post fresh prices for every symbol whose policy triggers an update.

        Returns the list of symbols that were updated (the posted
        ``(symbol, price)`` pairs are kept on :attr:`last_updates`).
        Overridden symbols (see :meth:`set_override`) keep their override
        until cleared, modelling a stuck or manipulated reporter.
        """
        block = self.chain.current_block if block_number is None else block_number
        updated: list[str] = []
        updates: list[tuple[str, float]] = []
        # One feed row per call: the block maps to a step once, not per symbol.
        market = self.feed.prices_at(block) if self.feed.series else {}
        # Feed symbols are upper-case already: read the per-symbol state
        # directly instead of through the case-folding accessors.
        overrides = self._overrides
        latest = self._latest
        last_update_block = self._last_update_block
        threshold = self.config.deviation_threshold
        heartbeat = self.config.heartbeat_blocks
        for symbol, market_price in sorted(market.items()):
            posted = overrides.get(symbol, market_price)
            current = latest.get(symbol)
            needs_update = current is None
            if not needs_update:
                last_block = last_update_block.get(symbol, -10**9)
                deviation = abs(posted - current) / current if current else float("inf")
                needs_update = deviation >= threshold or block - last_block >= heartbeat
            if needs_update:
                self.post_price(symbol, posted, block)
                updated.append(symbol)
                updates.append((symbol, float(posted)))
        self.last_updates = updates
        return updated

    def set_override(self, symbol: str, price: float) -> None:
        """Force the oracle to report ``price`` for ``symbol`` until cleared.

        Used by the scenario layer to reproduce the November 2020 Compound
        DAI-price irregularity and by the case-study replay, where the
        liquidator "first performs an oracle price update" (Section 5.2.2).
        """
        self._overrides[symbol.upper()] = float(price)

    def clear_override(self, symbol: str) -> None:
        """Remove a previously set override."""
        self._overrides.pop(symbol.upper(), None)

    @property
    def overrides(self) -> dict[str, float]:
        """Currently active overrides."""
        return dict(self._overrides)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def _latest_posted(self, symbol: str) -> float | None:
        return self._latest.get(symbol.upper())

    def price(self, symbol: str) -> float:
        """Latest posted price of ``symbol`` in USD.

        Falls back to the market feed when nothing has been posted yet, so
        that freshly constructed scenarios always have a price.
        """
        posted = self._latest_posted(symbol)
        if posted is not None:
            return posted
        return self.feed.price(symbol, self.chain.current_block)

    def prices(self) -> dict[str, float]:
        """Latest posted (or feed) price of every tracked symbol."""
        return {symbol: self.price(symbol) for symbol in self.feed.symbols()}

    def price_at(self, symbol: str, block_number: int) -> float:
        """Posted price of ``symbol`` as of ``block_number`` (archive lookup)."""
        key = symbol.upper()
        blocks = self._blocks.get(key)
        if blocks:
            index = bisect.bisect_right(blocks, block_number) - 1
            if index >= 0:
                return self._history[key][index][1]
        return self.feed.price(symbol, block_number)

    def value_usd(self, symbol: str, amount: float) -> float:
        """USD value of ``amount`` units of ``symbol`` at the latest price."""
        return amount * self.price(symbol)

    def history(self, symbol: str) -> list[tuple[int, float]]:
        """Full posted history of ``symbol`` as ``(block, price)`` pairs."""
        return list(self._history.get(symbol.upper(), []))
