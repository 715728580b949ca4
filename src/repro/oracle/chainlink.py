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
from array import array
from dataclasses import dataclass, field

from ..chain.chain import Blockchain
from ..chain.types import Address
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
    the analytics pipeline uses.  The history is the archive's record of
    the posts; the ``AnswerUpdated`` logs only mirror it for log readers.
    A batch of posts is one row of the chain's event store: its prices are
    one ``array("d")``, and its symbol and oracle-name columns are tuples
    shared with the previous batch when that posted the same symbols.
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
        self.address = address or chain.new_address(self.config.name)
        #: The posted history, per symbol, as two parallel typed arrays: the
        #: blocks (``array("q")``, ascending, so an archive lookup bisects
        #: them) and the prices (``array("d")``).
        self._blocks: dict[str, array[int]] = {}
        self._prices: dict[str, array[float]] = {}
        #: Per symbol, the latest posted price (the last of ``_prices``).
        self._latest: dict[str, float] = {}
        self._overrides: dict[str, float] = {}
        #: The symbol and oracle columns of the last posted batch, reused by
        #: the next batch that posts the same symbols: the archive keeps
        #: one tuple each per run of equal batches, not one list per batch.
        self._batch_symbols: tuple[str, ...] = ()
        self._batch_oracle: tuple[str, ...] = ()
        #: The ``(symbol, posted_price)`` pairs of the most recent
        #: :meth:`update_from_feed` call.  The engine's observer bus reads
        #: this to publish ``PriceUpdated`` events without re-querying each
        #: symbol's price on the hot path.
        self.last_updates: list[tuple[str, float]] = []
        #: Monotonic post counter: bumps once per posted price.  A
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
        block = self.chain.current_block if block_number is None else block_number
        self._post([(symbol.upper(), float(price))], block)

    def _post(self, updates: list[tuple[str, float]], block: int) -> None:
        """Record every ``(symbol, price)`` pair as posted at ``block``, in
        order, and emit their ``AnswerUpdated`` logs in one call.

        Symbols must be upper-case and prices ``float`` s: this is the one
        posting path, behind both :meth:`post_price` and
        :meth:`update_from_feed`.
        """
        if not updates:
            return
        posted_blocks = self._blocks
        posted_prices = self._prices
        latest = self._latest
        for key, price in updates:
            blocks = posted_blocks.get(key)
            if blocks is None:
                blocks = posted_blocks[key] = array("q")
                posted_prices[key] = array("d")
            blocks.append(block)
            posted_prices[key].append(price)
            latest[key] = price
        self.version += len(updates)
        symbols = tuple([key for key, _ in updates])
        if symbols != self._batch_symbols:
            self._batch_symbols = symbols
            self._batch_oracle = (self.config.name,) * len(symbols)
        columns = {
            "symbol": self._batch_symbols,
            "price": array("d", [price for _, price in updates]),
            "oracle": self._batch_oracle,
        }
        self.chain.emit_events("AnswerUpdated", self.address, columns)

    def update_from_feed(self, block_number: int | None = None) -> list[str]:
        """Post fresh prices for every symbol whose policy triggers an update.

        Every symbol is decided first, then the triggered ones are posted
        together: one :meth:`~repro.chain.chain.Blockchain.emit_events`
        call for the lot, the same logs and state that posting each symbol
        with :meth:`post_price` in sorted order leaves.  Returns the list of
        symbols that were updated (the posted ``(symbol, price)`` pairs are
        kept on :attr:`last_updates`).  Overridden symbols (see
        :meth:`set_override`) keep their override until cleared, modelling a
        stuck or manipulated reporter.
        """
        block = self.chain.current_block if block_number is None else block_number
        updates: list[tuple[str, float]] = []
        # One feed row per call: the block maps to a step once, not per symbol.
        market = self.feed.prices_at(block) if self.feed.series else {}
        # Feed symbols are upper-case already: read the per-symbol state
        # directly instead of through the case-folding accessors.
        overrides = self._overrides
        latest = self._latest
        blocks = self._blocks
        threshold = self.config.deviation_threshold
        heartbeat = self.config.heartbeat_blocks
        for symbol, market_price in sorted(market.items()):
            posted = overrides.get(symbol, market_price)
            current = latest.get(symbol)
            # Due when never posted, when the heartbeat has passed since the
            # last post, or when the price moved by the deviation threshold.
            if (
                current is None
                or block - blocks[symbol][-1] >= heartbeat
                or (abs(posted - current) / current if current else float("inf")) >= threshold
            ):
                updates.append((symbol, float(posted)))
        self._post(updates, block)
        self.last_updates = updates
        return [symbol for symbol, _ in updates]

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
    def price(self, symbol: str) -> float:
        """Latest posted price of ``symbol`` in USD.

        Falls back to the market feed when nothing has been posted yet, so
        that freshly constructed scenarios always have a price.
        """
        posted = self._latest.get(symbol.upper())
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
                return self._prices[key][index]
        return self.feed.price(symbol, block_number)

    def value_usd(self, symbol: str, amount: float) -> float:
        """USD value of ``amount`` units of ``symbol`` at the latest price."""
        return amount * self.price(symbol)

    def history(self, symbol: str) -> list[tuple[int, float]]:
        """Full posted history of ``symbol`` as ``(block, price)`` pairs."""
        key = symbol.upper()
        return list(zip(self._blocks.get(key, ()), self._prices.get(key, ())))
