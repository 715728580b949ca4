"""Shared lending-pool machinery used by all four protocol implementations.

The paper's system model (Figure 1) has lenders/borrowers interacting with a
pool contract, a price oracle feeding prices, and liquidators closing
unhealthy positions.  :class:`LendingProtocol` implements the pool: asset
custody through the token ledgers, per-market configuration, interest
accrual, position accounting, and the health-factor queries the analytics
layer and the agents need.  Protocol-specific liquidation flows live in the
subclasses.
"""

from __future__ import annotations

import abc
from array import array
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .. import sanitize
from ..chain.chain import Blockchain
from ..chain.types import Address
from ..core.position import DUST, Position
from ..core.position_book import BookScan, BookValuation, PositionBook
from ..core.terminology import LiquidationParams
from ..oracle.chainlink import PriceOracle
from ..telemetry import runtime as telemetry
from ..tokens.registry import TokenRegistry
from .interest import KinkedRateModel


class ProtocolError(Exception):
    """Raised on user actions that the protocol rules forbid."""


@dataclass
class MarketConfig:
    """Per-asset market parameters of a lending pool.

    Attributes
    ----------
    symbol:
        Asset symbol of the market.
    liquidation_threshold:
        LT for this asset when used as collateral.
    liquidation_spread:
        LS paid to liquidators seizing this collateral.
    collateral_enabled / borrow_enabled:
        Whether the asset may be used as collateral / borrowed.
    """

    symbol: str
    liquidation_threshold: float
    liquidation_spread: float
    collateral_enabled: bool = True
    borrow_enabled: bool = True
    interest_model: KinkedRateModel = field(default_factory=KinkedRateModel)


class SnapshotPositions(Sequence[dict[str, Any]]):
    """The ``positions`` rows of one archived snapshot, kept as columns.

    Each row reads as the dict the archive has always held: ``{"owner":
    owner address, "collateral": {symbol: amount}, "debt": {symbol:
    amount}, "health_factor": hf}``, with the position's entries in its own
    insertion order (explicit ``0.0`` and sub-dust amounts included).  What
    is stored is one owner string, one interned collateral-key tuple and
    one interned debt-key tuple per row, and the amounts and health
    factors in flat ``array("d")`` s, so a snapshot of a ``paper-full``
    book is a few containers instead of three dicts per position.  Rows
    are built on read; the sequence is read-only.
    """

    __slots__ = ("_owners", "_collateral_keys", "_debt_keys", "_starts", "_amounts", "_health_factors")

    def __init__(
        self, valued: Iterable[tuple[Position, float]], key_tuples: dict[tuple[str, ...], tuple[str, ...]]
    ) -> None:
        """Capture each ``(position, health_factor)`` pair as a row.

        ``key_tuples`` interns the key tuples: equal tuples of every
        snapshot that shares it are one object.
        """
        owners: list[str] = []
        collateral_keys: list[tuple[str, ...]] = []
        debt_keys: list[tuple[str, ...]] = []
        starts = array("q")
        amounts = array("d")
        health_factors = array("d")
        for position, health_factor in valued:
            collateral = position.collateral
            debt = position.debt
            owners.append(position.owner.value)
            keys = tuple(collateral)
            collateral_keys.append(key_tuples.setdefault(keys, keys))
            keys = tuple(debt)
            debt_keys.append(key_tuples.setdefault(keys, keys))
            starts.append(len(amounts))
            amounts.extend(collateral.values())
            amounts.extend(debt.values())
            health_factors.append(health_factor)
        self._owners = owners
        self._collateral_keys = collateral_keys
        self._debt_keys = debt_keys
        #: Per row, where its collateral amounts start in ``_amounts``; its
        #: debt amounts follow them.
        self._starts = starts
        self._amounts = amounts
        self._health_factors = health_factors

    def __len__(self) -> int:
        return len(self._owners)

    def _row(self, index: int) -> dict[str, Any]:
        collateral_keys = self._collateral_keys[index]
        debt_keys = self._debt_keys[index]
        start = self._starts[index]
        middle = start + len(collateral_keys)
        amounts = self._amounts
        return {
            "owner": self._owners[index],
            "collateral": dict(zip(collateral_keys, amounts[start:middle])),
            "debt": dict(zip(debt_keys, amounts[middle : middle + len(debt_keys)])),
            "health_factor": self._health_factors[index],
        }

    def __getitem__(self, index: Any) -> Any:
        rows = range(len(self))
        if isinstance(index, slice):
            return [self._row(row) for row in rows[index]]
        return self._row(rows[index])

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return map(self._row, range(len(self)))

    def collateral_of_debtors(self, debt_symbol: str, collateral_symbol: str) -> Iterator[float]:
        """In row order, each row owing ``debt_symbol``: its ``collateral_symbol`` amount.

        The amount is ``row["collateral"].get(collateral_symbol, 0.0)`` of
        every row with ``debt_symbol`` in ``row["debt"]``, read straight
        from the columns without building the rows.
        """
        amounts = self._amounts
        for collateral_keys, debt_keys, start in zip(self._collateral_keys, self._debt_keys, self._starts):
            if debt_symbol not in debt_keys:
                continue
            if collateral_symbol in collateral_keys:
                yield amounts[start + collateral_keys.index(collateral_symbol)]
            else:
                yield 0.0


class LendingProtocol(abc.ABC):
    """Base class of the four studied lending protocols."""

    #: Name of the liquidation event emitted by the concrete protocol.
    LIQUIDATION_EVENT = "Liquidation"

    def __init__(
        self,
        name: str,
        chain: Blockchain,
        oracle: PriceOracle,
        registry: TokenRegistry,
        close_factor: float,
        inception_block: int | None = None,
    ) -> None:
        self.name = name
        self.chain = chain
        self.oracle = oracle
        self.registry = registry
        self.close_factor = close_factor
        self.address = chain.new_address(name)
        self.markets: dict[str, MarketConfig] = {}
        self.positions: dict[Address, Position] = {}
        #: Columnar mirror of every position for vectorized health scans.
        self.book = PositionBook()
        self._valuation_cache: BookValuation | None = None
        self._valuation_key: tuple | None = None
        self._valuation_hits = 0
        self._prices: dict[str, float] = {}
        self._prices_key: tuple | None = None
        self._thresholds: dict[str, float] | None = None
        self._step_scan: BookScan | None = None
        self._step_scan_key: tuple | None = None
        #: Interned key tuples shared by every archived snapshot's rows.
        self._snapshot_keys: dict[tuple[str, ...], tuple[str, ...]] = {}
        self.inception_block = chain.current_block if inception_block is None else inception_block
        self._total_borrowed_usd_estimate = 0.0
        self._last_accrual_block = self.chain.current_block
        chain.register_snapshot_provider(self.name, self.snapshot)

    # ------------------------------------------------------------------ #
    # Market configuration
    # ------------------------------------------------------------------ #
    def add_market(self, market: MarketConfig) -> MarketConfig:
        """Register a market (idempotent per symbol)."""
        self.markets[market.symbol.upper()] = market
        self._prices_key = None
        self._thresholds = None
        self._step_scan = None
        # Pre-register the asset column so the book's matrices do not need
        # to grow mid-run when the first deposit of the asset arrives.
        self.book.ensure_asset(market.symbol)
        return market

    def market(self, symbol: str) -> MarketConfig:
        """Return the market config for ``symbol`` or raise :class:`ProtocolError`."""
        try:
            return self.markets[symbol.upper()]
        except KeyError as exc:
            raise ProtocolError(f"{self.name} has no {symbol} market") from exc

    def liquidation_thresholds(self) -> dict[str, float]:
        """Per-asset LT mapping used by health-factor computations.

        Built once per market set (:meth:`add_market` rebuilds it); each
        call returns a fresh dict.
        """
        if self._thresholds is None:
            self._thresholds = {symbol: market.liquidation_threshold for symbol, market in self.markets.items()}
        return dict(self._thresholds)

    def params_for(self, collateral_symbol: str) -> LiquidationParams:
        """Liquidation parameters applicable when seizing ``collateral_symbol``."""
        market = self.market(collateral_symbol)
        return LiquidationParams(
            liquidation_threshold=market.liquidation_threshold,
            liquidation_spread=market.liquidation_spread,
            close_factor=self.close_factor,
        )

    # ------------------------------------------------------------------ #
    # Prices
    # ------------------------------------------------------------------ #
    def _price_key(self) -> tuple:
        """What :meth:`prices` depends on: the block, the oracle and its post
        version (see :attr:`PriceOracle.version`)."""
        oracle = self.oracle
        return (self.chain.current_block, getattr(oracle, "version", 0), oracle)

    def prices(self) -> dict[str, float]:
        """Latest oracle prices for every configured market.

        Built once per :meth:`_price_key`, the key :meth:`valuation` also
        trusts; each call returns a fresh dict.
        """
        key = self._price_key()
        if key != self._prices_key:
            self._prices = {symbol: self.oracle.price(symbol) for symbol in self.markets}
            self._prices_key = key
        return dict(self._prices)

    # ------------------------------------------------------------------ #
    # Positions
    # ------------------------------------------------------------------ #
    def position_of(self, user: Address) -> Position:
        """Return (creating if needed) the position of ``user``."""
        position = self.positions.get(user)
        if position is None:
            position = Position(owner=user)
            self.positions[user] = position
            self.book.attach(position)
        return position

    def open_positions(self) -> list[Position]:
        """Positions that still carry debt or collateral."""
        return [position for position in self.positions.values() if not position.is_empty]

    def positions_with_debt(self) -> list[Position]:
        """Positions that still owe debt."""
        return [position for position in self.positions.values() if position.has_debt]

    def health_factor(self, user: Address) -> float:
        """Current health factor of ``user``'s position."""
        return self.position_of(user).health_factor(self.prices(), self.liquidation_thresholds())

    def is_liquidatable(self, user: Address) -> bool:
        """Whether ``user``'s position can currently be liquidated."""
        return self.position_of(user).is_liquidatable(self.prices(), self.liquidation_thresholds())

    def liquidatable_positions(self) -> list[Position]:
        """All positions whose health factor is below 1 at current prices."""
        return self.liquidatable_candidates()

    def step_scan(self) -> BookScan:
        """One vectorized :class:`BookScan` of every position at current prices.

        Synced, then cached per :meth:`_price_key` and book revision, so the
        borrower cohort, the fixed-spread liquidation scan and MakerDAO's
        bite scan share one pass per step; a top-up or any other position
        mutation in between moves the revision and rebuilds it.
        """
        self.book.sync()
        key = (self._price_key(), self.book.revision)
        if self._step_scan is None or self._step_scan_key != key:
            self._step_scan = self.book.scan(self.prices(), self.liquidation_thresholds())
            self._step_scan_key = key
        return self._step_scan

    def valuation(self) -> BookValuation:
        """The :class:`BookValuation` of every position at current prices.

        Cached per :meth:`_price_key` (block, oracle, oracle price version)
        and book revision: within one block, the snapshot providers, the analytics sweeps and the
        health-factor sampler all share a single sync + vectorized pass
        instead of refetching prices and revaluing the book each time.
        Any position mutation (book revision), posted price (oracle
        version), replaced oracle or block advance invalidates the cache, so a hit is
        exactly as fresh as a recomputation.  Market parameters
        (liquidation thresholds) are fixed at construction time — nothing
        in the simulation mutates them mid-run.
        """
        key = (*self._price_key(), self.book.revision)
        active = telemetry.active()
        cached = self._valuation_cache
        if cached is not None and self._valuation_key == key:
            if active is not None:
                active.counter(
                    "repro_valuation_cache_total",
                    "BookValuation cache lookups, by outcome",
                    ("platform", "outcome"),
                ).labels(platform=self.name, outcome="hit").inc()
            if sanitize.enabled():
                self._check_valuation_coherence(cached)
            return cached
        if active is not None:
            active.counter(
                "repro_valuation_cache_total",
                "BookValuation cache lookups, by outcome",
                ("platform", "outcome"),
            ).labels(platform=self.name, outcome="build").inc()
        with telemetry.span("protocol.valuation", {"platform": self.name}):
            valuation = self.book.valuation(self.prices(), self.liquidation_thresholds())
        # Re-read the revision: the sync inside ``valuation`` may have
        # registered new asset columns, which bumps it.
        self._valuation_key = (*key[:-1], self.book.revision)
        self._valuation_cache = valuation
        return valuation

    def _check_valuation_coherence(self, cached: BookValuation) -> None:
        """Sanitizer: a cache hit must be as fresh as a recomputation.

        Cheap checks on every hit: the cached valuation was built at the
        book's *current* revision (a stale hit means some mutation path
        forgot to bump the revision) and no dirty rows are pending behind
        an unchanged revision (someone touched ``_dirty`` directly).  Every
        sanitize-stride-th hit additionally rebuilds the valuation from the
        live book and compares the value matrices bitwise — the strongest
        statement that the cache key really covers every input.
        """
        if cached._built_at_revision != self.book.revision:
            raise sanitize.SanitizerError(
                f"{self.name} valuation cache hit is stale: cached at book "
                f"revision {cached._built_at_revision}, book is at "
                f"{self.book.revision}; a mutation path skipped the revision bump"
            )
        if self.book.dirty_rows:
            raise sanitize.SanitizerError(
                f"{self.name} valuation cache hit with {len(self.book.dirty_rows)} "
                "dirty rows pending behind an unchanged revision: rows were "
                "marked dirty without notifying the revision counter"
            )
        self._valuation_hits += 1
        if self._valuation_hits % sanitize.stride() == 0:
            rebuilt = self.book.valuation(self.prices(), self.liquidation_thresholds())
            if not (
                np.array_equal(rebuilt.collateral_values, cached.collateral_values)
                and np.array_equal(rebuilt.debt_values, cached.debt_values)
            ):
                raise sanitize.SanitizerError(
                    f"{self.name} cached valuation is not bitwise equal to a "
                    "fresh rebuild at the same cache key: an input the key "
                    "does not cover has changed (prices, thresholds or book rows)"
                )

    def liquidatable_candidates(self, require_collateral: bool = False) -> list[Position]:
        """Positions with HF < 1, found by the columnar scan.

        The book flags candidate rows with a safety margin and each flagged
        row is confirmed with the scalar health factor, so the result is
        exactly the set (and order) a scalar sweep over ``positions`` finds.

        This stays on the lean :class:`BookScan` (two matrix-vector
        products) of :meth:`step_scan` rather than the full
        :meth:`valuation` materialization: the per-stride opportunity scan
        runs on *every* block, while the aggregate consumers that amortize a
        shared valuation (snapshots, analytics, the health sampler) only run on some.
        """
        scan = self.step_scan()
        prices = self.prices()
        thresholds = self.liquidation_thresholds()
        candidates: list[Position] = []
        for row in scan.candidate_rows(require_collateral=require_collateral):
            position = self.book.position_at(int(row))
            # Bad debt: with no collateral entry BC is exactly 0, and a
            # flagged row's priced debt is > 0, so its HF is 0 < 1.
            if not position.collateral or position.is_liquidatable(prices, thresholds):
                candidates.append(position)
        return candidates

    # ------------------------------------------------------------------ #
    # User actions (Figure 1: collateralize / borrow / repay / withdraw)
    # ------------------------------------------------------------------ #
    def deposit(self, user: Address, symbol: str, amount: float) -> None:
        """Deposit ``amount`` of ``symbol`` as collateral."""
        market = self.market(symbol)
        if not market.collateral_enabled:
            raise ProtocolError(f"{symbol} cannot be used as collateral on {self.name}")
        if amount <= 0:
            raise ProtocolError("deposit amount must be positive")
        token = self.registry.get(symbol)
        token.transfer(user, self.address, amount)
        self.position_of(user).add_collateral(market.symbol, amount)
        self.chain.emit_event(
            "Deposit",
            emitter=self.address,
            data={"platform": self.name, "user": user.value, "symbol": market.symbol, "amount": amount},
        )

    def borrow(self, user: Address, symbol: str, amount: float) -> None:
        """Borrow ``amount`` of ``symbol`` against the caller's collateral."""
        market = self.market(symbol)
        if not market.borrow_enabled:
            raise ProtocolError(f"{symbol} cannot be borrowed on {self.name}")
        if amount <= 0:
            raise ProtocolError("borrow amount must be positive")
        token = self.registry.get(symbol)
        if token.balance_of(self.address) < amount:
            raise ProtocolError(f"{self.name} lacks {symbol} liquidity for the requested borrow")
        prices = self.prices()
        thresholds = self.liquidation_thresholds()
        position = self.position_of(user)
        prospective = position.copy()
        prospective.add_debt(market.symbol, amount)
        if prospective.health_factor(prices, thresholds) < 1.0:
            raise ProtocolError("borrow would exceed the borrowing capacity")
        token.transfer(self.address, user, amount)
        position.add_debt(market.symbol, amount)
        self._total_borrowed_usd_estimate += amount * prices.get(market.symbol, 0.0)
        self.chain.emit_event(
            "Borrow",
            emitter=self.address,
            data={"platform": self.name, "user": user.value, "symbol": market.symbol, "amount": amount},
        )

    def repay(self, user: Address, symbol: str, amount: float, payer: Address | None = None) -> float:
        """Repay up to ``amount`` of the user's ``symbol`` debt; returns the amount repaid."""
        market = self.market(symbol)
        position = self.position_of(user)
        owed = position.debt.get(market.symbol, 0.0)
        if owed <= DUST:
            raise ProtocolError(f"{user} owes no {symbol} on {self.name}")
        repay_amount = min(amount, owed)
        source = payer or user
        token = self.registry.get(symbol)
        token.transfer(source, self.address, repay_amount)
        position.reduce_debt(market.symbol, repay_amount)
        self.chain.emit_event(
            "Repay",
            emitter=self.address,
            data={"platform": self.name, "user": user.value, "symbol": market.symbol, "amount": repay_amount},
        )
        return repay_amount

    def withdraw(self, user: Address, symbol: str, amount: float) -> None:
        """Withdraw collateral, provided the position stays healthy."""
        market = self.market(symbol)
        position = self.position_of(user)
        held = position.collateral.get(market.symbol, 0.0)
        if amount > held + DUST:
            raise ProtocolError(f"cannot withdraw {amount} {symbol}; only {held} deposited")
        prospective = position.copy()
        prospective.remove_collateral(market.symbol, amount)
        if prospective.has_debt and prospective.health_factor(self.prices(), self.liquidation_thresholds()) < 1.0:
            raise ProtocolError("withdrawal would make the position liquidatable")
        token = self.registry.get(symbol)
        token.transfer(self.address, user, amount)
        position.remove_collateral(market.symbol, amount)
        self.chain.emit_event(
            "Withdraw",
            emitter=self.address,
            data={"platform": self.name, "user": user.value, "symbol": market.symbol, "amount": amount},
        )

    def supply_liquidity(self, lender: Address, symbol: str, amount: float) -> None:
        """Lender-side deposit: adds pool liquidity without opening a position."""
        market = self.market(symbol)
        token = self.registry.get(symbol)
        token.transfer(lender, self.address, amount)
        self.chain.emit_event(
            "Supply",
            emitter=self.address,
            data={"platform": self.name, "user": lender.value, "symbol": market.symbol, "amount": amount},
        )

    # ------------------------------------------------------------------ #
    # Interest
    # ------------------------------------------------------------------ #
    def utilization(self, symbol: str) -> float:
        """Borrowed share of the pool's liquidity for ``symbol`` (rough estimate).

        The per-symbol outstanding total comes from the book's debt column
        (bit-identical to the per-position walk — non-holders contribute
        exact zeros), so the per-market accrual sweep no longer crawls the
        whole population once per market.
        """
        token = self.registry.get(symbol)
        available = token.balance_of(self.address)
        borrowed = self.book.debt_total(symbol.upper())
        total = available + borrowed
        if total <= 0:
            return 0.0
        return borrowed / total

    def accrue_interest(self, to_block: int | None = None) -> None:
        """Grow every outstanding debt by the per-market accrual factor."""
        block = self.chain.current_block if to_block is None else to_block
        elapsed = block - self._last_accrual_block
        if elapsed <= 0:
            return
        factors = {
            symbol: market.interest_model.accrual_factor(self.utilization(symbol), elapsed)
            for symbol, market in self.markets.items()
        }
        for position in self._accrual_positions():
            position.scale_debts(factors)
        self._last_accrual_block = block

    def _accrual_positions(self) -> list[Position]:
        """The positions an accrual sweep must touch.

        Debt-free positions are skipped via the book's debt columns;
        ``scale_debts`` is a no-op on every skipped position, so the sweep
        mutates the same state as one over every position.
        """
        return self.book.positions_with_debt_entries()

    # ------------------------------------------------------------------ #
    # Aggregates and snapshots
    # ------------------------------------------------------------------ #
    def total_collateral_usd(self) -> float:
        """Total USD value of collateral locked in the protocol.

        One vectorized pass with a pinned reduction: bit-identical to the
        per-position walk in insertion order.
        """
        return self.valuation().pinned_total_collateral_usd()

    def total_debt_usd(self) -> float:
        """Total USD value of outstanding debt (pinned, as the collateral total)."""
        return self.valuation().pinned_total_debt_usd()

    def collateral_volume_usd(self, symbols: Iterable[str] | None = None) -> float:
        """USD value of collateral, optionally restricted to ``symbols``."""
        prices = self.prices()
        wanted = {symbol.upper() for symbol in symbols} if symbols is not None else None
        total = 0.0
        for position in self.positions.values():
            for symbol, amount in position.collateral.items():
                if wanted is not None and symbol not in wanted:
                    continue
                total += amount * prices.get(symbol, 0.0)
        return total

    def snapshot(self) -> dict[str, object]:
        """Archive snapshot of positions and aggregates at the current block.

        The totals and every position's health factor come from one shared
        :meth:`valuation` — the price vector is fetched once per snapshot
        instead of once per aggregate — and the pinned accessors keep the
        archived numbers bit-identical to the per-position walk.
        ``"positions"`` is a :class:`SnapshotPositions`: the open positions'
        rows, kept as columns and read as dicts.
        """
        valuation = self.valuation()
        prices = valuation.prices
        thresholds = valuation.thresholds
        total_collateral = valuation.pinned_total_collateral_usd()
        total_debt = valuation.pinned_total_debt_usd()
        health_factors = valuation.pinned_health_factors()
        open_rows = np.flatnonzero(valuation.has_debt | valuation.has_collateral)
        position_at = self.book.position_at
        valued = ((position_at(row), health_factors[row]) for row in open_rows.tolist())
        return {
            "block": self.chain.current_block,
            "platform": self.name,
            "prices": dict(prices),
            "thresholds": dict(thresholds),
            "total_collateral_usd": total_collateral,
            "total_debt_usd": total_debt,
            "positions": SnapshotPositions(valued, self._snapshot_keys),
        }

    # ------------------------------------------------------------------ #
    # Liquidation (protocol specific)
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def liquidation_mechanism(self) -> str:
        """Return ``"fixed-spread"`` or ``"auction"``."""

    def owners_in_auction(self) -> frozenset[str]:
        """Owners whose collateral sits in a running auction (none here)."""
        return frozenset()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r} positions={len(self.positions)}>"


def thresholds_from_markets(markets: Mapping[str, MarketConfig]) -> dict[str, float]:
    """Utility mirroring :meth:`LendingProtocol.liquidation_thresholds` for raw maps."""
    return {symbol: market.liquidation_threshold for symbol, market in markets.items()}
