"""MakerDAO (Section 3.3): collateralized debt positions and tend-dent auctions.

MakerDAO is not a pool-based lender: a user locks collateral (e.g. ETH) in a
CDP and *mints* DAI against it, with a minimum collateralization ratio of
150 % for most collateral types (equivalently a liquidation threshold of
1/1.5 ≈ 0.667).  When a CDP becomes unsafe anyone can ``bite`` it, starting a
two-phase tend-dent auction (Section 3.2.1); after the auction terminates,
``deal`` finalizes the liquidation and settles the transfers.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..chain.chain import Blockchain
from ..chain.transaction import TransactionReverted
from ..chain.types import Address
from ..core.auction import AuctionConfig, AuctionError, AuctionPhase, TendDentAuction
from ..oracle.chainlink import PriceOracle
from ..tokens.registry import TokenRegistry
from .base import LendingProtocol, MarketConfig, ProtocolError
from .interest import StabilityFeeModel

#: MakerDAO's inception block in the study window (footnote 5 of the paper).
MAKERDAO_INCEPTION_BLOCK = 8_040_587

#: Collateral types and their liquidation thresholds.  ETH-A style vaults
#: require a 150 % collateralization ratio ⇒ LT = 1/1.5; USDC-style vaults
#: use tighter ratios.
MAKERDAO_COLLATERAL: dict[str, float] = {
    "ETH": 1.0 / 1.50,
    "WBTC": 1.0 / 1.50,
    "USDC": 1.0 / 1.20,
    "BAT": 1.0 / 1.50,
    "LINK": 1.0 / 1.75,
    "UNI": 1.0 / 1.75,
    "ZRX": 1.0 / 1.75,
    "MANA": 1.0 / 1.75,
    "KNC": 1.0 / 1.75,
    "TUSD": 1.0 / 1.20,
    "USDT": 1.0 / 1.50,
    "COMP": 1.0 / 1.75,
    "AAVE": 1.0 / 1.75,
    "BAL": 1.0 / 1.75,
}


@dataclass(frozen=True)
class AuctionSettlement:
    """Outcome of a finalized MakerDAO auction."""

    auction_id: int
    borrower: Address
    winner: Address | None
    debt_repaid: float
    collateral_won: float
    collateral_returned: float
    duration_blocks: int


class MakerDAOProtocol(LendingProtocol):
    """MakerDAO-style CDP engine with tend-dent auction liquidations."""

    LIQUIDATION_EVENT = "Bite"

    def __init__(
        self,
        chain: Blockchain,
        oracle: PriceOracle,
        registry: TokenRegistry,
        collateral_types: dict[str, float] | None = None,
        auction_config: AuctionConfig | None = None,
        stability_fee: float = 0.02,
        inception_block: int = MAKERDAO_INCEPTION_BLOCK,
    ) -> None:
        super().__init__(
            name="MakerDAO",
            chain=chain,
            oracle=oracle,
            registry=registry,
            close_factor=1.0,
            inception_block=inception_block,
        )
        self.auction_config = auction_config or AuctionConfig()
        self.stability_fee_model = StabilityFeeModel(annual_rate=stability_fee)
        self.auctions: dict[int, TendDentAuction] = {}
        #: The auctions not yet seen finalized, in start order; see
        #: :meth:`open_auctions`.
        self._open_auctions: dict[int, TendDentAuction] = {}
        self.settlements: list[AuctionSettlement] = []
        self._next_auction_id = 1
        self.dai = registry.ensure("DAI")
        for symbol, threshold in (collateral_types or MAKERDAO_COLLATERAL).items():
            registry.ensure(symbol)
            self.add_market(
                MarketConfig(
                    symbol=symbol,
                    liquidation_threshold=threshold,
                    liquidation_spread=0.0,  # the auction discovers the discount
                    borrow_enabled=False,
                )
            )
        # DAI itself is the debt asset: it cannot be collateral on MakerDAO.
        self.add_market(
            MarketConfig(
                symbol="DAI",
                liquidation_threshold=0.0,
                liquidation_spread=0.0,
                collateral_enabled=False,
                borrow_enabled=True,
            )
        )

    def liquidation_mechanism(self) -> str:
        """MakerDAO liquidates through English auctions."""
        return "auction"

    # ------------------------------------------------------------------ #
    # CDP actions: DAI is minted on borrow and burned on repay
    # ------------------------------------------------------------------ #
    def borrow(self, user: Address, symbol: str, amount: float) -> None:
        """Mint DAI against the caller's vault collateral."""
        if symbol.upper() != "DAI":
            raise ProtocolError("MakerDAO vaults can only mint DAI")
        if amount <= 0:
            raise ProtocolError("borrow amount must be positive")
        prices = self.prices()
        thresholds = self.liquidation_thresholds()
        position = self.position_of(user)
        prospective = position.copy()
        prospective.add_debt("DAI", amount)
        if prospective.health_factor(prices, thresholds) < 1.0:
            raise ProtocolError("minting would exceed the vault's borrowing capacity")
        self.dai.mint(user, amount)
        position.add_debt("DAI", amount)
        self.chain.emit_event(
            "Borrow",
            emitter=self.address,
            data={"platform": self.name, "user": user.value, "symbol": "DAI", "amount": amount},
        )

    def repay(self, user: Address, symbol: str, amount: float, payer: Address | None = None) -> float:
        """Burn DAI to reduce the vault's debt."""
        if symbol.upper() != "DAI":
            raise ProtocolError("MakerDAO debt is denominated in DAI")
        position = self.position_of(user)
        owed = position.debt.get("DAI", 0.0)
        if owed <= 0:
            raise ProtocolError(f"{user} owes no DAI")
        repay_amount = min(amount, owed)
        source = payer or user
        self.dai.burn(source, repay_amount)
        position.reduce_debt("DAI", repay_amount)
        self.chain.emit_event(
            "Repay",
            emitter=self.address,
            data={"platform": self.name, "user": user.value, "symbol": "DAI", "amount": repay_amount},
        )
        return repay_amount

    def accrue_interest(self, to_block: int | None = None) -> None:
        """Apply the stability fee to every vault's DAI debt."""
        block = self.chain.current_block if to_block is None else to_block
        elapsed = block - self._last_accrual_block
        if elapsed <= 0:
            return
        factor = self.stability_fee_model.accrual_factor(0.0, elapsed)
        factors = {"DAI": factor}
        # Debt-free vaults are skipped via the book's debt columns (a no-op
        # for them either way); see LendingProtocol._accrual_positions.
        for position in self._accrual_positions():
            position.scale_debts(factors)
        self._last_accrual_block = block

    # ------------------------------------------------------------------ #
    # Auction liquidation: bite → tend/dent → deal
    # ------------------------------------------------------------------ #
    def bite(self, initiator: Address, borrower: Address, collateral_symbol: str | None = None) -> TendDentAuction:
        """Start a collateral auction for an unsafe vault (the public ``bite``)."""
        position = self.position_of(borrower)
        prices = self.prices()
        thresholds = self.liquidation_thresholds()
        if not position.is_liquidatable(prices, thresholds):
            raise TransactionReverted("vault is safe; cannot bite")
        if collateral_symbol is None:
            collateral_values = position.collateral_values(prices)
            if not collateral_values:
                raise TransactionReverted("vault holds no collateral")
            collateral_symbol = max(collateral_values, key=collateral_values.get)
        collateral_symbol = collateral_symbol.upper()
        collateral_lot = position.collateral.get(collateral_symbol, 0.0)
        if collateral_lot <= 0:
            raise TransactionReverted(f"vault holds no {collateral_symbol} collateral")
        debt_target = position.debt.get("DAI", 0.0)
        if debt_target <= 0:
            raise TransactionReverted("vault owes no DAI")
        auction = TendDentAuction(
            auction_id=self._next_auction_id,
            borrower=borrower,
            collateral_symbol=collateral_symbol,
            debt_symbol="DAI",
            collateral_lot=collateral_lot,
            debt_target=debt_target,
            start_block=self.chain.current_block,
            config=self.auction_config,
        )
        self._next_auction_id += 1
        self.auctions[auction.auction_id] = auction
        self._open_auctions[auction.auction_id] = auction
        # The collateral is escrowed (removed from the vault) for the
        # duration of the auction; the debt stays until the deal settles.
        position.remove_collateral(collateral_symbol, collateral_lot)
        self.chain.emit_event(
            "Bite",
            emitter=self.address,
            data={
                "platform": self.name,
                "auction_id": auction.auction_id,
                "borrower": borrower.value,
                "collateral_symbol": collateral_symbol,
                "collateral_lot": collateral_lot,
                "debt_target": debt_target,
                "initiator": initiator.value,
                "mechanism": "auction",
            },
        )
        return auction

    def auction(self, auction_id: int) -> TendDentAuction:
        """Look up an auction by id."""
        try:
            return self.auctions[auction_id]
        except KeyError as exc:
            raise ProtocolError(f"no auction with id {auction_id}") from exc

    def open_auctions(self) -> list[TendDentAuction]:
        """Auctions that have not been finalized yet, in start order.

        Read from an index that :meth:`bite` fills; entries found
        ``FINALIZED`` are dropped here, whichever path finalized them, so
        the list equals a filter over every auction ever started.
        """
        index = self._open_auctions
        for auction_id in [key for key, auction in index.items() if auction.phase is AuctionPhase.FINALIZED]:
            del index[auction_id]
        return list(index.values())

    def owners_in_auction(self) -> frozenset[str]:
        """Vaults whose collateral :meth:`bite` escrowed in an auction not yet finalized."""
        return frozenset(auction.borrower.value for auction in self.open_auctions())

    def tend(self, bidder: Address, auction_id: int, debt_bid: float) -> None:
        """Place a tend-phase bid: repay ``debt_bid`` DAI for the whole lot."""
        auction = self.auction(auction_id)
        try:
            auction.place_tend_bid(bidder, debt_bid, self.chain.current_block)
        except AuctionError as exc:
            raise TransactionReverted(str(exc)) from exc
        self.chain.emit_event(
            "Tend",
            emitter=self.address,
            data={
                "platform": self.name,
                "auction_id": auction_id,
                "bidder": bidder.value,
                "debt_bid": debt_bid,
            },
        )

    def dent(self, bidder: Address, auction_id: int, collateral_bid: float) -> None:
        """Place a dent-phase bid: accept only ``collateral_bid`` for the full debt."""
        auction = self.auction(auction_id)
        try:
            auction.place_dent_bid(bidder, collateral_bid, self.chain.current_block)
        except AuctionError as exc:
            raise TransactionReverted(str(exc)) from exc
        self.chain.emit_event(
            "Dent",
            emitter=self.address,
            data={
                "platform": self.name,
                "auction_id": auction_id,
                "bidder": bidder.value,
                "collateral_bid": collateral_bid,
            },
        )

    def deal(self, caller: Address, auction_id: int) -> AuctionSettlement:
        """Finalize a terminated auction and settle the transfers."""
        auction = self.auction(auction_id)
        try:
            winning_bid = auction.finalize(self.chain.current_block)
        except AuctionError as exc:
            raise TransactionReverted(str(exc)) from exc
        borrower_position = self.position_of(auction.borrower)
        collateral_token = self.registry.get(auction.collateral_symbol)
        if winning_bid is None:
            # Nobody bid: the collateral goes back to the vault untouched.
            borrower_position.add_collateral(auction.collateral_symbol, auction.collateral_lot)
            settlement = AuctionSettlement(
                auction_id=auction_id,
                borrower=auction.borrower,
                winner=None,
                debt_repaid=0.0,
                collateral_won=0.0,
                collateral_returned=auction.collateral_lot,
                duration_blocks=auction.duration_blocks() or 0,
            )
        else:
            winner = winning_bid.bidder
            debt_repaid = winning_bid.debt_bid
            collateral_won = winning_bid.collateral_bid
            collateral_returned = auction.collateral_lot - collateral_won
            # The winner burns DAI to cover the repaid debt and receives the
            # escrowed collateral; leftover collateral returns to the vault.
            self.dai.burn(winner, debt_repaid)
            collateral_token.mint(winner, 0.0)  # ensure ledger entry exists
            collateral_token_balance_source = self.address
            # Collateral was escrowed off the vault but remains in protocol
            # custody on the token ledger; transfer it out now.
            collateral_token.transfer(collateral_token_balance_source, winner, collateral_won)
            if collateral_returned > 0:
                borrower_position.add_collateral(auction.collateral_symbol, collateral_returned)
            borrower_position.reduce_debt("DAI", min(debt_repaid, borrower_position.debt.get("DAI", 0.0)))
            settlement = AuctionSettlement(
                auction_id=auction_id,
                borrower=auction.borrower,
                winner=winner,
                debt_repaid=debt_repaid,
                collateral_won=collateral_won,
                collateral_returned=collateral_returned,
                duration_blocks=auction.duration_blocks() or 0,
            )
        self.settlements.append(settlement)
        self.chain.emit_event(
            "Deal",
            emitter=self.address,
            data={
                "platform": self.name,
                "auction_id": auction_id,
                "caller": caller.value,
                "winner": settlement.winner.value if settlement.winner else None,
                "borrower": auction.borrower.value,
                "collateral_symbol": auction.collateral_symbol,
                "debt_repaid": settlement.debt_repaid,
                "collateral_won": settlement.collateral_won,
                "collateral_returned": settlement.collateral_returned,
                "duration_blocks": settlement.duration_blocks,
                "n_bids": auction.n_bids,
                "n_tend_bids": auction.n_tend_bids,
                "n_dent_bids": auction.n_dent_bids,
                "n_bidders": auction.n_bidders,
                "first_bid_delay_blocks": auction.first_bid_delay_blocks(),
                "bid_interval_blocks": auction.bid_interval_blocks(),
                "terminated_in_tend": auction.terminated_in_tend,
                "mechanism": "auction",
            },
        )
        return settlement

    def reconfigure_auctions(self, config: AuctionConfig) -> None:
        """Change the auction parameters for *future* auctions.

        MakerDAO did exactly this after the March 2020 incident, which is why
        Figure 7 shows the configured bid duration / auction length shifting.
        """
        self.auction_config = config
        self.chain.emit_event(
            "AuctionParamsChanged",
            emitter=self.address,
            data={
                "platform": self.name,
                "auction_length_blocks": config.auction_length_blocks,
                "bid_duration_blocks": config.bid_duration_blocks,
            },
        )


def make_makerdao(chain: Blockchain, oracle: PriceOracle, registry: TokenRegistry) -> MakerDAOProtocol:
    """MakerDAO with the paper's collateral types and inception block."""
    return MakerDAOProtocol(chain, oracle, registry)
