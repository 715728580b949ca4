"""Unit tests for the MakerDAO CDP engine and its auction liquidations."""

import pytest

from repro.chain.transaction import TransactionReverted
from repro.chain.types import make_address
from repro.core.auction import AuctionConfig, AuctionPhase
from repro.observers.events import BlockMined, InterestAccrued
from repro.observers.probes import HealthSampler
from repro.protocols.base import ProtocolError
from repro.protocols.makerdao import make_makerdao


@pytest.fixture()
def makerdao(chain, oracle, registry):
    protocol = make_makerdao(chain, oracle, registry)
    protocol.reconfigure_auctions(AuctionConfig(auction_length_blocks=100, bid_duration_blocks=30))
    return protocol


@pytest.fixture()
def vault_owner(makerdao, registry):
    owner = make_address("vault-owner")
    registry.get("ETH").mint(owner, 10.0)
    makerdao.deposit(owner, "ETH", 10.0)  # 20,000 USD at LT 1/1.5
    makerdao.borrow(owner, "DAI", 12_000.0)
    return owner


@pytest.fixture()
def keeper(registry):
    keeper = make_address("keeper")
    registry.get("DAI").mint(keeper, 100_000.0)
    return keeper


class TestCdp:
    def test_borrow_mints_dai(self, makerdao, vault_owner, registry):
        assert registry.get("DAI").balance_of(vault_owner) == pytest.approx(12_000.0)
        assert makerdao.position_of(vault_owner).debt["DAI"] == pytest.approx(12_000.0)

    def test_only_dai_can_be_minted(self, makerdao, vault_owner):
        with pytest.raises(ProtocolError):
            makerdao.borrow(vault_owner, "USDC", 100.0)

    def test_dai_cannot_be_used_as_collateral(self, makerdao, registry):
        user = make_address("dai-depositor")
        registry.get("DAI").mint(user, 100.0)
        with pytest.raises(ProtocolError):
            makerdao.deposit(user, "DAI", 100.0)

    def test_minting_beyond_capacity_rejected(self, makerdao, vault_owner):
        with pytest.raises(ProtocolError):
            makerdao.borrow(vault_owner, "DAI", 5_000.0)

    def test_repay_burns_dai(self, makerdao, vault_owner, registry):
        supply_before = registry.get("DAI").total_supply
        makerdao.repay(vault_owner, "DAI", 2_000.0)
        assert registry.get("DAI").total_supply == pytest.approx(supply_before - 2_000.0)

    def test_stability_fee_accrues(self, makerdao, vault_owner, chain):
        for _ in range(100):
            chain.mine_block()
        makerdao.accrue_interest()
        assert makerdao.position_of(vault_owner).debt["DAI"] > 12_000.0

    def test_mechanism_is_auction(self, makerdao):
        assert makerdao.liquidation_mechanism() == "auction"


class TestAuctionLiquidation:
    def _make_unsafe(self, oracle):
        oracle.post_price("ETH", 1_500.0)  # capacity 10*1500/1.5 = 10,000 < 12,000 debt

    def test_bite_requires_unsafe_vault(self, makerdao, vault_owner, keeper):
        with pytest.raises(TransactionReverted):
            makerdao.bite(keeper, vault_owner)

    def test_bite_escrows_collateral_and_emits_event(self, makerdao, vault_owner, keeper, oracle, chain):
        self._make_unsafe(oracle)
        auction = makerdao.bite(keeper, vault_owner)
        assert auction.collateral_lot == pytest.approx(10.0)
        assert "ETH" not in makerdao.position_of(vault_owner).collateral
        assert len(chain.events.by_name("Bite")) == 1

    def test_double_bite_reverts(self, makerdao, vault_owner, keeper, oracle):
        self._make_unsafe(oracle)
        makerdao.bite(keeper, vault_owner)
        with pytest.raises(TransactionReverted):
            makerdao.bite(keeper, vault_owner)

    def test_tend_dent_deal_flow(self, makerdao, vault_owner, keeper, oracle, registry, chain):
        self._make_unsafe(oracle)
        auction = makerdao.bite(keeper, vault_owner)
        makerdao.tend(keeper, auction.auction_id, auction.debt_target)
        assert auction.phase is AuctionPhase.DENT
        makerdao.dent(keeper, auction.auction_id, 9.0)
        for _ in range(40):
            chain.mine_block()
        settlement = makerdao.deal(keeper, auction.auction_id)
        assert settlement.winner == keeper
        assert settlement.debt_repaid == pytest.approx(auction.debt_target)
        assert settlement.collateral_won == pytest.approx(9.0)
        # The leftover collateral goes back to the vault.
        assert makerdao.position_of(vault_owner).collateral["ETH"] == pytest.approx(1.0)
        assert registry.get("ETH").balance_of(keeper) == pytest.approx(9.0)
        assert not makerdao.position_of(vault_owner).has_debt

    def test_deal_before_expiry_reverts(self, makerdao, vault_owner, keeper, oracle):
        self._make_unsafe(oracle)
        auction = makerdao.bite(keeper, vault_owner)
        makerdao.tend(keeper, auction.auction_id, 5_000.0)
        with pytest.raises(TransactionReverted):
            makerdao.deal(keeper, auction.auction_id)

    def test_unbid_auction_returns_collateral(self, makerdao, vault_owner, keeper, oracle, chain):
        self._make_unsafe(oracle)
        auction = makerdao.bite(keeper, vault_owner)
        for _ in range(150):
            chain.mine_block()
        settlement = makerdao.deal(keeper, auction.auction_id)
        assert settlement.winner is None
        assert makerdao.position_of(vault_owner).collateral["ETH"] == pytest.approx(10.0)

    def test_tend_phase_only_winner_repays_partial_debt(self, makerdao, vault_owner, keeper, oracle, chain, registry):
        self._make_unsafe(oracle)
        auction = makerdao.bite(keeper, vault_owner)
        makerdao.tend(keeper, auction.auction_id, 6_000.0)
        for _ in range(40):
            chain.mine_block()
        settlement = makerdao.deal(keeper, auction.auction_id)
        assert settlement.collateral_won == pytest.approx(10.0)
        assert settlement.debt_repaid == pytest.approx(6_000.0)
        # The unpaid remainder of the debt stays with the vault owner.
        assert makerdao.position_of(vault_owner).debt["DAI"] == pytest.approx(6_000.0)

    def test_health_sampler_skips_vaults_in_a_running_auction(
        self, makerdao, vault_owner, keeper, oracle, chain, registry
    ):
        samples = []
        sampler = HealthSampler([makerdao], 1.1, samples.append)

        def rescan() -> list[str]:
            before = len(samples)
            sampler.on_event(InterestAccrued(0, chain.current_block, protocols=(makerdao.name,)))
            sampler.on_event(BlockMined(0, chain.current_block, 0, 0, 1))
            return [sample.owner for sample in samples[before:]]

        self._make_unsafe(oracle)
        assert rescan() == [vault_owner.value]
        auction = makerdao.bite(keeper, vault_owner)
        assert makerdao.owners_in_auction() == {vault_owner.value}
        # HF 0.0 while the collateral is escrowed, but already being liquidated.
        assert rescan() == []
        makerdao.tend(keeper, auction.auction_id, 6_000.0)
        for _ in range(40):
            chain.mine_block()
        makerdao.deal(keeper, auction.auction_id)
        assert makerdao.owners_in_auction() == frozenset()
        # The unpaid remainder stays on the emptied vault, whose collateral
        # is worth 0: bad debt, which nothing can liquidate, so not sampled.
        assert makerdao.position_of(vault_owner).debt["DAI"] == pytest.approx(6_000.0)
        assert rescan() == []
        # Collateral again (1,500 USD against 6,000 DAI): sampled again.
        registry.get("ETH").mint(vault_owner, 1.0)
        makerdao.deposit(vault_owner, "ETH", 1.0)
        assert rescan() == [vault_owner.value]

    def test_open_auctions_index_matches_a_filter_over_every_auction(
        self, makerdao, vault_owner, keeper, oracle, chain, registry
    ):
        second_owner = make_address("second-vault-owner")
        registry.get("ETH").mint(second_owner, 10.0)
        makerdao.deposit(second_owner, "ETH", 10.0)
        makerdao.borrow(second_owner, "DAI", 12_000.0)
        self._make_unsafe(oracle)
        first = makerdao.bite(keeper, vault_owner)
        second = makerdao.bite(keeper, second_owner)

        def filtered():
            return [auction for auction in makerdao.auctions.values() if auction.phase is not AuctionPhase.FINALIZED]

        assert makerdao.open_auctions() == filtered() == [first, second]
        for _ in range(150):
            chain.mine_block()
        makerdao.deal(keeper, first.auction_id)
        assert makerdao.open_auctions() == filtered() == [second]
        second.finalize(chain.current_block)  # finalized without a deal
        assert makerdao.open_auctions() == filtered() == []

    def test_reconfigure_emits_event(self, makerdao, chain):
        before = len(chain.events.by_name("AuctionParamsChanged"))
        makerdao.reconfigure_auctions(AuctionConfig(auction_length_blocks=500, bid_duration_blocks=200))
        assert len(chain.events.by_name("AuctionParamsChanged")) == before + 1
        assert makerdao.auction_config.auction_length_blocks == 500
