"""Unit tests for the agent behaviours on a minimal hand-built engine."""

import numpy as np
import pytest

from repro.agents.arbitrageur import ArbitrageurAgent
from repro.agents.borrower import BorrowerAgent, BorrowerProfile
from repro.agents.keeper import AuctionKeeperAgent, KeeperProfile
from repro.agents.lender import LenderAgent
from repro.agents.liquidator import LiquidatorAgent, LiquidatorProfile
from repro.amm.pool import ConstantProductPool
from repro.amm.router import AmmRouter
from repro.chain.chain import Blockchain, ChainConfig
from repro.chain.types import make_address
from repro.core.auction import AuctionConfig
from repro.flashloan.pool import FlashLoanPool, FlashLoanProvider
from repro.oracle.chainlink import PriceOracle
from repro.protocols.compound import make_compound
from repro.protocols.makerdao import make_makerdao
from repro.simulation.config import ScenarioConfig
from repro.simulation.engine import SimulationEngine
from repro.simulation.market import MarketMaker
from repro.tokens.registry import default_registry


def make_mini_engine(flat_feed):
    """A tiny engine with Compound + MakerDAO, funded pools and flash loans."""
    config = ScenarioConfig.small(seed=5).with_overrides(
        start_block=1_000, end_block=3_000, blocks_per_step=10, feed_blocks_per_step=10
    )
    registry = default_registry()
    chain = Blockchain(ChainConfig(inception_block=1_000, blocks_per_step=10))
    oracle = PriceOracle(chain, flat_feed)
    oracle.update_from_feed()
    compound = make_compound(chain, oracle, registry)
    compound.inception_block = 1_000
    makerdao = make_makerdao(chain, oracle, registry)
    makerdao.inception_block = 1_000
    makerdao.reconfigure_auctions(AuctionConfig(auction_length_blocks=40, bid_duration_blocks=15))
    flash = FlashLoanProvider()
    dai_pool = FlashLoanPool(platform="dYdX", token=registry.get("DAI"), fee_rate=0.0, chain=chain)
    funder = make_address("funder")
    registry.get("DAI").mint(funder, 10_000_000.0)
    dai_pool.fund(funder, 10_000_000.0)
    flash.register(dai_pool)
    engine = SimulationEngine(
        config=config,
        chain=chain,
        registry=registry,
        feed=flat_feed,
        oracle=oracle,
        protocols=[compound, makerdao],
        flash_loans=flash,
        amm=AmmRouter(),
        market_maker=MarketMaker(oracle=oracle, registry=registry),
    )
    return engine, compound, makerdao


@pytest.fixture()
def mini_engine(flat_feed):
    return make_mini_engine(flat_feed)


def join(engine, agent):
    """Add ``agent`` to ``engine`` (which mints its address) and return it."""
    engine.add_agent(agent)
    return agent


class TestLenderAndBorrower:
    def test_lender_supplies_liquidity_once(self, mini_engine):
        engine, compound, _ = mini_engine
        lender = join(engine, LenderAgent("lender", np.random.default_rng(0), compound, {"DAI": 1_000_000.0}))
        lender.act(engine)
        lender.act(engine)
        assert engine.registry.get("DAI").balance_of(compound.address) == pytest.approx(1_000_000.0)

    def test_borrower_opens_position_at_target_health(self, mini_engine):
        engine, compound, _ = mini_engine
        join(engine, LenderAgent("lender", np.random.default_rng(0), compound, {"DAI": 1_000_000.0})).act(engine)
        profile = BorrowerProfile(collateral_symbols=("ETH",), debt_symbol="DAI", collateral_usd=20_000.0, target_health_factor=1.25)
        borrower = join(engine, BorrowerAgent("borrower", np.random.default_rng(1), compound, profile))
        borrower.act(engine)
        assert borrower.opened
        health = compound.health_factor(borrower.address)
        assert health == pytest.approx(1.25, rel=0.05)

    def test_attentive_borrower_tops_up_after_price_drop(self, mini_engine):
        engine, compound, _ = mini_engine
        join(engine, LenderAgent("lender", np.random.default_rng(0), compound, {"DAI": 1_000_000.0})).act(engine)
        profile = BorrowerProfile(
            collateral_symbols=("ETH",), debt_symbol="DAI", collateral_usd=20_000.0,
            target_health_factor=1.2, attentive=True, topup_trigger=1.1,
        )
        borrower = join(engine, BorrowerAgent("borrower", np.random.default_rng(1), compound, profile))
        borrower.act(engine)
        engine.oracle.post_price("ETH", 1_700.0)
        borrower.act(engine)
        assert compound.health_factor(borrower.address) >= 1.1

    def test_inattentive_borrower_never_tops_up(self, mini_engine):
        engine, compound, _ = mini_engine
        join(engine, LenderAgent("lender", np.random.default_rng(0), compound, {"DAI": 1_000_000.0})).act(engine)
        profile = BorrowerProfile(
            collateral_symbols=("ETH",), debt_symbol="DAI", collateral_usd=20_000.0,
            target_health_factor=1.1, attentive=False,
        )
        borrower = join(engine, BorrowerAgent("borrower", np.random.default_rng(1), compound, profile))
        borrower.act(engine)
        engine.oracle.post_price("ETH", 1_600.0)
        borrower.act(engine)
        assert compound.is_liquidatable(borrower.address)


class TestLiquidator:
    def _open_unhealthy_position(self, engine, compound):
        join(engine, LenderAgent("lender", np.random.default_rng(0), compound, {"DAI": 1_000_000.0})).act(engine)
        profile = BorrowerProfile(collateral_symbols=("ETH",), debt_symbol="DAI", collateral_usd=50_000.0, target_health_factor=1.05, attentive=False)
        borrower = join(engine, BorrowerAgent("victim", np.random.default_rng(1), compound, profile))
        borrower.act(engine)
        engine.oracle.post_price("ETH", 1_800.0)
        return borrower

    def test_liquidator_submits_and_profits(self, mini_engine):
        engine, compound, _ = mini_engine
        borrower = self._open_unhealthy_position(engine, compound)
        profile = LiquidatorProfile(detection_probability=1.0, flash_loan_probability=0.0, min_profit_margin=1.0)
        liquidator = join(engine, LiquidatorAgent("bot", np.random.default_rng(2), profile))
        liquidator.act(engine)
        assert liquidator.liquidations_attempted == 1
        block = engine.chain.mine_block()
        assert any(receipt.succeeded for receipt in block.receipts)
        assert len(engine.chain.events.by_name("LiquidateBorrow")) == 1
        assert compound.health_factor(borrower.address) > 1.0 or not compound.is_liquidatable(borrower.address)

    def test_flash_loan_liquidation_emits_flash_loan_event(self, mini_engine):
        engine, compound, _ = mini_engine
        self._open_unhealthy_position(engine, compound)
        profile = LiquidatorProfile(detection_probability=1.0, flash_loan_probability=1.0, min_profit_margin=1.0)
        join(engine, LiquidatorAgent("flash-bot", np.random.default_rng(3), profile)).act(engine)
        engine.chain.mine_block()
        assert len(engine.chain.events.by_name("FlashLoan")) == 1
        assert len(engine.chain.events.by_name("LiquidateBorrow")) == 1

    def test_liquidator_skips_unprofitable_opportunities(self, mini_engine):
        engine, compound, _ = mini_engine
        join(engine, LenderAgent("lender", np.random.default_rng(0), compound, {"DAI": 1_000_000.0})).act(engine)
        profile = BorrowerProfile(collateral_symbols=("ETH",), debt_symbol="DAI", collateral_usd=30.0, target_health_factor=1.05, attentive=False)
        join(engine, BorrowerAgent("dust", np.random.default_rng(1), compound, profile)).act(engine)
        engine.oracle.post_price("ETH", 1_800.0)
        bot = join(engine, LiquidatorAgent("bot", np.random.default_rng(2), LiquidatorProfile(detection_probability=1.0, min_profit_margin=1.5)))
        bot.act(engine)
        assert bot.liquidations_attempted == 0

    def test_competition_second_liquidator_reverts(self, mini_engine):
        engine, compound, _ = mini_engine
        self._open_unhealthy_position(engine, compound)
        profile = LiquidatorProfile(detection_probability=1.0, flash_loan_probability=0.0, min_profit_margin=1.0)
        join(engine, LiquidatorAgent("bot-a", np.random.default_rng(4), profile)).act(engine)
        join(engine, LiquidatorAgent("bot-b", np.random.default_rng(5), profile)).act(engine)
        block = engine.chain.mine_block()
        liquidation_receipts = [r for r in block.receipts if r.kind.value == "liquidation"]
        assert len(liquidation_receipts) == 2
        assert sum(1 for r in liquidation_receipts if r.succeeded) >= 1
        assert len(engine.chain.events.by_name("LiquidateBorrow")) <= 2


class TestKeeper:
    def _open_unsafe_vault(self, engine, makerdao):
        owner = make_address("vault")
        engine.registry.get("ETH").mint(owner, 10.0)
        makerdao.deposit(owner, "ETH", 10.0)
        makerdao.borrow(owner, "DAI", 12_000.0)
        engine.oracle.post_price("ETH", 1_500.0)
        return owner

    def test_keeper_bites_bids_and_deals(self, mini_engine):
        engine, _, makerdao = mini_engine
        self._open_unsafe_vault(engine, makerdao)
        keeper = join(engine, AuctionKeeperAgent(
            "keeper", np.random.default_rng(6), makerdao,
            KeeperProfile(detection_probability=1.0, offline_during_congestion=False, finalize_delay_probability=0.0),
        ))
        for _ in range(12):
            keeper.act(engine)
            engine.step_index += 1
            engine._fixed_spread_cache = None
            engine._makerdao_cache = None
            engine.chain.mine_block()
        deals = [event for event in engine.chain.events.by_name("Deal") if event.data["winner"]]
        assert len(engine.chain.events.by_name("Bite")) >= 1
        assert len(engine.chain.events.by_name("Tend")) >= 1
        assert len(deals) >= 1

    def test_keeper_offline_during_congestion(self, mini_engine):
        engine, _, makerdao = mini_engine
        self._open_unsafe_vault(engine, makerdao)
        engine.chain.gas_market.trigger_congestion(10)
        keeper = join(engine, AuctionKeeperAgent(
            "keeper", np.random.default_rng(7), makerdao,
            KeeperProfile(detection_probability=1.0, offline_during_congestion=True),
        ))
        keeper.act(engine)
        assert len(engine.chain.mempool) == 0


class TestArbitrageur:
    def test_pool_realigned_to_oracle_price(self, mini_engine):
        engine, _, _ = mini_engine
        eth = engine.registry.get("ETH")
        dai = engine.registry.get("DAI")
        lp = make_address("amm-lp")
        eth.mint(lp, 100.0)
        dai.mint(lp, 150_000.0)  # pool price 1,500 vs oracle 2,000
        pool = ConstantProductPool(token_a=eth, token_b=dai)
        pool.add_liquidity(lp, 100.0, 150_000.0)
        engine.amm.register(pool)
        join(engine, ArbitrageurAgent("arb", np.random.default_rng(8))).act(engine)
        assert pool.spot_price("ETH") == pytest.approx(2_000.0, rel=0.02)
