"""Integration tests for the scenario engine and the calibrated small scenario."""

import numpy as np
import pytest

from repro.chain.transaction import TxKind
from repro.simulation.config import ScenarioConfig
from repro.scenarios.builder import ScenarioBuilder
from repro.scenarios.incidents import post_incident_auction_config, pre_incident_auction_config


class TestScenarioConfig:
    def test_step_count_covers_window(self):
        config = ScenarioConfig.small()
        assert config.n_steps * config.blocks_per_step >= config.end_block - config.start_block

    def test_with_overrides_replaces_fields(self):
        config = ScenarioConfig.small().with_overrides(seed=99)
        assert config.seed == 99

    def test_paper_preset_covers_study_window(self):
        config = ScenarioConfig.paper()
        assert config.end_block == 12_344_944
        assert config.start_block < 7_600_000

    def test_auction_configs_scale_with_stride(self):
        pre = pre_incident_auction_config(2_000)
        post = post_incident_auction_config(2_000)
        assert pre.auction_length_blocks >= 2 * 2_000
        assert post.bid_duration_blocks > pre.bid_duration_blocks


class TestPriceFeedScenario:
    def test_feed_covers_window_and_assets(self):
        config = ScenarioConfig.small()
        feed = ScenarioBuilder(config).build_feed()
        assert feed.end_block >= config.end_block
        for symbol in ("ETH", "WBTC", "DAI", "USDC", "USDT"):
            assert feed.has(symbol)

    def test_march_2020_crash_present_in_eth_path(self):
        config = ScenarioConfig.small()
        feed = ScenarioBuilder(config).build_feed()
        crash_block = config.incidents.march_2020_block
        before = feed.price("ETH", crash_block - 5 * config.feed_blocks_per_step)
        after = feed.price("ETH", crash_block + 5 * config.feed_blocks_per_step)
        assert after < before * 0.75  # a ≈ 43 % drop, modulo diffusion noise

    def test_stablecoins_remain_near_peg(self):
        config = ScenarioConfig.small()
        feed = ScenarioBuilder(config).build_feed()
        dai = feed.series["DAI"]
        assert abs(float(np.median(dai)) - 1.0) < 0.05

    def test_same_seed_gives_identical_feed(self):
        config = ScenarioConfig.small(seed=3)
        first = ScenarioBuilder(config).build_feed()
        second = ScenarioBuilder(config).build_feed()
        np.testing.assert_allclose(first.series["ETH"], second.series["ETH"])


class TestEngineRun:
    def test_small_run_produces_all_event_families(self, small_result):
        names = small_result.chain.events.names()
        for expected in ("Deposit", "Borrow", "AnswerUpdated", "Bite", "Deal", "FlashLoan"):
            assert expected in names
        liquidation_events = (
            small_result.chain.events.by_name("LiquidationCall")
            + small_result.chain.events.by_name("LiquidateBorrow")
            + small_result.chain.events.by_name("LogLiquidate")
        )
        assert len(liquidation_events) > 10

    def test_run_reaches_end_block(self, small_result):
        assert small_result.final_block >= small_result.config.end_block - small_result.config.blocks_per_step

    def test_scheduled_incidents_fired(self, small_result):
        fired = {event.name for event in small_result.engine.scheduled_events if event.fired}
        assert "march-2020-crash" in fired
        assert "makerdao-auction-reconfiguration" in fired

    def test_snapshots_recorded(self, small_result):
        assert len(small_result.chain.snapshot_blocks) >= 2

    def test_liquidation_receipts_present(self, small_result):
        liquidation_receipts = [
            receipt
            for receipt in small_result.chain.receipts_by_hash.values()
            if receipt.kind is TxKind.LIQUIDATION and receipt.succeeded
        ]
        assert liquidation_receipts

    def test_all_protocols_instantiated(self, small_result):
        names = {protocol.name for protocol in small_result.protocols}
        assert names == {"Aave V1", "Aave V2", "Compound", "dYdX", "MakerDAO"}

    def test_protocol_lookup_by_name(self, small_result):
        assert small_result.protocol("Compound").name == "Compound"
        with pytest.raises(KeyError):
            small_result.protocol("Nonexistent")

    def test_congestion_crowds_out_keeper_bids(self, small_result):
        # During the March 2020 congestion the gas market multiplies its base
        # price; at least one congestion episode must have occurred.
        gas_prices = [block.base_gas_price for block in small_result.chain.blocks]
        assert max(gas_prices) > 5 * float(np.median(gas_prices))

    def test_reproducibility_of_engine_construction(self):
        config = ScenarioConfig.small(seed=21).with_overrides(end_block=9_780_000)
        first = ScenarioBuilder(config).run()
        second = ScenarioBuilder(config).run()
        assert len(first.chain.events) == len(second.chain.events)
        assert first.chain.events.names() == second.chain.events.names()
