"""Unit tests for the hot-path shortcuts: each must answer exactly as the
slow formulation it replaced.

* agent generators are spawned lazily, one per index, with the streams of
  ``SeedSequence(seed).spawn(n)``;
* ``PriceFeed.step_for_block`` clamps with plain integers;
* ``PriceOracle.price_at`` bisects a block list kept next to the history;
* ``LendingProtocol.prices`` / ``liquidation_thresholds`` are memoised;
* ``LendingProtocol.clears_health_floor`` only clears positions whose
  scalar health factor is at or above the floor.
"""

from __future__ import annotations

from itertools import islice

import numpy as np
import pytest

from repro.agents import spawn_rng, spawn_rngs
from repro.chain.chain import Blockchain, ChainConfig
from repro.chain.types import make_address
from repro.oracle.chainlink import OracleConfig, PriceOracle
from repro.oracle.feed import PriceFeed
from repro.protocols.base import MarketConfig
from repro.protocols.compound import make_compound
from repro.tokens.registry import inception_prices


def draws(rng: np.random.Generator) -> list[float]:
    return rng.random(4).tolist()


class TestLazyAgentRngs:
    SEED = 12_345

    def test_lazy_streams_equal_eager_spawn(self):
        eager = [np.random.default_rng(child) for child in np.random.SeedSequence(self.SEED).spawn(301)]
        lazy = list(islice(spawn_rngs(self.SEED), 301))
        assert [draws(rng) for rng in lazy] == [draws(rng) for rng in eager]

    def test_index_past_the_old_cap_is_a_valid_generator(self):
        rng = spawn_rng(self.SEED, 50_000)
        assert isinstance(rng, np.random.Generator)
        # The 50,001st child of an eager spawn, without building the first 50,000.
        child = np.random.SeedSequence(self.SEED, n_children_spawned=50_000).spawn(1)[0]
        assert draws(rng) == draws(np.random.default_rng(child))


class TestStepForBlock:
    @pytest.fixture()
    def feed(self):
        return PriceFeed(start_block=1_000, blocks_per_step=10, series={"ETH": np.arange(5, dtype=float)})

    def test_clamps_below_start_and_past_end(self, feed):
        assert feed.step_for_block(0) == 0
        assert feed.step_for_block(999) == 0
        assert feed.step_for_block(1_025) == 2
        assert feed.step_for_block(1_040) == 4
        assert feed.step_for_block(10**9) == 4

    def test_returns_python_int_for_numpy_input(self, feed):
        for block in (np.int64(1_025), np.int64(5), np.int64(10**9)):
            step = feed.step_for_block(block)
            assert type(step) is int
        assert feed.step_for_block(np.int64(1_025)) == 2

    def test_empty_feed_raises(self):
        with pytest.raises(ValueError, match="empty price feed"):
            PriceFeed(start_block=0, blocks_per_step=1, series={"ETH": np.zeros(0)}).step_for_block(0)


def ramp_feed(n: int = 40) -> PriceFeed:
    """Every default asset at its inception price, ETH ramping up each step."""
    series = {symbol: np.full(n, price) for symbol, price in inception_prices().items()}
    series["ETH"] = 1_000.0 + 10.0 * np.arange(n)
    return PriceFeed(start_block=1_000, blocks_per_step=10, series=series)


class TestPriceAtArchive:
    def test_equals_linear_scan_over_posted_history(self):
        feed = ramp_feed()
        oracle = PriceOracle(Blockchain(ChainConfig(inception_block=1_000)), feed)
        posts = [(1_020, 1.01), (1_020, 1.02), (1_055, 0.97), (1_090, 1.00), (1_200, 1.05)]
        for block, price in posts:
            oracle.post_price("DAI", price, block_number=block)

        def reference(symbol: str, block: int) -> float:
            latest = None
            for posted_block, price in oracle.history(symbol):
                if posted_block <= block:
                    latest = price
            return feed.price(symbol, block) if latest is None else latest

        for block in range(900, 1_400, 5):
            assert oracle.price_at("DAI", block) == reference("DAI", block)
            # No posted history at all: every lookup is the feed.
            assert oracle.price_at("ETH", block) == feed.price("ETH", block)
        assert oracle.price_at("dai", 1_020) == 1.02
        assert oracle.price_at("DAI", 1_019) == feed.price("DAI", 1_019)


class TestMemoisedPrices:
    @pytest.fixture()
    def setup(self, registry):
        chain = Blockchain(ChainConfig(inception_block=1_000, blocks_per_step=10))
        oracle = PriceOracle(chain, ramp_feed(), OracleConfig(name="memo-oracle"))
        return chain, oracle, make_compound(chain, oracle, registry)

    def test_changes_after_a_posted_price(self, setup):
        _, oracle, protocol = setup
        before = protocol.prices()
        oracle.post_price("ETH", 1_234.5)
        after = protocol.prices()
        assert before["ETH"] != 1_234.5
        assert after["ETH"] == 1_234.5

    def test_changes_after_a_block_advance_without_posted_history(self, setup):
        chain, oracle, protocol = setup
        before = protocol.prices()["ETH"]
        chain.mine_block()
        after = protocol.prices()["ETH"]
        assert after != before
        assert after == oracle.price("ETH")

    def test_follows_a_replaced_oracle(self, setup):
        chain, oracle, protocol = setup
        protocol.prices()
        replacement = PriceOracle(chain, oracle.feed, OracleConfig(name="replacement"))
        replacement.post_price("ETH", 999.0)
        protocol.oracle = replacement
        assert protocol.prices()["ETH"] == 999.0

    def test_returned_dicts_are_fresh(self, setup):
        _, _, protocol = setup
        prices = protocol.prices()
        expected = dict(prices)
        prices["ETH"] = -1.0
        prices["NEW"] = 1.0
        assert protocol.prices() == expected
        thresholds = protocol.liquidation_thresholds()
        expected = dict(thresholds)
        thresholds["ETH"] = 0.0
        assert protocol.liquidation_thresholds() == expected

    def test_add_market_rebuilds_both(self, setup):
        _, _, protocol = setup
        protocol.prices()
        protocol.liquidation_thresholds()
        protocol.add_market(MarketConfig(symbol="wbtc", liquidation_threshold=0.6, liquidation_spread=0.1))
        assert protocol.liquidation_thresholds()["WBTC"] == 0.6
        assert "WBTC" in protocol.prices()


class TestHealthFloorPrefilter:
    @pytest.fixture()
    def book(self, registry):
        chain = Blockchain(ChainConfig(inception_block=1_000, blocks_per_step=10))
        oracle = PriceOracle(chain, ramp_feed())
        oracle.update_from_feed()
        protocol = make_compound(chain, oracle, registry)
        owners = []
        for index, debt in enumerate(np.linspace(100.0, 800.0, 15)):
            owner = make_address(f"prefilter-{index}")
            position = protocol.position_of(owner)
            position.add_collateral("ETH", 1.0)
            position.add_debt("DAI", float(debt))
            owners.append(owner)
        return protocol, owners

    def scalar_hf(self, protocol, owner) -> float:
        return protocol.position_of(owner).health_factor(protocol.prices(), protocol.liquidation_thresholds())

    def test_cleared_rows_meet_the_floor_and_the_rest_fall_through(self, book):
        protocol, owners = book
        floor = 1.08
        cleared = [protocol.clears_health_floor(protocol.position_of(owner), floor) for owner in owners]
        for owner, clears in zip(owners, cleared):
            if clears:
                assert self.scalar_hf(protocol, owner) >= floor
        # The ladder straddles the floor: both outcomes occur.
        assert any(cleared) and not all(cleared)
        # A row exactly at the floor is not cleared (the margin is conservative).
        boundary = protocol.position_of(owners[0])
        assert not protocol.clears_health_floor(boundary, self.scalar_hf(protocol, owners[0]))

    def test_a_row_mutated_since_the_column_was_built_never_clears(self, book):
        protocol, owners = book
        position = protocol.position_of(owners[0])
        assert protocol.clears_health_floor(position, 1.0)
        position.add_collateral("ETH", 1.0)  # healthier, but the column predates it
        assert not protocol.clears_health_floor(position, 1.0)
        late = protocol.position_of(make_address("late"))
        late.add_collateral("ETH", 10.0)
        assert not protocol.clears_health_floor(late, 1.0)

    def test_one_column_per_price_key(self, book):
        protocol, owners = book
        position = protocol.position_of(owners[0])
        assert protocol.clears_health_floor(position, 1.0)
        assert protocol.clears_health_floor(protocol.position_of(owners[1]), 1.0)
        assert protocol.health_column_builds == 1
        protocol.oracle.post_price("ETH", 1.0)  # collateral nearly worthless
        assert not protocol.clears_health_floor(position, 1.0)
        assert protocol.health_column_builds == 2
