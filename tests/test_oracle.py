"""Unit tests for price feeds, synthetic paths and the posted oracle."""

import numpy as np
import pytest

from repro.chain.chain import Blockchain, ChainConfig
from repro.chain.types import make_address
from repro.oracle.chainlink import OracleConfig, PriceOracle
from repro.oracle.feed import PriceFeed, UnknownSymbol
from repro.oracle.paths import AssetPathConfig, Shock, apply_shocks, build_series, gbm_path, stablecoin_path


class TestPriceFeed:
    def test_price_lookup_maps_blocks_to_steps(self, flat_feed):
        assert flat_feed.price("ETH", 1_000) == pytest.approx(2_000.0)
        assert flat_feed.price("ETH", 1_005) == pytest.approx(2_000.0)  # same step

    def test_out_of_range_blocks_clamp(self, flat_feed):
        assert flat_feed.price("ETH", 10) == pytest.approx(2_000.0)
        assert flat_feed.price("ETH", 10**9) == pytest.approx(2_000.0)

    def test_unknown_symbol_raises(self, flat_feed):
        with pytest.raises(UnknownSymbol):
            flat_feed.price("NOPE", 1_000)

    def test_prices_at_returns_all_symbols(self, flat_feed):
        prices = flat_feed.prices_at(1_000)
        assert {"ETH", "DAI", "USDC", "WBTC"} <= set(prices)
        assert set(prices) == set(flat_feed.symbols())

    def test_window_slices_inclusive(self, flat_feed):
        window = flat_feed.window("ETH", 1_000, 1_050)
        assert len(window) == 6

    def test_inconsistent_lengths_rejected(self):
        with pytest.raises(ValueError):
            PriceFeed(start_block=0, blocks_per_step=1, series={"A": np.ones(3), "B": np.ones(4)})

    def test_max_drawdown_of_declining_series(self):
        feed = PriceFeed(start_block=0, blocks_per_step=1, series={"X": np.array([100.0, 80.0, 90.0, 40.0])})
        assert feed.max_drawdown("X") == pytest.approx(0.6)

    def test_returns_length(self, flat_feed):
        assert len(flat_feed.returns("ETH")) == flat_feed.n_steps - 1


class TestPaths:
    def test_gbm_path_starts_at_initial_price(self):
        config = AssetPathConfig(initial_price=100.0, annual_volatility=0.5)
        path = gbm_path(config, 100, np.random.default_rng(1))
        assert path[0] == pytest.approx(100.0)
        assert (path > 0).all()

    def test_shock_applies_configured_drop(self):
        path = np.full(100, 100.0)
        shocked = apply_shocks(path, [Shock(step=50, magnitude=0.57)])
        assert shocked[49] == pytest.approx(100.0)
        assert shocked[60] == pytest.approx(57.0)

    def test_shock_recovery_ramps_back(self):
        path = np.full(100, 100.0)
        shocked = apply_shocks(path, [Shock(step=10, magnitude=0.5, recovery=1.0, recovery_steps=20)])
        assert shocked[90] == pytest.approx(100.0, rel=1e-6)

    def test_stablecoin_path_stays_near_peg(self):
        config = AssetPathConfig(initial_price=1.0, is_stablecoin=True, peg_volatility=0.002, peg_reversion=0.1)
        path = stablecoin_path(config, 2_000, np.random.default_rng(2))
        assert abs(path.mean() - 1.0) < 0.05
        assert path.std() < 0.05

    @pytest.mark.parametrize(
        "config",
        [
            AssetPathConfig(initial_price=1.0, is_stablecoin=True),
            AssetPathConfig(initial_price=1.02, is_stablecoin=True, peg_volatility=0.05, peg_reversion=0.3),
            AssetPathConfig(
                initial_price=3,
                is_stablecoin=True,
                peg=2.0,
                peg_volatility=0.9,
                shocks=[Shock(step=1, magnitude=1.11, duration=2, recovery=1.0, recovery_steps=3)],
            ),
        ],
    )
    def test_stablecoin_path_is_the_scalar_recurrence(self, config):
        for seed in (0, 5, 11):
            for n_steps in (0, 1, 2, 3, 40, 1_000):
                path = stablecoin_path(config, n_steps, np.random.default_rng(seed))
                reference = scalar_stablecoin_path(config, n_steps, np.random.default_rng(seed))
                assert path.dtype == reference.dtype and path.tobytes() == reference.tobytes()

    def test_build_series_is_deterministic_per_seed(self):
        configs = {"ETH": AssetPathConfig(initial_price=100.0), "DAI": AssetPathConfig(initial_price=1.0, is_stablecoin=True)}
        first = build_series(configs, 50, seed=3)
        second = build_series(configs, 50, seed=3)
        np.testing.assert_allclose(first["ETH"], second["ETH"])

    def test_build_series_streams_are_independent_of_extra_assets(self):
        base = {"ETH": AssetPathConfig(initial_price=100.0)}
        extended = dict(base, LINK=AssetPathConfig(initial_price=3.0))
        only_eth = build_series(base, 50, seed=3)["ETH"]
        with_link = build_series(extended, 50, seed=3)["ETH"]
        np.testing.assert_allclose(only_eth, with_link)


class TestPriceOracle:
    def test_falls_back_to_feed_before_first_post(self, chain, flat_feed):
        oracle = PriceOracle(chain, flat_feed)
        assert oracle.price("ETH") == pytest.approx(2_000.0)

    def test_update_posts_all_symbols_initially(self, chain, flat_feed):
        oracle = PriceOracle(chain, flat_feed)
        updated = oracle.update_from_feed()
        assert set(updated) == set(flat_feed.symbols())
        assert len(chain.events.by_name("AnswerUpdated")) == len(updated)

    def test_no_repost_when_price_unchanged(self, oracle):
        assert oracle.update_from_feed() == []

    def test_heartbeat_forces_repost(self, chain, flat_feed):
        oracle = PriceOracle(chain, flat_feed, OracleConfig(heartbeat_blocks=5))
        oracle.update_from_feed()
        for _ in range(6):
            chain.mine_block()
        assert "ETH" in oracle.update_from_feed()

    def test_override_reproduces_oracle_irregularity(self, oracle):
        oracle.set_override("DAI", 1.30)
        oracle.update_from_feed()
        assert oracle.price("DAI") == pytest.approx(1.30)
        oracle.clear_override("DAI")
        oracle.update_from_feed()
        assert oracle.price("DAI") == pytest.approx(1.0)

    def test_price_at_returns_posted_history(self, chain, flat_feed):
        oracle = PriceOracle(chain, flat_feed)
        oracle.post_price("ETH", 1_900.0, block_number=1_000)
        oracle.post_price("ETH", 2_100.0, block_number=1_010)
        assert oracle.price_at("ETH", 1_005) == pytest.approx(1_900.0)
        assert oracle.price_at("ETH", 1_010) == pytest.approx(2_100.0)

    def test_value_usd(self, oracle):
        assert oracle.value_usd("ETH", 2.0) == pytest.approx(4_000.0)


def scalar_stablecoin_path(config: AssetPathConfig, n_steps: int, rng: np.random.Generator) -> np.ndarray:
    """The reference: one scalar noise draw per step, the recurrence on a
    ``float64`` array."""
    if n_steps <= 0:
        return np.zeros(0)
    prices = np.empty(n_steps)
    prices[0] = config.initial_price
    for step in range(1, n_steps):
        deviation = config.peg - prices[step - 1]
        noise = rng.normal(0.0, config.peg_volatility)
        prices[step] = prices[step - 1] + config.peg_reversion * deviation + noise
    prices = np.clip(prices, 0.2 * config.peg, 5.0 * config.peg)
    return apply_shocks(prices, config.shocks)


ORACLE_ADDRESS = make_address("bulk-oracle")
OTHER_EMITTER = make_address("other-contract")


def per_symbol_update(oracle: PriceOracle) -> list[str]:
    """The reference: decide each symbol in sorted order and post it on its
    own with :meth:`PriceOracle.post_price`."""
    block = oracle.chain.current_block
    config = oracle.config
    updates = []
    for symbol, market_price in sorted(oracle.feed.prices_at(block).items()):
        posted = oracle.overrides.get(symbol, market_price)
        history = oracle.history(symbol)
        needs_update = not history
        if history:
            last_block, current = history[-1]
            deviation = abs(posted - current) / current if current else float("inf")
            needs_update = deviation >= config.deviation_threshold or block - last_block >= config.heartbeat_blocks
        if needs_update:
            oracle.post_price(symbol, posted, block)
            updates.append((symbol, float(posted)))
    oracle.last_updates = updates
    return [symbol for symbol, _ in updates]


def oracle_state(oracle: PriceOracle) -> tuple:
    events = [
        (event.name, event.emitter, event.block_number, event.tx_hash, event.log_index, event.data)
        for event in oracle.chain.events
    ]
    return (
        events,
        {symbol: oracle.history(symbol) for symbol in oracle.feed.symbols()},
        oracle._blocks,
        oracle._prices,
        oracle._latest,
        oracle.version,
        oracle.last_updates,
    )


class TestBulkPosting:
    """One ``update_from_feed`` leaves what its per-symbol posts left."""

    def twins(self, flat_feed):
        pair = []
        for _ in range(2):
            chain = Blockchain(ChainConfig(inception_block=1_000))
            pair.append(PriceOracle(chain, flat_feed, OracleConfig(heartbeat_blocks=5), address=ORACLE_ADDRESS))
        return pair

    def run_both(self, flat_feed, script):
        bulk, reference = self.twins(flat_feed)
        updated = []
        for oracle, update in ((bulk, bulk.update_from_feed), (reference, lambda: per_symbol_update(reference))):
            updated.append(script(oracle, update))
        assert updated[0] == updated[1]
        assert oracle_state(bulk) == oracle_state(reference)
        return bulk, updated[0]

    def test_first_post_continues_another_emitters_log_indices(self, flat_feed):
        def script(oracle, update):
            oracle.chain.emit_event("Ping", OTHER_EMITTER, {"n": 1})
            oracle.chain.emit_event("Ping", OTHER_EMITTER, {"n": 2})
            return update()

        bulk, updated = self.run_both(flat_feed, script)
        assert updated == sorted(flat_feed.symbols())
        assert [event.log_index for event in bulk.chain.events] == list(range(2 + len(updated)))

    def test_overridden_symbol_and_heartbeat_only_update(self, flat_feed):
        def script(oracle, update):
            rounds = [update()]
            for _ in range(3):
                oracle.chain.mine_block()
            oracle.post_price("ETH", 2_000.0)  # same price: resets ETH's heartbeat only
            oracle.set_override("DAI", 1.30)
            rounds.append(update())  # DAI deviates; nothing else is due
            for _ in range(3):
                oracle.chain.mine_block()
            oracle.chain.emit_event("Ping", OTHER_EMITTER, {})
            rounds.append(update())  # heartbeat: every symbol but ETH and DAI
            return rounds

        bulk, (first, overridden, heartbeat) = self.run_both(flat_feed, script)
        assert overridden == ["DAI"]
        assert bulk.last_updates != []
        assert set(heartbeat) == set(flat_feed.symbols()) - {"ETH", "DAI"}
        assert bulk.chain.events.by_name("AnswerUpdated")[-1].log_index == len(heartbeat)

    def test_nothing_due_posts_nothing(self, flat_feed):
        def script(oracle, update):
            return [update(), update()]

        bulk, (first, second) = self.run_both(flat_feed, script)
        assert second == [] and bulk.last_updates == []

    def test_post_price_is_a_one_pair_post(self, chain, flat_feed):
        oracle = PriceOracle(chain, flat_feed)
        payload_count = len(chain.events)
        oracle.post_price("eth", 1_950, block_number=990)
        (event,) = chain.events.since(payload_count)
        assert event.data == {"symbol": "ETH", "price": 1_950.0, "oracle": "chainlink"}
        assert isinstance(event.data["price"], float)
        assert oracle.history("ETH") == [(990, 1_950.0)]
        assert oracle.version == 1
