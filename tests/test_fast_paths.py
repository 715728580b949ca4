"""Unit tests for the hot-path shortcuts: each must answer exactly as the
slow formulation it replaced.

* agent generators are spawned lazily, one per index, with the streams of
  ``SeedSequence(seed).spawn(n)``;
* ``PriceFeed.step_for_block`` clamps with plain integers;
* ``PriceOracle.price_at`` bisects a block list kept next to the history;
* ``LendingProtocol.prices`` / ``liquidation_thresholds`` are memoised;
* ``BorrowerCohort`` skips only borrowers whose scalar health factor is at
  or above their top-up trigger, and calls the rest in agent order;
* ``LendingProtocol.step_scan`` is one scan per price key and book
  revision, shared with the liquidation scan;
* an indebted row with no collateral entry (bad debt) is a liquidation
  candidate without a scalar health factor and quotes to ``None``.
"""

from __future__ import annotations

from itertools import islice
from types import SimpleNamespace

import numpy as np
import pytest

from repro import scenarios
from repro.agents import BorrowerAgent, BorrowerCohort, BorrowerProfile, spawn_rng, spawn_rngs
from repro.chain.chain import Blockchain, ChainConfig
from repro.chain.types import make_address
from repro.core.fixed_spread import LiquidationError, quote_liquidation
from repro.core.position import Position
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


def ladder_protocol(registry):
    """Compound with ETH at 1,000 USD on a 10-block-stride chain."""
    chain = Blockchain(ChainConfig(inception_block=1_000, blocks_per_step=10))
    oracle = PriceOracle(chain, ramp_feed())
    oracle.update_from_feed()
    return make_compound(chain, oracle, registry)


def open_borrower(protocol, label: str, debt: float) -> BorrowerAgent:
    """An attentive borrower already holding 1 ETH against ``debt`` DAI, with
    a top-up trigger of 1.08."""
    profile = BorrowerProfile(topup_trigger=1.08)
    borrower = BorrowerAgent(label, np.random.default_rng(0), protocol, profile)
    borrower.address = protocol.chain.new_address(label)
    position = protocol.position_of(borrower.address)
    position.add_collateral("ETH", 1.0)
    position.add_debt("DAI", debt)
    borrower.opened = True
    return borrower


def unopened_borrower(protocol, label: str, entry_step: int) -> BorrowerAgent:
    borrower = BorrowerAgent(label, np.random.default_rng(0), protocol, BorrowerProfile(entry_step=entry_step))
    borrower.address = protocol.chain.new_address(label)
    return borrower


def scalar_hf(borrower: BorrowerAgent) -> float:
    protocol = borrower.protocol
    position = protocol.position_of(borrower.address)
    return position.health_factor(protocol.prices(), protocol.liquidation_thresholds())


@pytest.fixture()
def calls(monkeypatch):
    """Labels of the borrowers whose ``act`` is called, in call order (the
    calls themselves do nothing)."""
    called: list[str] = []
    monkeypatch.setattr(BorrowerAgent, "act", lambda self, engine: called.append(self.label))
    return called


def cohort_step(cohort: BorrowerCohort, step_index: int = 0) -> None:
    cohort.act(SimpleNamespace(step_index=step_index, sanitize_step=False))


class TestBorrowerCohort:
    def test_skipped_rows_meet_their_trigger_the_rest_are_called(self, registry, calls):
        protocol = ladder_protocol(registry)
        borrowers = [
            open_borrower(protocol, f"ladder-{index}", float(debt))
            for index, debt in enumerate(np.linspace(100.0, 800.0, 15))
        ]
        # A row exactly at its trigger is called: the margin is conservative.
        boundary = open_borrower(protocol, "boundary", 500.0)
        boundary.profile.topup_trigger = scalar_hf(boundary)
        cohort_step(BorrowerCohort([*borrowers, boundary]))
        skipped = [borrower for borrower in borrowers if borrower.label not in calls]
        for borrower in skipped:
            assert scalar_hf(borrower) >= borrower.profile.topup_trigger
        for borrower in borrowers:
            if borrower.label in calls:
                assert scalar_hf(borrower) < borrower.profile.topup_trigger * (1 + 1e-6)
        # The ladder straddles the trigger: both outcomes occur.
        assert skipped and len(skipped) < len(borrowers)
        assert "boundary" in calls

    def test_a_row_mutated_since_the_last_scan_is_judged_afresh(self, registry, calls):
        protocol = ladder_protocol(registry)
        borrower = open_borrower(protocol, "mutated", 100.0)
        cohort = BorrowerCohort([borrower])
        cohort_step(cohort, step_index=0)
        assert calls == []
        # Same price key, but the row now sits below its trigger.
        protocol.position_of(borrower.address).add_debt("DAI", 650.0)
        cohort_step(cohort, step_index=1)
        assert calls == ["mutated"]

    def test_a_due_entry_interleaves_in_agent_order_with_misses(self, registry, calls):
        protocol = ladder_protocol(registry)
        cohort = BorrowerCohort(
            [
                open_borrower(protocol, "below-a", 750.0),
                unopened_borrower(protocol, "due-late-entry", entry_step=2),
                open_borrower(protocol, "healthy", 100.0),
                unopened_borrower(protocol, "not-due", entry_step=9),
                open_borrower(protocol, "below-b", 800.0),
                unopened_borrower(protocol, "due-early-entry", entry_step=0),
            ]
        )
        cohort_step(cohort, step_index=3)
        assert calls == ["below-a", "due-late-entry", "below-b", "due-early-entry"]

    def test_closed_and_inattentive_borrowers_are_dropped(self, registry, calls):
        protocol = ladder_protocol(registry)
        closed = unopened_borrower(protocol, "closed", entry_step=0)
        closed.closed = True
        inattentive = open_borrower(protocol, "inattentive", 800.0)
        inattentive.profile.attentive = False
        cohort_step(BorrowerCohort([closed, inattentive, open_borrower(protocol, "watched", 800.0)]))
        assert calls == ["watched"]

    def test_a_borrower_that_opens_is_watched_from_the_next_step(self, registry, monkeypatch):
        protocol = ladder_protocol(registry)
        newcomer = unopened_borrower(protocol, "newcomer", entry_step=1)
        called: list[str] = []

        def act(self, engine):
            called.append(self.label)
            if not self.opened:  # open straight below the trigger
                position = protocol.position_of(self.address)
                position.add_collateral("ETH", 1.0)
                position.add_debt("DAI", 800.0)
                self.opened = True

        monkeypatch.setattr(BorrowerAgent, "act", act)
        cohort = BorrowerCohort([newcomer])
        cohort_step(cohort, step_index=0)
        assert called == []
        cohort_step(cohort, step_index=1)
        cohort_step(cohort, step_index=2)
        assert called == ["newcomer", "newcomer"]

    def test_an_agent_added_mid_run_is_called_on_the_next_step(self):
        builder = scenarios.get("small").builder(seed=3)
        config = builder.config
        builder.config = config.with_overrides(end_block=config.start_block + 40 * config.blocks_per_step)
        engine = builder.build()
        engine.run(n_steps=3)
        compound = engine.protocol("Compound")
        profile = BorrowerProfile(collateral_usd=20_000.0, entry_step=engine.step_index)
        late = BorrowerAgent("late-borrower", np.random.default_rng(0), compound, profile)
        engine.add_agent(late)
        engine.step()
        assert late.opened
        assert late.address in compound.positions


class TestStepScan:
    def test_one_scan_per_price_key_and_revision(self, registry):
        protocol = ladder_protocol(registry)
        borrower = open_borrower(protocol, "scanned", 500.0)
        scan = protocol.step_scan()
        assert protocol.step_scan() is scan
        protocol.oracle.post_price("ETH", 1.0)  # collateral nearly worthless
        moved = protocol.step_scan()
        assert moved is not scan
        row = protocol.position_of(borrower.address)._row
        assert moved.borrowing_capacity_usd[row] < scan.borrowing_capacity_usd[row]

    def test_liquidation_scan_reuses_the_step_scan_until_a_top_up(self, registry, monkeypatch):
        protocol = ladder_protocol(registry)
        underwater = open_borrower(protocol, "underwater", 950.0)
        scans: list = []
        book_scan = protocol.book.scan

        def counted(*args):
            scans.append(book_scan(*args))
            return scans[-1]

        monkeypatch.setattr(protocol.book, "scan", counted)
        shared = protocol.step_scan()
        candidates = protocol.liquidatable_candidates()
        assert [position.owner for position in candidates] == [underwater.address]
        assert scans == [shared]
        # A top-up moves the book revision: the liquidation scan rebuilds.
        protocol.position_of(underwater.address).add_collateral("ETH", 1.0)
        assert protocol.liquidatable_candidates() == []
        assert len(scans) == 2 and protocol.step_scan() is scans[1]


def reference_quote(protocol, position):
    """The quote without the bad-debt shortcut: value dicts first."""
    prices, thresholds = protocol.prices(), protocol.liquidation_thresholds()
    debt_values = position.debt_values(prices)
    collateral_values = position.collateral_values(prices)
    if not debt_values or not collateral_values:
        return None
    debt_symbol = max(debt_values, key=debt_values.get)
    collateral_symbol = max(collateral_values, key=collateral_values.get)
    try:
        return quote_liquidation(
            position,
            debt_symbol,
            collateral_symbol,
            position.debt[debt_symbol] * protocol.close_factor,
            protocol.params_for(collateral_symbol),
            prices,
            thresholds,
        )
    except LiquidationError:
        return None


class TestBadDebtRows:
    """An indebted row with no collateral entry is a candidate (HF = 0)
    without a scalar health factor, and quotes to nothing."""

    @pytest.fixture()
    def rows(self, registry, monkeypatch):
        protocol = ladder_protocol(registry)
        bad_debt = protocol.position_of(make_address("bad-debt"))
        bad_debt.add_debt("DAI", 400.0)
        sub_dust = protocol.position_of(make_address("sub-dust"))
        sub_dust.add_collateral("ETH", 1e-12)
        sub_dust.add_debt("DAI", 400.0)
        underwater = open_borrower(protocol, "underwater", 950.0)
        healthy = open_borrower(protocol, "healthy", 100.0)
        scored: list = []
        health_factor = Position.health_factor

        def spy(position, prices, thresholds):
            scored.append(position.owner)
            return health_factor(position, prices, thresholds)

        monkeypatch.setattr(Position, "health_factor", spy)
        return SimpleNamespace(
            protocol=protocol,
            bad_debt=bad_debt,
            sub_dust=sub_dust,
            underwater=protocol.position_of(underwater.address),
            healthy=protocol.position_of(healthy.address),
            scored=scored,
        )

    def test_a_collateral_less_row_is_a_candidate_without_a_health_factor(self, rows):
        candidates = rows.protocol.liquidatable_candidates()
        assert candidates == [rows.bad_debt, rows.sub_dust, rows.underwater]
        assert rows.bad_debt.owner not in rows.scored
        assert rows.sub_dust.owner in rows.scored and rows.underwater.owner in rows.scored
        assert health_factor_of(rows.protocol, rows.bad_debt) == 0.0

    def test_the_candidates_equal_the_scalar_sweep(self, rows):
        prices, thresholds = rows.protocol.prices(), rows.protocol.liquidation_thresholds()
        for require_collateral in (False, True):
            sweep = [
                position
                for position in rows.protocol.positions_with_debt()
                if (position.has_collateral or not require_collateral)
                and position.is_liquidatable(prices, thresholds)
            ]
            assert rows.protocol.liquidatable_candidates(require_collateral=require_collateral) == sweep

    def test_quotes_are_unchanged(self, rows):
        protocol = rows.protocol
        assert protocol.quote_best_opportunity(rows.bad_debt.owner) is None
        for position in (rows.sub_dust, rows.underwater, rows.healthy):
            assert protocol.quote_best_opportunity(position.owner) == reference_quote(protocol, position)
        assert protocol.quote_best_opportunity(rows.underwater.owner) is not None
        quoted = protocol.quote_opportunities(protocol.liquidatable_candidates())
        assert [position for position, _ in quoted] == [
            position for position in (rows.sub_dust, rows.underwater) if reference_quote(protocol, position)
        ]


def health_factor_of(protocol, position) -> float:
    return position.health_factor(protocol.prices(), protocol.liquidation_thresholds())
