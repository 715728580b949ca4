"""Tests for the columnar :class:`PositionBook` scan engine.

The central property: whatever interleaving of deposit / borrow / repay /
withdraw / liquidate / accrual hits the positions, the book's columnar
valuations stay equal to the scalar ``Position`` formulas within 1e-9, and
the margin-confirmed candidate set is exactly the scalar liquidatable set.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chain.types import make_address
from repro.core.position import DUST, Position
from repro.core.position_book import SCAN_MARGIN, PositionBook

SYMBOLS = ("ETH", "DAI", "WBTC", "USDC")

N_POSITIONS = 4


def build_book(n: int = N_POSITIONS) -> tuple[PositionBook, list[Position]]:
    book = PositionBook()
    for symbol in SYMBOLS:
        book.ensure_asset(symbol)
    positions = [Position(owner=make_address(f"user-{i}")) for i in range(n)]
    for position in positions:
        book.attach(position)
    return book, positions


# One mutation of the random interleaving: (op, position index, symbol
# index, relative amount in (0, 1]).
ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["deposit", "withdraw", "borrow", "repay", "liquidate", "accrue", "write_off", "scan"]
        ),
        st.integers(min_value=0, max_value=N_POSITIONS - 1),
        st.integers(min_value=0, max_value=len(SYMBOLS) - 1),
        st.floats(min_value=1e-3, max_value=1.0),
    ),
    min_size=1,
    max_size=60,
)

prices_strategy = st.tuples(*[st.floats(min_value=0.01, max_value=50_000.0) for _ in SYMBOLS])
thresholds_strategy = st.tuples(*[st.floats(min_value=0.0, max_value=0.95) for _ in SYMBOLS])


def apply_op(book: PositionBook, position: Position, op: str, symbol: str, fraction: float) -> None:
    if op == "deposit":
        position.add_collateral(symbol, fraction * 1_000.0)
    elif op == "withdraw":
        held = position.collateral.get(symbol, 0.0)
        if held > DUST:
            position.remove_collateral(symbol, fraction * held)
    elif op == "borrow":
        position.add_debt(symbol, fraction * 500.0)
    elif op == "repay":
        owed = position.debt.get(symbol, 0.0)
        if owed > DUST:
            position.reduce_debt(symbol, fraction * owed)
    elif op == "liquidate":
        owed = position.debt.get(symbol, 0.0)
        if owed > DUST:
            position.reduce_debt(symbol, 0.5 * fraction * owed)
        held = position.collateral.get(symbol, 0.0)
        if held > DUST:
            position.remove_collateral(symbol, 0.5 * fraction * held)
    elif op == "accrue":
        position.scale_debts({symbol: 1.0 + fraction * 0.05})
    elif op == "write_off":
        position.clear()
    elif op == "scan":
        # Interleaved scans exercise the dirty-row tracking mid-sequence.
        book.scan(dict.fromkeys(SYMBOLS, 1.0), dict.fromkeys(SYMBOLS, 0.5))


class TestColumnarEqualsScalar:
    @settings(max_examples=120, deadline=None)
    @given(operations=ops, prices=prices_strategy, thresholds=thresholds_strategy)
    def test_any_interleaving_keeps_valuations_equal(self, operations, prices, thresholds):
        book, positions = build_book()
        for op, pos_index, sym_index, fraction in operations:
            apply_op(book, positions[pos_index], op, SYMBOLS[sym_index], fraction)
        price_map = dict(zip(SYMBOLS, prices))
        threshold_map = dict(zip(SYMBOLS, thresholds))
        scan = book.scan(price_map, threshold_map)
        for row, position in enumerate(positions):
            assert scan.collateral_usd[row] == pytest.approx(
                position.total_collateral_usd(price_map), rel=1e-9, abs=1e-9
            )
            assert scan.debt_usd[row] == pytest.approx(
                position.total_debt_usd(price_map), rel=1e-9, abs=1e-9
            )
            assert scan.borrowing_capacity_usd[row] == pytest.approx(
                position.borrowing_capacity(price_map, threshold_map), rel=1e-9, abs=1e-9
            )
            assert bool(scan.has_debt[row]) == position.has_debt
            assert bool(scan.has_collateral[row]) == position.has_collateral
        # The margin-confirmed candidate set is exactly the scalar one.
        confirmed = {
            row
            for row in scan.candidate_rows()
            if book.position_at(int(row)).is_liquidatable(price_map, threshold_map)
        }
        scalar = {
            row
            for row, position in enumerate(positions)
            if position.has_debt and position.is_liquidatable(price_map, threshold_map)
        }
        assert confirmed == scalar
        # The prefilter may only over-approximate, never miss.
        assert scalar <= set(int(row) for row in scan.candidate_rows())

    @settings(max_examples=60, deadline=None)
    @given(operations=ops, prices=prices_strategy)
    def test_under_collateralized_prefilter_is_conservative(self, operations, prices):
        book, positions = build_book()
        for op, pos_index, sym_index, fraction in operations:
            apply_op(book, positions[pos_index], op, SYMBOLS[sym_index], fraction)
        price_map = dict(zip(SYMBOLS, prices))
        scan = book.scan(price_map, dict.fromkeys(SYMBOLS, 0.5))
        flagged = set(int(row) for row in scan.under_collateralized_rows())
        scalar = {
            row
            for row, position in enumerate(positions)
            if position.has_debt and position.is_under_collateralized(price_map)
        }
        assert scalar <= flagged
        confirmed = {
            row for row in flagged if book.position_at(row).is_under_collateralized(price_map)
        }
        assert confirmed == scalar


class TestValuationEqualsScalar:
    """The aggregate :class:`BookValuation` layer against the scalar walk."""

    @settings(max_examples=120, deadline=None)
    @given(operations=ops, prices=prices_strategy, thresholds=thresholds_strategy)
    def test_any_interleaving_keeps_totals_equal(self, operations, prices, thresholds):
        book, positions = build_book()
        for op, pos_index, sym_index, fraction in operations:
            apply_op(book, positions[pos_index], op, SYMBOLS[sym_index], fraction)
        price_map = dict(zip(SYMBOLS, prices))
        threshold_map = dict(zip(SYMBOLS, thresholds))
        valuation = book.valuation(price_map, threshold_map)

        scalar_collateral = sum(p.total_collateral_usd(price_map) for p in positions)
        scalar_debt = sum(p.total_debt_usd(price_map) for p in positions)

        # Fast tier: within 1e-9 of the scalar walk under any interleaving.
        assert valuation.total_collateral_usd() == pytest.approx(scalar_collateral, rel=1e-9, abs=1e-9)
        assert valuation.total_debt_usd() == pytest.approx(scalar_debt, rel=1e-9, abs=1e-9)
        for row, position in enumerate(positions):
            assert valuation.collateral_usd[row] == pytest.approx(
                position.total_collateral_usd(price_map), rel=1e-9, abs=1e-9
            )
            assert valuation.debt_usd[row] == pytest.approx(
                position.total_debt_usd(price_map), rel=1e-9, abs=1e-9
            )
            assert bool(valuation.has_debt[row]) == position.has_debt
            assert bool(valuation.has_collateral[row]) == position.has_collateral

        # Pinned tier: bit-identical to the scalar walk, not just close.
        assert valuation.pinned_total_collateral_usd() == scalar_collateral
        assert valuation.pinned_total_debt_usd() == scalar_debt
        health = valuation.pinned_health_factors()
        for row, position in enumerate(positions):
            collateral_usd, debt_usd = valuation.pinned_row_values(row)
            assert collateral_usd == position.total_collateral_usd(price_map)
            assert debt_usd == position.total_debt_usd(price_map)
            assert health[row] == position.health_factor(price_map, threshold_map)

    @settings(max_examples=60, deadline=None)
    @given(operations=ops, prices=prices_strategy)
    def test_debt_total_matches_scalar_walk_bitwise(self, operations, prices):
        book, positions = build_book()
        for op, pos_index, sym_index, fraction in operations:
            apply_op(book, positions[pos_index], op, SYMBOLS[sym_index], fraction)
        for symbol in SYMBOLS:
            assert book.debt_total(symbol) == sum(
                position.debt.get(symbol, 0.0) for position in positions
            )
        assert book.debt_total("UNTRACKED") == 0.0

    def test_valuation_candidate_prefilter_matches_scan(self):
        book, positions = build_book()
        positions[0].add_collateral("ETH", 1.0)
        positions[0].add_debt("DAI", 90.0)  # HF < 1 at the prices below
        positions[1].add_collateral("ETH", 1.0)
        positions[1].add_debt("DAI", 10.0)  # healthy
        prices = {"ETH": 100.0, "DAI": 1.0, "WBTC": 1.0, "USDC": 1.0}
        thresholds = {"ETH": 0.8, "DAI": 0.8, "WBTC": 0.8, "USDC": 0.8}
        valuation = book.valuation(prices, thresholds)
        scan = book.scan(prices, thresholds)
        assert valuation.candidate_rows().tolist() == scan.candidate_rows().tolist()
        assert valuation.under_collateralized_rows().tolist() == scan.under_collateralized_rows().tolist()

    def test_collateral_value_column_is_exact_products(self):
        book, positions = build_book(2)
        positions[0].add_collateral("ETH", 3.0)
        positions[1].add_debt("ETH", 1.0)
        prices = {"ETH": 99.9}
        valuation = book.valuation(prices, {})
        column = valuation.collateral_value_column("ETH")
        assert column[0] == 3.0 * 99.9
        assert column[1] == 0.0
        assert valuation.collateral_value_column("NOPE") is None

    def test_stale_valuation_refuses_first_pinned_access_after_mutation(self):
        """The lazy scalar fixup reads live position dicts; mixing them with
        the frozen arrays would be silent corruption, so a mutated book makes
        the first pinned access fail loudly instead."""
        book, positions = build_book(1)
        positions[0].add_collateral("ETH", 1.0)
        positions[0].add_collateral("DAI", 1.0)
        positions[0].add_collateral("WBTC", 1.0)  # 3 nonzero terms: ambiguous
        prices = dict.fromkeys(SYMBOLS, 2.0)
        valuation = book.valuation(prices, {})
        positions[0].add_collateral("ETH", 5.0)
        with pytest.raises(RuntimeError, match="mutated since"):
            valuation.pinned_total_collateral_usd()
        # A valuation whose pinned arrays were already materialized keeps
        # serving them (the dYdX write-off reads values row-by-row while
        # clearing earlier rows).
        fresh = book.valuation(prices, {})
        before = fresh.pinned_total_collateral_usd()
        positions[0].clear()
        assert fresh.pinned_total_collateral_usd() == before

    def test_revision_bumps_on_mutation_and_attach(self):
        book, positions = build_book(1)
        before = book.revision
        positions[0].add_collateral("ETH", 1.0)
        assert book.revision > before
        before = book.revision
        book.sync()
        assert book.revision == before  # sync is bookkeeping, not a change
        book.ensure_asset("YFI")
        assert book.revision > before


class TestBookMechanics:
    def test_attach_marks_row_dirty_and_sync_clears(self):
        book, positions = build_book(2)
        assert book.dirty_rows == frozenset({0, 1})
        assert book.sync() == 2
        assert book.dirty_rows == frozenset()
        positions[1].add_debt("ETH", 5.0)
        assert book.dirty_rows == frozenset({1})
        assert book.sync() == 1

    def test_clean_scan_syncs_nothing(self):
        book, positions = build_book(2)
        positions[0].add_collateral("ETH", 2.0)
        book.scan({"ETH": 100.0}, {"ETH": 0.8})
        assert book.sync() == 0

    def test_double_attach_rejected(self):
        book, positions = build_book(1)
        with pytest.raises(ValueError, match="already attached"):
            book.attach(positions[0])

    def test_copies_are_untracked(self):
        """What-if copies (quote previews) must not dirty the book."""
        book, positions = build_book(1)
        positions[0].add_debt("ETH", 1.0)
        book.sync()
        preview = positions[0].copy()
        preview.reduce_debt("ETH", 1.0)
        assert book.dirty_rows == frozenset()
        assert book.scan({"ETH": 10.0}, {"ETH": 0.8}).debt_usd[0] == pytest.approx(10.0)

    def test_new_asset_grows_columns_on_sync(self):
        book, positions = build_book(2)
        positions[0].add_collateral("YFI", 3.0)  # no pre-registered column
        scan = book.scan({"YFI": 1_000.0}, {"YFI": 0.5})
        assert "YFI" in book.assets
        assert scan.collateral_usd[0] == pytest.approx(3_000.0)
        assert scan.borrowing_capacity_usd[0] == pytest.approx(1_500.0)

    def test_row_capacity_growth_preserves_amounts(self):
        book = PositionBook()
        book.ensure_asset("ETH")
        positions = []
        for i in range(200):  # forces several capacity doublings
            position = Position(owner=make_address(f"grow-{i}"))
            book.attach(position)
            position.add_collateral("ETH", float(i))
            if i % 3 == 0:
                position.add_debt("ETH", 1.0)
            positions.append(position)
            if i % 10 == 0:
                book.sync()  # rows synced before a doubling keep their dust flags
        scan = book.scan({"ETH": 2.0}, {"ETH": 0.5})
        assert scan.collateral_usd[123] == pytest.approx(246.0)
        assert scan.has_collateral.tolist() == [position.has_collateral for position in positions]
        assert scan.has_debt.tolist() == [position.has_debt for position in positions]
        assert len(book) == 200

    def test_health_factors_match_scalar(self):
        book, positions = build_book(3)
        positions[0].add_collateral("ETH", 10.0)
        positions[0].add_debt("DAI", 500.0)
        positions[1].add_collateral("ETH", 10.0)  # debt-free: HF = inf
        prices = {"ETH": 100.0, "DAI": 1.0}
        thresholds = {"ETH": 0.8, "DAI": 0.8}
        hf = book.scan(prices, thresholds).health_factors()
        assert hf[0] == pytest.approx(positions[0].health_factor(prices, thresholds))
        assert np.isinf(hf[1]) and np.isinf(hf[2])

    def test_missing_price_and_threshold_match_scalar_capacity(self):
        """Missing thresholds contribute no capacity, as in Equation 3."""
        book, positions = build_book(1)
        positions[0].add_collateral("ETH", 4.0)
        scan = book.scan({"ETH": 100.0, "DAI": 1.0}, {})
        assert scan.borrowing_capacity_usd[0] == 0.0
        assert scan.collateral_usd[0] == pytest.approx(400.0)

    def test_candidate_margin_is_conservative_at_the_boundary(self):
        """A position with HF exactly 1 sits inside the margin: flagged by
        the prefilter, rejected by the scalar confirmation."""
        book, positions = build_book(1)
        positions[0].add_collateral("ETH", 1.0)
        positions[0].add_debt("DAI", 80.0)
        prices = {"ETH": 100.0, "DAI": 1.0}
        thresholds = {"ETH": 0.8}
        scan = book.scan(prices, thresholds)
        assert scan.borrowing_capacity_usd[0] == pytest.approx(scan.debt_usd[0])
        assert 0 in scan.candidate_rows()
        assert not positions[0].is_liquidatable(prices, thresholds)
        assert SCAN_MARGIN < 1e-6
