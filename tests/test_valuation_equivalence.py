"""Seed-pinned equivalence: book-backed aggregates equal the scalar walks.

Aggregate valuations (protocol totals, archive snapshots, utilization-driven
interest accrual, the dYdX insurance write-off and the analytics sweeps)
run through the columnar :class:`~repro.core.position_book.BookValuation`.
Its *pinned* reductions — exact per-term products, scalar fixup of rows
with three or more nonzero entries, left-to-right row-order accumulation —
must give **bit-identical** numbers to the per-position walks written out
below, which are the reference.  One run per registered scenario checks
every call of those aggregates against its walk as the run makes it, and
Table 2, Table 3 and Figure 8 against the ``core`` scalar functions at the
end.  Bit-identical means equal canonical JSON: the shortest round-trip
float spelling, so a last-ulp difference (or an int 0 for a float 0.0)
cannot hide.
"""

import json
from collections import Counter

import numpy as np
import pytest

from repro import scenarios
from repro.analytics.bad_debt_analysis import PlatformBadDebt, bad_debt_table
from repro.analytics.sensitivity_analysis import PlatformSensitivity, sensitivity_figure
from repro.analytics.unprofitable_analysis import UnprofitableCell, unprofitable_table
from repro.chain.types import make_address
from repro.core.bad_debt import bad_debt_report
from repro.core.sensitivity import sensitivity_surface
from repro.core.unprofitable import best_liquidation_profit
from repro.protocols.base import LendingProtocol
from repro.protocols.dydx import DydxProtocol
from repro.serialize import to_jsonable

#: Number of block strides each truncated equivalence run covers.
STRIDES = 45

SEED = 29


def canonical(obj) -> str:
    return json.dumps(to_jsonable(obj), sort_keys=True)


# --------------------------------------------------------------------- #
# The scalar reference walks
# --------------------------------------------------------------------- #
def scalar_utilization(protocol, symbol: str) -> float:
    available = protocol.registry.get(symbol).balance_of(protocol.address)
    borrowed = sum(position.debt.get(symbol.upper(), 0.0) for position in protocol.positions.values())
    total = available + borrowed
    return 0.0 if total <= 0 else borrowed / total


def scalar_totals(protocol) -> tuple[float, float]:
    prices = protocol.prices()
    positions = protocol.positions.values()
    return (
        sum((position.total_collateral_usd(prices) for position in positions), 0.0),
        sum((position.total_debt_usd(prices) for position in positions), 0.0),
    )


def scalar_snapshot(protocol) -> dict:
    prices = protocol.prices()
    thresholds = protocol.liquidation_thresholds()
    collateral, debt = scalar_totals(protocol)
    return {
        "block": protocol.chain.current_block,
        "platform": protocol.name,
        "prices": dict(prices),
        "thresholds": dict(thresholds),
        "total_collateral_usd": collateral,
        "total_debt_usd": debt,
        "positions": [
            {
                "owner": position.owner.value,
                "collateral": dict(position.collateral),
                "debt": dict(position.debt),
                "health_factor": position.health_factor(prices, thresholds),
            }
            for position in protocol.open_positions()
        ],
    }


def scalar_write_offs(protocol) -> list[tuple[str, float]]:
    """(borrower, shortfall) of every position a scalar sweep writes off."""
    prices = protocol.prices()
    return [
        (position.owner.value, position.total_debt_usd(prices) - position.total_collateral_usd(prices))
        for position in protocol.positions.values()
        if position.is_under_collateralized(prices)
    ]


# --------------------------------------------------------------------- #
# Spies: every aggregate call checked against its walk
# --------------------------------------------------------------------- #
@pytest.fixture()
def checked_calls(monkeypatch) -> Counter:
    """Wrap the aggregates so each call asserts bit-identity with its
    scalar walk; returns the per-method call counts."""
    calls: Counter = Counter()

    def spy(cls, name, check):
        original = getattr(cls, name)

        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return check(self, lambda: original(self, *args, **kwargs), *args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    def utilization(protocol, call, symbol):
        result = call()
        assert canonical(result) == canonical(scalar_utilization(protocol, symbol)), (protocol.name, symbol)
        return result

    def accrual_positions(protocol, call):
        result = call()
        # Accrual over every position: skipping one is exact only when its
        # debts are all zeros, on which ``scale_debts`` changes nothing.
        kept = {id(position) for position in result}
        skipped = [position for position in protocol.positions.values() if id(position) not in kept]
        assert all(amount == 0.0 for position in skipped for amount in position.debt.values())
        assert len(result) + len(skipped) == len(protocol.positions)
        return result

    def total(index):
        def check(protocol, call):
            result = call()
            assert canonical(result) == canonical(scalar_totals(protocol)[index]), protocol.name
            return result

        return check

    def snapshot(protocol, call):
        result = call()
        assert canonical(result) == canonical(scalar_snapshot(protocol)), protocol.name
        return result

    def write_off(protocol, call):
        expected = scalar_write_offs(protocol)
        offset = len(protocol.chain.events)
        result = call()
        logged = [
            (event.data["borrower"], event.data["shortfall_usd"])
            for event in protocol.chain.events.since(offset, {"InsuranceWriteOff"})
        ]
        assert canonical(logged) == canonical(expected)
        written_off = 0.0
        for _, shortfall in expected:
            written_off += shortfall
        assert canonical(result) == canonical(written_off)
        return result

    spy(LendingProtocol, "utilization", utilization)
    spy(LendingProtocol, "_accrual_positions", accrual_positions)
    spy(LendingProtocol, "total_collateral_usd", total(0))
    spy(LendingProtocol, "total_debt_usd", total(1))
    spy(LendingProtocol, "snapshot", snapshot)
    spy(DydxProtocol, "write_off_bad_debt", write_off)
    return calls


def run_truncated(name: str):
    builder = scenarios.get(name).builder(seed=SEED)
    config = builder.config
    end_block = min(config.end_block, config.start_block + STRIDES * config.blocks_per_step)
    builder.config = config.with_overrides(end_block=end_block)
    return builder.run()


# --------------------------------------------------------------------- #
# The report tables against the core scalar functions
# --------------------------------------------------------------------- #
def scalar_bad_debt(protocol, fees_usd=(10.0, 100.0)) -> PlatformBadDebt:
    prices = protocol.prices()
    positions = protocol.positions_with_debt()
    by_fee = {fee: bad_debt_report(positions, prices, fee) for fee in fees_usd}
    reference = by_fee[fees_usd[0]]
    return PlatformBadDebt(
        platform=protocol.name,
        type_i_count=reference.type_i_count,
        type_i_collateral_usd=reference.type_i_collateral_usd,
        type_ii_by_fee=by_fee,
        total_positions=reference.total_positions,
    )


def scalar_unprofitable(protocol, fee_usd: float) -> UnprofitableCell:
    prices = protocol.prices()
    thresholds = protocol.liquidation_thresholds()
    liquidatable = unprofitable = 0
    unprofitable_collateral = 0.0
    for position in protocol.positions_with_debt():
        if not position.is_liquidatable(prices, thresholds):
            continue
        collateral_values = position.collateral_values(prices)
        if not collateral_values:
            continue
        liquidatable += 1
        collateral_symbol = max(collateral_values, key=collateral_values.get)
        profit = best_liquidation_profit(position, protocol.params_for(collateral_symbol), prices)
        if profit <= fee_usd:
            unprofitable += 1
            unprofitable_collateral += position.total_collateral_usd(prices)
    return UnprofitableCell(
        platform=protocol.name,
        transaction_fee_usd=fee_usd,
        liquidatable_positions=liquidatable,
        unprofitable_count=unprofitable,
        unprofitable_collateral_usd=unprofitable_collateral,
    )


def scalar_sensitivity(protocol) -> PlatformSensitivity:
    symbols = [
        symbol
        for symbol, market in protocol.markets.items()
        if market.collateral_enabled and market.liquidation_threshold > 0
    ]
    curves = sensitivity_surface(
        protocol.positions_with_debt(),
        symbols,
        protocol.prices(),
        protocol.liquidation_thresholds(),
        np.linspace(0.0, 1.0, 21),
    )
    return PlatformSensitivity(platform=protocol.name, curves=curves)


@pytest.mark.parametrize("name", scenarios.names())
def test_aggregate_backends_replay_identically(name, checked_calls):
    """The book-backed aggregates replay the scalar walks bit-for-bit."""
    result = run_truncated(name)
    bad_debt = bad_debt_table(result)
    assert canonical(bad_debt) == canonical({platform: scalar_bad_debt(result.protocol(platform)) for platform in bad_debt})
    unprofitable = unprofitable_table(result)
    expected_unprofitable = {
        platform: {fee: scalar_unprofitable(result.protocol(platform), fee) for fee in cells}
        for platform, cells in unprofitable.items()
    }
    assert canonical(unprofitable) == canonical(expected_unprofitable)
    sensitivity = sensitivity_figure(result)
    assert canonical(sensitivity) == canonical(
        {platform: scalar_sensitivity(result.protocol(platform)) for platform in sensitivity}
    )
    assert bad_debt and unprofitable and sensitivity

    # Once more on the final state, so every aggregate is checked even
    # where the window ends before the run itself calls it; the write-off
    # goes last, as it clears positions.
    for protocol in result.protocols:
        for symbol in protocol.markets:
            protocol.utilization(symbol)
        protocol._accrual_positions()
        protocol.total_collateral_usd()
        protocol.total_debt_usd()
        protocol.snapshot()
        if isinstance(protocol, DydxProtocol):
            protocol.write_off_bad_debt()
    for method in (
        "utilization",
        "_accrual_positions",
        "total_collateral_usd",
        "total_debt_usd",
        "snapshot",
        "write_off_bad_debt",
    ):
        assert checked_calls[method] > 0, method


def test_empty_side_totals_agree_across_backends():
    """A book with positions but no debt serializes the scalar walk's totals
    (float 0.0 from the pinned reduction, as the walk's 0.0 start gives)."""
    engine = scenarios.get("small").build(seed=SEED)
    protocol = engine.protocols[0]
    protocol.position_of(make_address("empty-sider"))  # attached, holds nothing
    assert canonical(protocol.snapshot()) == canonical(scalar_snapshot(protocol))
    assert canonical(protocol.total_debt_usd()) == canonical(0.0)
