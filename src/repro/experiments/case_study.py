"""Experiment E-T5/T6 — Section 5.2.2's case study (Tables 5 and 6).

The paper replays the most profitable fixed spread liquidation it observes —
a Compound position holding 108.51 M DAI + 17.88 M USDC of collateral against
93.22 M DAI + 506.64 K USDC of debt — on a fork of the mainnet state, and
compares three strategies after the liquidator's DAI oracle update (1.08 →
1.095299 USD/DAI):

* the original liquidation (repaying 46.14 M USD of DAI debt),
* the up-to-close-factor strategy (repaying CF = 50 % of the DAI debt), and
* the optimal two-step strategy of Algorithm 2.

Here the same position is reconstructed inside the simulator's Compound
implementation and all three strategies are executed on identical state; the
closed-form results of Section 5.2.1 are evaluated alongside as a
cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analytics.reporting import format_table
from ..analytics.common import pinned_sum, usd
from ..chain.chain import Blockchain, ChainConfig
from ..core.optimal_strategy import (
    SimplePosition,
    StrategyOutcome,
    mitigation_analysis,
    optimal_strategy,
    up_to_close_factor_strategy,
)
from ..core.terminology import LiquidationParams
from ..oracle.chainlink import OracleConfig, PriceOracle
from ..oracle.feed import PriceFeed
from ..protocols.compound import CompoundProtocol
from ..tokens.registry import default_registry

#: Table 5's position, prices and parameters.
CASE_STUDY_BLOCK = 11_333_036
DAI_PRICE_BEFORE = 1.08
DAI_PRICE_AFTER = 1.095299
USDC_PRICE = 1.0
COLLATERAL_DAI = 108_510_000.0
COLLATERAL_USDC = 17_880_000.0
DEBT_DAI = 93_220_000.0
DEBT_USDC = 506_640.0
LIQUIDATION_THRESHOLD = 0.75
LIQUIDATION_SPREAD = 0.08
CLOSE_FACTOR = 0.5
#: The original liquidation repaid 46.14 M DAI of debt (Table 6's first row).
ORIGINAL_REPAY_DAI = 46_140_000.0


@dataclass(frozen=True)
class PositionStatus:
    """One column of Table 5 (before / after the oracle update)."""

    dai_price: float
    total_collateral_usd: float
    borrowing_capacity_usd: float
    total_debt_usd: float

    @property
    def health_factor(self) -> float:
        """BC / debt (Equation 4)."""
        return self.borrowing_capacity_usd / self.total_debt_usd


@dataclass(frozen=True)
class StrategyExecution:
    """One strategy's replayed outcome (a column group of Table 6)."""

    name: str
    repays_usd: tuple[float, ...]
    collateral_received_usd: float
    profit_usd: float


@dataclass(frozen=True)
class CaseStudyData:
    """Tables 5 and 6 plus the analytic cross-check."""

    before: PositionStatus
    after: PositionStatus
    executions: tuple[StrategyExecution, ...]
    analytic_up_to_close: StrategyOutcome
    analytic_optimal: StrategyOutcome
    optimal_extra_profit_usd: float
    mitigation_alpha_threshold: float


def _position_status(dai_price: float) -> PositionStatus:
    collateral = COLLATERAL_DAI * dai_price + COLLATERAL_USDC * USDC_PRICE
    debt = DEBT_DAI * dai_price + DEBT_USDC * USDC_PRICE
    return PositionStatus(
        dai_price=dai_price,
        total_collateral_usd=collateral,
        borrowing_capacity_usd=collateral * LIQUIDATION_THRESHOLD,
        total_debt_usd=debt,
    )


def _build_compound_fork() -> tuple[CompoundProtocol, PriceOracle]:
    """Reconstruct the case-study state on a fresh Compound instance."""
    registry = default_registry()
    feed = PriceFeed(
        start_block=CASE_STUDY_BLOCK,
        blocks_per_step=1,
        series={"DAI": [DAI_PRICE_BEFORE], "USDC": [USDC_PRICE], "ETH": [500.0]},
    )
    chain = Blockchain(ChainConfig(inception_block=CASE_STUDY_BLOCK))
    oracle = PriceOracle(chain, feed, OracleConfig(name="compound-open-oracle"))
    oracle.update_from_feed()
    compound = CompoundProtocol(
        chain,
        oracle,
        registry,
        markets={"DAI": LIQUIDATION_THRESHOLD, "USDC": LIQUIDATION_THRESHOLD, "ETH": 0.75},
        liquidation_spread=LIQUIDATION_SPREAD,
    )
    borrower = chain.new_address("case-study-borrower")
    position = compound.position_of(borrower)
    position.add_collateral("DAI", COLLATERAL_DAI)
    position.add_collateral("USDC", COLLATERAL_USDC)
    position.add_debt("DAI", DEBT_DAI)
    position.add_debt("USDC", DEBT_USDC)
    # Custody: the pool holds the collateral tokens backing the position.
    registry.get("DAI").mint(compound.address, COLLATERAL_DAI)
    registry.get("USDC").mint(compound.address, COLLATERAL_USDC)
    return compound, oracle


def _execute_strategy(name: str, repay_plan_usd: list[float]) -> StrategyExecution:
    """Replay a strategy (a list of successive repay values) on fresh state."""
    compound, oracle = _build_compound_fork()
    # The liquidator first performs the oracle price update (Section 5.2.2).
    oracle.post_price("DAI", DAI_PRICE_AFTER)
    borrower = next(iter(compound.positions))
    liquidator = compound.chain.new_address(f"case-study-liquidator-{name}")
    dai = compound.registry.get("DAI")
    repays: list[float] = []
    received_usd = 0.0
    for repay_usd in repay_plan_usd:
        repay_amount = repay_usd / DAI_PRICE_AFTER
        # The analytic plan is expressed on the aggregate position (DAI +
        # USDC debt); the on-protocol close factor applies per currency, so a
        # liquidator caps each call at the DAI-debt limit.
        repay_amount = min(repay_amount, compound.max_repay_amount(borrower, "DAI"))
        dai.mint(liquidator, repay_amount)
        result = compound.liquidation_call(liquidator, borrower, "DAI", "DAI", repay_amount)
        repays.append(result.quote.repay_usd)
        received_usd += result.quote.collateral_usd
    return StrategyExecution(
        name=name,
        repays_usd=tuple(repays),
        collateral_received_usd=received_usd,
        profit_usd=received_usd - pinned_sum(repays),
    )


def compute() -> CaseStudyData:
    """Replay the case study and evaluate the closed-form strategy comparison."""
    before = _position_status(DAI_PRICE_BEFORE)
    after = _position_status(DAI_PRICE_AFTER)
    params = LiquidationParams(
        liquidation_threshold=LIQUIDATION_THRESHOLD,
        liquidation_spread=LIQUIDATION_SPREAD,
        close_factor=CLOSE_FACTOR,
    )
    simple = SimplePosition(collateral_usd=after.total_collateral_usd, debt_usd=after.total_debt_usd)
    analytic_close = up_to_close_factor_strategy(simple, params)
    analytic_optimal = optimal_strategy(simple, params)
    mitigation = mitigation_analysis(simple, params)

    executions = (
        _execute_strategy("original", [ORIGINAL_REPAY_DAI * DAI_PRICE_AFTER]),
        _execute_strategy("up-to-close-factor", [CLOSE_FACTOR * DEBT_DAI * DAI_PRICE_AFTER]),
        _execute_strategy("optimal", list(analytic_optimal.repays_usd)),
    )
    original_profit = executions[0].profit_usd
    optimal_profit = executions[2].profit_usd
    return CaseStudyData(
        before=before,
        after=after,
        executions=executions,
        analytic_up_to_close=analytic_close,
        analytic_optimal=analytic_optimal,
        optimal_extra_profit_usd=optimal_profit - original_profit,
        mitigation_alpha_threshold=mitigation.alpha_threshold,
    )


def render(data: CaseStudyData) -> str:
    """Render Tables 5 and 6."""
    table5 = format_table(
        ["", "Block 11333036", "After price update"],
        [
            ("DAI price (USD)", f"{data.before.dai_price:.6f}", f"{data.after.dai_price:.6f}"),
            ("Total collateral", usd(data.before.total_collateral_usd), usd(data.after.total_collateral_usd)),
            ("Borrowing capacity", usd(data.before.borrowing_capacity_usd), usd(data.after.borrowing_capacity_usd)),
            ("Total debt", usd(data.before.total_debt_usd), usd(data.after.total_debt_usd)),
            ("Health factor", f"{data.before.health_factor:.4f}", f"{data.after.health_factor:.4f}"),
        ],
    )
    table6 = format_table(
        ["Strategy", "Repay", "Receive", "Profit"],
        [
            (
                execution.name,
                " + ".join(usd(value) for value in execution.repays_usd),
                usd(execution.collateral_received_usd),
                usd(execution.profit_usd),
            )
            for execution in data.executions
        ],
    )
    return (
        "Table 5 — case-study position status\n"
        + table5
        + "\n\nTable 6 — liquidation strategy comparison\n"
        + table6
        + f"\n\nOptimal vs original additional profit: {usd(data.optimal_extra_profit_usd)}"
        + f"\nMitigation (one liquidation per block): optimal preferred only above "
        + f"{data.mitigation_alpha_threshold:.2%} mining power"
    )
