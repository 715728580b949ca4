"""The block-stride simulation engine.

The engine wires together the substrates (chain, tokens, oracles, AMM, flash
loans), the four lending protocols and the agent population, and advances
them step by step.  One step corresponds to ``blocks_per_step`` real blocks:

1. scheduled incidents whose block has been reached fire (crashes trigger
   congestion, oracle overrides are applied, MakerDAO reconfigures auctions);
2. every price oracle refreshes from the market feed;
3. interest accrues and dYdX's insurance fund writes off bad debt
   (periodically);
4. background traffic is submitted so that blocks have a market-clearing gas
   price and congestion actually crowds out low bids;
5. agents act (borrowers manage positions, keepers bid, liquidators submit
   liquidation transactions); each contiguous run of borrowers acts as one
   :class:`~repro.agents.borrower.BorrowerCohort`, which calls only the
   borrowers whose turn could do something;
6. the chain mines the stride, executing the best-paying transactions.

The resulting chain (events, receipts, snapshots) is what the analytics
package consumes — exactly the artefacts the paper's measurement pipeline
reads from its archive node.

Consumers no longer have to wait for the archive: the engine carries an
:class:`~repro.observers.bus.ObserverBus` publishing typed
:class:`~repro.observers.events.SimEvent` s at every step phase
(``StepStarted`` → ``IncidentFired``/``PriceUpdated``/``SnapshotTaken`` →
``AuctionDealt``/``LiquidationSettled`` → ``BlockMined``), so probes stream
liquidations, health-factor alerts and per-step aggregates while the world
advances.  With no probes attached the bus is inert — events are not even
constructed — and probe-attached runs are bit-identical to bare runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .. import sanitize
from ..agents.borrower import plan_agents
from ..amm.router import AmmRouter
from ..chain.chain import Blockchain
from ..chain.types import Address
from ..core.position import Position
from ..flashloan.pool import FlashLoanProvider
from ..observers import events as sim_events
from ..observers.bus import ObserverBus, Probe
from ..oracle.chainlink import PriceOracle
from ..oracle.feed import PriceFeed
from ..protocols.base import LendingProtocol
from ..protocols.dydx import DydxProtocol
from ..protocols.fixed_spread_protocol import FixedSpreadProtocol
from ..protocols.makerdao import MakerDAOProtocol
from ..telemetry.runtime import span
from ..tokens.registry import TokenRegistry
from .config import ScenarioConfig
from .market import MarketMaker


@dataclass
class LiquidationOpportunity:
    """A liquidatable position on a fixed spread protocol, as seen by bots."""

    protocol: FixedSpreadProtocol
    borrower: Address
    debt_symbol: str
    collateral_symbol: str
    repay_amount: float
    expected_profit_usd: float
    health_factor: float


@dataclass
class ScheduledEvent:
    """A one-shot scenario event fired at (or after) a given block."""

    block: int
    name: str
    action: Callable[["SimulationEngine"], None]
    fired: bool = False


@dataclass
class SimulationResult:
    """Handle to everything an analytics pass needs after a run.

    The normalised liquidation records and the per-run aggregates are
    exposed as :attr:`records` and :attr:`metrics`.  Records prefer the
    streaming recorder when one was attached (zero extra work at read time)
    and fall back to the post-hoc crawl of the archive otherwise; metrics
    exist only as streamed, and reading them without a
    :class:`~repro.observers.probes.MetricsAccumulator` raises.  Probes
    attach only before the first step, so an attached probe saw the whole
    run.
    """

    engine: "SimulationEngine"
    _records_cache: "list | None" = field(default=None, repr=False, compare=False)

    @property
    def records(self) -> list:
        """The run's normalised :class:`~repro.analytics.records.LiquidationRecord` s.

        Backed by the attached :class:`~repro.observers.probes.LiquidationRecorder`
        when one streamed the run; otherwise the legacy
        :func:`~repro.analytics.records.extract_liquidations` crawl runs once
        and is cached.  Both paths yield field-for-field identical lists.
        """
        if self._records_cache is None:
            # Imported lazily: the analytics package imports this module.
            from ..analytics.records import extract_liquidations
            from ..observers.probes import LiquidationRecorder

            recorder = self.engine.bus.find(LiquidationRecorder)
            if recorder is not None:
                self._records_cache = recorder.records
            else:
                self._records_cache = extract_liquidations(self)
        return self._records_cache

    @property
    def metrics(self) -> dict:
        """Per-run aggregates (counts, USD totals, blocks, incidents…).

        Read from the run's :class:`~repro.observers.probes.MetricsAccumulator`
        (or a subclass); raises :class:`RuntimeError` without one, since no
        post-hoc count scopes ``price_updates`` to the run.
        """
        from ..observers.probes import MetricsAccumulator

        accumulator = self.engine.bus.find(MetricsAccumulator)
        if accumulator is None:
            raise RuntimeError("SimulationResult.metrics needs a MetricsAccumulator attached before the first step")
        return accumulator.metrics

    @property
    def chain(self) -> Blockchain:
        """The simulated chain (events, blocks, receipts, snapshots)."""
        return self.engine.chain

    @property
    def protocols(self) -> list[LendingProtocol]:
        """The protocol instances in their final state."""
        return self.engine.protocols

    @property
    def oracle(self) -> PriceOracle:
        """The main (Chainlink-style) oracle."""
        return self.engine.oracle

    @property
    def config(self) -> ScenarioConfig:
        """The scenario configuration of the run."""
        return self.engine.config

    @property
    def final_block(self) -> int:
        """The last mined block number."""
        latest = self.chain.latest_block
        return latest.number if latest else self.chain.current_block

    def protocol(self, name: str) -> LendingProtocol:
        """Look up a protocol by its display name (e.g. ``"Compound"``)."""
        return self.engine.protocol(name)


class SimulationEngine:
    """Owns the full simulated world and advances it step by step."""

    def __init__(
        self,
        config: ScenarioConfig,
        chain: Blockchain,
        registry: TokenRegistry,
        feed: PriceFeed,
        oracle: PriceOracle,
        protocols: list[LendingProtocol],
        protocol_oracles: dict[str, PriceOracle] | None = None,
        flash_loans: FlashLoanProvider | None = None,
        amm: AmmRouter | None = None,
        market_maker: MarketMaker | None = None,
    ) -> None:
        self.config = config
        self.chain = chain
        self.registry = registry
        self.feed = feed
        self.oracle = oracle
        self.protocols = protocols
        self.protocol_oracles = protocol_oracles or {}
        self.flash_loans = flash_loans or FlashLoanProvider()
        self.amm = amm or AmmRouter()
        self.market_maker = market_maker or MarketMaker(
            oracle=oracle, registry=registry, address=chain.new_address("market-maker")
        )
        #: Every agent, in acting order.  Write it only through
        #: :meth:`add_agent`, which rebuilds the plan.
        self.agents: list = []
        #: What the agents phase calls: the agents, with each contiguous run
        #: of borrowers folded into one cohort; built lazily.
        self._agent_plan: list | None = None
        self.scheduled_events: list[ScheduledEvent] = []
        #: The typed event stream.  Attach probes with :meth:`attach_probe`;
        #: with none attached every emission site is skipped entirely.
        self.bus = ObserverBus()
        self.step_index = 0
        #: Whether this step runs the sanitizer's per-stride cross-checks
        #: (read once per step, not once per scan or agent); ``None``
        #: outside :meth:`step`, where a scan reads the switch itself.
        self.sanitize_step: bool | None = None
        self.rng = np.random.default_rng(config.seed + 104729)
        #: Streaming cursor into the chain's append-only event store: chain
        #: logs past this offset have not yet been translated into typed
        #: events.  Starting at zero means a probe attached before the first
        #: step also sees liquidations from any pre-run setup transactions,
        #: keeping the streamed records equal to the post-hoc crawl.
        self._event_cursor = 0
        self._record_normalizers: tuple | None = None
        # Background fill has no sender, but its address is still minted:
        # the chain's address sequence, and every address after it, stays
        # the one the golden fingerprints pin.
        chain.new_address("background-traffic")
        self._fixed_spread_cache: list[LiquidationOpportunity] | None = None
        self._makerdao_cache: list[Address] | None = None
        self._protocols_by_name: dict[str, LendingProtocol] = {}

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #
    def add_agent(self, agent) -> None:
        """Register one agent; it acts from the next step on.

        Joining mints the agent's address from the world's chain.
        """
        agent.address = self.chain.new_address(agent.label)
        self.agents.append(agent)
        self._agent_plan = None

    def schedule(self, block: int, name: str, action: Callable[["SimulationEngine"], None]) -> None:
        """Register a one-shot scenario event."""
        self.scheduled_events.append(ScheduledEvent(block=block, name=name, action=action))

    def attach_probe(self, probe: Probe) -> Probe:
        """Attach an observer probe to the event bus and return it.

        Probes attach before the first step, so every probe observes the
        run's entire event stream; attaching one later raises
        :class:`RuntimeError`.  They must be passive (no world mutation, no
        engine-RNG consumption) so instrumented runs stay bit-identical.
        """
        if self.step_index:
            raise RuntimeError(f"probes attach before the first step; this engine is at step {self.step_index}")
        return self.bus.attach(probe)

    def protocol(self, name: str) -> LendingProtocol:
        """Look up a protocol by name (O(1) on cache hits).

        The name-keyed cache rebuilds on a miss or when the list length
        changes, so appends and removals are picked up automatically.  The
        one mutation it cannot detect is replacing a list element in place
        with a different object of the same name — call
        :meth:`invalidate_protocol_cache` after doing that.
        """
        cache = self._protocols_by_name
        if len(cache) != len(self.protocols) or name not in cache:
            cache = self._protocols_by_name = {protocol.name: protocol for protocol in self.protocols}
        try:
            return cache[name]
        except KeyError:
            raise KeyError(f"no protocol named {name!r}") from None

    def invalidate_protocol_cache(self) -> None:
        """Drop the name-keyed protocol cache (needed only after replacing
        an element of ``self.protocols`` in place)."""
        self._protocols_by_name = {}

    @property
    def makerdao(self) -> MakerDAOProtocol | None:
        """The MakerDAO instance, if the scenario includes one."""
        for protocol in self.protocols:
            if isinstance(protocol, MakerDAOProtocol):
                return protocol
        return None

    @property
    def dydx(self) -> DydxProtocol | None:
        """The dYdX instance, if the scenario includes one."""
        for protocol in self.protocols:
            if isinstance(protocol, DydxProtocol):
                return protocol
        return None

    def fixed_spread_protocols(self) -> list[FixedSpreadProtocol]:
        """Protocols using the atomic fixed spread mechanism."""
        return [protocol for protocol in self.protocols if isinstance(protocol, FixedSpreadProtocol)]

    def is_active(self, protocol: LendingProtocol) -> bool:
        """Whether the chain has reached the protocol's inception block."""
        return self.chain.current_block >= protocol.inception_block

    # ------------------------------------------------------------------ #
    # Per-step opportunity scans (shared by all liquidator / keeper agents)
    # ------------------------------------------------------------------ #
    def _liquidatable_candidates(self, protocol: LendingProtocol, require_collateral: bool = False) -> list[Position]:
        """Liquidatable positions of ``protocol``, from its step scan.

        The columnar book flags candidate rows and each is confirmed with
        the scalar health factor, so the result is exactly what the scalar
        sweep of :meth:`_scalar_candidates` returns, in the same order.
        """
        candidates = protocol.liquidatable_candidates(require_collateral=require_collateral)
        check = self.sanitize_step
        if check is None:
            check = sanitize.enabled() and self.step_index % sanitize.stride() == 0
        if check:
            self._cross_check_scan(protocol, require_collateral, candidates)
        return candidates

    def _scalar_candidates(self, protocol: LendingProtocol, require_collateral: bool) -> list[Position]:
        """The reference: a scalar sweep of every indebted position."""
        prices = protocol.prices()
        thresholds = protocol.liquidation_thresholds()
        return [
            position
            for position in protocol.positions_with_debt()
            if (position.has_collateral or not require_collateral)
            and position.is_liquidatable(prices, thresholds)
        ]

    def _cross_check_scan(
        self,
        protocol: LendingProtocol,
        require_collateral: bool,
        candidates: list[Position],
    ) -> None:
        """Sanitizer: the vectorized scan must equal the scalar sweep exactly.

        The vectorized scan is only allowed to exist because its
        margin-prefilter + scalar-confirmation construction returns the same
        positions in the same order as the reference sweep.  This re-derives
        the scalar answer every sanitize-stride-th step and insists on
        identity — catching a desynchronised book (stale rows the dirty
        tracking missed) at the step it first diverges.
        """
        reference = self._scalar_candidates(protocol, require_collateral)
        if [id(p) for p in candidates] != [id(p) for p in reference]:
            fast = [str(position.owner) for position in candidates]
            slow = [str(position.owner) for position in reference]
            raise sanitize.SanitizerError(
                f"vectorized liquidation scan of {protocol.name} diverged from "
                f"the scalar sweep at step {self.step_index} (block "
                f"{self.chain.current_block}): vectorized={fast} scalar={slow}; "
                "the position book no longer mirrors the position dictionaries"
            )

    def fixed_spread_opportunities(self) -> list[LiquidationOpportunity]:
        """Liquidatable positions on the fixed spread protocols, this step."""
        if self._fixed_spread_cache is not None:
            return self._fixed_spread_cache
        opportunities: list[LiquidationOpportunity] = []
        for protocol in self.fixed_spread_protocols():
            if not self.is_active(protocol):
                continue
            # One batched quote pass: a single prices/thresholds fetch is
            # shared across every flagged candidate (prices cannot move
            # within a step), instead of three oracle sweeps per candidate.
            with span("engine.scan"):
                candidates = self._liquidatable_candidates(protocol)
            with span("engine.quote"):
                for position, quote in protocol.quote_opportunities(candidates):
                    opportunities.append(
                        LiquidationOpportunity(
                            protocol=protocol,
                            borrower=position.owner,
                            debt_symbol=quote.debt_symbol,
                            collateral_symbol=quote.collateral_symbol,
                            repay_amount=quote.repay_amount,
                            expected_profit_usd=quote.profit_usd,
                            health_factor=quote.health_factor_before,
                        )
                    )
        self._fixed_spread_cache = opportunities
        return opportunities

    def makerdao_opportunities(self) -> list[Address]:
        """Unsafe MakerDAO vaults that can be bitten this step."""
        if self._makerdao_cache is not None:
            return self._makerdao_cache
        makerdao = self.makerdao
        if makerdao is None or not self.is_active(makerdao):
            self._makerdao_cache = []
            return self._makerdao_cache
        with span("engine.scan"):
            vaults = [
                position.owner
                for position in self._liquidatable_candidates(makerdao, require_collateral=True)
            ]
        self._makerdao_cache = vaults
        return vaults

    # ------------------------------------------------------------------ #
    # Stepping
    # ------------------------------------------------------------------ #
    def step(self):
        """Advance the world by one block stride and return the mined block.

        Every phase runs under a telemetry span (``engine.incidents`` …
        ``engine.mine``); with telemetry off each ``span()`` call returns a
        shared no-op, so the instrumentation is unmeasurable on bare runs.
        """
        with span("engine.step"):
            self.sanitize_step = sanitize.enabled() and self.step_index % sanitize.stride() == 0
            bus = self.bus if self.bus.active else None
            if bus:
                bus.emit(
                    sim_events.StepStarted(
                        step_index=self.step_index, block_number=self.chain.current_block
                    )
                )
            with span("engine.incidents"):
                self._fire_scheduled_events()
            with span("engine.oracles"):
                self._update_oracles()
            with span("engine.maintenance"):
                self._periodic_maintenance()
            self._fixed_spread_cache = None
            self._makerdao_cache = None
            with span("engine.traffic"):
                self._submit_background_traffic()
            with span("engine.agents"):
                plan = self._agent_plan
                if plan is None:
                    plan = self._agent_plan = plan_agents(self.agents)
                for actor in plan:
                    actor.act(self)
            with span("engine.mine"):
                block = self.chain.mine_block()
            if bus:
                with span("engine.probes"):
                    self._stream_chain_events(bus)
                    bus.emit(
                        sim_events.BlockMined(
                            step_index=self.step_index,
                            block_number=block.number,
                            n_receipts=len(block.receipts) + len(block.fill_gas_prices),
                            gas_used=block.gas_used,
                            base_gas_price_wei=block.base_gas_price,
                        )
                    )
            self.step_index += 1
            self.sanitize_step = None
            return block

    def run(self, n_steps: int | None = None) -> SimulationResult:
        """Run until the configured end block (or for ``n_steps`` strides)."""
        remaining = n_steps if n_steps is not None else self.config.n_steps
        bus = self.bus if self.bus.active else None
        if bus:
            bus.emit(
                sim_events.RunStarted(
                    step_index=self.step_index,
                    block_number=self.chain.current_block,
                    n_steps=remaining,
                    end_block=self.config.end_block,
                )
            )
        for _ in range(remaining):
            if self.chain.current_block > self.config.end_block:
                break
            self.step()
        # Final archive capture — unless the pending block is already
        # snapshotted (periodic snapshotting hit it, or a previous run()
        # call ended here), in which case re-capturing is pure waste.
        snapshot_blocks = self.chain.snapshot_blocks
        if not snapshot_blocks or snapshot_blocks[-1] != self.chain.current_block:
            with span("engine.snapshot"):
                self.chain.take_snapshot()
            if bus:
                bus.emit(
                    sim_events.SnapshotTaken(
                        step_index=self.step_index, block_number=self.chain.current_block
                    )
                )
        if bus:
            bus.emit(
                sim_events.RunCompleted(
                    step_index=self.step_index,
                    block_number=self.chain.current_block,
                    final_block=self.chain.latest_block.number
                    if self.chain.latest_block
                    else self.chain.current_block,
                )
            )
            bus.finalize()
        return SimulationResult(engine=self)

    # ------------------------------------------------------------------ #
    # Step phases
    # ------------------------------------------------------------------ #
    def _fire_scheduled_events(self) -> None:
        # Fire in block order over a snapshot, then re-scan: an action may
        # legitimately schedule further events (possibly already due, or due
        # at a block before ``start_block``), so the list can grow while
        # firing.  Marking ``fired`` before calling the action keeps a
        # re-entrant scan from firing the same event twice.
        while True:
            due = [
                event
                for event in self.scheduled_events
                if not event.fired and self.chain.current_block >= event.block
            ]
            if not due:
                return
            due.sort(key=lambda event: event.block)
            for event in due:
                if event.fired:
                    continue
                event.fired = True
                event.action(self)
                if self.bus.active:
                    self.bus.emit(
                        sim_events.IncidentFired(
                            step_index=self.step_index,
                            block_number=self.chain.current_block,
                            name=event.name,
                            scheduled_block=event.block,
                        )
                    )

    def _update_oracles(self) -> None:
        bus = self.bus if self.bus.active else None
        self.oracle.update_from_feed()
        if bus:
            self._emit_price_updates(bus, self.oracle)
        for oracle in self.protocol_oracles.values():
            if oracle is not self.oracle:
                oracle.update_from_feed()
                if bus:
                    self._emit_price_updates(bus, oracle)

    def _emit_price_updates(self, bus: ObserverBus, oracle: PriceOracle) -> None:
        # Hot path: dozens of updates per stride.  The oracle keeps the
        # posted pairs on ``last_updates``, and positional construction
        # (fields: step_index, block_number, oracle, symbol, price) avoids
        # per-symbol price re-queries — both are what keep the active bus
        # inside its <5 % overhead budget.
        step_index = self.step_index
        block = self.chain.current_block
        name = oracle.config.name
        emit = bus.emit
        for symbol, price in oracle.last_updates:
            emit(sim_events.PriceUpdated(step_index, block, name, symbol, price))

    def _periodic_maintenance(self) -> None:
        if self.step_index % self.config.interest_accrual_every_steps == 0:
            accrued = []
            for protocol in self.protocols:
                if self.is_active(protocol):
                    protocol.accrue_interest()
                    accrued.append(protocol.name)
            if accrued and self.bus.active:
                self.bus.emit(
                    sim_events.InterestAccrued(
                        step_index=self.step_index,
                        block_number=self.chain.current_block,
                        protocols=tuple(accrued),
                    )
                )
        dydx = self.dydx
        if dydx is not None and self.step_index % self.config.insurance_writeoff_every_steps == 0:
            if self.is_active(dydx):
                dydx.write_off_bad_debt()
        if self.config.snapshot_every_steps and self.step_index % self.config.snapshot_every_steps == 0:
            with span("engine.snapshot"):
                self.chain.take_snapshot()
            if self.bus.active:
                self.bus.emit(
                    sim_events.SnapshotTaken(
                        step_index=self.step_index, block_number=self.chain.current_block
                    )
                )

    def _stream_chain_events(self, bus: ObserverBus) -> None:
        """Translate freshly appended chain logs into typed events.

        Runs after the stride is mined: every liquidation-bearing log past
        the streaming cursor becomes an :class:`AuctionDealt` and/or a
        :class:`LiquidationSettled` carrying the same normalised record the
        post-hoc crawl would produce.  The cursor starts at zero, so the
        first drain also translates the logs of any pre-run setup
        transactions.
        """
        normalizers = self._record_normalizers
        if normalizers is None:
            # Imported lazily (the analytics package imports this module)
            # and cached: the drain runs on every observed stride.
            from ..analytics.common import FIXED_SPREAD_LIQUIDATION_EVENTS
            from ..analytics.records import LIQUIDATION_EVENTS, auction_record, fixed_spread_record

            normalizers = self._record_normalizers = (
                frozenset(LIQUIDATION_EVENTS),
                frozenset(FIXED_SPREAD_LIQUIDATION_EVENTS),
                fixed_spread_record,
                auction_record,
            )
        liquidation_names, fixed_spread_names, fixed_spread_record, auction_record = normalizers

        store = self.chain.events
        logs = store.since(self._event_cursor, liquidation_names)
        self._event_cursor = len(store)
        for log in logs:
            if log.name in fixed_spread_names:
                bus.emit(
                    sim_events.LiquidationSettled(
                        step_index=self.step_index,
                        block_number=log.block_number,
                        record=fixed_spread_record(self.chain, log),
                    )
                )
            elif log.name == "Deal":
                data = log.data
                bus.emit(
                    sim_events.AuctionDealt(
                        step_index=self.step_index,
                        block_number=log.block_number,
                        auction_id=data.get("auction_id"),
                        borrower=data.get("borrower"),
                        winner=data.get("winner"),
                        collateral_symbol=data.get("collateral_symbol"),
                        debt_repaid=data.get("debt_repaid", 0.0),
                        collateral_won=data.get("collateral_won", 0.0),
                    )
                )
                record = auction_record(self.chain, self.oracle, log)
                if record is not None:
                    bus.emit(
                        sim_events.LiquidationSettled(
                            step_index=self.step_index,
                            block_number=log.block_number,
                            record=record,
                        )
                    )

    def _submit_background_traffic(self) -> None:
        """Fill blocks with ordinary traffic around the market gas price.

        During congestion episodes the demand exceeds capacity, so only bids
        above the (congested) market level land — this is what prices out
        keeper bots computing gas from stale, uncongested estimates.
        """
        market = self.chain.gas_market
        stride_budget = self.chain.config.block_gas_limit * max(self.chain.config.blocks_per_step, 1)
        fill = (
            self.config.background_fill_congested
            if market.is_congested
            else self.config.background_fill_normal
        )
        n_chunks = 40
        gas_each = max(int(stride_budget * fill / n_chunks), 21_000)
        base = market.base_gas_price_wei
        # One vectorized draw per step; the stream is identical to the former
        # per-chunk scalar draws, so seeded runs are unchanged.
        multipliers = self.rng.lognormal(0.0, 0.35, size=n_chunks)
        gas_prices = [max(int(base * multiplier), 1) for multiplier in multipliers.tolist()]
        self.chain.submit_fill(gas_prices, gas_each)
