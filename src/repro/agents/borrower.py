"""Borrower agents.

Borrowers open leveraged positions on a lending protocol and manage them with
varying degrees of attention.  Three behavioural traits drive the study's
headline phenomena:

* *attentiveness* — attentive borrowers top up collateral when their health
  factor approaches 1, inattentive ones do not and get liquidated when prices
  fall (the bulk of Figure 4's liquidation volume);
* *diversification* — Aave V2 borrowers prefer multi-asset collateral, which
  is what makes Aave V2 less sensitive to single-currency declines in
  Figure 8 (Section 4.5.1);
* *dust positions* — a population of very small positions whose excess
  collateral cannot cover a closing transaction fee, producing Table 2's
  Type II bad debt.

The engine drives each contiguous run of borrowers through one
:class:`BorrowerCohort`, which decides whom to call each step;
:class:`BorrowerAgent` stays the unit of behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .. import sanitize
from ..core.position_book import SCAN_MARGIN
from ..protocols.base import LendingProtocol, ProtocolError
from .base import Agent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simulation.engine import SimulationEngine


@dataclass
class BorrowerProfile:
    """Behavioural parameters of one borrower."""

    collateral_symbols: tuple[str, ...] = ("ETH",)
    debt_symbol: str = "DAI"
    collateral_usd: float = 50_000.0
    target_health_factor: float = 1.25
    attentive: bool = True
    topup_trigger: float = 1.08
    entry_step: int = 0


class BorrowerAgent(Agent):
    """A borrower managing a single position on one protocol."""

    def __init__(
        self,
        label: str,
        rng: np.random.Generator,
        protocol: LendingProtocol,
        profile: BorrowerProfile,
    ) -> None:
        super().__init__(label, rng)
        self.protocol = protocol
        self.profile = profile
        self.opened = False
        self.closed = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def act(self, engine: "SimulationEngine") -> None:
        """Open the position at the entry step, then manage it."""
        if self.closed:
            return
        if not self.opened:
            if engine.step_index >= self.profile.entry_step and engine.is_active(self.protocol):
                self._open_position(engine)
            return
        if self.profile.attentive:
            self._manage_position(engine)

    def _open_position(self, engine: "SimulationEngine") -> None:
        """Deposit collateral and borrow up to the target health factor."""
        prices = self.protocol.prices()
        thresholds = self.protocol.liquidation_thresholds()
        weights = self._collateral_weights()
        deposited_value = 0.0
        capacity = 0.0
        for symbol, weight in weights.items():
            if symbol not in self.protocol.markets or not self.protocol.markets[symbol].collateral_enabled:
                continue
            price = prices.get(symbol)
            if not price or price <= 0:
                continue
            value = self.profile.collateral_usd * weight
            amount = value / price
            token = engine.registry.ensure(symbol)
            token.mint(self.address, amount)
            try:
                self.protocol.deposit(self.address, symbol, amount)
            except ProtocolError:
                continue
            deposited_value += value
            capacity += value * thresholds.get(symbol, 0.0)
        if deposited_value <= 0 or capacity <= 0:
            self.closed = True
            return
        debt_symbol = self.profile.debt_symbol
        debt_price = prices.get(debt_symbol, self.protocol.oracle.price(debt_symbol))
        target_debt_usd = capacity / self.profile.target_health_factor
        borrow_amount = target_debt_usd / debt_price
        try:
            self.protocol.borrow(self.address, debt_symbol, borrow_amount)
        except ProtocolError:
            # Not enough pool liquidity or capacity rounding: try a smaller loan.
            try:
                self.protocol.borrow(self.address, debt_symbol, borrow_amount * 0.9)
            except ProtocolError:
                self.closed = True
                return
        self.opened = True

    def _manage_position(self, engine: "SimulationEngine") -> None:
        """Top up collateral when the health factor nears the liquidation point.

        This is the reference implementation: :class:`BorrowerCohort` skips
        only the borrowers the step scan proves would return here unchanged.
        """
        position = self.protocol.position_of(self.address)
        if not position.has_debt:
            return
        prices = self.protocol.prices()
        thresholds = self.protocol.liquidation_thresholds()
        health = position.health_factor(prices, thresholds)
        if health >= self.profile.topup_trigger:
            return
        # Restore the target health factor by adding more of the main collateral.
        main_symbol = self.profile.collateral_symbols[0]
        if main_symbol not in self.protocol.markets:
            return
        price = prices.get(main_symbol, 0.0)
        if price <= 0:
            return
        debt_usd = position.total_debt_usd(prices)
        capacity_needed = debt_usd * self.profile.target_health_factor
        capacity_now = position.borrowing_capacity(prices, thresholds)
        shortfall_usd = max(capacity_needed - capacity_now, 0.0)
        threshold = thresholds.get(main_symbol, 0.0)
        if threshold <= 0 or shortfall_usd <= 0:
            return
        amount = shortfall_usd / threshold / price
        token = engine.registry.ensure(main_symbol)
        token.mint(self.address, amount)
        try:
            self.protocol.deposit(self.address, main_symbol, amount)
        except ProtocolError:
            pass

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _collateral_weights(self) -> dict[str, float]:
        """Normalised collateral allocation across the profile's symbols."""
        symbols = self.profile.collateral_symbols
        if len(symbols) == 1:
            return {symbols[0]: 1.0}
        raw = self.rng.dirichlet(np.ones(len(symbols)) * 2.0)
        return {symbol: float(weight) for symbol, weight in zip(symbols, raw)}


class BorrowerCohort:
    """One contiguous run of borrowers, acting as a group each step.

    Each step the cohort calls ``act`` only on the borrowers whose call
    could do something, in their original agent order:

    * unopened borrowers whose entry step has arrived, from a list stably
      sorted by ``entry_step``;
    * open attentive borrowers whose row in the protocol's
      :meth:`~repro.protocols.base.LendingProtocol.step_scan` fails
      ``BC ≥ debt × topup_trigger × (1 + SCAN_MARGIN)`` — one vectorized
      comparison per protocol over rows and triggers cached as arrays until
      the membership changes.

    Closed borrowers are dropped, and inattentive ones once they have opened.

    Skipping is bit-identical to calling everyone:

    * a skipped borrower's ``act`` is a no-op — it has not reached its
      entry step, or its scalar health factor is at or above its trigger,
      because the scan's re-associated sums differ from the scalar ones by
      rounding far inside the margin;
    * within the agents phase only a borrower itself touches its row
      (interest accrues in maintenance, liquidations execute at mine), so
      a scan taken when the cohort starts holds for every member;
    * agent generators are private, so a call not made consumes no draw.

    On sanitizer steps (``engine.sanitize_step``) every borrower acts in
    order, and one the cohort would have skipped must leave its book's
    revision and the chain's event log untouched.
    """

    def __init__(self, borrowers: Sequence[BorrowerAgent]) -> None:
        self.borrowers = list(borrowers)
        #: Indices of borrowers not yet opened or closed, by entry step.
        self._unopened = sorted(
            (index for index, borrower in enumerate(self.borrowers) if not (borrower.opened or borrower.closed)),
            key=lambda index: self.borrowers[index].profile.entry_step,
        )
        #: Indices of open attentive borrowers, per protocol.
        self._watched: dict[LendingProtocol, list[int]] = {}
        #: Per protocol, the watched borrowers' book rows and top-up triggers.
        self._arrays: dict[LendingProtocol, tuple[np.ndarray, np.ndarray]] = {}
        for index, borrower in enumerate(self.borrowers):
            if borrower.opened and not borrower.closed and borrower.profile.attentive:
                self._watch(index)

    def act(self, engine: "SimulationEngine") -> None:
        """Call ``act`` on every borrower that could do something this step."""
        due = self._due_count(engine.step_index)
        selected = self._unopened[:due] + self._below_trigger()
        selected.sort()
        if engine.sanitize_step:
            self._act_all_checked(engine, set(selected))
        else:
            borrowers = self.borrowers
            for index in selected:
                borrowers[index].act(engine)
        self._settle(due)

    def _due_count(self, step_index: int) -> int:
        """How many unopened borrowers have reached their entry step."""
        due = 0
        for index in self._unopened:
            if self.borrowers[index].profile.entry_step > step_index:
                break
            due += 1
        return due

    def _below_trigger(self) -> list[int]:
        """Watched borrowers the step scan cannot prove at or above their trigger."""
        flagged: list[int] = []
        for protocol, members in self._watched.items():
            arrays = self._arrays.get(protocol)
            if arrays is None:
                arrays = self._arrays[protocol] = (
                    np.array(
                        [protocol.position_of(self.borrowers[index].address)._row for index in members],
                        dtype=np.intp,
                    ),
                    np.array([self.borrowers[index].profile.topup_trigger for index in members]),
                )
            rows, triggers = arrays
            scan = protocol.step_scan()
            # Negated, so a NaN row takes the scalar path too.
            clears = scan.borrowing_capacity_usd[rows] >= scan.debt_usd[rows] * triggers * (1.0 + SCAN_MARGIN)
            flagged.extend(members[position] for position in np.flatnonzero(~clears).tolist())
        return flagged

    def _watch(self, index: int) -> None:
        protocol = self.borrowers[index].protocol
        self._watched.setdefault(protocol, []).append(index)
        self._arrays.pop(protocol, None)

    def _settle(self, due: int) -> None:
        """Move the due borrowers that opened or closed out of the unopened list."""
        waiting = []
        for index in self._unopened[:due]:
            borrower = self.borrowers[index]
            if borrower.closed:
                continue
            if borrower.opened:
                if borrower.profile.attentive:
                    self._watch(index)
                continue
            waiting.append(index)
        self._unopened[:due] = waiting

    def _act_all_checked(self, engine: "SimulationEngine", selected: set[int]) -> None:
        """Sanitizer: the plain loop, with every would-be skip checked."""
        events = engine.chain.events
        for index, borrower in enumerate(self.borrowers):
            if index in selected:
                borrower.act(engine)
                continue
            book = borrower.protocol.book
            revision, n_events = book.revision, len(events)
            borrower.act(engine)
            if book.revision != revision or len(events) != n_events:
                raise sanitize.SanitizerError(
                    f"borrower cohort skipped {borrower.label} on {borrower.protocol.name} at "
                    f"step {engine.step_index} (block {engine.chain.current_block}), but its act "
                    f"moved the book from revision {revision} to {book.revision} and the event "
                    f"log from {n_events} to {len(events)} entries; the step scan is stale or "
                    "its margin too loose"
                )


def plan_agents(agents: Sequence) -> list:
    """``agents`` with each contiguous run of :class:`BorrowerAgent` s folded
    into one :class:`BorrowerCohort`; every entry has ``act(engine)``.

    Only exact ``BorrowerAgent`` instances join a cohort: a subclass may
    act differently, so it keeps its own call.
    """
    plan: list = []
    run: list[BorrowerAgent] = []
    for agent in agents:
        if type(agent) is BorrowerAgent:
            run.append(agent)
            continue
        if run:
            plan.append(BorrowerCohort(run))
            run = []
        plan.append(agent)
    if run:
        plan.append(BorrowerCohort(run))
    return plan
