"""The Prometheus families of one run, built from its fold at scrape time.

:func:`run_families` renders a run's
:class:`~repro.observers.probes.MetricsAccumulator` as its series: event
counts by kind, liquidation totals by platform and mechanism, oracle posts,
auction outcomes, block/step gauges and the per-stride gas histogram.
Register it on a registry with :meth:`~repro.telemetry.metrics.MetricsRegistry.add_collector`
(``repro watch --metrics-port``, ``repro trace --metrics``): the run is
counted once, by its fold, and only read on each scrape.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..observers.events import AuctionDealt, IncidentFired
from .metrics import Counter, Gauge, Histogram, _Family, _HistogramChild

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..observers.probes import MetricsAccumulator

__all__ = ["run_families"]


def run_families(fold: "MetricsAccumulator") -> list[_Family]:
    """The run's 11 families, valued from ``fold`` as it stands now."""
    # The metrics server scrapes from its own thread while the run advances:
    # each container is copied in one step under the GIL, and the settled
    # auctions are read before the kinds they are a part of, so the expired
    # ones never count below zero.
    settled = fold.auctions_settled
    by_kind = dict(fold.by_kind)
    by_mechanism = dict(fold.liquidations_by_mechanism)
    by_oracle = dict(fold.price_updates_by_oracle)
    gas_buckets = list(fold.gas_buckets)

    events = Counter("repro_events_total", "Simulation events published, by kind", ("kind",))
    for kind, count in by_kind.items():
        events.labels(kind=kind).inc(count)
    liquidations = Counter(
        "repro_liquidations_total",
        "Settled liquidations, by platform and mechanism",
        ("platform", "mechanism"),
    )
    for (platform, mechanism), count in by_mechanism.items():
        liquidations.labels(platform=platform, mechanism=mechanism).inc(count)
    repaid = Counter("repro_liquidation_repaid_usd_total", "USD repaid by liquidators", ())
    repaid.inc(fold.repaid_usd)
    seized = Counter("repro_liquidation_seized_usd_total", "USD of collateral seized", ())
    seized.inc(fold.collateral_usd)
    profit = Counter("repro_liquidation_profit_usd_total", "USD of liquidation profit", ())
    profit.inc(fold.gain_usd)
    incidents = Counter("repro_incidents_fired_total", "Scheduled scenario incidents fired", ())
    incidents.inc(by_kind.get(IncidentFired.__name__, 0))
    price_updates = Counter("repro_price_updates_total", "Oracle price posts", ("oracle",))
    for oracle, count in by_oracle.items():
        price_updates.labels(oracle=oracle).inc(count)
    auctions = Counter("repro_auctions_dealt_total", "MakerDAO auctions finalised", ("outcome",))
    expired = by_kind.get(AuctionDealt.__name__, 0) - settled
    for outcome, count in (("expired", expired), ("settled", settled)):
        if count:
            auctions.labels(outcome=outcome).inc(count)
    block = Gauge("repro_block_number", "Latest mined block number", ())
    block.set(fold.final_block)
    step = Gauge("repro_step_index", "Engine step counter", ())
    step.set(fold.step_index)
    gas = Histogram("repro_block_gas_used", "Gas used per mined stride", (), buckets=fold.GAS_BUCKETS)
    series = gas._only()
    assert isinstance(series, _HistogramChild)
    series.counts = gas_buckets[:-1]
    series.count = sum(gas_buckets)
    series.sum = fold.gas_used
    return [events, liquidations, repaid, seized, profit, incidents, price_updates, auctions, block, step, gas]
