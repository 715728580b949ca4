"""The traced pass: one world in this process, timed layer by layer.

Spans come from two places and land in one tracer, so self times nest
correctly: the program's own ``engine.*`` / ``chain.*`` /
``protocol.valuation`` spans (a :class:`~repro.telemetry.runtime.Telemetry`
is installed for the pass), and spans this module opens around calls into
each layer's public functions (``scenarios.*``, ``simulation.run``,
``analytics.records``, ``experiments.*``).  Calls too frequent for a span
each — agent ``act`` and ``PriceOracle.price_at`` — are counted and timed
by wrappers installed for the pass only, and GC pauses come from
``gc.callbacks``.  End-to-end metrics never come from a traced pass.

A world is traced the way its workload runs it: with the probes the
workload attaches (none for ``paper-full``; the executor's recorder and
accumulator for a campaign run, plus the service worker's event sink and
health sampler for a service job) and its reports rendered as text or, as
``run_json`` does for the run store, as JSON payloads.
"""

from __future__ import annotations

import gc
import time
from contextlib import ExitStack, nullcontext
from typing import Callable

#: Engine phases reported as ``simulation.<phase>_s`` (span self time).
ENGINE_PHASES = (
    "incidents", "oracles", "maintenance", "traffic", "agents",
    "scan", "quote", "mine", "snapshot", "probes",
)
CHAIN_PHASES = ("pack", "execute", "snapshot")

#: Spans whose self time is glue between named phases, not a phase: it
#: counts against the coverage line.
CONTAINER_SPANS = frozenset({"perfbench.world", "simulation.run", "engine.step", "experiments.reports"})


class CallTimer:
    """Count and time every call of one method of one class, while installed."""

    def __init__(self, cls: type, method: str) -> None:
        self.cls, self.method = cls, method
        self.calls = 0
        self.ns = 0

    def __enter__(self) -> "CallTimer":
        original = self._original = self.cls.__dict__[self.method]
        perf_ns = time.perf_counter_ns

        def timed(*args, **kwargs):
            started = perf_ns()
            try:
                return original(*args, **kwargs)
            finally:
                self.ns += perf_ns() - started
                self.calls += 1

        setattr(self.cls, self.method, timed)
        return self

    def __exit__(self, *exc_info) -> None:
        setattr(self.cls, self.method, self._original)

    @property
    def seconds(self) -> float:
        return self.ns / 1e9


class GcPauses:
    """Collector pauses of this process, from ``gc.callbacks``."""

    def __init__(self) -> None:
        self.collections = 0
        self.total_ns = 0
        self.max_ns = 0
        self._started = 0

    def _callback(self, phase: str, info: dict) -> None:
        now = time.perf_counter_ns()
        if phase == "start":
            self._started = now
            return
        pause = now - self._started
        self.collections += 1
        self.total_ns += pause
        self.max_ns = max(self.max_ns, pause)

    def __enter__(self) -> "GcPauses":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self._callback)


def _spanned(name: str, factory: Callable) -> Callable:
    """``factory`` with every call inside a span called ``name``."""
    from repro.telemetry.runtime import span

    def wrapped(*args):
        with span(name):
            return factory(*args)

    return wrapped


def executor_probes() -> tuple[Callable, ...]:
    """The probes ``execute_job`` attaches to every campaign and service run."""
    from repro.observers.probes import LiquidationRecorder, MetricsAccumulator

    return (lambda engine: LiquidationRecorder(), lambda engine: MetricsAccumulator())


def _render_reports(result, span, json_payloads: bool) -> None:
    """All reports: rendered as text, or as ``run_json``'s JSON payloads."""
    from repro.experiments.runner import EXPERIMENT_IDS, render_all, run_one

    with span("analytics.records"):
        records = result.records
    with span("experiments.reports"):
        outputs = {}
        for experiment_id in EXPERIMENT_IDS:
            with span(f"experiments.{experiment_id}"):
                output = run_one(result, experiment_id, records)
                outputs[experiment_id] = output.json_payload() if json_payloads else output
        if not json_payloads:
            render_all(outputs)


def untraced_world(make_builder: Callable, *, probes: tuple, json_payloads: bool) -> float:
    """Wall seconds of build + run + all reports, with nothing installed."""
    from repro.runtime_state import reset_run_state

    reset_run_state()
    started = time.perf_counter()
    result = make_builder().with_probes(*probes).run()
    _render_reports(result, lambda name: nullcontext(), json_payloads)
    return time.perf_counter() - started


def traced_world(
    make_builder: Callable, *, untraced_wall: float, probes: tuple = (), json_payloads: bool = False
) -> dict[str, float]:
    """Build, run and report one world with tracing on; per-layer metrics.

    ``make_builder`` returns a fresh :class:`~repro.scenarios.ScenarioBuilder`
    for the world, ``probes`` are the ``engine -> probe`` factories its
    workload attaches and ``json_payloads`` picks its report format (see
    the module docstring); ``untraced_wall`` is the same work's untraced
    wall time, the base of ``trace_overhead_frac``.
    """
    from repro.agents import (
        ArbitrageurAgent,
        AuctionKeeperAgent,
        BorrowerAgent,
        LenderAgent,
        LiquidatorAgent,
    )
    from repro.experiments.runner import EXPERIMENT_IDS
    from repro.oracle.chainlink import PriceOracle
    from repro.runtime_state import reset_run_state
    from repro.scenarios.builder import default_population
    from repro.telemetry.runtime import Telemetry, enabled, span
    from repro.telemetry.spans import aggregate_spans

    agent_timers = {
        "borrower": CallTimer(BorrowerAgent, "act"),
        "liquidator": CallTimer(LiquidatorAgent, "act"),
        "keeper": CallTimer(AuctionKeeperAgent, "act"),
        "lender": CallTimer(LenderAgent, "act"),
        "arbitrageur": CallTimer(ArbitrageurAgent, "act"),
    }
    oracle_timer = CallTimer(PriceOracle, "price_at")
    gc_pauses = GcPauses()
    telemetry = Telemetry(name="perfbench")

    reset_run_state()
    builder = make_builder()
    builder.with_price_feed(_spanned("scenarios.feed", builder.feed_factory))
    builder.with_protocol_factory(_spanned("scenarios.protocols", builder.protocol_factory))
    builder.with_agents(_spanned("scenarios.population", default_population))
    builder.with_probes(*probes)
    with ExitStack() as installed:
        for timer in (*agent_timers.values(), oracle_timer, gc_pauses):
            installed.enter_context(timer)
        installed.enter_context(enabled(telemetry))
        started = time.perf_counter()
        with span("perfbench.world"):
            with span("scenarios.build"):
                engine = builder.build()
            with span("simulation.run"):
                result = engine.run()
            _render_reports(result, span, json_payloads)
        wall = time.perf_counter() - started

    spans = aggregate_spans(telemetry.tracer.records)

    def total(name: str) -> float:
        return spans.get(name, {}).get("total_seconds", 0.0)

    def self_time(name: str) -> float:
        return spans.get(name, {}).get("self_seconds", 0.0)

    hits = builds = 0.0
    for series, value in telemetry.registry.snapshot().items():
        if series.startswith("repro_valuation_cache_total{"):
            if 'outcome="hit"' in series:
                hits += value
            elif 'outcome="build"' in series:
                builds += value

    metrics = {
        "scenarios.build_s": total("scenarios.build"),
        "scenarios.feed_s": total("scenarios.feed"),
        "scenarios.protocols_s": total("scenarios.protocols"),
        "scenarios.population_s": total("scenarios.population"),
        "simulation.run_s": total("simulation.run"),
        "simulation.steps": float(engine.step_index),
    }
    metrics.update({f"simulation.{phase}_s": self_time(f"engine.{phase}") for phase in ENGINE_PHASES})
    metrics.update({f"chain.{phase}_s": self_time(f"chain.{phase}") for phase in CHAIN_PHASES})
    for kind, timer in agent_timers.items():
        metrics[f"agents.{kind}_s"] = timer.seconds
        metrics[f"agents.{kind}_acts"] = float(timer.calls)
    metrics.update(
        {
            "protocols.valuation_s": self_time("protocol.valuation"),
            "protocols.valuation_builds": builds,
            "protocols.valuation_hits": hits,
            "protocols.valuation_hit_frac": hits / (hits + builds) if hits + builds else 0.0,
            "oracle.price_at_calls": float(oracle_timer.calls),
            "oracle.price_at_s": oracle_timer.seconds,
            "analytics.records_s": total("analytics.records"),
            "experiments.reports_s": total("experiments.reports"),
            "runtime.gc_pause_s": gc_pauses.total_ns / 1e9,
            "runtime.gc_pause_max_ms": gc_pauses.max_ns / 1e6,
            "runtime.gc_collections": float(gc_pauses.collections),
            "trace_overhead_frac": wall / untraced_wall - 1.0,
        }
    )
    metrics.update({f"experiments.{eid}_s": total(f"experiments.{eid}") for eid in EXPERIMENT_IDS})
    world = total("perfbench.world")
    glue = sum(self_time(name) for name in CONTAINER_SPANS)
    metrics["trace_coverage_frac"] = (world - glue) / world
    return metrics
