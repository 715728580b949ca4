"""Benchmark — telemetry overhead: traced vs bare runs, and disabled cost.

The telemetry subsystem is only viable if its two promises hold:

* **disabled is free** — every instrumentation site goes through
  ``repro.telemetry.runtime.span``, which is one module-global read and an
  ``is None`` test before returning a shared no-op singleton.  The micro
  section times exactly that call on a disabled runtime.
* **enabled is cheap** — with a tracer installed, every engine stride pays
  ~10 span enter/exits (one ``perf_counter_ns`` each way plus a record
  append).  The macro section times the same truncated seed-pinned scenario
  bare and with telemetry installed; the difference is exactly the spans.

Both runs build identical worlds (each chain mints its own ids) and
neither attaches probes, so the observer bus stays off in both — its cost
is bounded separately by ``test_watch_overhead``.  For reference the record also times
a fully-instrumented run (telemetry **and** the run fold, a
:class:`~repro.observers.probes.MetricsAccumulator`, exposed through the
registry's :func:`~repro.telemetry.run_families` collector), which stacks the
bus cost on top.

With ``BENCH_RECORD=1`` the result is written to ``BENCH_telemetry.json``
at the repo root.  The <3 % overhead ceiling is asserted only under
``BENCH_ENFORCE=1`` (the dedicated CI benchmark job): shared tier-1 runners
are too noisy to gate the matrix on a timing.
"""

from __future__ import annotations

import os
import time
import warnings
from pathlib import Path

from conftest import write_bench_record

from repro import scenarios
from repro.observers.probes import MetricsAccumulator
from repro.telemetry import Telemetry, enabled, run_families
from repro.telemetry.runtime import span

#: Block strides of the timed window (≈ half the `small` scenario).
STRIDES = 60
#: Best-of-N timing with per-round order alternation (see test_watch_overhead).
ROUNDS = 6
SEED = 11
#: Maximum tolerated slowdown of a telemetry-enabled run over a bare run.
OVERHEAD_CEILING = 0.03
#: Maximum tolerated cost of one disabled span() call (generous: the real
#: cost is a dict read and an identity test, tens of nanoseconds).
DISABLED_SPAN_CEILING_NS = 5_000
#: Iterations for the disabled-span micro measurement.
MICRO_CALLS = 200_000

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_telemetry.json"


def timed_run(mode: str) -> tuple[float, int]:
    """One truncated run; returns ``(seconds, spans_recorded)``.

    ``mode``: ``bare`` (telemetry off), ``traced`` (tracer installed), or
    ``full`` (tracer plus the run fold and its registry collector, bus
    active).
    """
    builder = scenarios.get("small").builder(seed=SEED)
    config = builder.config
    end_block = min(config.end_block, config.start_block + STRIDES * config.blocks_per_step)
    builder.config = config.with_overrides(end_block=end_block)
    engine = builder.build()
    if mode == "bare":
        start = time.perf_counter()
        engine.run()
        return time.perf_counter() - start, 0
    telemetry = Telemetry(name="bench")
    if mode == "full":
        fold = engine.attach_probe(MetricsAccumulator())
        telemetry.registry.add_collector(lambda: run_families(fold))
    with enabled(telemetry):
        start = time.perf_counter()
        engine.run()
        if mode == "full":
            telemetry.registry.exposition()  # one scrape, as `repro trace --metrics`
        elapsed = time.perf_counter() - start
    return elapsed, len(telemetry.tracer.records)


def disabled_span_cost_ns() -> float:
    """Mean cost of one ``span()`` call while telemetry is off."""
    start = time.perf_counter_ns()
    for _ in range(MICRO_CALLS):
        with span("engine.step"):
            pass
    return (time.perf_counter_ns() - start) / MICRO_CALLS


def test_telemetry_overhead():
    # Warm-up run to take imports and allocator noise out of the first round.
    timed_run("bare")

    best = {"bare": float("inf"), "traced": float("inf"), "full": float("inf")}
    spans_recorded = 0
    modes = ("bare", "traced", "full")
    for round_index in range(ROUNDS):
        # Rotate the order so clock-frequency drift biases no single mode.
        order = modes[round_index % 3 :] + modes[: round_index % 3]
        for mode in order:
            elapsed, spans_seen = timed_run(mode)
            best[mode] = min(best[mode], elapsed)
            if mode == "traced":
                spans_recorded = max(spans_recorded, spans_seen)

    assert spans_recorded > STRIDES * 5  # the tracer really saw the phases
    overhead = best["traced"] / best["bare"] - 1.0
    full_overhead = best["full"] / best["bare"] - 1.0
    noop_ns = disabled_span_cost_ns()

    record = {
        "benchmark": "telemetry_overhead",
        "scenario": "small",
        "strides": STRIDES,
        "rounds": ROUNDS,
        "bare_seconds": best["bare"],
        "traced_seconds": best["traced"],
        "full_seconds": best["full"],
        "overhead_fraction": overhead,
        "full_overhead_fraction": full_overhead,
        "spans_recorded": spans_recorded,
        "disabled_span_ns": noop_ns,
    }
    if os.environ.get("BENCH_RECORD"):
        write_bench_record(BENCH_PATH, record)

    message = (
        f"telemetry adds {overhead * 100:.1f}% overhead "
        f"({best['traced'] * 1e3:.0f} ms traced vs {best['bare'] * 1e3:.0f} ms bare; "
        f"full instrumentation {full_overhead * 100:.1f}%; "
        f"disabled span() costs {noop_ns:.0f} ns)"
    )
    if os.environ.get("BENCH_ENFORCE"):
        assert overhead < OVERHEAD_CEILING, message
        assert noop_ns < DISABLED_SPAN_CEILING_NS, message
    elif overhead >= OVERHEAD_CEILING:
        warnings.warn(message)
