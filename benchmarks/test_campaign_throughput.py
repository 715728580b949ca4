"""Benchmark — campaign throughput across worker counts.

Not a paper artefact: this measures the campaign fan-out layer the "millions
of runs" north star rests on.  Eight independent seeds of the truncated
``small`` window are swept once serially (the ground truth) and then through
the persistent backend at workers ∈ {1, 2, 4}, each on a fresh backend the
way ``repro sweep --workers N`` runs it — worker start-up included —
yielding the scaling curve.

The speedup floors are **host-aware** (a fixed floor was recorded
unsatisfiable on a ``cpu_count: 1`` runner):

* ``cpu_count >= 4``: the 4-worker sweep must reach ≥ 2.5× serial;
* ``cpu_count >= 2``: the 2-worker sweep must beat serial (≥ 1.2×);
* single-core hosts: parallelism cannot win, so the check inverts into a
  bounded-overhead assertion — the 4-worker sweep may cost at most 1.3×
  serial.

Floors are asserted only under ``BENCH_ENFORCE=1`` (the CI benchmark job);
an un-flagged local run just prints the curve.  With ``BENCH_RECORD=1`` the
full curve is written to ``BENCH_campaign.json`` at the repo root, feeding
the cross-commit ``BENCH_trajectory.json`` the CI benchmark job merges.
"""

from __future__ import annotations

import os
import platform
import tempfile
import time
from pathlib import Path

from conftest import write_bench_record

from repro.campaigns import CampaignExecutor, CampaignSpec, PersistentBackend, RunStore

SPEC = dict(
    scenario="small",
    seeds=8,
    overrides={"end_block": 9_780_000},
    experiments=("table1", "fig4"),
)

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_campaign.json"

#: Worker counts sampled for the persistent-backend scaling curve.
CURVE_WORKERS = (1, 2, 4)


def _sweep(root: str, backend) -> float:
    """Execute the campaign into ``root``; returns wall-clock seconds."""
    executor = CampaignExecutor(CampaignSpec(**SPEC), RunStore(root), backend=backend)
    started = time.perf_counter()
    result = executor.execute()
    elapsed = time.perf_counter() - started
    assert len(result.executed) == SPEC["seeds"], result.failed
    return elapsed


def test_campaign_throughput_scaling_curve():
    cpu_count = os.cpu_count() or 1
    with tempfile.TemporaryDirectory() as tmp:
        serial_seconds = _sweep(f"{tmp}/serial", backend=None)

        curve = []
        for workers in CURVE_WORKERS:
            with PersistentBackend(workers=workers) as backend:
                seconds = _sweep(f"{tmp}/persistent-{workers}", backend)
            curve.append(
                {
                    "workers": workers,
                    "seconds": round(seconds, 3),
                    "speedup": round(serial_seconds / seconds, 3),
                }
            )

    by_workers = {point["workers"]: point for point in curve}
    print(f"\ncampaign sweep, {SPEC['seeds']} seeds, serial {serial_seconds:.2f}s (cpu_count {cpu_count})")
    for point in curve:
        print(f"  persistent x{point['workers']}: {point['seconds']:.2f}s ({point['speedup']:.2f}x)")

    if os.environ.get("BENCH_RECORD"):
        record = {
            "benchmark": "campaign_throughput",
            "backend": "persistent",
            "seeds": SPEC["seeds"],
            "serial_seconds": round(serial_seconds, 3),
            "curve": curve,
            # The trajectory headline: the 4-worker speedup.
            "workers": 4,
            "parallel_seconds": by_workers[4]["seconds"],
            "speedup": by_workers[4]["speedup"],
            "python": platform.python_version(),
        }
        write_bench_record(BENCH_PATH, record)

    if os.environ.get("BENCH_ENFORCE"):
        if cpu_count >= 4:
            assert by_workers[4]["speedup"] >= 2.5, (
                f"4-worker sweep reached only {by_workers[4]['speedup']:.2f}x "
                f"on a {cpu_count}-core host (floor: 2.5x)"
            )
        if cpu_count >= 2:
            assert by_workers[2]["speedup"] >= 1.2, (
                f"2-worker sweep reached only {by_workers[2]['speedup']:.2f}x "
                f"on a {cpu_count}-core host (floor: 1.2x)"
            )
        else:
            # Single core: parallelism cannot win; it must at least not hurt
            # by more than dispatch overhead.
            overhead = by_workers[4]["seconds"] / serial_seconds
            assert overhead <= 1.3, (
                f"4-worker sweep cost {overhead:.2f}x serial on a single-core "
                "host (bounded-overhead ceiling: 1.3x)"
            )
