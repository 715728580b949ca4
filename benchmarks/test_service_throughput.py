"""Benchmark — concurrent-vs-serial throughput of the service supervisor.

Not a paper artefact: this measures what the ``repro serve`` supervisor adds
over one-at-a-time execution.  Four truncated ``small`` runs are executed
twice through the full service path — persistent worker processes, event
folding in the worker, progress chunks over the result queue, parent-side
alerting — once with a single worker slot and once with four, into
throwaway stores.  The speedup is
printed for comparison across machines; no floor is asserted (interpreter
start-up dominates on tiny windows and single-core runners can be slower
concurrently).

With ``BENCH_RECORD=1`` the result is written to ``BENCH_service.json`` at
the repo root, feeding the cross-commit ``BENCH_trajectory.json`` the CI
benchmark job merges and uploads.
"""

from __future__ import annotations

import asyncio
import os
import platform
import tempfile
import time
from pathlib import Path

from conftest import write_bench_record

from repro import scenarios
from repro.service import ServiceConfig, ServiceSupervisor

SEEDS = 4
BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_service.json"


def truncated_end_block(strides: int = 20) -> int:
    config = scenarios.get("small").builder(None).config
    return min(config.end_block, config.start_block + strides * config.blocks_per_step)


def serve_sweep(workers: int) -> tuple[float, int]:
    """Run the sweep through the service into a fresh store; (seconds, runs)."""
    with tempfile.TemporaryDirectory() as root:
        supervisor = ServiceSupervisor(ServiceConfig(store_root=root, workers=workers))
        supervisor.submit(
            {
                "kind": "sweep",
                "scenario": "small",
                "seeds": SEEDS,
                "overrides": {"end_block": truncated_end_block()},
                "experiments": ["table1"],
            }
        )
        started = time.perf_counter()
        summary = asyncio.run(
            supervisor.serve(exit_when_idle=True, install_signals=False)
        )
        return time.perf_counter() - started, summary.completed_runs


def test_service_throughput():
    serial_seconds, serial_runs = serve_sweep(workers=1)
    concurrent_seconds, concurrent_runs = serve_sweep(workers=4)
    assert serial_runs == concurrent_runs == SEEDS
    speedup = serial_seconds / concurrent_seconds

    if os.environ.get("BENCH_RECORD"):
        record = {
            "benchmark": "service_throughput",
            "seeds": SEEDS,
            "workers": 4,
            "serial_seconds": serial_seconds,
            "concurrent_seconds": concurrent_seconds,
            "speedup": speedup,
            "python": platform.python_version(),
        }
        write_bench_record(BENCH_PATH, record)

    print(
        f"\nservice sweep, {SEEDS} runs: 1 worker {serial_seconds:.2f}s, "
        f"4 workers {concurrent_seconds:.2f}s, "
        f"speedup {speedup:.2f}x"
    )
