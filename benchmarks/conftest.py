"""Shared fixtures and helpers for the benchmark harness.

The two-year scenario is simulated once per benchmark session (the
``paper-medium`` registry scenario: full study window, reduced agent
population) and every table/figure benchmark then measures its analytics
pass against that run and prints the regenerated rows/series for comparison
with the paper.

Use ``scenarios.get("paper-full")`` instead of ``paper-medium`` for a
full-scale run (slower, larger agent population).

Every throughput/overhead benchmark that records a ``BENCH_*.json`` writes
it through :func:`write_bench_record`, which stamps the commit measured
(``bench_trajectory.py`` merges a record only under that commit) and the
host context (CPU count, platform, a hostname hash) so trajectory entries
from different machines are tellable apart without leaking the actual
hostname.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import socket
from pathlib import Path

import pytest
from bench_trajectory import measured_commit

from repro import scenarios
from repro.analytics.records import extract_liquidations


def host_context() -> dict:
    """Where a benchmark record was measured (stable within one machine)."""
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "hostname_sha256": hashlib.sha256(socket.gethostname().encode()).hexdigest()[:12],
    }


def write_bench_record(path: Path | str, record: dict) -> None:
    """Write one ``BENCH_*.json`` record, stamped with its commit and host."""
    stamped = {**record, **measured_commit(Path(__file__).resolve().parents[1]), "host": host_context()}
    Path(path).write_text(json.dumps(stamped, indent=2) + "\n")


@pytest.fixture(scope="session")
def scenario_result():
    """The completed two-year (medium-population) scenario run."""
    return scenarios.get("paper-medium").run(seed=7)


@pytest.fixture(scope="session")
def records(scenario_result):
    """Normalised liquidation records of the scenario run."""
    return extract_liquidations(scenario_result)
