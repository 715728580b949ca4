"""The simulation service: event payloads, alerting, supervision, and the CLI.

Four layers of coverage, cheapest first:

* **payloads** — every event type of the taxonomy writes the JSON line of
  its full field dict (the ``repro watch --jsonl`` contract), and the OS
  pipe provides back-pressure (a slow consumer throttles the
  :class:`~repro.observers.sinks.JsonlSink` instead of losing events);
* **alerts** — tier thresholds, per-position cooldowns, escalation, and
  rapid-deterioration detection, all keyed on simulated blocks (no sleeping);
* **store equivalence** — the acceptance bar: for every registered scenario,
  a streaming run on a persistent worker produces bit-identical store
  artifacts to a plain in-process :func:`~repro.campaigns.executor.execute_job`,
  and its progress chunks add up to the same world's events and health
  samples folded in-process;
* **supervision** — the supervisor's dispatch threads end to end:
  concurrent jobs and their exact aggregate counts, an in-process drain,
  the HTTP surface, journal resume, and ``repro serve`` / ``repro watch``
  under SIGTERM as real subprocesses.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro import scenarios
from repro.analytics.records import LiquidationRecord
from repro.campaigns.backends import PersistentBackend, WorkerConfig
from repro.campaigns.executor import STREAM_CHUNK_ITEMS, ProgressChunk, ProgressProbe, RunJob, execute_job
from repro.campaigns.spec import RunSpec
from repro.campaigns.store import RunStore
from repro.observers import events as event_module
from repro.observers.events import (
    AuctionDealt,
    BlockMined,
    IncidentFired,
    InterestAccrued,
    LiquidationSettled,
    PriceUpdated,
    RunCompleted,
    RunStarted,
    SimEvent,
    SnapshotTaken,
    StepStarted,
)
from repro.observers.probes import HealthSample, HealthSampler
from repro.observers.sinks import JsonlSink
from repro.service import (
    AlertEngine,
    AlertPolicy,
    ServiceConfig,
    ServiceJournal,
    ServiceSupervisor,
    expand_job,
)
from repro.service.jobs import SubmissionError
from repro.telemetry.http import MetricsServer

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")

#: Block strides for the truncated equivalence/service runs (fast but still
#: crossing incidents, accrual and liquidations on every scenario).
STRIDES = 20
SEED = 13


def subprocess_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        f"{SRC_DIR}{os.pathsep}{env['PYTHONPATH']}" if env.get("PYTHONPATH") else SRC_DIR
    )
    return env


def truncated_end_block(name: str) -> int:
    config = scenarios.get(name).builder(None).config
    return min(config.end_block, config.start_block + STRIDES * config.blocks_per_step)


# --------------------------------------------------------------------- #
# Event payloads
# --------------------------------------------------------------------- #

SAMPLE_RECORD = LiquidationRecord(
    platform="Compound",
    mechanism="fixed-spread",
    block_number=9_704_800,
    month="2020-03",
    liquidator="0x00000000000000000000000000000000000000aa",
    borrower="0x00000000000000000000000000000000000000bb",
    debt_symbol="DAI",
    collateral_symbol="ETH",
    repaid_usd=500.0,
    collateral_usd=550.0,
    profit_usd=50.0,
    used_flash_loan=True,
    auction_id=None,
)

#: One instance of every concrete event type in the taxonomy.
SAMPLE_EVENTS: list[SimEvent] = [
    RunStarted(step_index=0, block_number=9_700_000, n_steps=100, end_block=9_780_000),
    StepStarted(step_index=1, block_number=9_700_800),
    IncidentFired(step_index=2, block_number=9_701_600, name="march-crash", scheduled_block=9_701_600),
    PriceUpdated(step_index=2, block_number=9_701_600, oracle="oracle", symbol="ETH", price=132.5),
    InterestAccrued(step_index=3, block_number=9_702_400, protocols=("Aave", "Compound")),
    SnapshotTaken(step_index=4, block_number=9_703_200),
    AuctionDealt(
        step_index=5,
        block_number=9_704_000,
        auction_id=7,
        borrower="0xb0",
        winner=None,
        collateral_symbol="ETH",
        debt_repaid=1_000.0,
        collateral_won=7.5,
    ),
    LiquidationSettled(step_index=6, block_number=9_704_800, record=SAMPLE_RECORD),
    BlockMined(step_index=7, block_number=9_705_600, n_receipts=3, gas_used=21_000, base_gas_price_wei=10**9),
    RunCompleted(step_index=8, block_number=9_706_400, final_block=9_706_399),
]


#: Every concrete event class of the taxonomy, keyed by its ``kind`` name.
EVENT_TYPES: dict[str, type[SimEvent]] = {
    obj.__name__: obj
    for obj in vars(event_module).values()
    if isinstance(obj, type) and issubclass(obj, SimEvent) and obj is not SimEvent
}


def test_sample_events_cover_the_whole_taxonomy():
    # Drift guard: extending the taxonomy must extend this suite's samples.
    assert {type(event).__name__ for event in SAMPLE_EVENTS} == set(EVENT_TYPES)


def reference_payload(event: SimEvent) -> dict:
    """The payload as ``dataclasses.asdict`` renders it (a deep copy)."""
    if isinstance(event, LiquidationSettled):
        data = dataclasses.asdict(event.record)
        data.update(event=event.kind, step_index=event.step_index, block_number=event.block_number)
        return data
    return {**dataclasses.asdict(event), "event": event.kind}


@pytest.mark.parametrize("event", SAMPLE_EVENTS, ids=lambda event: type(event).__name__)
def test_every_event_type_roundtrips(event):
    # The shallow payload writes the same JSON line as the deep-copied one
    # and parses back to it (tuples come back as lists).
    handle = io.StringIO()
    JsonlSink(handle).on_event(event)
    expected = json.dumps(reference_payload(event), sort_keys=True) + "\n"
    assert handle.getvalue() == expected
    assert json.loads(handle.getvalue()) == json.loads(expected)
    assert list(event.payload()) == list(reference_payload(event))


def test_pipe_backpressure_throttles_producer_without_losing_events():
    """A slow consumer stalls the writer on the full pipe; no event is lost."""
    read_fd, write_fd = os.pipe()
    try:  # shrink the kernel buffer so the writer blocks early
        import fcntl

        fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 4096)
    except (ImportError, AttributeError, OSError):  # pragma: no cover - non-Linux
        pass

    total = 2_000  # ~240 KB of lines, far beyond any pipe buffer
    writer_done = threading.Event()

    def produce() -> None:
        with os.fdopen(write_fd, "w", encoding="utf-8") as handle:
            sink = JsonlSink(handle)
            for index in range(total):
                sink.on_event(
                    PriceUpdated(
                        step_index=index, block_number=9_700_000 + index, oracle="o", symbol="ETH", price=float(index)
                    )
                )
            sink.finalize()
        writer_done.set()

    producer = threading.Thread(target=produce, daemon=True)
    producer.start()
    time.sleep(0.3)
    # The pipe is full and unread: the producer must be blocked in write().
    assert not writer_done.is_set(), "producer finished against an undrained pipe"

    with os.fdopen(read_fd, "r", encoding="utf-8") as reader:
        payloads = [json.loads(line) for line in reader]
    producer.join(timeout=10)
    assert writer_done.is_set()
    assert len(payloads) == total
    assert [payload["step_index"] for payload in payloads] == list(range(total))


# --------------------------------------------------------------------- #
# Alert engine
# --------------------------------------------------------------------- #


def sample(engine: AlertEngine, *, hf: float, block: int, owner: str = "0xa", platform: str = "Aave"):
    return engine.observe(
        HealthSample(platform, owner, health_factor=hf, debt_usd=1_000.0, block_number=block, step_index=0),
        job_id="job-0001",
        run_id="base-seed000",
    )


def test_alert_tiers_by_threshold():
    engine = AlertEngine(AlertPolicy(warning_hf=1.05, critical_hf=1.0))
    assert sample(engine, hf=1.2, block=100) == []
    (warning,) = sample(engine, hf=1.04, block=200, owner="0xw")
    assert (warning.tier, warning.reason) == ("warning", "threshold")
    (critical,) = sample(engine, hf=0.98, block=300, owner="0xc")
    assert (critical.tier, critical.reason) == ("critical", "threshold")
    assert engine.counts == {"warning": 1, "critical": 1}


def test_alert_cooldown_suppresses_then_reraises():
    engine = AlertEngine(AlertPolicy(cooldown_blocks=1_000, deterioration_drop=10.0))
    assert len(sample(engine, hf=1.04, block=100)) == 1
    assert sample(engine, hf=1.03, block=600) == []  # within cooldown
    assert len(sample(engine, hf=1.03, block=1_200)) == 1  # cooldown expired
    assert engine.counts["warning"] == 2


def test_alert_escalation_not_suppressed_by_warning_cooldown():
    engine = AlertEngine(AlertPolicy(cooldown_blocks=10_000, deterioration_drop=10.0))
    assert sample(engine, hf=1.04, block=100)[0].tier == "warning"
    (critical,) = sample(engine, hf=0.99, block=200)  # warning still cooling down
    assert critical.tier == "critical"


def test_alert_cooldowns_are_per_position():
    engine = AlertEngine(AlertPolicy(cooldown_blocks=10_000, deterioration_drop=10.0))
    assert len(sample(engine, hf=1.04, block=100, owner="0xa")) == 1
    assert len(sample(engine, hf=1.04, block=100, owner="0xb")) == 1
    assert len(sample(engine, hf=1.04, block=100, owner="0xa", platform="Compound")) == 1


def test_rapid_deterioration_alerts_above_the_thresholds():
    engine = AlertEngine(AlertPolicy(deterioration_window_blocks=2_400, deterioration_drop=0.05))
    assert sample(engine, hf=1.30, block=100) == []
    (alert,) = sample(engine, hf=1.20, block=1_000)  # -0.10 within the window
    assert (alert.tier, alert.reason) == ("warning", "rapid-deterioration")
    assert alert.previous_health_factor == 1.30


def test_rapid_deterioration_escalates_one_tier():
    engine = AlertEngine(AlertPolicy(deterioration_window_blocks=2_400, deterioration_drop=0.05))
    assert sample(engine, hf=1.10, block=100) == []
    (alert,) = sample(engine, hf=1.02, block=1_000)  # warning level, falling fast
    assert (alert.tier, alert.reason) == ("critical", "rapid-deterioration")


def test_slow_drift_is_not_rapid_deterioration():
    engine = AlertEngine(AlertPolicy(deterioration_window_blocks=2_400, deterioration_drop=0.05))
    assert sample(engine, hf=1.30, block=100) == []
    assert sample(engine, hf=1.20, block=50_000) == []  # same drop, far outside the window


def test_sampling_threshold_sits_above_the_warning_tier():
    assert AlertPolicy().sample_below == 1.1
    assert AlertPolicy(warning_hf=1.2).sample_below == pytest.approx(1.25)
    assert ServiceConfig(policy=AlertPolicy(warning_hf=1.2)).effective_sample_below == pytest.approx(1.25)


def test_alert_policy_validation():
    with pytest.raises(ValueError, match="critical_hf"):
        AlertPolicy(warning_hf=1.0, critical_hf=1.05)
    with pytest.raises(ValueError, match=">= 0"):
        AlertPolicy(cooldown_blocks=-1)


def test_clear_run_resets_position_state():
    engine = AlertEngine(AlertPolicy(cooldown_blocks=10_000, deterioration_drop=10.0))
    assert len(sample(engine, hf=1.04, block=100)) == 1
    engine.clear_run("job-0001", "base-seed000")
    assert len(sample(engine, hf=1.04, block=200)) == 1  # cooldown was dropped


def test_alert_payload_keeps_exact_counts_with_bounded_log():
    engine = AlertEngine(AlertPolicy(cooldown_blocks=0, deterioration_drop=10.0, max_alerts=5))
    for index in range(12):
        sample(engine, hf=1.01, block=index * 10)
    body = engine.payload(limit=3)
    assert body["counts"]["warning"] == 12
    assert len(body["alerts"]) == 3
    assert body["samples_seen"] == 12
    assert body["policy"]["max_alerts"] == 5


# --------------------------------------------------------------------- #
# Job expansion
# --------------------------------------------------------------------- #


def test_expand_run_job_defaults():
    record = expand_job("job-0001", {"kind": "run", "scenario": "small"})
    assert record.kind == "run"
    assert record.campaign == "small"
    assert list(record.runs) == ["base-seed000"]
    spec = record.runs["base-seed000"].spec
    assert spec.seed == scenarios.get("small").builder(None).config.seed
    assert record.experiments  # defaults to every experiment


def test_expand_sweep_job_matches_campaign_semantics():
    payload = {
        "kind": "sweep",
        "scenario": "small",
        "seeds": 3,
        "base_seed": 11,
        "grid": {"close_factor": [0.5, 1.0]},
        "experiments": ["table1"],
        "campaign": "cf-sweep",
    }
    record = expand_job("job-0002", payload)
    assert record.campaign == "cf-sweep"
    assert len(record.runs) == 6  # 2 variants x 3 seeds
    assert all(state.status == "queued" for state in record.runs.values())


@pytest.mark.parametrize(
    "payload, match",
    [
        ({"kind": "run"}, "scenario"),
        ({"kind": "run", "scenario": "no-such-scenario"}, "no-such-scenario"),
        ({"kind": "run", "scenario": "small", "experiments": ["bogus"]}, "bogus"),
        ({"kind": "run", "scenario": "small", "overrides": {"bogus": 1}}, "bogus"),
        ({"kind": "teleport", "scenario": "small"}, "teleport"),
        ("not an object", "object"),
    ],
)
def test_expand_job_rejects_malformed_payloads(payload, match):
    with pytest.raises(SubmissionError, match=match):
        expand_job("job-0001", payload)


# --------------------------------------------------------------------- #
# Store equivalence: streaming persistent worker vs in-process executor
# --------------------------------------------------------------------- #


def canonical_manifest(manifest: dict) -> dict:
    """The manifest minus its timing-dependent keys (all that may differ)."""
    cleaned = dict(manifest)
    cleaned.pop("elapsed_seconds", None)
    cleaned.pop("telemetry", None)
    return cleaned


class EventList:
    """Collects every event of a run, in order."""

    def __init__(self, events: list[SimEvent]) -> None:
        self.events = events

    def on_event(self, event: SimEvent) -> None:
        self.events.append(event)

    def finalize(self) -> None:
        pass


def chunk_items(chunk: ProgressChunk) -> int:
    return sum(chunk.events.values()) + len(chunk.samples)


def fold_chunks(chunks: list[ProgressChunk]) -> dict:
    """The progress a run's chunks add up to."""
    kinds: dict[str, int] = {}
    for chunk in chunks:
        for kind, count in chunk.events.items():
            kinds[kind] = kinds.get(kind, 0) + count
    return {"events": kinds, "last_block": chunks[-1].last_block}


def fold_events(events: list[SimEvent]) -> dict:
    """The same progress, folded from a run's events in-process."""
    kinds: dict[str, int] = {}
    for event in events:
        kinds[event.kind] = kinds.get(event.kind, 0) + 1
    return {
        "events": kinds,
        "last_block": [event.block_number for event in events if isinstance(event, BlockMined)][-1],
    }


def test_progress_probe_hands_on_chunks_of_fixed_size():
    chunks: list[ProgressChunk] = []
    probe = ProgressProbe([], sample_below=1.1, on_progress=chunks.append)
    for step in range(STREAM_CHUNK_ITEMS + 3):
        probe.on_event(StepStarted(step_index=step, block_number=9_700_000 + step))
    assert len(chunks) == 1 and chunk_items(chunks[0]) == STREAM_CHUNK_ITEMS
    probe.on_event(BlockMined(step_index=0, block_number=9_700_800, n_receipts=0, gas_used=0, base_gas_price_wei=1))
    probe.finalize()
    probe.finalize()  # nothing left: no empty chunk
    assert [chunk_items(chunk) for chunk in chunks] == [STREAM_CHUNK_ITEMS, 4]
    assert chunks[1].events == {"StepStarted": 3, "BlockMined": 1}
    assert chunks[1].last_block == 9_700_800
    # Each chunk owns its containers: later folding never reaches a sent one.
    assert chunks[0].events == {"StepStarted": STREAM_CHUNK_ITEMS}
    assert pickle.loads(pickle.dumps(chunks[1])) == chunks[1]


# --------------------------------------------------------------------- #
# Supervisor: concurrency, metrics, resume
# --------------------------------------------------------------------- #


def small_sweep_payload(seeds: int = 8) -> dict:
    return {
        "kind": "sweep",
        "scenario": "small",
        "seeds": seeds,
        "overrides": {"end_block": truncated_end_block("small")},
        "experiments": ["table1"],
        "campaign": "svc",
    }


def serve_until_idle(supervisor: ServiceSupervisor, **kwargs):
    return supervisor.serve(exit_when_idle=True, **kwargs)


def test_supervisor_runs_concurrent_jobs_and_aggregates_state(tmp_path):
    supervisor = ServiceSupervisor(ServiceConfig(store_root=str(tmp_path), workers=4))
    supervisor.submit(small_sweep_payload(seeds=6))
    supervisor.submit(
        {
            "kind": "run",
            "scenario": "small",
            "seed": 99,
            "overrides": {"end_block": truncated_end_block("small")},
            "experiments": ["table1"],
            "campaign": "svc-single",
        }
    )
    summary = serve_until_idle(supervisor)

    assert summary.completed_runs == 7
    assert summary.failed_runs == 0
    # >= 4 jobs genuinely in flight at once (the ISSUE's concurrency bar).
    assert supervisor.peak_active_runs >= 4

    store = RunStore(tmp_path)
    assert len(store.run_ids("svc")) == 6
    assert store.run_ids("svc-single") == ["base-seed000"]

    status, listing = supervisor.jobs_route("")
    assert status == 200
    assert [job["state"] for job in listing["jobs"]] == ["completed", "completed"]
    status, detail = supervisor.jobs_route("job-0001")
    assert status == 200
    assert all(run["status"] == "completed" for run in detail["run_states"])
    assert all(run["blocks"] == STRIDES + 1 for run in detail["run_states"])
    assert all(run["events"] > 0 for run in detail["run_states"])

    exposition = supervisor.registry.exposition()
    assert 'repro_service_runs_total{status="completed"} 7' in exposition
    assert "repro_service_peak_active_runs 4" in exposition
    assert 'repro_service_events_total{kind="BlockMined"}' in exposition
    assert supervisor.alerts.samples_seen > 0

    # Four dispatch threads wrote these totals: none of their increments is lost.
    runs = [run for job_id in ("job-0001", "job-0002") for run in supervisor.jobs_route(job_id)[1]["run_states"]]
    assert len(runs) == 7
    series = supervisor.registry.snapshot()
    events_total = sum(value for key, value in series.items() if key.startswith("repro_service_events_total{"))
    assert events_total == sum(run["events"] for run in runs)
    assert series["repro_service_liquidations_total"] == sum(run["liquidations"] for run in runs)
    assert series["repro_service_hf_samples_total"] == supervisor.alerts.samples_seen

    # The journal reached its terminal form: nothing to resume.
    assert ServiceJournal(tmp_path).incomplete_jobs() == []


def test_progress_applied_from_many_threads_loses_no_update(tmp_path):
    """More dispatch threads than cores apply chunks at once, switching
    every microsecond: every total the supervisor keeps still adds up.
    Each round brings a new event kind, so the threads also race to create
    its ``repro_service_events_total`` series."""
    supervisor = ServiceSupervisor(ServiceConfig(store_root=str(tmp_path)))
    supervisor.submit(small_sweep_payload(seeds=8))  # queued only: nothing runs without serve()
    record = supervisor._jobs["job-0001"]
    sample = HealthSample("Compound", "0xabc", 1.08, 100.0, 1, 0)
    rounds = 500
    chunks = [
        ProgressChunk(events={f"Kind{index}": 1, LiquidationSettled.__name__: 2}, last_block=index, samples=(sample,))
        for index in range(rounds)
    ]

    def apply(run_state):
        for chunk in chunks:
            supervisor._apply_progress(record, run_state, chunk)

    threads = [threading.Thread(target=apply, args=(run_state,)) for run_state in record.runs.values()]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)

    total = rounds * len(threads)
    series = supervisor.registry.snapshot()
    events_total = sum(value for key, value in series.items() if key.startswith("repro_service_events_total{"))
    assert events_total == 3 * total
    assert series["repro_service_liquidations_total"] == 2 * total
    assert series["repro_service_hf_samples_total"] == supervisor.alerts.samples_seen == total
    assert [run.events for run in record.runs.values()] == [3 * rounds] * len(threads)


#: What one streaming service job exposes, per scenario: its ``/jobs/<id>``
#: run-state fields, ``repro_service_events_total`` per kind, the health
#: samples consumed, the alerts per tier and the sha256 of the ``/alerts``
#: body (``json.dumps(..., sort_keys=True)``).  ``march-2020-only`` runs
#: across its crash at block 9,865,000.
SERVICE_OBSERVABLES = {
    "small": {
        "end_block": 9_748_000,
        "run_state": {
            "steps": 61, "blocks": 61, "last_block": 9_748_000, "liquidations": 4,
            "incidents": 0, "events": 2188, "alerts": 26,
        },
        "events_total": {
            "BlockMined": 61, "InterestAccrued": 4, "LiquidationSettled": 4, "PriceUpdated": 2052,
            "RunCompleted": 1, "RunStarted": 1, "SnapshotTaken": 4, "StepStarted": 61,
        },
        "hf_samples_total": 450,
        "alerts_total": {"warning": 26, "critical": 0},
        "alerts_sha256": "65335be4bfea1cff09bf088c846b0fdbbe678344dbff5e4f24c4873addfa93b1",
    },
    "march-2020-only": {
        "end_block": 9_900_000,
        "run_state": {
            "steps": 251, "blocks": 251, "last_block": 9_900_000, "liquidations": 125,
            "incidents": 1, "events": 9290, "alerts": 181,
        },
        "events_total": {
            "AuctionDealt": 37, "BlockMined": 251, "IncidentFired": 1, "InterestAccrued": 13,
            "LiquidationSettled": 125, "PriceUpdated": 8600, "RunCompleted": 1, "RunStarted": 1,
            "SnapshotTaken": 10, "StepStarted": 251,
        },
        # Vaults whose collateral is escrowed in a running auction are not
        # sampled (3,241 samples and 331 alerts, 225 critical, before), nor
        # are positions whose collateral is worth 0 (3,148 samples and 327
        # alerts, 221 critical, before).
        "hf_samples_total": 1814,
        "alerts_total": {"warning": 106, "critical": 75},
        "alerts_sha256": "0815754c46b07644d5b9db14f81dc80cbbc3f1b24733935b850568102870e065",
    },
}


@pytest.mark.parametrize("name", sorted(SERVICE_OBSERVABLES))
def test_service_job_observables_are_pinned(name, tmp_path):
    """One streaming job on one persistent worker, through the supervisor:
    its progress, per-kind event counts, samples and alerts are pinned."""
    expected = SERVICE_OBSERVABLES[name]
    supervisor = ServiceSupervisor(ServiceConfig(store_root=str(tmp_path), workers=1))
    supervisor.submit(
        {
            "kind": "run",
            "scenario": name,
            "seed": SEED,
            "overrides": {"end_block": expected["end_block"]},
            "experiments": ["table1"],
        }
    )
    assert serve_until_idle(supervisor).completed_runs == 1

    _, detail = supervisor.jobs_route("job-0001")
    (run,) = detail["run_states"]
    assert run["status"] == "completed"
    assert {field: run[field] for field in expected["run_state"]} == expected["run_state"]
    series = supervisor.registry.snapshot()
    events_total = {
        key.split('kind="', 1)[1].rstrip('"}'): value
        for key, value in series.items()
        if key.startswith("repro_service_events_total{")
    }
    assert events_total == expected["events_total"]
    assert series["repro_service_liquidations_total"] == run["liquidations"]
    assert series["repro_service_hf_samples_total"] == expected["hf_samples_total"]
    _, alerts = supervisor.alerts_route("")
    assert alerts["counts"] == expected["alerts_total"]
    assert {
        tier: series[f'repro_service_alerts_total{{tier="{tier}"}}'] for tier in expected["alerts_total"]
    } == expected["alerts_total"]
    digest = hashlib.sha256(json.dumps(alerts, sort_keys=True).encode()).hexdigest()
    assert digest == expected["alerts_sha256"]


def test_drain_lets_the_in_flight_run_finish_within_the_timeout(tmp_path):
    """A drain with time to spare: the running run completes, the queued
    ones stay queued and the journal still lists their job."""
    supervisor = ServiceSupervisor(ServiceConfig(store_root=str(tmp_path), workers=1, drain_timeout=120.0))
    supervisor.submit(small_sweep_payload(seeds=3))

    def drain_once_running():
        try:
            wait_for(
                lambda: any(run["status"] == "running" for run in supervisor.jobs_route("job-0001")[1]["run_states"]),
                60.0,
                "no run started",
            )
        finally:
            supervisor.begin_drain()  # never leave serve() waiting

    helper = threading.Thread(target=drain_once_running)
    helper.start()
    summary = supervisor.serve()
    helper.join(60)
    assert not helper.is_alive()

    assert summary.drained
    assert (summary.completed_runs, summary.interrupted_runs, summary.failed_runs) == (1, 0, 0)
    _, detail = supervisor.jobs_route("job-0001")
    assert [run["status"] for run in detail["run_states"]] == ["completed", "queued", "queued"]
    assert [entry["job_id"] for entry in ServiceJournal(tmp_path).incomplete_jobs()] == ["job-0001"]


def test_importing_the_service_does_not_load_asyncio():
    code = "import sys, repro.cli, repro.service; assert 'asyncio' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=subprocess_env(), check=True)


def test_world_processes_do_not_load_the_http_server():
    code = (
        "import sys, repro.scenarios, repro.campaigns, repro.experiments.runner; "
        "assert 'http.server' not in sys.modules"
    )
    subprocess.run([sys.executable, "-c", code], env=subprocess_env(), check=True)


def test_supervisor_resumes_completed_runs_from_the_store(tmp_path):
    first = ServiceSupervisor(ServiceConfig(store_root=str(tmp_path), workers=2))
    first.submit(small_sweep_payload(seeds=2))
    assert serve_until_idle(first).completed_runs == 2

    again = ServiceSupervisor(ServiceConfig(store_root=str(tmp_path), workers=2))
    again.submit(small_sweep_payload(seeds=2))
    summary = serve_until_idle(again)
    assert summary.resumed_runs == 2
    assert summary.completed_runs == 0
    assert again.peak_active_runs == 0  # no run reached a worker


def test_supervisor_resumes_incomplete_jobs_from_the_journal(tmp_path):
    # A journal left behind by a service that died before executing anything.
    record = expand_job("job-0007", small_sweep_payload(seeds=2))
    ServiceJournal(tmp_path).save(8, [record])

    supervisor = ServiceSupervisor(ServiceConfig(store_root=str(tmp_path), workers=2))
    summary = serve_until_idle(supervisor)
    assert summary.completed_runs == 2
    status, listing = supervisor.jobs_route("")
    assert [job["job_id"] for job in listing["jobs"]] == ["job-0007"]
    assert listing["jobs"][0]["state"] == "completed"
    # Fresh submissions continue the journalled numbering.
    assert supervisor.submit(small_sweep_payload(seeds=1))["job_id"] == "job-0008"


def test_failed_runs_are_reported_not_fatal(tmp_path):
    supervisor = ServiceSupervisor(ServiceConfig(store_root=str(tmp_path), workers=1))
    # blocks_per_step=0 builds a config that fails validation inside the worker.
    supervisor.submit(
        {
            "kind": "run",
            "scenario": "small",
            "overrides": {"blocks_per_step": 0},
            "experiments": ["table1"],
        }
    )
    summary = serve_until_idle(supervisor)
    assert summary.failed_runs == 1
    status, detail = supervisor.jobs_route("job-0001")
    (run,) = detail["run_states"]
    assert run["status"] == "failed"
    assert run["error"]


# --------------------------------------------------------------------- #
# HTTP surface
# --------------------------------------------------------------------- #


def http_get(url: str):
    with urllib.request.urlopen(url) as response:
        return response.status, response.headers["Content-Type"], response.read().decode()


def http_post(url: str, body: bytes):
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}, method="POST"
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read().decode())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode())


def test_service_http_surface(tmp_path):
    supervisor = ServiceSupervisor(ServiceConfig(store_root=str(tmp_path)))
    server = MetricsServer(
        supervisor.registry,
        port=0,
        json_routes={"/jobs": supervisor.jobs_route, "/alerts": supervisor.alerts_route},
        post_routes={"/jobs": supervisor.submit_route},
    )
    with server:
        base = f"http://127.0.0.1:{server.port}"

        status, body = http_post(base + "/jobs", json.dumps(small_sweep_payload(seeds=2)).encode())
        assert status == 201
        assert body["job_id"] == "job-0001"
        assert body["runs"]["total"] == 2

        status, body = http_post(base + "/jobs", b"{not json")
        assert status == 400 and "JSON" in body["error"]
        status, body = http_post(base + "/jobs", json.dumps({"kind": "run", "scenario": "nope"}).encode())
        assert status == 400 and "nope" in body["error"]

        status, content_type, text = http_get(base + "/jobs")
        assert status == 200
        assert content_type == "application/json; charset=utf-8"
        assert [job["job_id"] for job in json.loads(text)["jobs"]] == ["job-0001"]

        status, content_type, text = http_get(base + "/jobs/job-0001")
        assert json.loads(text)["submission"]["scenario"] == "small"

        status, content_type, text = http_get(base + "/alerts")
        assert json.loads(text)["counts"] == {"warning": 0, "critical": 0}

        status, content_type, text = http_get(base + "/health")
        assert (status, json.loads(text)) == (200, {"status": "ok"})

        status, content_type, text = http_get(base + "/metrics")
        assert content_type.startswith("text/plain")
        assert "charset=utf-8" in content_type
        assert "repro_service_jobs" in text

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(base + "/jobs/no-such-job")
        assert excinfo.value.code == 404
        assert json.loads(excinfo.value.read().decode())["error"] == "unknown job 'no-such-job'"

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(base + "/bogus")
        assert excinfo.value.code == 404
        assert excinfo.value.headers["Content-Type"] == "application/json; charset=utf-8"
        assert json.loads(excinfo.value.read().decode()) == {"error": "not found", "path": "/bogus"}

        supervisor._draining = True
        status, body = http_post(base + "/jobs", json.dumps(small_sweep_payload(seeds=1)).encode())
        assert status == 503 and "draining" in body["error"]


# --------------------------------------------------------------------- #
# CLI entry points under SIGTERM (real subprocesses)
# --------------------------------------------------------------------- #


def wait_for(predicate, timeout: float, message: str) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise AssertionError(message)


def test_repro_watch_sigterm_is_graceful(tmp_path):
    """Satellite: SIGTERM to `repro watch` flushes the stream and exits 0."""
    jsonl = tmp_path / "events.jsonl"
    config = scenarios.get("small").builder(None).config
    end_block = config.start_block + 2_000 * config.blocks_per_step  # long enough to be mid-run
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "watch", "small",
            "--end-block", str(min(end_block, config.end_block)),
            "--jsonl", str(jsonl),
        ],
        env=subprocess_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        wait_for(
            lambda: jsonl.exists() and jsonl.stat().st_size > 0,
            timeout=60,
            message="watch never started streaming",
        )
        process.send_signal(signal.SIGTERM)
        stdout, stderr = process.communicate(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
    assert process.returncode == 0, stderr
    assert "watch interrupted" in stdout + stderr
    lines = jsonl.read_text().splitlines()
    assert lines, "interrupted watch lost its streamed events"
    for line in lines:  # flushed stream stays valid JSONL end to end
        json.loads(line)


def serve_command(store: Path) -> list[str]:
    return [
        sys.executable, "-m", "repro", "serve",
        "--store", str(store),
        "--workers", "2",
        "--sweep", "small",
        "--seeds", "4",
        "--set", f"end_block={truncated_end_block('small')}",
        "--report", "table1",
        "--campaign", "svc",
        "--drain-timeout", "0",
        "--exit-when-idle",
    ]


def test_drain_handler_is_installed_before_the_port_is_announced(tmp_path):
    """A client may send SIGTERM as soon as it reads the listening line; the
    drain handler must already be in place, or the signal kills the service."""
    supervisor = ServiceSupervisor(ServiceConfig(store_root=str(tmp_path), workers=1))
    handlers = []

    def announce(line: str) -> None:
        if "listening" in line:
            handlers.append(signal.getsignal(signal.SIGTERM))
            supervisor.begin_drain()

    summary = supervisor.serve(http_port=0, announce=announce)
    assert summary.drained
    assert handlers and handlers[0] not in (signal.SIG_DFL, signal.SIG_IGN, None)


def test_workers_are_alive_before_the_port_is_announced(tmp_path):
    """The first /health answer already reports every worker alive."""
    supervisor = ServiceSupervisor(ServiceConfig(store_root=str(tmp_path), workers=2))
    answers = []

    def announce(line: str) -> None:
        if "listening" in line:
            assert supervisor.http_server is not None
            answers.append(http_get(f"http://127.0.0.1:{supervisor.http_server.port}/health"))
            supervisor.begin_drain()

    summary = supervisor.serve(http_port=0, announce=announce)
    assert summary.drained
    ((status, _, text),) = answers
    health = json.loads(text)
    assert status == 200 and health["status"] == "ok"
    assert health["workers"]["alive"] == health["workers"]["configured"] == 2
    assert health["workers"]["start_method"] in ("fork", "spawn")


def test_repro_serve_forks_its_workers_before_listening(tmp_path):
    """`repro serve` starts its workers first, by fork, and says so."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--store", str(tmp_path), "--workers", "2", "--port", "0"],
        env=subprocess_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    lines: list[str] = []
    deadline = threading.Timer(60, process.kill)  # a service that never listens ends the read
    deadline.start()
    try:
        assert process.stderr is not None
        for line in process.stderr:
            lines.append(line)
            if "listening on" in line:
                break
        deadline.cancel()
        port = line.rsplit("127.0.0.1:", 1)[1].split()[0]
        status, _, text = http_get(f"http://127.0.0.1:{port}/health")
        process.send_signal(signal.SIGTERM)
        process.communicate(timeout=60)
    finally:
        deadline.cancel()
        if process.poll() is None:
            process.kill()
            process.communicate()
    assert process.returncode == 0
    assert "listening on" in lines[-1]
    assert any("2 worker(s) started by fork in" in line for line in lines[:-1])
    assert status == 200
    assert json.loads(text) == {"status": "ok", "workers": {"alive": 2, "configured": 2, "start_method": "fork"}}


def test_repro_serve_sigterm_drains_and_restart_resumes(tmp_path):
    """SIGTERM mid-sweep: exit 0, store resumable; a restart finishes the job
    without re-simulating the runs that already completed."""
    store = tmp_path / "runs"
    process = subprocess.Popen(
        serve_command(store), env=subprocess_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    campaign_dir = store / "svc"
    try:
        wait_for(
            lambda: len(list(campaign_dir.glob("*/manifest.json"))) >= 1,
            timeout=120,
            message="no run completed before the drain",
        )
        process.send_signal(signal.SIGTERM)
        stdout, stderr = process.communicate(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
    assert process.returncode == 0, stderr

    manifests = sorted(campaign_dir.glob("*/manifest.json"))
    assert 1 <= len(manifests) < 4, "drain either lost everything or finished the sweep"
    before = {path: path.stat().st_mtime_ns for path in manifests}
    # The journal still carries the job for the restart to pick up.
    assert ServiceJournal(store).incomplete_jobs()

    completed = subprocess.run(
        serve_command(store), env=subprocess_env(), capture_output=True, text=True, timeout=240
    )
    assert completed.returncode == 0, completed.stderr
    assert len(list(campaign_dir.glob("*/manifest.json"))) == 4
    assert "resumed" in completed.stderr
    for path, mtime in before.items():
        assert path.stat().st_mtime_ns == mtime, f"{path} was rewritten instead of resumed"
    assert ServiceJournal(store).incomplete_jobs() == []


# --------------------------------------------------------------------- #
# Service worker artifacts (kept last: see ``service_backend``)
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def service_backend():
    """One warm worker for every scenario, as the service shares it.

    Its tests are the module's last: the backend's collector and feeder
    threads live until the module ends, and while they run every other
    backend must spawn its workers instead of forking them."""
    with PersistentBackend(workers=1) as backend:
        yield backend


@pytest.mark.parametrize("name", scenarios.names())
def test_service_worker_store_artifacts_are_bit_identical(name, tmp_path, service_backend):
    """The acceptance bar: for every registered scenario, a run executed the
    way the service executes it — a streaming job on a persistent worker —
    leaves byte-identical experiment files and an equal manifest (modulo
    timings) to a plain in-process execution, and its progress chunks add up
    to the same world's events and health samples folded in-process."""
    spec = RunSpec(
        scenario=name,
        overrides=(("end_block", truncated_end_block(name)),),
        seed=SEED,
        seed_index=0,
        variant="base",
    )
    experiments = ("table1",)
    sample_below = ServiceConfig().effective_sample_below
    execution = WorkerConfig(backend="persistent", workers=1)

    direct = execute_job(
        RunJob(
            store_root=str(tmp_path / "direct"),
            campaign=name,
            run=spec,
            experiments=experiments,
            worker_config=execution,
        )
    )
    assert direct.error is None

    chunks: list[ProgressChunk] = []
    service_job = RunJob(
        store_root=str(tmp_path / "service"),
        campaign=name,
        run=spec,
        experiments=experiments,
        worker_config=execution,
        sample_below=sample_below,
    )
    outcome = service_backend.execute_one(service_job, chunks.append)
    assert outcome.error is None, outcome.error
    assert outcome.worker == "persistent-0"

    # The chunks that crossed the pipe add up to the same world folded
    # in-process: its events, and an in-process HealthSampler's samples.
    assert chunks and all(type(chunk) is ProgressChunk for chunk in chunks)
    assert all(chunk_items(chunk) == STREAM_CHUNK_ITEMS for chunk in chunks[:-1])
    events: list[SimEvent] = []
    samples: list[HealthSample] = []
    spec.builder().with_probes(
        lambda engine: EventList(events),
        lambda engine: HealthSampler(engine.protocols, sample_below, samples.append),
    ).build().run()
    assert fold_chunks(chunks) == fold_events(events)
    assert [sample for chunk in chunks for sample in chunk.samples] == samples

    direct_store, service_store = RunStore(tmp_path / "direct"), RunStore(tmp_path / "service")
    for experiment_id in experiments:
        direct_bytes = direct_store.experiment_path(name, spec.run_id, experiment_id).read_bytes()
        service_bytes = service_store.experiment_path(name, spec.run_id, experiment_id).read_bytes()
        assert direct_bytes == service_bytes
    direct_manifest = direct_store.read_manifest(name, spec.run_id)
    service_manifest = service_store.read_manifest(name, spec.run_id)
    assert canonical_manifest(direct_manifest) == canonical_manifest(service_manifest)
    # The metrics block (streamed aggregates) is part of the equivalence.
    assert direct_manifest["metrics"] == service_manifest["metrics"]
