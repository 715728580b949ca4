"""Tests for the execution-backend API: WorkerConfig and the serial /
persistent backends.

The load-bearing contract is byte-identity: whichever backend (and however
many workers) executes a campaign, the store files must match the serial
ground truth exactly — including when one warm worker executes run after
run.  The expensive checks run on drastically truncated windows (a few
engine strides per run) so the full scenario registry stays affordable.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro import scenarios
from repro.campaigns import (
    CampaignExecutor,
    CampaignSpec,
    PersistentBackend,
    RunStore,
    SerialBackend,
    WorkerConfig,
)
from repro.campaigns.executor import RunJob, execute_job
from repro.chain.types import make_address
from repro.cli import main
from repro.service import ServiceConfig, ServiceSupervisor

#: Strides kept when truncating a scenario's window for cheap runs.
STRIDES = 20


def truncated_end_block(name: str) -> int:
    config = scenarios.get(name).builder(None).config
    return min(config.end_block, config.start_block + STRIDES * config.blocks_per_step)


def tiny_spec(name: str = "small", **kwargs) -> CampaignSpec:
    defaults = dict(
        scenario=name,
        seeds=1,
        base_seed=11,
        overrides={"end_block": truncated_end_block(name)},
        experiments=("table1",),
    )
    defaults.update(kwargs)
    return CampaignSpec(**defaults)


def store_bytes(store: RunStore, campaign: str) -> dict[str, bytes]:
    """Every experiment file of a campaign, keyed by relative path.

    Manifests are excluded: they record which backend produced the run (the
    ``execution`` block), which is the one *intentional* difference.
    """
    out = {}
    for run_id in store.run_ids(campaign):
        directory = store.run_dir(campaign, run_id)
        for path in sorted(directory.glob("*.json")):
            if path.name == "manifest.json":
                continue
            out[f"{run_id}/{path.name}"] = path.read_bytes()
    return out


# --------------------------------------------------------------------- #
# WorkerConfig: the unified configuration surface
# --------------------------------------------------------------------- #


class TestWorkerConfig:
    def test_defaults_to_serial_single_worker(self):
        assert WorkerConfig() == WorkerConfig(backend="serial", workers=1)

    def test_resolve_auto_maps_worker_count_to_backend(self):
        assert WorkerConfig.resolve() == WorkerConfig(backend="serial", workers=1)
        assert WorkerConfig.resolve(backend="auto", workers=1).backend == "serial"
        resolved = WorkerConfig.resolve(backend="auto", workers=4)
        assert resolved == WorkerConfig(backend="persistent", workers=4)

    def test_resolve_serial_forces_one_worker(self):
        assert WorkerConfig.resolve(backend="serial", workers=8).workers == 1

    def test_resolve_parallel_backend_without_count_gets_host_default(self):
        resolved = WorkerConfig.resolve(backend="persistent")
        assert resolved.backend == "persistent"
        assert resolved.workers >= 2

    def test_describe_round_trips_through_manifest_payload(self):
        config = WorkerConfig(backend="persistent", workers=3)
        assert WorkerConfig.from_payload(config.describe()) == config

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkerConfig(backend="serial", workers=0)
        with pytest.raises(ValueError):
            WorkerConfig(backend="", workers=1)

    def test_unknown_backend_name_lists_registered(self):
        with pytest.raises(ValueError, match="serial, persistent"):
            WorkerConfig(backend="spawn", workers=2).create()
        with pytest.raises(ValueError, match="serial, persistent"):
            WorkerConfig.resolve(backend="spawn", workers=2)


# --------------------------------------------------------------------- #
# Backend equivalence: byte-identity across the full scenario registry
# --------------------------------------------------------------------- #


def test_all_backends_byte_identical_for_every_registered_scenario(tmp_path):
    """Serial and persistent execution must write identical experiment
    files for every registered scenario.

    One persistent backend instance is shared across all the campaigns —
    exactly its production shape — so this also proves warm-worker reuse
    across campaigns leaks no state between scenarios.
    """
    names = scenarios.names()
    serial_store = RunStore(tmp_path / "serial")
    persistent_store = RunStore(tmp_path / "persistent")

    for name in names:
        result = CampaignExecutor(tiny_spec(name), serial_store).execute()
        assert not result.failed, result.failed

    with PersistentBackend(workers=2) as persistent:
        for name in names:
            result = CampaignExecutor(tiny_spec(name), persistent_store, backend=persistent).execute()
            assert not result.failed, result.failed
            assert result.backend == "persistent"

    for name in names:
        serial = store_bytes(serial_store, name)
        assert serial, f"no store files for {name}"
        assert store_bytes(persistent_store, name) == serial


def test_warm_execution_leaves_id_counters_exactly_reset(tmp_path):
    """A run re-executed in the same process — a warm worker's shape —
    writes the same store bytes as its first execution, identifiers
    included, with nothing rewound in between: each world's chain starts
    its own address and tx-hash counters at 1, the task-to-task isolation
    the persistent runtime depends on."""
    spec = tiny_spec(experiments=("table1", "table7"))
    run = spec.runs()[0]
    written = []
    for name in ("first", "second", "third"):
        store = RunStore(tmp_path / name)
        job = RunJob(store_root=str(store.root), campaign=spec.campaign, run=run, experiments=spec.experiments)
        assert execute_job(job).error is None
        written.append(store_bytes(store, spec.campaign))
        make_address("between-runs")  # process-wide ids outside a world move on
    assert written[0] and written[1] == written[0] and written[2] == written[0]
    # The files carry addresses and tx hashes, so the comparison covers them.
    assert any(b"0x" in payload for payload in written[0].values())


# --------------------------------------------------------------------- #
# Persistent backend: robustness and lifecycle
# --------------------------------------------------------------------- #


def test_persistent_worker_death_fails_pending_runs_and_respawns(tmp_path):
    """Killing a worker mid-task surfaces its pending runs as failed
    outcomes (never hangs, never silently drops) and the slot respawns."""
    spec = tiny_spec(seeds=2)
    jobs = [
        RunJob(
            store_root=str(tmp_path / "dead"),
            campaign=spec.campaign,
            run=run,
            experiments=spec.experiments,
        )
        for run in spec.runs()
    ]
    backend = PersistentBackend(workers=1)
    try:
        backend.start()
        outcomes: list = []
        collector = threading.Thread(target=lambda: outcomes.extend(backend.run(jobs)))
        collector.start()
        # Give dispatch a moment, then kill the only worker while both runs
        # are outstanding (spawn start-up alone outlasts this sleep).
        time.sleep(0.3)
        backend._procs[0].terminate()
        collector.join(timeout=60)
        assert not collector.is_alive(), "backend.run() hung after worker death"
        assert len(outcomes) == 2
        assert all(o.error and "persistent worker" in o.error for o in outcomes)

        # The slot respawned: the same backend executes new work fine.
        retry = CampaignExecutor(
            tiny_spec(), RunStore(tmp_path / "retry"), backend=backend
        ).execute()
        assert not retry.failed
    finally:
        backend.close()


def test_persistent_rejects_reuse_after_close():
    backend = PersistentBackend(workers=1)
    backend.close()
    with pytest.raises(RuntimeError, match="closed"):
        backend.start()


def test_persistent_places_one_job_on_each_idle_worker(tmp_path):
    """Dispatch goes to the least-loaded worker, so N jobs sent to N idle
    workers land one per worker (what readiness pings rely on)."""
    spec = tiny_spec(seeds=2)
    jobs = [
        RunJob(store_root=str(tmp_path), campaign=spec.campaign, run=run, experiments=spec.experiments)
        for run in spec.runs()
    ]
    with PersistentBackend(workers=2) as backend:
        outcomes = list(backend.run(jobs))
    assert all(outcome.error is None for outcome in outcomes)
    assert sorted(outcome.worker for outcome in outcomes) == ["persistent-0", "persistent-1"]


def test_persistent_keys_in_flight_runs_by_campaign(tmp_path):
    """Every first run of a sweep is ``base-seed000``: two campaigns' runs in
    flight at once (one per service slot) must not collide on the run id."""
    supervisor = ServiceSupervisor(ServiceConfig(store_root=str(tmp_path), workers=2))
    for campaign in ("a", "b"):
        supervisor.submit(
            {
                "kind": "sweep",
                "scenario": "small",
                "seeds": 1,
                "overrides": {"end_block": truncated_end_block("small")},
                "experiments": ["table1"],
                "campaign": campaign,
            }
        )
    summary = asyncio.run(supervisor.serve(exit_when_idle=True, install_signals=False))
    assert (summary.completed_runs, summary.failed_runs) == (2, 0)
    assert supervisor.peak_active_runs == 2
    store = RunStore(tmp_path)
    assert store_bytes(store, "a") == store_bytes(store, "b") != {}


def test_manifest_execution_block_survives_resume(tmp_path):
    """The execution block records the backend that *produced* the run;
    resuming under a different backend must not rewrite it."""
    store = RunStore(tmp_path)
    spec = tiny_spec()
    first = CampaignExecutor(spec, store, backend="persistent").execute()
    assert not first.failed
    run_id = spec.runs()[0].run_id
    manifest = store.read_manifest(spec.campaign, run_id)
    assert WorkerConfig.from_payload(manifest["execution"]).backend == "persistent"

    again = CampaignExecutor(spec, store).execute()
    assert again.resumed == [run_id] and not again.executed
    assert store.read_manifest(spec.campaign, run_id)["execution"]["backend"] == "persistent"


# --------------------------------------------------------------------- #
# CLI and service integration
# --------------------------------------------------------------------- #


def test_sweep_cli_backend_flag(tmp_path, capsys):
    code = main(
        [
            "sweep",
            "--scenario",
            "small",
            "--seeds",
            "1",
            "--set",
            f"end_block={truncated_end_block('small')}",
            "--report",
            "table1",
            "--store",
            str(tmp_path),
            "--backend",
            "persistent",
            "--workers",
            "2",
        ]
    )
    assert code == 0
    err = capsys.readouterr().err
    assert "persistent backend × 2 worker(s)" in err
    manifest = RunStore(tmp_path).read_manifest("small", "base-seed000")
    assert manifest["execution"] == {"backend": "persistent", "workers": 2}


def test_sweep_cli_rejects_unknown_backend(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--scenario", "small", "--backend", "threads", "--store", str(tmp_path)])
    assert excinfo.value.code == 2


def test_service_sweep_jobs_run_through_the_campaign_backend(tmp_path):
    """`repro serve` runs sweep runs on persistent campaign workers — and
    they stream: live events and health samples reach the supervisor, and
    manifests are stamped with the producing backend."""
    supervisor = ServiceSupervisor(ServiceConfig(store_root=str(tmp_path), workers=2))
    supervisor.submit(
        {
            "kind": "sweep",
            "scenario": "small",
            "seeds": 2,
            "base_seed": 11,
            "overrides": {"end_block": truncated_end_block("small")},
            "experiments": ["table1"],
            "campaign": "svc-backend",
        }
    )
    summary = asyncio.run(supervisor.serve(exit_when_idle=True, install_signals=False))
    assert summary.completed_runs == 2 and summary.failed_runs == 0

    status, detail = supervisor.jobs_route("job-0001")
    assert all(run["events"] > 0 and run["blocks"] == STRIDES + 1 for run in detail["run_states"])
    assert supervisor.alerts.samples_seen > 0

    store = RunStore(tmp_path)
    for run_id in store.run_ids("svc-backend"):
        manifest = store.read_manifest("svc-backend", run_id)
        assert manifest["status"] == "completed"
        assert manifest["execution"] == {"backend": "persistent", "workers": 2}
        assert manifest["telemetry"]["worker"].startswith("persistent-")
