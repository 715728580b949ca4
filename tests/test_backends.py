"""Tests for the execution-backend API: WorkerConfig and the serial /
persistent backends.

The load-bearing contract is byte-identity: whichever backend (and however
many workers) executes a campaign, the store files must match the serial
ground truth exactly — including when one warm worker executes run after
run.  The expensive checks run on drastically truncated windows (a few
engine strides per run) so the full scenario registry stays affordable.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

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
from repro.campaigns.backends import worker_start_method
from repro.campaigns.executor import RunJob, execute_job
from repro.chain.types import make_address
from repro.cli import main
from repro.service import ServiceConfig, ServiceSupervisor

#: Strides kept when truncating a scenario's window for cheap runs.
STRIDES = 20


def truncated_end_block(name: str, strides: int = STRIDES) -> int:
    config = scenarios.get(name).builder(None).config
    return min(config.end_block, config.start_block + strides * config.blocks_per_step)


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
    spec = tiny_spec(seeds=2, overrides={"end_block": truncated_end_block("small", strides=3 * STRIDES)})
    jobs = [
        # Streaming with no samples (no health factor is below 0): the first
        # progress chunk proves the worker is mid-run, whichever way it started.
        RunJob(
            store_root=str(tmp_path / "dead"),
            campaign=spec.campaign,
            run=run,
            experiments=spec.experiments,
            sample_below=0.0,
        )
        for run in spec.runs()
    ]
    backend = PersistentBackend(workers=1)
    try:
        backend.start()
        killed = []

        def kill_on_first_chunk(chunk) -> None:
            # Both runs are queued on the only worker; the first is running.
            if not killed:
                killed.append(backend._procs[0].pid)
                backend._procs[0].terminate()

        outcomes: list = []
        collector = threading.Thread(target=lambda: outcomes.extend(backend.run(jobs, kill_on_first_chunk)))
        collector.start()
        collector.join(timeout=60)
        assert not collector.is_alive(), "backend.run() hung after worker death"
        assert killed
        assert len(outcomes) == 2
        assert all(o.error and "persistent worker" in o.error for o in outcomes)

        # The slot respawned: the same backend executes new work fine.
        retry = CampaignExecutor(
            tiny_spec(), RunStore(tmp_path / "retry"), backend=backend
        ).execute()
        assert not retry.failed
        assert backend._procs[0].pid != killed[0]
        # The collector thread runs by then, so the respawn never forks.
        assert backend.start_method == "spawn"
    finally:
        backend.close()


def test_worker_killed_mid_stream_leaves_the_other_workers_results_intact(tmp_path):
    """Each worker owns its result pipe. Worker 0 is killed while both
    stream large chunks (every position with debt is sampled), possibly in the
    middle of one: worker 1's runs still arrive whole, and the respawned
    slot runs new work."""
    spec = tiny_spec(seeds=4, overrides={"end_block": truncated_end_block("small", strides=3 * STRIDES)})
    jobs = [
        RunJob(
            store_root=str(tmp_path / "mixed"),
            campaign=spec.campaign,
            run=run,
            experiments=spec.experiments,
            sample_below=float("inf"),
        )
        for run in spec.runs()
    ]
    with PersistentBackend(workers=2) as backend:
        chunks = []

        def kill_worker_0_at_the_third_chunk(chunk) -> None:
            chunks.append(chunk)
            if len(chunks) == 3:
                backend._procs[0].kill()

        outcomes: list = []
        collector = threading.Thread(
            target=lambda: outcomes.extend(backend.run(jobs, kill_worker_0_at_the_third_chunk)), daemon=True
        )
        collector.start()
        collector.join(timeout=60)
        assert not collector.is_alive(), "backend.run() hung after a worker died mid-stream"
        # Jobs alternate between the two idle workers: 0 and 2 on worker 0.
        failed = sorted(o.run_id for o in outcomes if o.error)
        assert failed == sorted(run.run_id for run in spec.runs()[::2])
        assert all("persistent worker 0" in o.error for o in outcomes if o.error)
        assert all(o.worker == "persistent-1" for o in outcomes if not o.error)
        retry = CampaignExecutor(tiny_spec(seeds=2), RunStore(tmp_path / "retry"), backend=backend).execute()
        assert not retry.failed


def checkout_env() -> dict[str, str]:
    """The environment for a fresh interpreter that imports this checkout's ``src``."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


#: Run in a fresh interpreter, so that no thread another test left behind
#: decides the start method: installs the handlers a caller might have,
#: starts two workers, has each read one job, and reports how they started
#: and their signal dispositions (``/proc/<pid>/status`` bit masks).
FORK_PROBE = """
import json, multiprocessing, signal, sys
from repro.campaigns.backends import PersistentBackend
from repro.campaigns.executor import RunJob
from repro.campaigns.spec import RunSpec

signal.signal(signal.SIGINT, signal.SIG_IGN)
signal.signal(signal.SIGTERM, lambda signum, frame: None)
with PersistentBackend(workers=2) as backend:
    # An unregistered scenario fails as soon as a worker reads the job.
    probes = [
        RunJob(
            store_root=sys.argv[1],
            campaign="probe",
            run=RunSpec(scenario="no-such-scenario", overrides=(), seed=slot, seed_index=slot, variant="probe"),
            experiments=(),
        )
        for slot in range(2)
    ]
    errors = [outcome.error for outcome in backend.run(probes)]
    masks = []
    for child in multiprocessing.active_children():
        fields = dict(line.split(":", 1) for line in open(f"/proc/{child.pid}/status"))
        masks.append({name: int(fields[name], 16) for name in ("SigIgn", "SigCgt")})
    print(json.dumps({"start_method": backend.start_method, "errors": errors, "masks": masks}))
"""


@pytest.fixture(scope="module")
def fork_probe(tmp_path_factory):
    if "fork" not in multiprocessing.get_all_start_methods() or not os.path.exists("/proc/self/status"):
        pytest.skip("needs the fork start method and /proc")
    completed = subprocess.run(
        [sys.executable, "-c", FORK_PROBE, str(tmp_path_factory.mktemp("fork-probe"))],
        env=checkout_env(), capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


def test_single_threaded_caller_forks_its_workers(fork_probe):
    assert fork_probe["start_method"] == "fork"
    # Both workers are in their loop: each read a job and reported on it.
    assert all("no-such-scenario" in error for error in fork_probe["errors"])


def test_forked_workers_restore_default_signal_handlers(fork_probe):
    """The caller ignores SIGINT and catches SIGTERM; its forked workers
    do neither: SIGINT raises KeyboardInterrupt, SIGTERM ends the process."""
    sigint, sigterm = 1 << (signal.SIGINT - 1), 1 << (signal.SIGTERM - 1)
    assert len(fork_probe["masks"]) == 2
    for masks in fork_probe["masks"]:
        assert masks["SigCgt"] & sigint and not masks["SigIgn"] & sigint
        assert not (masks["SigCgt"] | masks["SigIgn"]) & sigterm


def test_caller_running_threads_spawns_its_workers():
    release = threading.Event()
    helper = threading.Thread(target=release.wait)
    helper.start()
    try:
        assert worker_start_method() == "spawn"
        with PersistentBackend(workers=1) as backend:
            assert backend.start_method == "spawn"
            assert backend.start_seconds is not None and backend.alive_workers() == 1
    finally:
        release.set()
        helper.join()


#: Run in a fresh interpreter, whose high-water mark is its own and not the
#: test session's: six ``small`` jobs through the crash on one persistent
#: worker, then on the serial backend, reporting each job's digest.
MEMORY_PROBE = """
import json, sys
from repro.campaigns import CampaignSpec, PersistentBackend, SerialBackend
from repro.campaigns.executor import RunJob

spec = CampaignSpec(scenario="small", seeds=6, overrides={"end_block": 9_900_000}, experiments=("table1",))
peaks = {}
for backend in (PersistentBackend(1), SerialBackend()):
    jobs = [
        RunJob(store_root=f"{sys.argv[1]}/{backend.name}", campaign=spec.campaign, run=run, experiments=spec.experiments)
        for run in spec.runs()
    ]
    try:
        digests = [outcome.telemetry for outcome in backend.run(jobs)]
    finally:
        backend.close()
    peaks[backend.name] = {digest["task_index"]: digest["peak_rss_mb"] for digest in digests}
print(json.dumps(peaks))
"""


def test_workers_free_each_world_before_the_next_job(tmp_path):
    """A finished world is a reference cycle: without a collection after
    each job, a worker's peak RSS climbs by several MB over six jobs."""
    completed = subprocess.run(
        [sys.executable, "-c", MEMORY_PROBE, str(tmp_path)],
        env=checkout_env(), capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    for backend, peaks in json.loads(completed.stdout).items():
        assert sorted(peaks) == [str(index) for index in range(1, 7)], backend
        assert 0 < peaks["1"] <= peaks["6"] < peaks["1"] + 2.0, (backend, peaks)


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
    summary = supervisor.serve(exit_when_idle=True)
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
    summary = supervisor.serve(exit_when_idle=True)
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
