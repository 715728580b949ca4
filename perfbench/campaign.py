"""Workload ``campaign-small``: a persistent-backend sweep of ``small``.

This is what ``repro sweep --workers 2`` resolves to, with telemetry on
(the sweep default).  Each round is one ``CampaignExecutor.execute()`` of
``close_factor`` in {0.5, 1.0} crossed with two seeds taken from the
workload seed; every run writes all 17 reports into a fresh ``RunStore``.
The two runs of a seed share a warm key, so half the runs hit the worker's
warm-feed cache.  Rounds repeat on one backend until ``--seconds`` of
``execute()`` time have been measured.
"""

from __future__ import annotations

import random
import time
from pathlib import Path

from .checks import check_campaign, check_identical_files
from .common import (
    SETUP_REPEATS,
    WORKERS,
    CheckFailed,
    Outcome,
    median,
    peak_rss_mb,
    ping_workers,
    time_ready_probe,
)

SCENARIO = "small"
CLOSE_FACTORS = (0.5, 1.0)
SEEDS_PER_ROUND = 2


def round_spec(seed: int, round_index: int):
    from repro.campaigns import CampaignSpec

    return CampaignSpec(
        scenario=SCENARIO,
        seeds=SEEDS_PER_ROUND,
        base_seed=seed * 1000 + round_index,
        grid={"close_factor": list(CLOSE_FACTORS)},
        name=f"round-{round_index:03d}",
    )


def run(*, seed: int, seconds: float, trace: bool, work_dir: Path) -> Outcome:
    setup = [time_ready_probe("campaign-small", work_dir / f"ping-{index}") for index in range(SETUP_REPEATS)]

    from repro.campaigns import CampaignExecutor, RunStore
    from repro.campaigns.backends import PersistentBackend, SerialBackend
    from repro.campaigns.executor import RunJob
    from repro.experiments.runner import EXPERIMENT_IDS

    store = RunStore(work_dir / "store")
    elapsed: list[float] = []
    round_walls: list[float] = []
    campaign_runs: dict[str, list] = {}
    failed: dict[str, str] = {}
    busy = idle = 0.0

    def progress(done, total, run_id, status, seconds_taken):
        if status == "executed":
            elapsed.append(seconds_taken)

    started = time.perf_counter()
    backend = PersistentBackend(WORKERS).start()
    try:
        ping_workers(backend, work_dir / "ping")
        backend_start = time.perf_counter() - started
        while not round_walls or sum(round_walls) < seconds:
            spec = round_spec(seed, len(campaign_runs))
            result = CampaignExecutor(spec, store, backend=backend, progress=progress, telemetry=True).execute()
            round_walls.append(result.elapsed_seconds)
            campaign_runs[spec.campaign] = spec.runs()
            failed.update({f"{spec.campaign}/{run_id}": error for run_id, error in result.failed.items()})
            for stats in result.workers.values():
                busy += stats["busy_seconds"]
                idle += stats["idle_seconds"]
    finally:
        backend.close()
    peak = max(peak_rss_mb(children=False), peak_rss_mb(children=True))
    attempted = sum(len(runs) for runs in campaign_runs.values())

    check_error = None
    try:
        check_campaign(store, campaign_runs, EXPERIMENT_IDS, failed)
        # One run, picked by the workload seed, again on the serial backend.
        campaign, run_spec = random.Random(seed).choice(
            [(campaign, run) for campaign, runs in campaign_runs.items() for run in runs]
        )
        serial_store = RunStore(work_dir / "serial")
        job = RunJob(store_root=str(serial_store.root), campaign=campaign, run=run_spec, experiments=EXPERIMENT_IDS)
        outcome = SerialBackend().execute_one(job)
        if outcome.error is not None:
            raise CheckFailed(f"serial re-execution of {campaign}/{run_spec.run_id} failed: {outcome.error}")
        check_identical_files(
            store.run_dir(campaign, run_spec.run_id), serial_store.run_dir(campaign, run_spec.run_id), EXPERIMENT_IDS
        )
    except CheckFailed as failure:
        check_error = str(failure)

    measured = Outcome(
        end_to_end={
            "setup_s": median(setup),
            "wall_s": median(round_walls),
            "runs_per_s": len(elapsed) / sum(round_walls),
            "run_p50_s": median(elapsed) if elapsed else float("inf"),
            "peak_rss_mb": peak,
            "ok_frac": len(elapsed) / attempted,
        },
        attempted=attempted,
        failed=attempted - len(elapsed),
        notes=[
            f"rounds: {len(campaign_runs)}, runs: {attempted} ({len(elapsed)} latency samples), "
            f"execute() {sum(round_walls):.2f} s on {WORKERS} persistent workers",
            f"setup_s: median of {len(setup)} fresh processes (imports, backend start, workers ready)",
        ],
        check_error=check_error,
    )
    if trace:
        from .tracing import executor_probes, traced_world, untraced_world

        digests = [
            (store.read_manifest(campaign, run.run_id) or {}).get("telemetry") or {}
            for campaign, runs in campaign_runs.items()
            for run in runs
        ]
        layers = {
            "campaigns.backend_start_s": backend_start,
            "campaigns.worker_busy_s": busy,
            "campaigns.worker_idle_s": idle,
        }
        for phase in ("build", "run", "reports", "persist", "pickle"):
            values = [digest[f"{phase}_seconds"] for digest in digests if f"{phase}_seconds" in digest]
            layers[f"campaigns.{phase}_s"] = median(values) if values else 0.0
        # warm_feed counters are cumulative per worker: read each worker's last task.
        last_task: dict[str, dict] = {}
        for digest in digests:
            worker = digest.get("worker")
            if worker and digest.get("task_index", 0) >= last_task.get(worker, {}).get("task_index", -1):
                last_task[worker] = digest
        layers["campaigns.feed_hits"] = float(sum(d.get("warm_feed", {}).get("feed_hits", 0) for d in last_task.values()))
        layers["campaigns.feed_builds"] = float(sum(d.get("warm_feed", {}).get("feed_builds", 0) for d in last_task.values()))

        # The first run's world, with the probes and JSON reports of execute_job.
        first = campaign_runs[round_spec(seed, 0).campaign][0]
        shape = {"probes": executor_probes(), "json_payloads": True}
        layers.update(traced_world(first.builder, untraced_wall=untraced_world(first.builder, **shape), **shape))
        measured.per_layer = layers
    return measured
