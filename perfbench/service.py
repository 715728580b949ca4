"""Workload ``service-stream``: open-loop ``run`` jobs against ``repro serve``.

``python -m repro serve --port 0 --workers 2`` runs as a subprocess.  One
``small`` job with ``end_block`` 9,900,000 (251 steps across the March 2020
crash) is due every ``JOB_INTERVAL_S`` seconds for ``--seconds`` seconds,
each with its own seed taken from the workload seed and its own campaign,
so every job leaves its own manifest.  The interval is longer than one
job's service time, so about one job is busy at a time.  A job's latency
runs from when it was due until ``GET /jobs`` first reports it completed;
the generator sleeps between posts and polls, so it stays off the CPU.
The service is drained with SIGTERM at the end.

``wall_s`` is the median of the jobs' in-worker walls (build, run, reports
and persist, from each run manifest), so ``run_p50_s`` minus ``wall_s`` is
roughly the per-job start-up and hand-off.  ``runs_per_s`` is set by the
arrival schedule and moves only when jobs fail or queue behind each other.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

from .checks import check_service
from .common import (
    ROOT,
    SETUP_REPEATS,
    WORKERS,
    BenchmarkError,
    CheckFailed,
    Outcome,
    child_env,
    median,
    peak_rss_mb,
)

JOB_INTERVAL_S = 4.0
POLL_S = 0.1
END_BLOCK = 9_900_000
TERMINAL = ("completed", "failed", "interrupted")
_LISTENING = re.compile(r"listening on http://127\.0\.0\.1:(\d+)")


class Service:
    """One ``repro serve`` subprocess and its HTTP surface."""

    def __init__(self, store: Path) -> None:
        self.store = store
        self.lines: list[str] = []
        self._port: int | None = None
        self._listening = threading.Event()
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", str(WORKERS), "--store", str(store)],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        self._reader = threading.Thread(target=self._read_stderr, daemon=True)
        self._reader.start()
        if not self._listening.wait(timeout=60) or self._port is None:
            self.stop()
            raise BenchmarkError(f"repro serve did not start: {''.join(self.lines)[-400:]}")
        if self.get("/health").get("status") != "ok":
            self.stop()
            raise BenchmarkError("repro serve /health did not answer ok")
        #: Seconds from spawning the service until ``/health`` answered.
        self.ready_s = time.perf_counter() - started

    def _read_stderr(self) -> None:
        for line in self.proc.stderr:
            self.lines.append(line)
            match = _LISTENING.search(line)
            if match and self._port is None:
                self._port = int(match.group(1))
                self._listening.set()
        self._listening.set()

    def _request(self, path: str, body: dict | None = None) -> bytes:
        data = None if body is None else json.dumps(body).encode()
        request = urllib.request.Request(f"http://127.0.0.1:{self._port}{path}", data=data, method="POST" if data else "GET")
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.read()

    def get(self, path: str) -> dict:
        return json.loads(self._request(path))

    def post(self, path: str, body: dict) -> dict:
        return json.loads(self._request(path, body))

    def metrics(self) -> dict[str, float]:
        """``/metrics`` as ``{series: value}``."""
        series = {}
        for line in self._request("/metrics").decode().splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                series[name] = float(value)
        return series

    def stop(self) -> int | None:
        """SIGTERM-drain the service; its exit code (``None`` if it hung)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            returncode = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            returncode = None
        self._reader.join(timeout=10)
        return returncode


def _sum_series(series: dict[str, float], name: str, label: str = "") -> float:
    return sum(
        value for key, value in series.items()
        if (key == name or key.startswith(name + "{")) and label in key
    )


def run(*, seed: int, seconds: float, trace: bool, work_dir: Path) -> Outcome:
    from repro.campaigns.spec import RunSpec, spawn_seeds

    setup: list[float] = []
    for index in range(SETUP_REPEATS):
        service = Service(work_dir / f"service-{index}")
        setup.append(service.ready_s)
        if index < SETUP_REPEATS - 1 and service.stop() != 0:
            raise BenchmarkError(f"a set-up instance of repro serve did not exit 0: {''.join(service.lines)[-400:]}")

    n_jobs = max(int(-(-seconds // JOB_INTERVAL_S)), 1)
    job_seeds = spawn_seeds(seed, n_jobs)
    due: list[float] = []
    job_ids: list[str] = []
    submit_ms: list[float] = []
    lags: list[float] = []
    states: dict[str, str] = {}
    done_at: dict[str, float] = {}
    first_progress: dict[str, float] = {}
    try:
        start = time.perf_counter() + POLL_S
        due = [start + index * JOB_INTERVAL_S for index in range(n_jobs)]
        next_poll = start
        while len(job_ids) < n_jobs or len(done_at) < n_jobs:
            now = time.perf_counter()
            if len(job_ids) < n_jobs and now >= due[len(job_ids)]:
                index = len(job_ids)
                summary = service.post(
                    "/jobs",
                    {
                        "kind": "run",
                        "scenario": "small",
                        "seed": job_seeds[index],
                        "overrides": {"end_block": END_BLOCK},
                        "campaign": f"stream-{index:03d}",
                    },
                )
                submit_ms.append((time.perf_counter() - now) * 1000.0)
                lags.append(now - due[index])
                job_ids.append(summary["job_id"])
                continue
            if now >= next_poll:
                for job in service.get("/jobs")["jobs"]:
                    states[job["job_id"]] = job["state"]
                    if job["state"] in TERMINAL and job["job_id"] not in done_at:
                        done_at[job["job_id"]] = now
                if trace:
                    for job_id in job_ids:
                        if job_id not in first_progress and states.get(job_id) == "running":
                            if service.get(f"/jobs/{job_id}")["run_states"][0]["events"] > 0:
                                first_progress[job_id] = now
                next_poll = now + POLL_S
            if now - start > seconds + 120:
                raise BenchmarkError(f"jobs still unfinished {seconds + 120:.0f} s after the first was due: {states}")
            wake = next_poll if len(job_ids) == n_jobs else min(next_poll, due[len(job_ids)])
            time.sleep(max(wake - time.perf_counter(), 0.0))
        series = service.metrics()
        details = {job_id: service.get(f"/jobs/{job_id}") for job_id in job_ids}
    finally:
        returncode = service.stop()
    peak = max(peak_rss_mb(children=False), peak_rss_mb(children=True))

    latencies, worker_elapsed, overhead = [], [], []
    manifests: dict[str, Path] = {}
    for index, job_id in enumerate(job_ids):
        run_id = details[job_id]["run_states"][0]["run_id"]
        manifests[job_id] = service.store / details[job_id]["campaign"] / run_id / "manifest.json"
        if details[job_id]["state"] != "completed":
            latencies.append(float("inf"))
            continue
        latency = done_at[job_id] - due[index]
        latencies.append(latency)
        if manifests[job_id].is_file():
            elapsed = json.loads(manifests[job_id].read_text())["elapsed_seconds"]
            worker_elapsed.append(elapsed)
            overhead.append(latency - elapsed)
    completed = sum(1 for job_id in job_ids if details[job_id]["state"] == "completed")
    section_wall = max(done_at.values()) - due[0]
    # A job without a manifest enters the median of in-worker walls as infinitely slow.
    job_walls = worker_elapsed + [float("inf")] * (n_jobs - len(worker_elapsed))

    check_error = None
    try:
        check_service(
            {job_id: details[job_id]["state"] for job_id in job_ids},
            _sum_series(series, "repro_service_lines_dropped_total"),
            manifests,
            returncode,
        )
    except CheckFailed as failure:
        check_error = str(failure)

    outcome = Outcome(
        end_to_end={
            "setup_s": median(setup),
            "wall_s": median(job_walls),
            "runs_per_s": completed / section_wall,
            "run_p50_s": median(latencies),
            "peak_rss_mb": peak,
            "ok_frac": completed / n_jobs,
        },
        attempted=n_jobs,
        failed=n_jobs - completed,
        notes=[
            f"jobs: {n_jobs}, one due every {JOB_INTERVAL_S:g} s (open loop); {completed} latency samples: "
            + ", ".join(f"{value:.2f}" for value in latencies) + " s",
            f"load generator lag: max {max(lags) * 1000:.1f} ms; /jobs polled every {POLL_S:g} s",
            f"setup_s: median of {len(setup)} service starts until /health answered",
        ],
        check_error=check_error,
    )
    if trace:
        from repro.observers.sinks import JsonlSink
        from repro.service.probes import HealthSampleProbe
        from repro.service.supervisor import ServiceConfig

        from .tracing import executor_probes, traced_world, untraced_world

        progress = [first_progress[job_id] - due[index] for index, job_id in enumerate(job_ids) if job_id in first_progress]
        layers = {
            "service.submit_ms": median(submit_ms),
            "service.first_progress_p50_s": median(progress) if progress else 0.0,
            "service.worker_elapsed_p50_s": median(worker_elapsed) if worker_elapsed else 0.0,
            "service.overhead_p50_s": median(overhead) if overhead else 0.0,
            "service.events": _sum_series(series, "repro_service_events_total"),
            "service.hf_samples": _sum_series(series, "repro_service_hf_samples_total"),
            "service.alerts_warning": _sum_series(series, "repro_service_alerts_total", 'tier="warning"'),
            "service.alerts_critical": _sum_series(series, "repro_service_alerts_total", 'tier="critical"'),
            "service.lines_dropped": _sum_series(series, "repro_service_lines_dropped_total"),
            "service.peak_active_runs": _sum_series(series, "repro_service_peak_active_runs"),
            "loadgen.lag_max_s": max(lags),
        }
        # The first job's world, with the probes the service worker attaches:
        # execute_job's pair, the event sink and the health sampler, both
        # streaming to the null device instead of the supervisor's pipe.
        spec = RunSpec("small", (("end_block", END_BLOCK),), job_seeds[0], 0, "base")
        sample_below = ServiceConfig().effective_sample_below
        with open(os.devnull, "w", encoding="utf-8") as devnull:
            probes = (
                *executor_probes(),
                lambda engine: JsonlSink(devnull),
                lambda engine: HealthSampleProbe(devnull, engine.protocols, sample_below=sample_below),
            )
            shape = {"probes": probes, "json_payloads": True}
            layers.update(traced_world(spec.builder, untraced_wall=untraced_world(spec.builder, **shape), **shape))
        outcome.per_layer = layers
    return outcome
