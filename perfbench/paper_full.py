"""Workload ``paper-full``: the paper's two-year window at full population.

One world is built and run in this process, then all 17 reports are
rendered the way ``repro run paper-full --report all`` renders them (no
probes, so ``result.records`` is the post-hoc crawl).  Worlds repeat until
``--seconds`` have been measured; today one world already takes longer.

Every world is the scenario's own calibrated world (the registry's default
seed), whatever the workload seed: a world's cost depends on its scenario
seed (19.4 s for one, 26.0 s for another, back to back on a 2-core host),
a spread no bound could hold, so the workload seed only names the run.

While one world fills a run, ``run_p50_s`` equals ``wall_s`` and
``runs_per_s`` is its inverse: every workload reports all six metrics, but
here those two carry no signal of their own.
"""

from __future__ import annotations

import gc
import time
from pathlib import Path

from .checks import chain_liquidation_count, check_paper_full
from .common import SETUP_REPEATS, CheckFailed, Outcome, median, peak_rss_mb, time_ready_probe

SCENARIO = "paper-full"


def run(*, seed: int, seconds: float, trace: bool, work_dir: Path) -> Outcome:
    setup = [time_ready_probe(SCENARIO, work_dir) for _ in range(SETUP_REPEATS)]

    from repro import scenarios
    from repro.experiments.runner import EXPERIMENT_IDS, render_all, run_one
    from repro.runtime_state import reset_run_state

    walls: list[float] = []
    check_error = None
    failed = 0
    measured = 0.0
    while not walls or measured < seconds:
        reset_run_state()
        started = time.perf_counter()
        result = scenarios.get(SCENARIO).builder().run()
        records = result.records
        outputs = {eid: run_one(result, eid, records) for eid in EXPERIMENT_IDS}
        render_all(outputs)
        wall = time.perf_counter() - started
        walls.append(wall)
        measured += wall
        try:
            check_paper_full(outputs, EXPERIMENT_IDS, chain_liquidation_count(result))
        except CheckFailed as failure:
            failed += 1
            check_error = check_error or str(failure)
        del result, records, outputs
        gc.collect()

    outcome = Outcome(
        end_to_end={
            "setup_s": median(setup),
            "wall_s": median(walls),
            "runs_per_s": (len(walls) - failed) / measured,
            "run_p50_s": median(walls),
            "peak_rss_mb": max(peak_rss_mb(children=False), peak_rss_mb(children=True)),
            "ok_frac": (len(walls) - failed) / len(walls),
        },
        attempted=len(walls),
        failed=failed,
        notes=[
            f"worlds: {len(walls)}, walls {', '.join(f'{w:.2f}' for w in walls)} s",
            f"setup_s: median of {len(setup)} fresh processes",
        ],
        check_error=check_error,
    )
    if trace:
        from .tracing import traced_world

        outcome.per_layer = traced_world(
            lambda: scenarios.get(SCENARIO).builder(), untraced_wall=walls[0]
        )
    return outcome
