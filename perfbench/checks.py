"""Output checks: a run whose outputs are wrong fails, loudly.

Each check takes plain values (no live simulator objects beyond what it
reads), so ``perfbench/test_checks.py`` can feed it corrupted outputs.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Mapping

from .common import CheckFailed


def chain_liquidation_count(result) -> int:
    """Liquidations settled on the chain, counted from its event log.

    Fixed-spread liquidation logs plus MakerDAO deals with a winner: the
    events the report pipeline normalises into liquidation records, counted
    here without going through that pipeline.
    """
    from repro.analytics.common import FIXED_SPREAD_LIQUIDATION_EVENTS

    events = result.chain.events
    fixed = sum(len(events.by_name(name)) for name in FIXED_SPREAD_LIQUIDATION_EVENTS)
    auctions = sum(1 for deal in events.by_name("Deal") if deal.data.get("winner"))
    return fixed + auctions


def check_paper_full(outputs: Mapping, experiment_ids: Iterable[str], chain_liquidations: int) -> None:
    """All reports rendered, and Table 1's total equals the chain's count."""
    experiment_ids = list(experiment_ids)
    missing = [eid for eid in experiment_ids if eid not in outputs or not outputs[eid].report.strip()]
    if missing:
        raise CheckFailed(f"reports not rendered: {', '.join(missing)}")
    if chain_liquidations <= 0:
        raise CheckFailed("the world settled no liquidations")
    table1 = outputs["table1"].data
    if table1.total_liquidations != chain_liquidations:
        raise CheckFailed(
            f"Table 1 counts {table1.total_liquidations} liquidations, the chain settled {chain_liquidations}"
        )
    by_platform = sum(row.liquidations for row in table1.rows)
    if by_platform != table1.total_liquidations:
        raise CheckFailed(f"Table 1 rows sum to {by_platform}, its total says {table1.total_liquidations}")


def check_campaign(store, campaign_runs: Mapping[str, list], experiment_ids: Iterable[str], failed: Mapping[str, str]) -> None:
    """No run failed, and every run of every campaign is complete in the store."""
    if failed:
        first = next(iter(failed.items()))
        raise CheckFailed(f"{len(failed)} campaign run(s) failed, e.g. {first[0]}: {first[1]}")
    experiment_ids = tuple(experiment_ids)
    incomplete = [
        f"{campaign}/{run.run_id}"
        for campaign, runs in campaign_runs.items()
        for run in runs
        if not store.is_complete(campaign, run, experiment_ids)
    ]
    if incomplete:
        raise CheckFailed(f"runs not complete in the store: {', '.join(incomplete)}")


def check_identical_files(expected_dir: Path, actual_dir: Path, experiment_ids: Iterable[str]) -> None:
    """Every experiment file of ``actual_dir`` is byte-identical to ``expected_dir``'s."""
    differing = []
    for eid in experiment_ids:
        expected, actual = expected_dir / f"{eid}.json", actual_dir / f"{eid}.json"
        if not expected.is_file() or not actual.is_file() or expected.read_bytes() != actual.read_bytes():
            differing.append(eid)
    if differing:
        raise CheckFailed(
            f"serial re-execution differs from {expected_dir} in: {', '.join(differing)}"
        )


def check_service(
    job_states: Mapping[str, str],
    lines_dropped: float,
    manifests: Mapping[str, Path],
    returncode: int | None,
) -> None:
    """Every job completed with a manifest, no line dropped, clean exit."""
    unfinished = {job: state for job, state in job_states.items() if state != "completed"}
    if unfinished:
        raise CheckFailed(f"jobs not completed: {unfinished}")
    missing = sorted(job for job in job_states if not manifests.get(job) or not manifests[job].is_file())
    if missing:
        raise CheckFailed(f"run manifests missing for: {', '.join(missing)}")
    if lines_dropped != 0:
        raise CheckFailed(f"the service dropped {lines_dropped:g} transport line(s)")
    if returncode != 0:
        raise CheckFailed(f"the service exited {returncode} after SIGTERM, not 0")
