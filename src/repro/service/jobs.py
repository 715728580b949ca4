"""Service job model: submissions, per-run states, and the restart journal.

A *job* is what clients submit — a single scenario run or a campaign sweep —
and it expands into one or more :class:`~repro.campaigns.spec.RunSpec` s,
the unit a persistent worker executes.  Sweeps reuse
:class:`~repro.campaigns.spec.CampaignSpec` wholesale, so the service's grid
and seed semantics are exactly ``repro sweep``'s.

The journal is a single JSON file next to the run store
(``<store>/service-journal.json``, written atomically) recording every
submitted job and its per-run statuses.  On restart the supervisor re-enqueues
every journalled job that has not reached a terminal state; runs that already
completed are caught by the store's manifest check
(:meth:`~repro.campaigns.store.RunStore.is_complete`) and reported as
``resumed`` without re-simulating — together they are the service's
resume-on-restart contract.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from ..campaigns.spec import CampaignSpec, RunSpec, _coerce
from ..experiments.runner import EXPERIMENT_IDS
from ..scenarios import get as get_scenario

__all__ = [
    "JOURNAL_NAME",
    "JobRecord",
    "RunState",
    "ServiceJournal",
    "SubmissionError",
    "expand_job",
]

JOURNAL_NAME = "service-journal.json"

#: Per-run statuses.  ``resumed`` means the store already held a completed
#: manifest for the exact ``(scenario, overrides, seed)`` key.
RUN_STATUSES = ("queued", "running", "completed", "failed", "resumed", "interrupted")

#: Job states a restarted service does not re-enqueue.
TERMINAL_JOB_STATES = frozenset({"completed", "failed"})


class SubmissionError(ValueError):
    """A job submission payload that cannot be expanded into runs."""


@dataclass
class RunState:
    """One run of a job: its spec plus live progress from the event stream."""

    spec: RunSpec
    status: str = "queued"
    error: str | None = None
    # Live progress, folded from the streamed events by the supervisor.
    steps: int = 0
    blocks: int = 0
    last_block: int = 0
    liquidations: int = 0
    incidents: int = 0
    events: int = 0
    alerts: int = 0

    def payload(self) -> dict[str, Any]:
        return {
            "run_id": self.spec.run_id,
            "scenario": self.spec.scenario,
            "seed": self.spec.seed,
            "variant": self.spec.variant,
            "status": self.status,
            "error": self.error,
            "steps": self.steps,
            "blocks": self.blocks,
            "last_block": self.last_block,
            "liquidations": self.liquidations,
            "incidents": self.incidents,
            "events": self.events,
            "alerts": self.alerts,
        }


@dataclass
class JobRecord:
    """One submitted job and the states of its expanded runs."""

    job_id: str
    kind: str  # "run" | "sweep"
    campaign: str
    submission: dict[str, Any]  # normalised payload, journalled for restart
    experiments: tuple[str, ...]
    runs: dict[str, RunState] = field(default_factory=dict)

    @property
    def state(self) -> str:
        """Derived job state: queued → running → completed/failed/interrupted."""
        statuses = {run.status for run in self.runs.values()}
        if not statuses or statuses <= {"queued"}:
            return "queued"
        if "running" in statuses or "queued" in statuses:
            return "running"
        if "interrupted" in statuses:
            return "interrupted"
        if "failed" in statuses:
            return "failed"
        return "completed"

    def counts(self) -> dict[str, int]:
        out = {status: 0 for status in RUN_STATUSES}
        for run in self.runs.values():
            out[run.status] += 1
        out["total"] = len(self.runs)
        return out

    def summary(self) -> dict[str, Any]:
        """The ``/jobs`` listing entry."""
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "campaign": self.campaign,
            "scenario": self.submission.get("scenario"),
            "state": self.state,
            "runs": self.counts(),
        }

    def detail(self) -> dict[str, Any]:
        """The ``/jobs/<id>`` body: the summary plus every run's progress."""
        body = self.summary()
        body["experiments"] = list(self.experiments)
        body["submission"] = self.submission
        body["run_states"] = [
            self.runs[run_id].payload() for run_id in sorted(self.runs)
        ]
        return body


def _normalise_overrides(raw: Any) -> dict[str, float | int]:
    if raw is None:
        return {}
    if not isinstance(raw, Mapping):
        raise SubmissionError("overrides must be an object of KEY: VALUE pairs")
    try:
        return {key: _coerce(key, value) for key, value in raw.items()}
    except (KeyError, ValueError, TypeError) as exc:
        raise SubmissionError(str(exc.args[0] if exc.args else exc)) from exc


def _check_experiments(experiment_ids: Any) -> tuple[str, ...]:
    if experiment_ids is None:
        return EXPERIMENT_IDS
    ids = tuple(dict.fromkeys(experiment_ids))
    unknown = [eid for eid in ids if eid not in EXPERIMENT_IDS]
    if unknown:
        raise SubmissionError(
            f"unknown experiment id(s) {', '.join(unknown)}; known: {', '.join(EXPERIMENT_IDS)}"
        )
    return ids


def expand_job(job_id: str, payload: Mapping[str, Any]) -> JobRecord:
    """Validate a submission payload and expand it into a :class:`JobRecord`.

    Two kinds are accepted:

    * ``{"kind": "run", "scenario": ..., "seed"?, "overrides"?,
      "experiments"?, "campaign"?}`` — one run; the seed defaults to the
      scenario's own, the campaign to the scenario name.
    * ``{"kind": "sweep", "scenario": ..., "seeds"?, "base_seed"?,
      "overrides"?, "grid"?, "experiments"?, "campaign"?}`` — a full
      campaign, expanded exactly as ``repro sweep`` would.

    Raises :class:`SubmissionError` with a client-presentable message for
    anything malformed (unknown scenario, override, or experiment id).
    """
    if not isinstance(payload, Mapping):
        raise SubmissionError("job payload must be a JSON object")
    kind = payload.get("kind", "run")
    scenario = payload.get("scenario")
    if not isinstance(scenario, str) or not scenario:
        raise SubmissionError("job payload needs a 'scenario' name")
    try:
        definition = get_scenario(scenario)
    except KeyError as exc:
        raise SubmissionError(str(exc.args[0])) from exc
    experiments = _check_experiments(payload.get("experiments"))
    overrides = _normalise_overrides(payload.get("overrides"))

    if kind == "run":
        seed = payload.get("seed")
        if seed is None:
            seed = definition.builder(None).config.seed
        seed = int(seed)
        campaign = str(payload.get("campaign") or scenario)
        spec = RunSpec(
            scenario=scenario,
            overrides=tuple(sorted(overrides.items())),
            seed=seed,
            seed_index=0,
            variant="base",
        )
        submission = {
            "kind": "run",
            "scenario": scenario,
            "seed": seed,
            "overrides": overrides,
            "experiments": list(experiments),
            "campaign": campaign,
        }
        record = JobRecord(
            job_id=job_id,
            kind="run",
            campaign=campaign,
            submission=submission,
            experiments=experiments,
        )
        record.runs[spec.run_id] = RunState(spec=spec)
        return record

    if kind == "sweep":
        grid = payload.get("grid") or {}
        if not isinstance(grid, Mapping):
            raise SubmissionError("grid must be an object of KEY: [VALUES] pairs")
        try:
            spec = CampaignSpec(
                scenario=scenario,
                seeds=int(payload.get("seeds", 1)),
                base_seed=int(payload.get("base_seed", 0)),
                overrides=overrides,
                grid={key: list(values) for key, values in grid.items()},
                experiments=experiments,
                name=payload.get("campaign"),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise SubmissionError(str(exc.args[0] if exc.args else exc)) from exc
        submission = {
            "kind": "sweep",
            "scenario": scenario,
            "seeds": spec.seeds,
            "base_seed": spec.base_seed,
            "overrides": dict(spec.overrides),
            "grid": {key: list(values) for key, values in spec.grid.items()},
            "experiments": list(experiments),
            "campaign": spec.campaign,
        }
        record = JobRecord(
            job_id=job_id,
            kind="sweep",
            campaign=spec.campaign,
            submission=submission,
            experiments=experiments,
        )
        for run in spec.runs():
            record.runs[run.run_id] = RunState(spec=run)
        return record

    raise SubmissionError(f"unknown job kind {kind!r}; expected 'run' or 'sweep'")


class ServiceJournal:
    """Atomic JSON journal of submitted jobs, for resume-on-restart."""

    def __init__(self, store_root: str | Path) -> None:
        self.path = Path(store_root) / JOURNAL_NAME

    def load(self) -> dict[str, Any]:
        """The journal contents (``{"next_job": n, "jobs": [...]}``)."""
        try:
            with self.path.open(encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return {"next_job": 1, "jobs": []}
        if not isinstance(data, dict):
            return {"next_job": 1, "jobs": []}
        data.setdefault("next_job", 1)
        data.setdefault("jobs", [])
        return data

    def save(self, next_job: int, records: list[JobRecord]) -> None:
        """Persist the job table (write-temp + rename, crash-atomic)."""
        payload = {
            "next_job": next_job,
            "jobs": [
                {
                    "job_id": record.job_id,
                    "kind": record.kind,
                    "campaign": record.campaign,
                    "submission": record.submission,
                    "state": record.state,
                    "runs": {
                        run_id: run.status for run_id, run in sorted(record.runs.items())
                    },
                }
                for record in records
            ],
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        temporary = self.path.with_suffix(".json.tmp")
        temporary.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        os.replace(temporary, self.path)

    def incomplete_jobs(self) -> list[dict[str, Any]]:
        """Journalled jobs a restarted service must re-enqueue (in order)."""
        return [
            entry
            for entry in self.load()["jobs"]
            if entry.get("state") not in TERMINAL_JOB_STATES
        ]
