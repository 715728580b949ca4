"""Campaigns: parallel multi-seed sweeps with a persistent run store.

This package turns single ``repro run`` invocations into *campaigns* —
statistically meaningful collections of runs:

* :mod:`repro.campaigns.spec` — the declarative :class:`CampaignSpec`: a
  named scenario (or a grid of builder overrides) crossed with a
  ``SeedSequence``-derived seed range, expanding to picklable
  :class:`RunSpec` triples;
* :mod:`repro.campaigns.backends` — the :class:`ExecutionBackend`
  protocol and its two implementations (``serial`` / ``persistent``),
  plus :class:`WorkerConfig`, the one worker-configuration surface shared
  by the executor, ``repro sweep`` and ``repro serve``;
* :mod:`repro.campaigns.executor` — :class:`CampaignExecutor`, the driver
  that expands a spec, resumes completed runs from the store, and fans the
  rest out over an execution backend;
* :mod:`repro.campaigns.store` — :class:`RunStore`, the on-disk layout
  ``runs/<campaign>/<run_id>/manifest.json`` + per-experiment JSON;
* :mod:`repro.campaigns.aggregate` — cross-seed statistics (mean / stddev /
  95 % CI per scalar field of every experiment) and the comparison report.

Quickstart::

    from repro.campaigns import CampaignExecutor, CampaignSpec, RunStore

    spec = CampaignSpec(scenario="march-2020-only", seeds=8)
    store = RunStore("runs")
    CampaignExecutor(spec, store, backend="persistent").execute()

    from repro.campaigns import aggregate_campaign, render_comparison
    print(render_comparison(aggregate_campaign(store, spec.campaign)))

or, from the shell::

    repro sweep --scenario march-2020-only --seeds 8 --workers 4
    repro compare

``--workers 4`` auto-selects the persistent backend; pin one explicitly
with ``--backend serial|persistent``.  Both backends produce
byte-identical store files, so the choice is purely about throughput.
"""

from .aggregate import (
    CampaignAggregate,
    ExperimentStats,
    FieldStats,
    VariantAggregate,
    aggregate_campaign,
    render_comparison,
    scalar_fields,
)
from .backends import ExecutionBackend, PersistentBackend, SerialBackend, WorkerConfig
from .executor import CampaignExecutor, CampaignResult, RunJob, execute_job
from .spec import OVERRIDE_KEYS, CampaignSpec, RunSpec, apply_overrides, spawn_seeds
from .store import RunStore

__all__ = [
    "CampaignAggregate",
    "CampaignExecutor",
    "CampaignResult",
    "CampaignSpec",
    "ExecutionBackend",
    "ExperimentStats",
    "FieldStats",
    "OVERRIDE_KEYS",
    "PersistentBackend",
    "RunJob",
    "RunSpec",
    "RunStore",
    "SerialBackend",
    "VariantAggregate",
    "WorkerConfig",
    "aggregate_campaign",
    "apply_overrides",
    "execute_job",
    "render_comparison",
    "scalar_fields",
    "spawn_seeds",
]
