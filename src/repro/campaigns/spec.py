"""Declarative campaign specifications.

A :class:`CampaignSpec` names *what* to simulate — a registered scenario, an
optional grid of builder overrides, and how many seeds — without building
anything.  It expands to a list of :class:`RunSpec` objects, each a fully
picklable ``(scenario, overrides, seed)`` triple that a worker process can
rebuild into a world on its own (nothing unpicklable ever crosses the
process boundary).

Seeds are derived with :class:`numpy.random.SeedSequence.spawn`, so the runs
of a campaign are reproducible *and* statistically independent: the same
``(base_seed, n_seeds)`` always yields the same seed list, and spawned
children never share entropy streams.

Override keys a campaign may fix (``overrides``) or sweep (``grid``):

``close_factor``
    Close factor applied to every fixed-spread protocol.
``liquidation_incentive``
    Liquidation spread (incentive) applied to every market of every
    protocol.
``crash_depth``
    Replaces the ``drop`` of every crash-type :class:`PriceCrash` incident
    in effect (spikes, i.e. negative drops, are left untouched).
``end_block`` / ``blocks_per_step``
    Window truncation and engine stride, as in ``repro run``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Sequence

import numpy as np

from ..experiments.runner import EXPERIMENT_IDS
from ..scenarios import get as get_scenario
from ..scenarios.builder import ScenarioBuilder
from ..scenarios.incidents import PriceCrash

__all__ = [
    "OVERRIDE_KEYS",
    "CampaignSpec",
    "RunSpec",
    "apply_overrides",
    "spawn_seeds",
]

#: Builder override keys a campaign grid may fix or sweep.
OVERRIDE_KEYS: tuple[str, ...] = (
    "close_factor",
    "liquidation_incentive",
    "crash_depth",
    "end_block",
    "blocks_per_step",
)

#: Override keys carrying integral values (the rest are floats).
_INT_KEYS = frozenset({"end_block", "blocks_per_step"})


def _coerce(key: str, value: Any) -> float | int:
    """Validate an override key and coerce its value to the right type."""
    if key not in OVERRIDE_KEYS:
        raise KeyError(
            f"unknown override {key!r}; supported overrides: {', '.join(OVERRIDE_KEYS)}"
        )
    return int(value) if key in _INT_KEYS else float(value)


def apply_overrides(builder: ScenarioBuilder, overrides: Mapping[str, float]) -> ScenarioBuilder:
    """Apply campaign overrides to a scenario builder, in place.

    Window overrides are applied first (default incidents depend on the
    config), then the incident rewrite, then a protocol-factory wrapper that
    patches close factor / liquidation incentive after construction.
    """
    overrides = {key: _coerce(key, value) for key, value in overrides.items()}

    end_block = overrides.get("end_block")
    blocks_per_step = overrides.get("blocks_per_step")
    if end_block is not None or blocks_per_step is not None:
        builder.with_window(end_block=end_block, blocks_per_step=blocks_per_step)

    crash_depth = overrides.get("crash_depth")
    if crash_depth is not None:
        builder.with_incidents(
            *(
                replace(incident, drop=crash_depth)
                if isinstance(incident, PriceCrash) and incident.drop > 0
                else incident
                for incident in builder.incidents
            )
        )

    close_factor = overrides.get("close_factor")
    incentive = overrides.get("liquidation_incentive")
    if close_factor is not None or incentive is not None:
        inner = builder.protocol_factory

        def patched(ctx, _inner=inner):
            protocols = _inner(ctx)
            for protocol in protocols:
                if close_factor is not None:
                    protocol.close_factor = close_factor
                if incentive is not None:
                    for market in protocol.markets.values():
                        market.liquidation_spread = incentive
            return protocols

        builder.with_protocol_factory(patched)
    return builder


def spawn_seeds(base_seed: int, n_seeds: int) -> list[int]:
    """Derive ``n_seeds`` independent integer seeds from ``base_seed``."""
    children = np.random.SeedSequence(base_seed).spawn(n_seeds)
    return [int(child.generate_state(1)[0]) for child in children]


@dataclass(frozen=True)
class RunSpec:
    """One fully-determined run: everything a worker needs to rebuild it."""

    scenario: str
    overrides: tuple[tuple[str, float], ...]
    seed: int
    seed_index: int
    variant: str

    @property
    def run_id(self) -> str:
        """Store directory name: the variant label plus the seed index."""
        return f"{self.variant}-seed{self.seed_index:03d}"

    @property
    def key(self) -> str:
        """Content hash of ``(scenario, overrides, seed)`` for resume checks."""
        payload = json.dumps(
            {"scenario": self.scenario, "overrides": sorted(self.overrides), "seed": self.seed},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def builder(self) -> ScenarioBuilder:
        """Rebuild the scenario builder for this run (registry + overrides + seed)."""
        builder = get_scenario(self.scenario).builder()
        apply_overrides(builder, dict(self.overrides))
        return builder.with_seed(self.seed)


@dataclass
class CampaignSpec:
    """A named scenario (or override grid) crossed with a seed range."""

    scenario: str
    seeds: int = 1
    base_seed: int = 0
    overrides: Mapping[str, float] = field(default_factory=dict)
    grid: Mapping[str, Sequence[float]] = field(default_factory=dict)
    experiments: tuple[str, ...] = EXPERIMENT_IDS
    name: str | None = None

    def __post_init__(self) -> None:
        if self.seeds < 1:
            raise ValueError(f"seeds must be >= 1, got {self.seeds}")
        self.overrides = {key: _coerce(key, value) for key, value in self.overrides.items()}
        self.grid = {
            key: tuple(_coerce(key, value) for value in values)
            for key, values in self.grid.items()
        }
        empty = sorted(key for key, values in self.grid.items() if not values)
        if empty:
            raise ValueError(f"grid axis with no values: {', '.join(empty)}")
        self.experiments = tuple(self.experiments)
        unknown = [eid for eid in self.experiments if eid not in EXPERIMENT_IDS]
        if unknown:
            raise KeyError(
                f"unknown experiment id(s) {', '.join(unknown)}; known: {', '.join(EXPERIMENT_IDS)}"
            )

    @property
    def campaign(self) -> str:
        """Store-level campaign name (defaults to the scenario name)."""
        return self.name or self.scenario

    def seed_values(self) -> list[int]:
        """The campaign's independent seeds, in seed-index order."""
        return spawn_seeds(self.base_seed, self.seeds)

    def variants(self) -> list[tuple[str, dict[str, float]]]:
        """Expand the override grid into ``(label, overrides)`` pairs.

        Fixed ``overrides`` apply to every variant; grid axes are crossed in
        key-sorted order.  With no grid there is a single variant whose label
        is ``"base"``.
        """
        if not self.grid:
            return [("base", dict(self.overrides))]
        axes = sorted(self.grid)
        out = []
        for point in itertools.product(*(self.grid[axis] for axis in axes)):
            cell = dict(zip(axes, point))
            label = ",".join(f"{axis}={cell[axis]:g}" for axis in axes)
            out.append((label, {**self.overrides, **cell}))
        return out

    def runs(self) -> list[RunSpec]:
        """Every run of the campaign: each variant crossed with each seed."""
        return [
            RunSpec(
                scenario=self.scenario,
                overrides=tuple(sorted(overrides.items())),
                seed=seed,
                seed_index=seed_index,
                variant=label,
            )
            for label, overrides in self.variants()
            for seed_index, seed in enumerate(self.seed_values())
        ]

    def describe(self) -> dict[str, Any]:
        """A JSON-ready summary of the spec (stored in run manifests)."""
        return {
            "campaign": self.campaign,
            "scenario": self.scenario,
            "seeds": self.seeds,
            "base_seed": self.base_seed,
            "overrides": dict(self.overrides),
            "grid": {key: list(values) for key, values in self.grid.items()},
            "experiments": list(self.experiments),
        }
