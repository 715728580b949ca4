"""Golden fingerprints: pin every registered scenario's behaviour across commits.

The equivalence suites (scan, valuation, backends, sanitizer) prove that two
code paths agree *within* one commit.  These fingerprints pin behaviour
*across* commits: each registered scenario runs over a truncated window at
a fixed seed, and the SHA-256 of canonical JSON of what the run leaves
behind must equal the value committed in ``tests/golden/fingerprints.json``.
A performance change that alters a single bit of a run fails here.

Hashed per scenario, each as its own entry so a failure names the layer:

* ``events`` — the chain event log (name, emitter, block, tx hash, log
  index, payload);
* ``records`` — the normalised liquidation records;
* ``snapshots`` — per-protocol collateral and debt totals of every
  archive snapshot;
* ``table1`` / ``table2`` — the Table 1 and Table 2 JSON payloads.

Canonical JSON means sorted keys, no whitespace and Python's shortest
round-trip ``repr`` for floats (``json.dumps``' float spelling).

Regenerate only on an intended behaviour change, and say so in the change
log::

    PYTHONPATH=src python -m pytest tests/test_golden.py --update-golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro import scenarios
from repro.experiments.runner import run_one
from repro.runtime_state import reset_run_state
from repro.serialize import to_jsonable

GOLDEN = Path(__file__).parent / "golden" / "fingerprints.json"

#: Engine strides each truncated run covers, from the scenario's start block.
STRIDES = 60

SEED = 5

COMPONENTS = ("events", "records", "snapshots", "table1", "table2")


def canonical_hash(obj) -> str:
    """SHA-256 of ``obj`` as canonical JSON."""
    text = json.dumps(to_jsonable(obj), sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_truncated(name: str):
    reset_run_state()
    builder = scenarios.get(name).builder(SEED)
    config = builder.config
    builder.config = config.with_overrides(
        end_block=min(config.end_block, config.start_block + STRIDES * config.blocks_per_step)
    )
    return builder.run()


def fingerprints(name: str) -> dict[str, str]:
    """The per-component hashes of one truncated run of ``name``."""
    result = run_truncated(name)
    chain = result.chain
    events = [
        (event.name, event.emitter.value, event.block_number, event.tx_hash, event.log_index, event.data)
        for event in chain.events
    ]
    snapshots = {}
    for block in chain.snapshot_blocks:
        snapshots[str(block)] = {
            platform: (state["total_collateral_usd"], state["total_debt_usd"])
            for platform, state in chain.snapshot_at(block).items()
            if isinstance(state, dict) and "total_collateral_usd" in state
        }
    records = result.records
    parts = {
        "events": events,
        "records": records,
        "snapshots": snapshots,
        "table1": run_one(result, "table1", records).json_payload(),
        "table2": run_one(result, "table2", records).json_payload(),
    }
    return {component: canonical_hash(parts[component]) for component in COMPONENTS}


def load_golden() -> dict:
    if not GOLDEN.exists():
        return {}
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", scenarios.names())
def test_golden_fingerprint(name, request):
    actual = fingerprints(name)
    if request.config.getoption("--update-golden", default=False):
        golden = load_golden()
        golden["strides"] = STRIDES
        golden["seed"] = SEED
        golden.setdefault("scenarios", {})[name] = actual
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
        return
    golden = load_golden()
    assert golden.get("strides") == STRIDES and golden.get("seed") == SEED, (
        "fingerprints were generated with other run settings; regenerate with --update-golden"
    )
    expected = golden.get("scenarios", {}).get(name)
    assert expected is not None, f"no golden fingerprint for {name!r}; generate with --update-golden"
    changed = [component for component in COMPONENTS if actual[component] != expected.get(component)]
    assert not changed, f"{name}: {', '.join(changed)} changed against the committed golden fingerprints"


def test_every_registered_scenario_is_pinned():
    assert sorted(load_golden().get("scenarios", {})) == sorted(scenarios.names())
