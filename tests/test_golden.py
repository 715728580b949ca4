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
* ``blocks`` — per mined block: number, gas used, median gas price and the
  number of executed transactions;
* ``receipts`` — per mined block: number and the tx hash of every receipt
  (the events carry no tx hash, so this is what pins the chain's hash ids);
* ``table1`` / ``table2`` — the Table 1 and Table 2 JSON payloads.

Canonical JSON means sorted keys, no whitespace and Python's shortest
round-trip ``repr`` for floats (``json.dumps``' float spelling).

Two windows are pinned, each under its own key of the golden file: the
60-stride window at the top level, and a 320-stride ``late`` window.  The
short one ends before any borrower tops up its collateral; the late one
covers the first top-ups (stride 139 in ``paper-full``, 158 in ``small``)
and the stress incidents at strides 206, 250 and 312.  A third window, under
the ``crash`` key, pins ``paper-full`` alone through the March 2020 crash
and its two days of congestion: there oracle post batches, liquidations and
auctions share blocks, so it pins their log order at full population.

Worlds own their identity (each chain mints its addresses and tx hashes),
so nothing is rewound between runs, and two worlds built in one process and
stepped alternately must each still match their own fingerprints.

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
from repro.serialize import to_jsonable

GOLDEN = Path(__file__).parent / "golden" / "fingerprints.json"

#: Engine strides each truncated run covers, from the scenario's start block.
STRIDES = 60

#: Strides of the late window, pinned under the golden file's ``late`` key.
LATE_STRIDES = 320
LATE = "late"

#: Strides of the crash window, pinned under the golden file's ``crash``
#: key for :data:`CRASH_SCENARIO` only: from block 7,500,000 to 9,880,800,
#: just past the crash at block 9,865,000 and its 14,000 congested blocks.
CRASH_STRIDES = 1_984
CRASH = "crash"
CRASH_SCENARIO = "paper-full"

SEED = 5

COMPONENTS = ("events", "records", "snapshots", "blocks", "receipts", "table1", "table2")


def canonical_hash(obj) -> str:
    """SHA-256 of ``obj`` as canonical JSON."""
    text = json.dumps(to_jsonable(obj), sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def truncated_builder(name: str, strides: int):
    builder = scenarios.get(name).builder(SEED)
    config = builder.config
    builder.config = config.with_overrides(
        end_block=min(config.end_block, config.start_block + strides * config.blocks_per_step)
    )
    return builder


def fingerprints(result) -> dict[str, str]:
    """The per-component hashes of one finished run."""
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
    blocks = [
        (block.number, block.gas_used, block.median_gas_price, len(block.receipts) + len(block.fill_gas_prices))
        for block in chain.blocks
    ]
    receipts = [(block.number, [receipt.tx_hash for receipt in block.receipts]) for block in chain.blocks]
    records = result.records
    parts = {
        "events": events,
        "records": records,
        "snapshots": snapshots,
        "blocks": blocks,
        "receipts": receipts,
        "table1": run_one(result, "table1", records).json_payload(),
        "table2": run_one(result, "table2", records).json_payload(),
    }
    return {component: canonical_hash(parts[component]) for component in COMPONENTS}


def load_golden() -> dict:
    if not GOLDEN.exists():
        return {}
    return json.loads(GOLDEN.read_text())


def window(golden: dict, key: str | None) -> dict:
    """The entries of one window: the top level, or the section under ``key``."""
    return golden if key is None else golden.setdefault(key, {})


def check_window(name: str, request, key: str | None, strides: int) -> None:
    actual = fingerprints(truncated_builder(name, strides).run())
    if request.config.getoption("--update-golden", default=False):
        golden = load_golden()
        section = window(golden, key)
        section["strides"] = strides
        section["seed"] = SEED
        section.setdefault("scenarios", {})[name] = actual
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
        return
    section = window(load_golden(), key)
    assert section.get("strides") == strides and section.get("seed") == SEED, (
        "fingerprints were generated with other run settings; regenerate with --update-golden"
    )
    expected = section.get("scenarios", {}).get(name)
    assert expected is not None, f"no golden fingerprint for {name!r}; generate with --update-golden"
    changed = [component for component in COMPONENTS if actual[component] != expected.get(component)]
    assert not changed, f"{name}: {', '.join(changed)} changed against the committed golden fingerprints"


@pytest.mark.parametrize("name", scenarios.names())
def test_golden_fingerprint(name, request):
    check_window(name, request, None, STRIDES)


@pytest.mark.parametrize("name", scenarios.names())
def test_late_golden_fingerprint(name, request):
    check_window(name, request, LATE, LATE_STRIDES)


def test_crash_golden_fingerprint(request):
    check_window(CRASH_SCENARIO, request, CRASH, CRASH_STRIDES)


def test_every_registered_scenario_is_pinned():
    golden = load_golden()
    for key in (None, LATE):
        assert sorted(window(golden, key).get("scenarios", {})) == sorted(scenarios.names())


def test_interleaved_worlds_match_their_golden_fingerprints():
    """Two worlds built in one process, then stepped alternately with no
    reset anywhere, each leave exactly their own committed fingerprints."""
    names = ("paper-medium", "small")
    engines = [truncated_builder(name, STRIDES).build() for name in names]
    pending = list(engines)
    while pending:
        for engine in list(pending):
            if engine.chain.current_block > engine.config.end_block:
                pending.remove(engine)
            else:
                engine.step()
    expected = window(load_golden(), None)["scenarios"]
    for name, engine in zip(names, engines):
        actual = fingerprints(engine.run(0))
        changed = [component for component in COMPONENTS if actual[component] != expected[name][component]]
        assert not changed, f"{name}: {', '.join(changed)} differ when stepped alongside another world"
        # The receipts component pins tx hashes only where there are some.
        assert any(block.receipts for block in engine.chain.blocks)
