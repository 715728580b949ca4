"""Seed-pinned equivalence: the columnar scan and the scalar sweep replay identically.

The engine's liquidation scans flag candidate rows with each protocol's
:meth:`~repro.protocols.base.LendingProtocol.step_scan` (one columnar
:class:`~repro.core.position_book.BookScan` per price key and book
revision, shared with the borrower cohort) and confirm each row with the
scalar health factor.  The reference is the engine's scalar sweep over
every indebted position, ``SimulationEngine._scalar_candidates``.

* Every registered scenario replays bit-identically — same events (names,
  blocks, log indices, payloads), same liquidation records, same blocks —
  when the reference sweep stands in for the scan.
* Over one run crossing the March 2020 crash, the scan returns exactly the
  reference's positions, in order, at every step.

The windows are truncated (same mechanism as ``repro run --end-block``) so
the matrix stays test-suite friendly; each run still crosses scheduled
incidents, accrual, insurance write-offs and auctions.
"""

import pytest

from repro import scenarios
from repro.analytics.records import extract_liquidations

#: Number of block strides each truncated equivalence run covers.
STRIDES = 45

SEED = 17


def build(name: str, strides: int):
    builder = scenarios.get(name).builder(seed=SEED)
    config = builder.config
    end_block = min(config.end_block, config.start_block + strides * config.blocks_per_step)
    builder.config = config.with_overrides(end_block=end_block)
    return builder.build()


def run_world(name: str, *, reference: bool):
    engine = build(name, STRIDES)
    if reference:
        engine._liquidatable_candidates = (
            lambda protocol, require_collateral=False: engine._scalar_candidates(protocol, require_collateral)
        )
    return engine.run()


def event_fingerprint(result):
    return [
        (event.name, event.emitter.value, event.block_number, event.log_index, event.data)
        for event in result.chain.events
    ]


@pytest.mark.parametrize("name", scenarios.names())
def test_backends_replay_identically(name):
    scalar = run_world(name, reference=True)
    vectorized = run_world(name, reference=False)
    assert event_fingerprint(vectorized) == event_fingerprint(scalar)
    assert len(extract_liquidations(vectorized)) == len(extract_liquidations(scalar))
    assert vectorized.final_block == scalar.final_block
    blocks_v = [(b.number, len(b.receipts)) for b in vectorized.chain.blocks]
    blocks_s = [(b.number, len(b.receipts)) for b in scalar.chain.blocks]
    assert blocks_v == blocks_s


def test_scan_equals_the_scalar_sweep_on_every_step():
    engine = build("small", 250)
    scanned = engine._liquidatable_candidates
    steps: set[int] = set()
    found = 0

    def compared(protocol, require_collateral=False):
        nonlocal found
        candidates = scanned(protocol, require_collateral)
        reference = engine._scalar_candidates(protocol, require_collateral)
        assert [id(position) for position in candidates] == [id(position) for position in reference]
        steps.add(engine.step_index)
        found += len(candidates)
        return candidates

    engine._liquidatable_candidates = compared
    result = engine.run()
    assert steps == set(range(engine.step_index))
    assert found and extract_liquidations(result)
