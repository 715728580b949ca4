"""The streaming observer API: equivalence, bit-identity and mechanics.

The acceptance contract of the observer bus is threefold:

1. *passivity* — seed-pinned runs with probes attached are bit-identical to
   bare runs (same chain events, blocks, liquidations);
2. *stream/post-hoc equivalence* — for every registered scenario, the
   records a :class:`LiquidationRecorder` streams during the run equal
   ``extract_liquidations(result)`` field-for-field;
3. *liveness* — ``repro watch`` narrates a run and exits cleanly at the end
   block.

Scenario windows are truncated the same way ``repro run --end-block`` does
so the full registry matrix stays test-suite friendly.
"""

from __future__ import annotations

import json

import pytest

from repro import scenarios
from repro.analytics.records import extract_liquidations
from repro.cli import main as cli_main
from repro.observers import (
    BlockMined,
    HealthFactorWatcher,
    JsonlSink,
    LiquidationRecorder,
    LiquidationSettled,
    MetricsAccumulator,
    ObserverBus,
    StepStarted,
)
from repro.observers.events import RunCompleted, RunStarted, SimEvent
from repro.observers.probes import run_metrics

#: Number of block strides each truncated run covers.
STRIDES = 45

SEED = 17


def truncated_builder(name: str, seed: int = SEED, strides: int = STRIDES):
    builder = scenarios.get(name).builder(seed=seed)
    config = builder.config
    end_block = min(config.end_block, config.start_block + strides * config.blocks_per_step)
    builder.config = config.with_overrides(end_block=end_block)
    return builder


def run_probed(name: str, *, strides: int = STRIDES):
    """One truncated run with the standard probe set attached."""
    builder = truncated_builder(name, strides=strides)
    builder.with_probes(
        lambda engine: LiquidationRecorder(),
        lambda engine: MetricsAccumulator(),
        lambda engine: HealthFactorWatcher(engine.protocols, hf_below=1.1),
    )
    engine = builder.build()
    return engine, engine.run()


def event_fingerprint(result):
    return [
        (event.name, event.emitter.value, event.block_number, event.log_index, event.data)
        for event in result.chain.events
    ]


# --------------------------------------------------------------------- #
# Stream / post-hoc equivalence
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", scenarios.names())
def test_streamed_records_equal_posthoc_crawl(name):
    engine, result = run_probed(name)
    recorder = engine.bus.find(LiquidationRecorder)
    streamed = recorder.records
    crawled = extract_liquidations(result)
    assert streamed == crawled  # field-for-field: frozen dataclass equality
    # result.records prefers the probe and must agree with both.
    assert result.records == crawled


def test_result_records_fall_back_to_crawl_without_probe():
    result = truncated_builder("small").run()
    assert result.engine.bus.active is False
    assert result.records == extract_liquidations(result)


# --------------------------------------------------------------------- #
# Bit-identity: probes must not perturb the world
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", ["small", "march-2020-only"])
def test_probed_runs_are_bit_identical_to_bare_runs(name):
    bare = truncated_builder(name).run()
    engine, probed = run_probed(name)
    assert event_fingerprint(probed) == event_fingerprint(bare)
    assert probed.final_block == bare.final_block
    blocks_bare = [(b.number, len(b.receipts)) for b in bare.chain.blocks]
    blocks_probed = [(b.number, len(b.receipts)) for b in probed.chain.blocks]
    assert blocks_probed == blocks_bare
    assert probed.chain.snapshot_blocks == bare.chain.snapshot_blocks


# --------------------------------------------------------------------- #
# Metrics: streamed aggregates vs the post-hoc shim
# --------------------------------------------------------------------- #
def test_streamed_metrics_match_posthoc_shim():
    engine, result = run_probed("march-2020-only")
    streamed = result.metrics
    posthoc = run_metrics(result)
    # price_updates is the one field the post-hoc shim cannot scope to the
    # run (it also counts scenario-construction posts).
    for key in ("steps", "blocks", "final_block", "incidents_fired", "snapshots", "auctions", "liquidations"):
        assert streamed[key] == posthoc[key], key
    assert streamed["liquidations"]["count"] == len(result.records)
    assert streamed["price_updates"] > 0
    assert posthoc["price_updates"] >= streamed["price_updates"]


# --------------------------------------------------------------------- #
# Bus and event-stream mechanics
# --------------------------------------------------------------------- #
class CollectingProbe:
    def __init__(self):
        self.events: list[SimEvent] = []
        self.finalized = 0

    def on_event(self, event):
        self.events.append(event)

    def finalize(self):
        self.finalized += 1


def test_step_event_ordering_and_finalize():
    engine = truncated_builder("small", strides=6).build()
    probe = engine.attach_probe(CollectingProbe())
    engine.run()
    kinds = [event.kind for event in probe.events]
    assert kinds[0] == "RunStarted"
    assert kinds[-1] == "RunCompleted"
    assert probe.finalized == 1
    # Every step opens with StepStarted and closes with BlockMined, and the
    # block/step indices line up.
    steps = [event for event in probe.events if isinstance(event, StepStarted)]
    mined = [event for event in probe.events if isinstance(event, BlockMined)]
    assert len(steps) == len(mined) == 7  # 6 strides fit; +1 partial window stride
    for started, block in zip(steps, mined):
        assert started.step_index == block.step_index
        assert started.block_number == block.block_number
    # Within each step, StepStarted precedes its BlockMined.
    assert kinds.index("StepStarted") < kinds.index("BlockMined")


def test_probe_attached_mid_run_catches_up_on_liquidations():
    # The streaming cursor lags while the bus is inactive; the first active
    # drain translates the backlog, so a late probe still sees everything.
    engine = truncated_builder("small").build()
    engine.run(n_steps=30)
    recorder = engine.attach_probe(LiquidationRecorder())
    result = engine.run()
    assert recorder.records == extract_liquidations(result)
    # It streamed the full history, but it was attached mid-run — so it is
    # not trusted as the backing store of result.records…
    assert not engine.probe_is_complete(recorder)
    # …which falls back to the crawl and still agrees.
    assert result.records == recorder.records


def test_partial_recorder_never_backs_result_records():
    # A probe active from step 0 advances the streaming cursor every stride;
    # a recorder attached later misses the early liquidation logs and must
    # NOT be used as the source of result.records.
    engine = truncated_builder("march-2020-only").build()
    engine.attach_probe(CollectingProbe())  # keeps the bus (and cursor) hot
    engine.run(n_steps=30)
    late_recorder = engine.attach_probe(LiquidationRecorder())
    result = engine.run()
    crawled = extract_liquidations(result)
    assert result.records == crawled
    # The late recorder only saw the tail of the run.
    assert len(late_recorder.records) <= len(crawled)


def test_detach_and_find():
    bus = ObserverBus()
    assert not bus.active
    probe = CollectingProbe()
    bus.attach(probe)
    assert bus.active
    assert bus.find(CollectingProbe) is probe
    assert bus.find(LiquidationRecorder) is None
    bus.detach(probe)
    assert not bus.active
    bus.detach(probe)  # idempotent


def test_jsonl_sink_streams_valid_json(tmp_path):
    path = tmp_path / "events.jsonl"
    builder = truncated_builder("small", strides=8)
    builder.with_probes(lambda engine: JsonlSink(path))
    builder.run()
    lines = path.read_text().splitlines()
    payloads = [json.loads(line) for line in lines]
    kinds = {payload["event"] for payload in payloads}
    assert payloads[0]["event"] == "RunStarted"
    assert payloads[-1]["event"] == "RunCompleted"
    assert {"StepStarted", "BlockMined", "PriceUpdated"} <= kinds
    assert all("block_number" in payload for payload in payloads)


def test_jsonl_sink_appends_across_runs(tmp_path):
    # finalize() closes a path-backed sink; a second run() of the same
    # engine must append to the stream, not truncate the first segment.
    path = tmp_path / "two-runs.jsonl"
    engine = truncated_builder("small", strides=12).build()
    engine.attach_probe(JsonlSink(path))
    engine.run(n_steps=6)
    first_segment = path.read_text().splitlines()
    engine.run()
    lines = path.read_text().splitlines()
    assert len(lines) > len(first_segment)
    assert lines[: len(first_segment)] == first_segment
    payloads = [json.loads(line) for line in lines]
    assert sum(1 for p in payloads if p["event"] == "RunCompleted") == 2


def test_jsonl_sink_kind_filter(tmp_path):
    path = tmp_path / "filtered.jsonl"
    builder = truncated_builder("small", strides=8)
    builder.with_probes(lambda engine: JsonlSink(path, kinds={"BlockMined"}))
    builder.run()
    payloads = [json.loads(line) for line in path.read_text().splitlines()]
    assert payloads
    assert {payload["event"] for payload in payloads} == {"BlockMined"}


def test_health_factor_watcher_alerts_and_recovers():
    engine, result = run_probed("march-2020-only")
    watcher = engine.bus.find(HealthFactorWatcher)
    assert watcher.alerts, "a crash window must produce at-risk positions"
    for alert in watcher.alerts:
        assert alert.health_factor < 1.1
        assert alert.platform in {p.name for p in engine.protocols}
    # Entering alerts are unique until the position recovers: no immediate
    # duplicates of the same (platform, owner) in consecutive scans.
    seen_pairs = [(alert.platform, alert.owner, alert.step_index) for alert in watcher.alerts]
    assert len(seen_pairs) == len(set(seen_pairs))


def test_liquidation_settled_payload_carries_record_fields():
    engine, result = run_probed("march-2020-only")
    recorder = engine.bus.find(LiquidationRecorder)
    if not recorder.records:  # pragma: no cover - scenario-dependent guard
        pytest.skip("no liquidations in the truncated window")
    event = LiquidationSettled(step_index=3, block_number=9_700_000, record=recorder.records[0])
    payload = event.payload()
    assert payload["event"] == "LiquidationSettled"
    assert payload["platform"] == recorder.records[0].platform
    assert payload["profit_usd"] == recorder.records[0].profit_usd


# --------------------------------------------------------------------- #
# End-of-run snapshot dedup (satellite fix)
# --------------------------------------------------------------------- #
def test_rerun_does_not_duplicate_final_snapshot():
    engine = truncated_builder("small", strides=8).build()
    engine.run()
    snapshots = list(engine.chain.snapshot_blocks)
    assert snapshots[-1] == engine.chain.current_block
    # A follow-up run() that advances nothing must not re-capture the
    # already-snapshotted pending block.
    providers_called = []
    engine.chain.register_snapshot_provider("spy", lambda: providers_called.append(1))
    engine.run(n_steps=0)
    assert providers_called == []
    assert list(engine.chain.snapshot_blocks) == snapshots


# --------------------------------------------------------------------- #
# Batched quote step (satellite)
# --------------------------------------------------------------------- #
def test_quote_opportunities_matches_per_candidate_quotes():
    engine = truncated_builder("march-2020-only").build()
    engine.run(n_steps=STRIDES)
    compared = 0
    for protocol in engine.fixed_spread_protocols():
        candidates = protocol.liquidatable_candidates()
        batched = protocol.quote_opportunities(candidates)
        singles = [
            (position, protocol.quote_best_opportunity(position.owner))
            for position in candidates
        ]
        singles = [(position, quote) for position, quote in singles if quote is not None]
        assert batched == singles
        compared += len(batched)
    # Also exercise the empty-batch fast path.
    for protocol in engine.fixed_spread_protocols():
        assert protocol.quote_opportunities([]) == []


# --------------------------------------------------------------------- #
# `repro watch` smoke
# --------------------------------------------------------------------- #
def test_watch_cli_smoke(tmp_path, capsys):
    jsonl = tmp_path / "stream.jsonl"
    exit_code = cli_main(
        [
            "watch",
            "march-2020-only",
            "--seed",
            "3",
            "--end-block",
            "9740000",
            "--hf-below",
            "1.1",
            "--jsonl",
            str(jsonl),
        ]
    )
    assert exit_code == 0
    captured = capsys.readouterr()
    assert "watch finished at block" in captured.err
    payloads = [json.loads(line) for line in jsonl.read_text().splitlines()]
    assert payloads[0]["event"] == "RunStarted"
    assert payloads[-1]["event"] == "RunCompleted"


def test_watch_cli_jsonl_to_stdout_stays_pure(capsys):
    # With the JSON stream on stdout the narration must move to stderr, so
    # `repro watch --jsonl - | jq .` consumes valid JSONL.
    exit_code = cli_main(
        ["watch", "small", "--seed", "3", "--end-block", "9716000", "--jsonl", "-"]
    )
    assert exit_code == 0
    captured = capsys.readouterr()
    payloads = [json.loads(line) for line in captured.out.splitlines() if line]
    assert payloads[0]["event"] == "RunStarted"
    assert payloads[-1]["event"] == "RunCompleted"


def test_watch_cli_unknown_scenario(capsys):
    assert cli_main(["watch", "no-such-scenario"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


# --------------------------------------------------------------------- #
# Accrual-driven rescans
# --------------------------------------------------------------------- #
def test_interest_accrual_triggers_watcher_rescan():
    # Accrual scales debts without a price move; the watcher must rescan the
    # accruing protocols even on a stride with no PriceUpdated events.
    from repro.observers.events import BlockMined as BlockMinedEvent
    from repro.observers.events import InterestAccrued
    from repro.protocols.aave import make_aave_v2
    from repro.chain.chain import Blockchain
    from repro.chain.types import make_address
    from repro.tokens.registry import TokenRegistry

    class FixedOracle:
        def price(self, symbol):
            return {"ETH": 2_000.0, "DAI": 1.0}.get(symbol.upper(), 1.0)

    chain = Blockchain()
    registry = TokenRegistry()
    protocol = make_aave_v2(chain, FixedOracle(), registry)
    owner = make_address("accrual-victim")
    position = protocol.position_of(owner)
    position.add_collateral("ETH", 1.0)
    position.add_debt("DAI", 1_500.0)  # HF = 2000*0.8/1500 ≈ 1.067

    watcher = HealthFactorWatcher([protocol], hf_below=1.05)
    mined = BlockMinedEvent(0, chain.current_block, 0, 0, 1)
    watcher.on_event(mined)
    assert watcher.alerts == []  # nothing dirty yet → no scan, no alert

    # Interest pushes the debt past the threshold; no price moved.
    position.scale_debts({"DAI": 1.03})  # HF ≈ 1.035
    watcher.on_event(InterestAccrued(1, chain.current_block, protocols=(protocol.name,)))
    watcher.on_event(BlockMinedEvent(1, chain.current_block, 0, 0, 1))
    assert [(a.platform, a.owner) for a in watcher.alerts] == [(protocol.name, owner.value)]


def test_interest_accrued_events_appear_in_stream():
    engine = truncated_builder("small", strides=25).build()
    probe = engine.attach_probe(CollectingProbe())
    engine.run()
    from repro.observers.events import InterestAccrued

    accruals = [event for event in probe.events if isinstance(event, InterestAccrued)]
    # interest_accrual_every_steps=20 → steps 0 and 20 accrue in 26 strides.
    assert len(accruals) == 2
    assert all(event.protocols for event in accruals)
