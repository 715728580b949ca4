"""The streaming observer API: equivalence, bit-identity and mechanics.

The acceptance contract of the observer bus is fourfold:

1. *passivity* — seed-pinned runs with probes attached are bit-identical to
   bare runs (same chain events, blocks, liquidations);
2. *stream/post-hoc equivalence* — for every registered scenario, the
   records a :class:`LiquidationRecorder` streams during the run equal
   ``extract_liquidations(result)`` field-for-field;
3. *liveness* — ``repro watch`` narrates a run and exits cleanly at the end
   block;
4. *one health model* — ``repro watch`` raises exactly the alerts the
   service's :class:`AlertEngine` raises from the health samples a service
   worker's progress chunks carry for the same world.

Scenario windows are truncated the same way ``repro run --end-block`` does
so the full registry matrix stays test-suite friendly.
"""

from __future__ import annotations

import json

import pytest

from repro import scenarios
from repro.analytics.records import extract_liquidations
from repro.campaigns.executor import ProgressChunk, ProgressProbe
from repro.cli import main as cli_main
from repro.observers import (
    BlockMined,
    HealthSampler,
    JsonlSink,
    LiquidationRecorder,
    LiquidationSettled,
    MetricsAccumulator,
    ObserverBus,
    StepStarted,
)
from repro.observers.alerts import AlertEngine, AlertPolicy
from repro.observers.events import InterestAccrued, RunCompleted, RunStarted, SimEvent
from repro.observers.probes import HealthSample
from repro.observers.watch import watch_run

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
        lambda engine: HealthSampler(engine.protocols, 1.1, on_sample=lambda sample: None),
    )
    engine = builder.build()
    return engine, engine.run()


def run_metrics(result) -> dict:
    """Oracle for :class:`MetricsAccumulator`: its aggregates recomputed from
    a finished run's archive.

    Matches the streamed metrics field-for-field on a fresh single-``run()``
    engine, except ``price_updates``: the archive's ``AnswerUpdated`` count
    also holds the oracle posts made while the scenario was built.
    """
    engine = result.engine
    records = extract_liquidations(result)
    by_platform: dict[str, int] = {}
    for record in records:
        by_platform[record.platform] = by_platform.get(record.platform, 0) + 1
    deals = result.chain.events.by_name("Deal")
    return {
        "steps": engine.step_index,
        "blocks": len(result.chain.blocks),
        "final_block": result.final_block,
        "incidents_fired": sum(1 for event in engine.scheduled_events if event.fired),
        "price_updates": result.chain.events.count("AnswerUpdated"),
        "snapshots": len(result.chain.snapshot_blocks),
        "auctions": {
            "dealt": len(deals),
            "settled": sum(1 for deal in deals if deal.data.get("winner")),
        },
        "liquidations": {
            "count": len(records),
            "repaid_usd": fsum_in_order(record.repaid_usd for record in records),
            "collateral_usd": fsum_in_order(record.collateral_usd for record in records),
            "profit_usd": fsum_in_order(record.profit_usd for record in records),
            "flash_loans": sum(1 for record in records if record.used_flash_loan),
            "unprofitable": sum(1 for record in records if not record.is_profitable),
            "by_platform": dict(sorted(by_platform.items())),
        },
    }


def fsum_in_order(values) -> float:
    """Left-to-right float sum, the stream's accumulation order."""
    total = 0.0
    for value in values:
        total += value
    return total


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
    # Metrics have no post-hoc fallback: without an accumulator they raise.
    with pytest.raises(RuntimeError, match="MetricsAccumulator"):
        result.metrics


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


def test_attach_probe_after_the_first_step_raises():
    # Probes attach before the first step, so every attached probe saw the
    # whole run and may back result.records / result.metrics.
    engine = truncated_builder("small").build()
    engine.attach_probe(CollectingProbe())
    engine.step()
    with pytest.raises(RuntimeError, match="before the first step"):
        engine.attach_probe(LiquidationRecorder())
    assert len(engine.bus) == 1


def test_attach_and_find():
    bus = ObserverBus()
    assert not bus.active
    probe = CollectingProbe()
    bus.attach(probe)
    assert bus.active
    assert bus.find(CollectingProbe) is probe
    assert bus.find(LiquidationRecorder) is None


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
    # The sampler re-samples a position on every rescan while it stays below
    # the threshold and drops it once it recovers; the policy alerts once per
    # tier within its cooldown and escalates to critical on a relapse.
    chain, protocol, owner, position = one_position_world()  # HF ≈ 1.067
    samples = []
    sampler = HealthSampler([protocol], 1.1, samples.append)
    alerts = AlertEngine(AlertPolicy(warning_hf=1.1, critical_hf=1.0, deterioration_drop=10.0))
    raised = []

    def rescan(step: int) -> int:
        before = len(samples)
        sampler.on_event(InterestAccrued(step, chain.current_block, protocols=(protocol.name,)))
        sampler.on_event(BlockMined(step, chain.current_block, 0, 0, 1))
        for sample in samples[before:]:
            raised.extend(alerts.observe(sample, job_id="test", run_id="test"))
        return len(samples) - before

    assert rescan(0) == 1
    assert rescan(1) == 1  # still below: sampled again, the cooldown holds the alert
    assert [alert.tier for alert in raised] == ["warning"]
    position.add_collateral("ETH", 1.0)  # HF ≈ 2.13: recovered
    assert rescan(2) == 0
    position.scale_debts({"DAI": 2.2})  # HF ≈ 0.97: liquidatable
    assert rescan(3) == 1
    assert [(alert.owner, alert.tier) for alert in raised] == [
        (owner.value, "warning"),
        (owner.value, "critical"),
    ]
    assert all(sample.health_factor < 1.1 for sample in samples)


@pytest.mark.parametrize("hf_below", [1.1, 0.95])
def test_watch_alerts_equal_service_alerts_from_hf_sample_lines(hf_below):
    # One health model: the alerts `repro watch` raises in-process are the
    # ones the service's engine raises from the samples a service worker's
    # progress chunks carry for the same world.
    policy = AlertPolicy(warning_hf=hf_below, critical_hf=min(1.0, hf_below))
    summary = watch_run(truncated_builder("march-2020-only"), hf_below=hf_below, emit=lambda line: None)
    watched = [(a.platform, a.owner, a.tier, a.reason, a.block_number) for a in summary.alerts]

    chunks: list[ProgressChunk] = []
    truncated_builder("march-2020-only").with_probes(
        lambda engine: ProgressProbe(engine.protocols, policy.sample_below, chunks.append)
    ).run()
    samples = [sample for chunk in chunks for sample in chunk.samples]
    assert samples and all(type(sample) is HealthSample for sample in samples)
    service = AlertEngine(policy)
    served = [
        alert
        for sample in samples
        for alert in service.observe(sample, job_id="job-0001", run_id="run")
    ]
    assert watched == [(a.platform, a.owner, a.tier, a.reason, a.block_number) for a in served]
    tiers = [tier for _, _, tier, _, _ in watched]
    assert "critical" in tiers
    if hf_below < 1.0:
        # Both tiers sit at HF: a level below it is critical at once, and
        # only a rapid fall from above it can raise a warning.
        assert all(
            tier == "critical" for _, _, tier, reason, _ in watched if reason == "threshold"
        )
    else:
        assert "warning" in tiers
    for alert in summary.alerts:
        assert alert.reason == "rapid-deterioration" or alert.health_factor < hf_below


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
def one_position_world():
    """An Aave V2 market at fixed prices holding one position at HF ≈ 1.067."""
    from repro.chain.chain import Blockchain
    from repro.chain.types import make_address
    from repro.protocols.aave import make_aave_v2
    from repro.tokens.registry import TokenRegistry

    class FixedOracle:
        def price(self, symbol):
            return {"ETH": 2_000.0, "DAI": 1.0}.get(symbol.upper(), 1.0)

    chain = Blockchain()
    protocol = make_aave_v2(chain, FixedOracle(), TokenRegistry())
    owner = make_address("accrual-victim")
    position = protocol.position_of(owner)
    position.add_collateral("ETH", 1.0)
    position.add_debt("DAI", 1_500.0)  # HF = 2000*0.8/1500
    return chain, protocol, owner, position


def test_interest_accrual_triggers_watcher_rescan():
    # Accrual scales debts without a price move; the sampler must rescan the
    # accruing protocols even on a stride with no PriceUpdated events.
    chain, protocol, owner, position = one_position_world()
    samples = []
    sampler = HealthSampler([protocol], 1.05, samples.append)
    sampler.on_event(BlockMined(0, chain.current_block, 0, 0, 1))
    assert samples == []  # nothing dirty yet → no scan, no sample

    # Interest pushes the debt past the threshold; no price moved.
    position.scale_debts({"DAI": 1.03})  # HF ≈ 1.035
    sampler.on_event(InterestAccrued(1, chain.current_block, protocols=(protocol.name,)))
    sampler.on_event(BlockMined(1, chain.current_block, 0, 0, 1))
    assert [(sample.platform, sample.owner) for sample in samples] == [(protocol.name, owner.value)]


def test_interest_accrued_events_appear_in_stream():
    engine = truncated_builder("small", strides=25).build()
    probe = engine.attach_probe(CollectingProbe())
    engine.run()
    accruals = [event for event in probe.events if isinstance(event, InterestAccrued)]
    # interest_accrual_every_steps=20 → steps 0 and 20 accrue in 26 strides.
    assert len(accruals) == 2
    assert all(event.protocols for event in accruals)
