"""Tests for the campaign subsystem: spec, store, executor, aggregation, CLI.

The expensive pieces run on a drastically truncated ``small`` window
(``end_block=9_760_000``, < 1 s per run) so that even the parallel-vs-serial
determinism check stays fast.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.campaigns import (
    CampaignExecutor,
    CampaignSpec,
    RunStore,
    WorkerConfig,
    aggregate_campaign,
    apply_overrides,
    render_comparison,
    scalar_fields,
    spawn_seeds,
)
from repro.experiments.runner import EXPERIMENT_IDS, run_one
from repro.scenarios import PriceCrash, ScenarioBuilder
from repro.scenarios import get as get_scenario
from repro.serialize import to_jsonable
from repro.simulation.config import ScenarioConfig

#: Window truncation making a `small` run cheap enough for campaign tests.
TINY = {"end_block": 9_760_000}

#: A cheap experiment subset for executor tests (the sim dominates anyway).
FAST_EXPERIMENTS = ("table1", "fig4")


def tiny_spec(**kwargs) -> CampaignSpec:
    defaults = dict(
        scenario="small",
        seeds=2,
        overrides=TINY,
        experiments=FAST_EXPERIMENTS,
    )
    defaults.update(kwargs)
    return CampaignSpec(**defaults)


def read_run_bytes(store: RunStore, campaign: str) -> dict[str, bytes]:
    """Every experiment file of a campaign, keyed by relative path."""
    out = {}
    for run_id in store.run_ids(campaign):
        for experiment_id in FAST_EXPERIMENTS:
            path = store.experiment_path(campaign, run_id, experiment_id)
            out[f"{run_id}/{experiment_id}"] = path.read_bytes()
    return out


class TestSerialize:
    def test_numpy_scalars_arrays_and_dataclasses(self):
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class Point:
            x: float
            tags: tuple[str, ...]

        data = {
            "scalar": np.float64(1.5),
            "count": np.int64(3),
            "array": np.arange(3),
            10.0: Point(x=np.float64(2.0), tags=("a", "b")),
        }
        jsonable = to_jsonable(data)
        assert jsonable == {
            "scalar": 1.5,
            "count": 3,
            "array": [0, 1, 2],
            "10.0": {"x": 2.0, "tags": ["a", "b"]},
        }
        assert json.loads(json.dumps(jsonable)) == jsonable

    @pytest.mark.parametrize("experiment_id", EXPERIMENT_IDS)
    def test_every_experiment_round_trips_through_json(self, experiment_id, small_result, small_records):
        payload = run_one(small_result, experiment_id, small_records).json_payload()
        assert json.loads(json.dumps(payload)) == payload


class TestSeeds:
    def test_spawned_seeds_are_deterministic_and_distinct(self):
        seeds = spawn_seeds(0, 16)
        assert seeds == spawn_seeds(0, 16)
        assert len(set(seeds)) == 16
        assert spawn_seeds(1, 16) != seeds

    def test_seed_range_is_prefix_stable(self):
        # Growing a campaign from N to M seeds must keep the first N runs
        # valid in the store: spawn(M)[:N] == spawn(N).
        assert spawn_seeds(0, 8)[:3] == spawn_seeds(0, 3)


class TestSpec:
    def test_unknown_override_key_rejected(self):
        with pytest.raises(KeyError, match="unknown override"):
            CampaignSpec(scenario="small", overrides={"gravity": 9.8})

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            CampaignSpec(scenario="small", experiments=("table99",))

    def test_empty_grid_axis_rejected(self):
        with pytest.raises(ValueError, match="grid axis with no values"):
            CampaignSpec(scenario="small", grid={"close_factor": ()})

    def test_grid_crosses_axes(self):
        spec = CampaignSpec(
            scenario="small",
            seeds=2,
            grid={"close_factor": (0.5, 1.0), "crash_depth": (0.3,)},
        )
        variants = spec.variants()
        assert [label for label, _ in variants] == [
            "close_factor=0.5,crash_depth=0.3",
            "close_factor=1,crash_depth=0.3",
        ]
        runs = spec.runs()
        assert len(runs) == 4
        assert runs[0].run_id == "close_factor=0.5,crash_depth=0.3-seed000"

    def test_run_key_depends_on_overrides_and_seed(self):
        base, other = tiny_spec().runs()[0], tiny_spec(overrides={"end_block": 9_770_000}).runs()[0]
        assert base.run_id == other.run_id
        assert base.key != other.key


class TestOverrides:
    def test_close_factor_and_incentive_patch_every_protocol(self):
        builder = ScenarioBuilder(ScenarioConfig.small(3).with_overrides(**TINY))
        apply_overrides(builder, {"close_factor": 0.75, "liquidation_incentive": 0.11})
        engine = builder.build()
        for protocol in engine.protocols:
            assert protocol.close_factor == 0.75
            assert all(market.liquidation_spread == 0.11 for market in protocol.markets.values())

    def test_crash_depth_rewrites_crash_incidents_only(self):
        builder = get_scenario("stablecoin-depeg").builder()
        apply_overrides(builder, {"crash_depth": 0.6})
        drops = {incident.name: incident.drop for incident in builder.incidents if isinstance(incident, PriceCrash)}
        assert drops["usdt-depeg"] == 0.6  # positive drop: rewritten
        assert drops["dai-premium"] == -0.08  # spike: untouched

    def test_end_block_truncates_window(self):
        builder = get_scenario("small").builder()
        apply_overrides(builder, {"end_block": 9_760_000})
        assert builder.config.end_block == 9_760_000


class TestExecutorAndStore:
    def test_serial_and_parallel_runs_are_byte_identical(self, tmp_path):
        serial_store = RunStore(tmp_path / "serial")
        parallel_store = RunStore(tmp_path / "parallel")
        serial = CampaignExecutor(tiny_spec(), serial_store).execute()
        parallel = CampaignExecutor(
            tiny_spec(), parallel_store, backend=WorkerConfig(backend="persistent", workers=2)
        ).execute()
        assert sorted(serial.executed) == sorted(parallel.executed)
        assert not serial.resumed and not parallel.resumed
        serial_bytes = read_run_bytes(serial_store, "small")
        parallel_bytes = read_run_bytes(parallel_store, "small")
        assert serial_bytes.keys() == parallel_bytes.keys()
        assert serial_bytes == parallel_bytes

    def test_resume_skips_completed_and_runs_only_missing_seeds(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        first = CampaignExecutor(tiny_spec(seeds=2), store).execute()
        assert len(first.executed) == 2

        # Growing the same campaign to 3 seeds re-runs only the new seed.
        second = CampaignExecutor(tiny_spec(seeds=3), store).execute()
        assert second.executed == ["base-seed002"]
        assert sorted(second.resumed) == ["base-seed000", "base-seed001"]

        # A fully-completed campaign resumes everything: zero new runs.
        third = CampaignExecutor(tiny_spec(seeds=3), store).execute()
        assert third.executed == []
        assert len(third.resumed) == 3

    def test_changed_spec_invalidates_stored_runs(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        CampaignExecutor(tiny_spec(), store).execute()
        changed = tiny_spec(overrides={"end_block": 9_755_000})
        result = CampaignExecutor(changed, store).execute()
        assert len(result.executed) == 2 and not result.resumed

    def test_rewriting_a_run_clears_stale_experiment_files(self, tmp_path):
        # Re-executing a run under a changed spec must not leave the old
        # spec's experiment files behind: they would poison both resumption
        # and aggregation with data computed under a different config.
        store = RunStore(tmp_path / "runs")
        CampaignExecutor(tiny_spec(experiments=("table1", "fig4")), store).execute()
        changed = tiny_spec(overrides={"end_block": 9_755_000}, experiments=("table1",))
        CampaignExecutor(changed, store).execute()
        run_id = changed.runs()[0].run_id
        assert not store.experiment_path("small", run_id, "fig4").is_file()
        reverted = tiny_spec(
            overrides={"end_block": 9_755_000}, experiments=("table1", "fig4")
        )
        assert not store.is_complete("small", reverted.runs()[0], reverted.experiments)

    def test_failed_runs_are_reported_not_fatal(self, tmp_path):
        from repro.scenarios import register_scenario, unregister

        bad_seed = spawn_seeds(0, 2)[1]

        @register_scenario("exploding-test")
        def exploding(seed=None):
            builder = ScenarioBuilder(
                ScenarioConfig.small(seed or 1).with_overrides(**TINY)
            )

            def population(ctx, engine):
                if ctx.config.seed == bad_seed:
                    raise RuntimeError("boom")

            return builder.with_agents(population)

        try:
            spec = tiny_spec(scenario="exploding-test", seeds=2)
            result = CampaignExecutor(spec, RunStore(tmp_path / "runs")).execute()
            assert result.executed == ["base-seed000"]
            assert result.failed == {"base-seed001": "RuntimeError: boom"}
            assert result.total == 2
        finally:
            unregister("exploding-test")

    def test_manifest_contents(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        CampaignExecutor(tiny_spec(seeds=1), store).execute()
        manifest = store.read_manifest("small", "base-seed000")
        assert manifest["status"] == "completed"
        assert manifest["scenario"] == "small"
        assert manifest["overrides"] == {"end_block": 9_760_000}
        assert manifest["seed"] == spawn_seeds(0, 1)[0]
        assert manifest["experiments"] == sorted(FAST_EXPERIMENTS)
        assert manifest["config"]["end_block"] == 9_760_000
        assert manifest["execution"] == {"backend": "serial", "workers": 1}


class TestAggregate:
    def test_scalar_fields_flattens_dicts_and_skips_lists_and_bools(self):
        data = {
            "total": 3,
            "nested": {"mean": 1.5, "flag": True, "series": [1, 2, 3]},
            "label": "ETH",
        }
        assert scalar_fields(data) == {"total": 3.0, "nested.mean": 1.5}

    def test_statistics_across_seeds(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        spec = tiny_spec(seeds=3)
        CampaignExecutor(spec, store).execute()
        aggregate = aggregate_campaign(store, "small", FAST_EXPERIMENTS)
        assert aggregate.n_runs == 3
        (variant,) = aggregate.variants
        assert variant.variant == "base"
        assert variant.seeds == tuple(sorted(spec.seed_values()))
        stats = variant.experiments["table1"]
        field = stats.fields["total_liquidations"]
        values = [
            store.read_experiment("small", run_id, "table1")["data"]["total_liquidations"]
            for run_id in store.run_ids("small")
        ]
        assert field.n == 3
        assert field.mean == pytest.approx(np.mean(values))
        assert field.stddev == pytest.approx(np.std(values, ddof=1))
        assert field.ci95 == pytest.approx(1.96 * field.stddev / np.sqrt(3))
        report = render_comparison(aggregate)
        assert "total_liquidations" in report and "95% CI" in report

    def test_empty_campaign_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            aggregate_campaign(RunStore(tmp_path / "runs"), "nope")


class TestCli:
    def test_run_dedupes_repeated_report_ids(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "report.txt"
        code = main(
            [
                "run",
                "--scenario",
                "small",
                "--seed",
                "3",
                "--end-block",
                "9760000",
                "--report",
                "table1",
                "--report",
                "table1",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        assert out.read_text().count("Table 1 —") == 1

    def test_list_tag_filter_and_json(self, capsys):
        from repro.cli import main

        assert main(["list", "--tag", "paper", "--json"]) == 0
        listed = json.loads(capsys.readouterr().out)
        assert {entry["name"] for entry in listed} == {"paper-medium", "paper-full"}
        assert all("paper" in entry["tags"] for entry in listed)

    def test_reports_json(self, capsys):
        from repro.cli import main

        assert main(["reports", "--json"]) == 0
        listed = json.loads(capsys.readouterr().out)
        assert [entry["id"] for entry in listed] == list(EXPERIMENT_IDS)

    def test_sweep_then_compare_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        store = tmp_path / "runs"
        sweep_args = [
            "sweep",
            "--scenario",
            "small",
            "--seeds",
            "2",
            "--store",
            str(store),
            "--set",
            "end_block=9760000",
            "--report",
            "table1",
        ]
        assert main(sweep_args) == 0
        assert len(RunStore(store).run_ids("small")) == 2
        capsys.readouterr()

        assert main(["compare", "--store", str(store)]) == 0
        report = capsys.readouterr().out
        assert "Campaign 'small'" in report and "n=2" in report

        # Re-sweeping resumes everything from the store: zero new runs.
        assert main(sweep_args) == 0
        err = capsys.readouterr().err
        assert "2 resumed" in err and "0 executed" in err

    def test_sweep_rejects_unknown_scenario_and_override(self, tmp_path):
        from repro.cli import main

        assert main(["sweep", "--scenario", "nope", "--store", str(tmp_path)]) == 2
        assert (
            main(["sweep", "--scenario", "small", "--store", str(tmp_path), "--set", "gravity=9.8"]) == 2
        )

    def test_sweep_rejects_unknown_report_even_with_all(self, tmp_path):
        from repro.cli import main

        args = ["sweep", "--scenario", "small", "--store", str(tmp_path)]
        assert main([*args, "--report", "bogus", "--report", "all"]) == 2

    def test_sweep_rejects_empty_grid_axis(self, tmp_path):
        from repro.cli import main

        args = ["sweep", "--scenario", "small", "--store", str(tmp_path)]
        assert main([*args, "--grid", "close_factor=,,"]) == 2

    def test_compare_errors_without_campaigns(self, tmp_path):
        from repro.cli import main

        assert main(["compare", "--store", str(tmp_path / "empty")]) == 2
