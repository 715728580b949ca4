"""Each output check of the benchmark fires on a deliberately corrupted output."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

from perfbench.checks import check_campaign, check_identical_files, check_paper_full, check_service
from perfbench.common import ROOT, CheckFailed

IDS = ("fig4", "table1", "fig5")


def _paper_outputs(total=5, rows=(3, 2)):
    table1 = SimpleNamespace(total_liquidations=total, rows=[SimpleNamespace(liquidations=n) for n in rows])
    outputs = {eid: SimpleNamespace(report=f"{eid} report", data=None) for eid in IDS}
    outputs["table1"] = SimpleNamespace(report="Table 1", data=table1)
    return outputs


def test_paper_full_accepts_consistent_outputs():
    check_paper_full(_paper_outputs(), IDS, chain_liquidations=5)


def test_paper_full_fires_on_unrendered_report():
    outputs = _paper_outputs()
    outputs["fig5"] = SimpleNamespace(report="  \n", data=None)
    with pytest.raises(CheckFailed, match="fig5"):
        check_paper_full(outputs, IDS, chain_liquidations=5)


def test_paper_full_fires_on_missing_report():
    outputs = _paper_outputs()
    del outputs["fig4"]
    with pytest.raises(CheckFailed, match="fig4"):
        check_paper_full(outputs, IDS, chain_liquidations=5)


def test_paper_full_fires_when_table1_disagrees_with_the_chain():
    with pytest.raises(CheckFailed, match="chain settled 6"):
        check_paper_full(_paper_outputs(), IDS, chain_liquidations=6)


def test_paper_full_fires_when_the_world_settled_nothing():
    with pytest.raises(CheckFailed, match="no liquidations"):
        check_paper_full(_paper_outputs(total=0, rows=()), IDS, chain_liquidations=0)


def test_paper_full_fires_when_table1_rows_disagree_with_its_total():
    with pytest.raises(CheckFailed, match="rows sum"):
        check_paper_full(_paper_outputs(rows=(3, 1)), IDS, chain_liquidations=5)


@pytest.fixture
def stored_run(tmp_path):
    from repro.campaigns import RunStore
    from repro.campaigns.spec import RunSpec

    store = RunStore(tmp_path / "store")
    run = RunSpec("small", (("close_factor", 0.5),), 11, 0, "close_factor=0.5")
    outputs = {eid: {"experiment_id": eid, "data": [1, 2]} for eid in IDS}
    store.write_run("round-000", run, outputs)
    return store, run


def test_campaign_accepts_complete_store(stored_run):
    store, run = stored_run
    check_campaign(store, {"round-000": [run]}, IDS, failed={})


def test_campaign_fires_on_failed_outcome(stored_run):
    store, run = stored_run
    with pytest.raises(CheckFailed, match="failed"):
        check_campaign(store, {"round-000": [run]}, IDS, failed={"round-000/x": "RuntimeError: boom"})


def test_campaign_fires_on_missing_experiment_file(stored_run):
    store, run = stored_run
    store.experiment_path("round-000", run.run_id, "fig5").unlink()
    with pytest.raises(CheckFailed, match="not complete"):
        check_campaign(store, {"round-000": [run]}, IDS, failed={})


def test_campaign_fires_on_unsealed_manifest(stored_run):
    store, run = stored_run
    manifest = store.run_dir("round-000", run.run_id) / "manifest.json"
    payload = json.loads(manifest.read_text())
    payload["status"] = "running"
    manifest.write_text(json.dumps(payload))
    with pytest.raises(CheckFailed, match="not complete"):
        check_campaign(store, {"round-000": [run]}, IDS, failed={})


def _experiment_dirs(tmp_path):
    expected, actual = tmp_path / "a", tmp_path / "b"
    for directory in (expected, actual):
        directory.mkdir()
        for eid in IDS:
            (directory / f"{eid}.json").write_text(f'{{"id": "{eid}", "value": 1.25}}\n')
    return expected, actual


def test_identical_files_accepts_equal_bytes(tmp_path):
    check_identical_files(*_experiment_dirs(tmp_path), IDS)


def test_identical_files_fires_on_one_changed_byte(tmp_path):
    expected, actual = _experiment_dirs(tmp_path)
    path = actual / "table1.json"
    path.write_text(path.read_text().replace("1.25", "1.26"))
    with pytest.raises(CheckFailed, match="table1"):
        check_identical_files(expected, actual, IDS)


def test_identical_files_fires_on_missing_file(tmp_path):
    expected, actual = _experiment_dirs(tmp_path)
    (actual / "fig4.json").unlink()
    with pytest.raises(CheckFailed, match="fig4"):
        check_identical_files(expected, actual, IDS)


def _service_inputs(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text("{}")
    return {"job-0001": "completed", "job-0002": "completed"}, {"job-0001": manifest, "job-0002": manifest}


def test_service_accepts_clean_stream(tmp_path):
    states, manifests = _service_inputs(tmp_path)
    check_service(states, 0.0, manifests, 0)


def test_service_fires_on_failed_job(tmp_path):
    states, manifests = _service_inputs(tmp_path)
    states["job-0002"] = "failed"
    with pytest.raises(CheckFailed, match="job-0002"):
        check_service(states, 0.0, manifests, 0)


def test_service_fires_on_dropped_lines(tmp_path):
    states, manifests = _service_inputs(tmp_path)
    with pytest.raises(CheckFailed, match="dropped 3"):
        check_service(states, 3.0, manifests, 0)


def test_service_fires_on_missing_manifest(tmp_path):
    states, manifests = _service_inputs(tmp_path)
    manifests["job-0001"] = tmp_path / "absent" / "manifest.json"
    with pytest.raises(CheckFailed, match="job-0001"):
        check_service(states, 0.0, manifests, 0)


@pytest.mark.parametrize("returncode", [1, -15, None])
def test_service_fires_on_unclean_exit(tmp_path, returncode):
    states, manifests = _service_inputs(tmp_path)
    with pytest.raises(CheckFailed, match="exited"):
        check_service(states, 0.0, manifests, returncode)


def test_benchmark_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign-small", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin", "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert "no simulator sources" in proc.stderr
