"""The trajectory merge keeps every number under the commit that measured it."""

from __future__ import annotations

import json

from bench_trajectory import TRAJECTORY_NAME, merge_trajectory

HEAD = "a" * 40
OLD = "b" * 40
DATE = "2026-01-02T03:04:05+00:00"


def write_record(root, name: str, **stamp) -> None:
    record = {"benchmark": name, "seconds": 1.0, **stamp}
    (root / f"BENCH_{name}.json").write_text(json.dumps(record))


def test_records_from_other_commits_are_refused_not_relabelled(tmp_path):
    write_record(tmp_path, "fresh", commit=HEAD, dirty=False)
    write_record(tmp_path, "stale", commit=OLD, dirty=False)
    write_record(tmp_path, "uncommitted", commit=HEAD, dirty=True)
    write_record(tmp_path, "unstamped")

    entries, refused = merge_trajectory(tmp_path, HEAD, DATE)

    assert [(entry["benchmark"], entry["commit"]) for entry in entries] == [("fresh", HEAD)]
    assert set(refused) == {"stale", "uncommitted", "unstamped"}
    assert OLD[:10] in refused["stale"]
    assert json.loads((tmp_path / TRAJECTORY_NAME).read_text()) == entries
