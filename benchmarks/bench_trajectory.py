"""Merge the ``BENCH_*.json`` perf records into the trajectory.

Every benchmark that runs under ``BENCH_RECORD=1`` leaves one
``BENCH_<name>.json`` at the repo root (scan, watch, valuation, campaign,
scenario, ...), stamped by ``conftest.write_bench_record`` with the commit
it measured (:func:`measured_commit`).  This script — the CI benchmark
job's ``bench-trajectory`` step —

1. merges each record measured at the current commit into
   ``BENCH_trajectory.json`` under that commit and its date: a list with
   one entry per ``(benchmark, commit)``, extending whatever trajectory
   already exists — the committed seed on a fresh checkout, or the
   accumulated history the CI job restores from its ``actions/cache``
   entry — so the perf history keeps growing across commits,
2. refuses every other record — measured at another commit, on a tree
   with uncommitted source changes, or never stamped — names it on stderr
   and exits 1, instead of re-labelling an old number with a new commit,
3. prints the trajectory as a table.

Usage::

    python benchmarks/bench_trajectory.py [--root PATH]

Idempotent: re-running on the same commit replaces that commit's entries
instead of duplicating them.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from datetime import datetime
from pathlib import Path

TRAJECTORY_NAME = "BENCH_trajectory.json"

#: Trees whose uncommitted changes make a measurement not "at" its commit.
SOURCE_DIRS = ("src", "benchmarks")


def repo_root() -> Path:
    return Path(__file__).resolve().parents[1]


def git_output(root: Path, *args: str) -> str:
    return subprocess.check_output(["git", *args], cwd=root, text=True).strip()


def measured_commit(root: Path) -> dict:
    """The record stamp: the commit being measured, and whether the tree differs.

    ``{"commit": sha, "dirty": bool}``, where ``sha`` is ``GITHUB_SHA`` or
    ``git rev-parse HEAD`` and ``dirty`` says tracked files under
    :data:`SOURCE_DIRS` have uncommitted changes; ``commit`` is ``None``
    outside a git checkout.
    """
    try:
        sha = os.environ.get("GITHUB_SHA") or git_output(root, "rev-parse", "HEAD")
        changes = git_output(root, "status", "--porcelain", "--untracked-files=no", "--", *SOURCE_DIRS)
    except (OSError, subprocess.CalledProcessError):
        return {"commit": None, "dirty": False}
    return {"commit": sha, "dirty": bool(changes)}


def commit_date(root: Path, sha: str) -> str:
    """ISO date of ``sha``, or of HEAD when ``sha`` is not present locally."""
    try:
        return git_output(root, "show", "-s", "--format=%cI", sha)
    except subprocess.CalledProcessError:
        # A GITHUB_SHA not present locally (e.g. a merge ref): fall back to HEAD.
        return git_output(root, "show", "-s", "--format=%cI", "HEAD")


def load_records(root: Path) -> dict[str, dict]:
    """The per-benchmark records present at the repo root, keyed by name."""
    records: dict[str, dict] = {}
    for path in sorted(root.glob("BENCH_*.json")):
        if path.name == TRAJECTORY_NAME:
            continue
        record = json.loads(path.read_text())
        name = record.get("benchmark", path.stem.removeprefix("BENCH_"))
        records[name] = record
    return records


def refusal(record: dict, commit: str) -> str | None:
    """Why ``record`` may not enter the trajectory at ``commit`` (``None``: it may)."""
    measured = record.get("commit")
    if measured is None:
        return "carries no commit stamp"
    if measured != commit:
        return f"was measured at {measured[:10]}, not at {commit[:10]}"
    if record.get("dirty"):
        return f"was measured on uncommitted changes to {commit[:10]}"
    return None


def merge_trajectory(root: Path, commit: str, date: str) -> tuple[list[dict], dict[str, str]]:
    """Merge the records measured at ``commit``; returns ``(entries, refused)``.

    ``refused`` maps each record left out to the reason (see :func:`refusal`).
    """
    trajectory_path = root / TRAJECTORY_NAME
    entries: list[dict] = []
    if trajectory_path.exists():
        entries = json.loads(trajectory_path.read_text())
    fresh, refused = [], {}
    for name, record in load_records(root).items():
        reason = refusal(record, commit)
        if reason is None:
            fresh.append({"benchmark": name, "commit": record["commit"], "date": date, "record": record})
        else:
            refused[name] = reason
    replaced = {(entry["benchmark"], entry["commit"]) for entry in fresh}
    entries = [
        entry for entry in entries if (entry["benchmark"], entry["commit"]) not in replaced
    ]
    entries.extend(fresh)
    # Chronological, not lexicographic: ISO-8601 strings with different
    # timezone offsets do not sort correctly as text.
    entries.sort(key=lambda entry: (datetime.fromisoformat(entry["date"]), entry["benchmark"]))
    trajectory_path.write_text(json.dumps(entries, indent=2) + "\n")
    return entries, refused


def headline(record: dict) -> str:
    """The one number worth charting for each benchmark."""
    if "speedup" in record:
        return f"speedup {record['speedup']:.2f}x"
    if "overhead_fraction" in record:
        return f"overhead {record['overhead_fraction'] * 100:.1f}%"
    if "blocks_per_second" in record:
        return f"{record['blocks_per_second']:.1f} blocks/s"
    if "seconds" in record:
        return f"{record['seconds']:.2f}s"
    return "-"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=repo_root(), help="repo root to scan")
    args = parser.parse_args()
    commit = measured_commit(args.root)["commit"]
    if commit is None:
        print(f"error: {args.root} is not a git checkout; no commit to merge under", file=sys.stderr)
        return 2
    entries, refused = merge_trajectory(args.root, commit, commit_date(args.root, commit))
    width = max((len(entry["benchmark"]) for entry in entries), default=9)
    print(f"{'benchmark':<{width}}  {'commit':<10}  {'date':<25}  headline")
    for entry in entries:
        print(
            f"{entry['benchmark']:<{width}}  {entry['commit'][:10]:<10}  "
            f"{entry['date']:<25}  {headline(entry['record'])}"
        )
    for name, reason in refused.items():
        print(f"REFUSED {name}: the record {reason}; re-run its benchmark here", file=sys.stderr)
    return 1 if refused else 0


if __name__ == "__main__":
    raise SystemExit(main())
