"""Steadiness report: repeat the workloads interleaved and show their spread.

Runs ``ROUNDS`` rounds of every workload in turn (ABCABC…), each as its own
``run.py`` process with seed ``first_seed + round``, so a drift in host
speed lands on every workload alike instead of on one.  For every workload
and end-to-end metric it prints the median, the quartiles and
(q3 − q1) / median, and flags as unresolved every spread wider than the
metric's bound in ``BENCHMARK.json``: a change to such a metric cannot be
told from noise on this host.
"""

from __future__ import annotations

import json
import subprocess
import sys

from .common import ROOT, WORKLOADS, load_definition, quartiles

#: Runs per workload: the ten a set of steadiness evidence is made of.
ROUNDS = 10


def _one_run(workload: str, seed: int, seconds: int) -> dict | None:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"  {workload} seed {seed}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}", flush=True)
        return None
    return json.loads(lines[-1])


def report(*, first_seed: int, seconds: int) -> int:
    definition = load_definition()
    values: dict[str, dict[str, list[float]]] = {workload: {} for workload in WORKLOADS}
    failures = 0
    for round_index in range(ROUNDS):
        for workload in WORKLOADS:
            seed = first_seed + round_index
            result = _one_run(workload, seed, seconds)
            if result is None or not result["correct"]:
                failures += 1
                continue
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            summary = ", ".join(f"{name} {metric['value']:.4g}" for name, metric in result["metrics"].items())
            print(f"  round {round_index + 1}/{ROUNDS} {workload} seed {seed}: {summary}", flush=True)

    unresolved = []
    print(f"{'workload':<16} {'metric':<12} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for workload in WORKLOADS:
        for spec in definition["end_to_end"]:
            samples = values[workload].get(spec["name"], [])
            if not samples:
                continue
            q1, mid, q3 = quartiles(samples)
            spread = (q3 - q1) / mid if mid else 0.0
            flag = ""
            if spread > spec["bound"]:
                flag = "  UNRESOLVED"
                unresolved.append(f"{workload}/{spec['name']}")
            print(
                f"{workload:<16} {spec['name']:<12} {len(samples):>3} {mid:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                f"{spread:>8.4f} {spec['bound']:>6}{flag}"
            )
    print("steadiness " + json.dumps({"seconds": seconds, "first_seed": first_seed, "values": values}, sort_keys=True))
    if unresolved:
        print(f"unresolved (spread above bound): {', '.join(unresolved)}")
    if failures:
        print(f"{failures} run(s) failed or failed their output checks")
    return 1 if failures else 0
