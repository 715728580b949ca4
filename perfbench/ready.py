"""Set-up probe: do what a workload process does before it can submit work.

    python3 perfbench/ready.py WORKLOAD WORK_DIR

Prints ``ready`` once the workload could submit its first unit of work,
then shuts down.  ``run.py`` times fresh processes of this script to
measure ``setup_s`` (the service workload times ``repro serve`` itself).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import WORKERS, ping_workers, use_checkout_sources  # noqa: E402


def main(argv: list[str]) -> int:
    workload, work_dir = argv[0], Path(argv[1])
    use_checkout_sources()
    from repro import scenarios
    from repro.experiments import runner  # noqa: F401  (the reports the workload renders)

    if workload == "paper-full":
        scenarios.get("paper-full")
        print("ready", flush=True)
        return 0
    if workload == "campaign-small":
        from repro.campaigns import CampaignExecutor  # noqa: F401
        from repro.campaigns.backends import PersistentBackend

        scenarios.get("small")
        with PersistentBackend(WORKERS) as backend:
            ping_workers(backend, work_dir)
            print("ready", flush=True)
        return 0
    print(f"no set-up probe for workload {workload!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
