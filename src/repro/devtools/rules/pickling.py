"""PKL003 — campaign payloads stay picklable.

The campaign executor's serial-vs-parallel byte-identity rests on only
picklable, module-level values crossing the process boundary (spawn
workers rebuild worlds from ``(scenario, overrides, seed)`` strings).  A
lambda handed to the pool dies with ``PicklingError`` only at runtime — and
only on the parallel path the tests may not cover.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..framework import FileContext, Rule, Violation

__all__ = ["PicklableCampaignPayloads"]

#: Pool submission APIs whose callable/iterable arguments cross the
#: process boundary and must therefore be module-level and picklable.
#: ``put`` / ``put_nowait`` cover the persistent backend's task queues —
#: its ``RunJob`` dispatch messages pickle exactly like pool arguments.
_POOL_METHODS = frozenset(
    {
        "map",
        "map_async",
        "imap",
        "imap_unordered",
        "apply",
        "apply_async",
        "starmap",
        "starmap_async",
        "put",
        "put_nowait",
    }
)

#: Spec constructors whose field values are persisted / shipped across the
#: worker pipe (``WorkerConfig`` rides inside persistent-worker task payloads
#: and run manifests; a streaming run's ``ProgressChunk`` s travel back).
_SPEC_CONSTRUCTORS = frozenset({"RunJob", "RunSpec", "CampaignSpec", "WorkerConfig", "ProgressChunk"})


class PicklableCampaignPayloads(Rule):
    code = "PKL003"
    title = "campaign payloads stay picklable"
    rationale = """\
Everything handed to a worker pool, queued to a persistent worker
(``RunJob`` messages) or stored on a campaign spec must be a
module-level, picklable value — lambdas, closures and local classes fail to
pickle under the spawn start method (and do so only on the parallel path).
Run identity needs no rule: each world's chain mints its own addresses and
tx hashes, so no module-global state can make a run depend on the runs the
process executed before it."""
    example_bad = """\
pool.imap_unordered(lambda job: run(job), jobs)   # unpicklable lambda
task_queue.put(lambda: execute_job(job))          # fails only under spawn"""
    example_good = """\
pool.imap_unordered(execute_job, jobs)            # module-level function
task_queue.put(job)                               # a picklable RunJob"""
    scopes = ("repro/campaigns/",)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            is_pool_call = isinstance(func, ast.Attribute) and func.attr in _POOL_METHODS
            is_spec_call = isinstance(func, ast.Name) and func.id in _SPEC_CONSTRUCTORS
            if not (is_pool_call or is_spec_call):
                continue
            where = (
                f"pool.{func.attr}" if is_pool_call else func.id  # type: ignore[union-attr]
            )
            for arg in [*node.args, *(kw.value for kw in node.keywords)]:
                if isinstance(arg, ast.Lambda):
                    yield self.violation(
                        ctx,
                        arg,
                        f"lambda passed to {where}: it crosses the process "
                        "boundary and cannot pickle under spawn; use a "
                        "module-level function",
                    )
