"""PKL003 — campaign payloads stay picklable; global counters reset per run.

The campaign executor's serial-vs-parallel byte-identity rests on two
facts: only picklable, module-level values cross the process boundary
(spawn workers rebuild worlds from ``(scenario, overrides, seed)``
strings), and every module-global mutable counter is reset at the top of
each run through the :mod:`repro.runtime_state` registry.  A lambda handed
to the pool dies with ``PicklingError`` only at runtime — and only on the
parallel path the tests may not cover; an unregistered counter drifts with
process history and desynchronises identifier sequences between serial and
pooled execution.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..framework import FileContext, Rule, Violation, dotted_name

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

#: Spec constructors whose field values are persisted / shipped to workers
#: (``WorkerConfig`` rides inside persistent-worker task payloads and run
#: manifests).
_SPEC_CONSTRUCTORS = frozenset({"RunJob", "RunSpec", "CampaignSpec", "WorkerConfig"})


def _module_level_counters(tree: ast.Module, aliases: dict[str, str]) -> Iterator[ast.Assign]:
    """Module-level ``X = itertools.count(...)`` assignments."""
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        if isinstance(value, ast.Call):
            name = dotted_name(value.func, aliases)
            if name in ("itertools.count", "count") and any(
                isinstance(target, ast.Name) for target in node.targets
            ):
                yield node


def _calls_register_reset(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "register_reset":
                return True
            if isinstance(func, ast.Attribute) and func.attr == "register_reset":
                return True
    return False


class PicklableCampaignPayloads(Rule):
    code = "PKL003"
    title = "campaign payloads stay picklable; global counters reset per run"
    rationale = """\
Everything handed to a worker pool, queued to a persistent worker
(``RunJob`` messages) or stored on a campaign spec must be a
module-level, picklable value — lambdas, closures and local classes fail to
pickle under the spawn start method (and do so only on the parallel path).
Separately, any module-global mutable counter (``itertools.count`` at
module level) must be registered with ``repro.runtime_state.register_reset``
so the per-run reset keeps identifier sequences independent of how many
runs the process executed before — the serial-vs-parallel byte-identity
contract of the run store."""
    example_bad = """\
pool.imap_unordered(lambda job: run(job), jobs)   # unpicklable lambda
_counter = itertools.count()                      # never reset per run"""
    example_good = """\
pool.imap_unordered(execute_job, jobs)            # module-level function

_counter = itertools.count(1)
def _reset() -> None:
    global _counter
    _counter = itertools.count(1)
register_reset("mymodule.counter", _reset)"""
    # Counter registration is checked everywhere in the package; the
    # pool/spec payload checks only fire in the campaign subsystem.
    scopes = ()

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        aliases = ctx.import_aliases
        if ctx.relpath.startswith("repro/devtools/"):
            return
        for assignment in _module_level_counters(ctx.tree, aliases):
            if not _calls_register_reset(ctx.tree):
                targets = ", ".join(
                    target.id for target in assignment.targets if isinstance(target, ast.Name)
                )
                yield self.violation(
                    ctx,
                    assignment,
                    f"module-global counter `{targets}` is not in the per-run reset "
                    "registry; call repro.runtime_state.register_reset with a "
                    "resetter so campaign runs stay independent of process history",
                )
        if not ctx.relpath.startswith("repro/campaigns/"):
            return
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
