"""A no-op kept for callers that still rewind per-run state.

Every world's chain owns its address and tx-hash sequences
(:meth:`~repro.chain.chain.Blockchain.new_address`), so there is no
process-global run state left to rewind.  :func:`reset_run_state` stays
only because the repository benchmark's harness imports and calls it; it
goes once that harness stops doing so.
"""

from __future__ import annotations

__all__ = ["reset_run_state"]


def reset_run_state() -> None:
    """Do nothing: no module-global run state exists."""
