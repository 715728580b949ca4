"""The ``hf_sample`` line writer of a health sampler.

The service itself does not use it: its workers fold each run with
:class:`~repro.campaigns.executor.ProgressProbe` and send the health samples
as typed values.  :class:`HealthSampleProbe` and its line format stay
unchanged because ``perfbench``'s traced ``service-stream`` world attaches
it, next to a :class:`~repro.observers.sinks.JsonlSink`.  Like every probe
it is passive — it reads cached valuations but never mutates the world.
"""

from __future__ import annotations

import json
from typing import IO, TYPE_CHECKING, Any, Iterable

from ..observers.alerts import AlertPolicy
from ..observers.probes import HealthSample, HealthSampler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..protocols.base import LendingProtocol

__all__ = ["HealthSampleProbe", "encode_message"]


def encode_message(payload: dict[str, Any]) -> str:
    """One service-message line (same sorted-keys convention as the sink)."""
    return json.dumps(payload, sort_keys=True) + "\n"


class HealthSampleProbe(HealthSampler):
    """Writes below-threshold health-factor samples as JSON lines.

    The :class:`~repro.observers.probes.HealthSampler` writing each sample
    as one ``hf_sample`` line (``{"service": "hf_sample", **sample}``) to
    ``handle``.
    """

    def __init__(
        self,
        handle: IO[str],
        protocols: Iterable["LendingProtocol"],
        sample_below: float = AlertPolicy().sample_below,
    ) -> None:
        super().__init__(protocols, sample_below, self._write)
        self.handle = handle

    def _write(self, sample: HealthSample) -> None:
        self.handle.write(encode_message({"service": "hf_sample", **sample._asdict()}))

    def finalize(self) -> None:
        """Flush so the last strides' samples are written."""
        self.handle.flush()
