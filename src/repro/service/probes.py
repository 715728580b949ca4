"""Worker-side probes feeding the service's JSONL transport.

These run *inside* the persistent worker, attached to the engine's observer
bus next to the standard recorder/metrics probes.  Like every probe they are
passive — they read cached valuations but never mutate the world — so a
service-executed run stays bit-identical to a standalone one (the store
equivalence test in ``tests/test_service.py`` pins this for every registered
scenario).
"""

from __future__ import annotations

from typing import IO, TYPE_CHECKING, Iterable

from ..observers.alerts import AlertPolicy
from ..observers.probes import HealthSample, HealthSampler
from .transport import encode_message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..protocols.base import LendingProtocol

__all__ = ["HealthSampleProbe"]


class HealthSampleProbe(HealthSampler):
    """Streams below-threshold health-factor samples to the supervisor.

    The :class:`~repro.observers.probes.HealthSampler` writing each sample
    as one ``hf_sample`` service line to ``handle``; the parent's
    :class:`~repro.observers.alerts.AlertEngine` folds them into alerts.
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
        """Flush so the last strides' samples reach the parent before the outcome."""
        self.handle.flush()
