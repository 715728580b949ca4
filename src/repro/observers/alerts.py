"""Tiered health-factor alerting: the one alert policy of ``watch`` and ``serve``.

An :class:`AlertEngine` folds the samples a
:class:`~repro.observers.probes.HealthSampler` takes — in-process under
``repro watch``, sent in the workers' progress chunks under
``repro serve`` — into alerts with liquidation-alerter semantics:

* **tiers** — ``warning`` below :attr:`AlertPolicy.warning_hf`, ``critical``
  below :attr:`AlertPolicy.critical_hf` (liquidatable territory);
* **per-position cooldowns** — once a position alerted at a tier, the same
  tier stays silent for :attr:`AlertPolicy.cooldown_blocks` simulated
  blocks; escalation to a higher tier is never suppressed by a lower tier's
  cooldown;
* **rapid-deterioration detection** — a health factor that fell by at least
  :attr:`AlertPolicy.deterioration_drop` within
  :attr:`AlertPolicy.deterioration_window_blocks` raises (or escalates) an
  alert even before the absolute thresholds would, because the *trajectory*
  is the emergency.

Everything is keyed on simulated block numbers, not wall clocks, so alert
sequences are deterministic for a deterministic stream and unit-testable
without sleeping.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .probes import HealthSample

__all__ = ["Alert", "AlertEngine", "AlertPolicy", "TIERS"]

#: Alert tiers, least to most severe.
TIERS: tuple[str, ...] = ("warning", "critical")


@dataclass(frozen=True)
class AlertPolicy:
    """Thresholds and damping applied to the streamed health-factor samples."""

    #: Tier thresholds: a position is ``warning`` below ``warning_hf`` and
    #: ``critical`` below ``critical_hf`` (HF < 1 means liquidatable).
    warning_hf: float = 1.05
    critical_hf: float = 1.0
    #: Simulated blocks a raised tier stays silent for the same position.
    cooldown_blocks: int = 7_200
    #: Rapid deterioration: a drop of at least ``deterioration_drop`` in HF
    #: within ``deterioration_window_blocks`` raises/escalates an alert.
    deterioration_window_blocks: int = 2_400
    deterioration_drop: float = 0.05
    #: Ring-buffer capacity of the retained alert log (counters are exact).
    max_alerts: int = 1_000

    def __post_init__(self) -> None:
        if self.critical_hf > self.warning_hf:
            raise ValueError(
                f"critical_hf ({self.critical_hf}) must not exceed warning_hf ({self.warning_hf})"
            )
        if self.cooldown_blocks < 0 or self.deterioration_window_blocks < 0:
            raise ValueError("cooldown and deterioration windows must be >= 0")

    @property
    def sample_below(self) -> float:
        """The sampling threshold: a margin above the warning tier, so the
        engine sees positions approaching the tiers, not only inside them."""
        return max(self.warning_hf + 0.05, 1.1)

    def describe(self) -> dict:
        """The policy as a JSON-ready dict (served under ``/alerts``)."""
        return asdict(self)


@dataclass(frozen=True)
class Alert:
    """One raised alert, ready for the ``/alerts`` endpoint."""

    job_id: str
    run_id: str
    platform: str
    owner: str
    tier: str  # "warning" | "critical"
    reason: str  # "threshold" | "rapid-deterioration"
    health_factor: float
    previous_health_factor: float | None
    debt_usd: float
    block_number: int

    def payload(self) -> dict:
        return asdict(self)


class AlertEngine:
    """Folds health-factor samples into tiered, damped alerts."""

    def __init__(self, policy: AlertPolicy | None = None) -> None:
        self.policy = policy or AlertPolicy()
        self.alerts: deque[Alert] = deque(maxlen=self.policy.max_alerts)
        self.counts: dict[str, int] = {tier: 0 for tier in TIERS}
        self.samples_seen = 0
        # Per-position state, keyed by (job_id, run_id, platform, owner).
        self._last: dict[tuple[str, str, str, str], tuple[int, float]] = {}
        self._cooldown_until: dict[tuple[tuple[str, str, str, str], str], int] = {}

    def observe(self, sample: "HealthSample", *, job_id: str, run_id: str) -> list[Alert]:
        """Fold one sample of run ``(job_id, run_id)`` in; returns the alerts
        it raised (possibly none)."""
        policy = self.policy
        self.samples_seen += 1
        health_factor, block_number = sample.health_factor, sample.block_number
        key = (job_id, run_id, sample.platform, sample.owner)
        previous = self._last.get(key)
        self._last[key] = (block_number, health_factor)

        if health_factor < policy.critical_hf:
            tier: str | None = "critical"
        elif health_factor < policy.warning_hf:
            tier = "warning"
        else:
            tier = None
        reason = "threshold"

        if previous is not None:
            previous_block, previous_hf = previous
            rapid = (
                block_number - previous_block <= policy.deterioration_window_blocks
                and previous_hf - health_factor >= policy.deterioration_drop
            )
            if rapid:
                # The trajectory escalates one tier (and is itself alertable
                # even while the absolute level is still healthy).
                tier = "critical" if tier is not None else "warning"
                reason = "rapid-deterioration"

        if tier is None:
            return []
        if self._cooldown_until.get((key, tier), -1) > block_number:
            return []
        self._cooldown_until[(key, tier)] = block_number + policy.cooldown_blocks
        alert = Alert(
            job_id=job_id,
            run_id=run_id,
            platform=sample.platform,
            owner=sample.owner,
            tier=tier,
            reason=reason,
            health_factor=health_factor,
            previous_health_factor=previous[1] if previous is not None else None,
            debt_usd=sample.debt_usd,
            block_number=block_number,
        )
        self.alerts.append(alert)
        self.counts[tier] += 1
        return [alert]

    def clear_run(self, job_id: str, run_id: str) -> None:
        """Drop the per-position state of a finished run (bounded memory)."""
        scope = (job_id, run_id)
        self._last = {key: value for key, value in self._last.items() if key[:2] != scope}
        self._cooldown_until = {
            (key, tier): block
            for (key, tier), block in self._cooldown_until.items()
            if key[:2] != scope
        }

    def payload(self, *, limit: int | None = None) -> dict:
        """The ``/alerts`` endpoint body: recent alerts plus exact counters."""
        recent = list(self.alerts)
        if limit is not None:
            recent = recent[-limit:]
        return {
            "policy": self.policy.describe(),
            "counts": dict(self.counts),
            "samples_seen": self.samples_seen,
            "alerts": [alert.payload() for alert in recent],
        }
