"""Gas-price market model.

The paper's gas analysis (Figure 6) compares the gas price paid by each
liquidation transaction against the 1-day moving average of the block-median
gas price, and observes (i) that 73.97 % of liquidations bid above average and
(ii) a gas-price spike during the March 2020 crash followed by an uptrend from
mid-2020 onwards ("due to the growing popularity of DeFi").

This module models exactly that environment: a base gas price that follows a
mean-reverting random walk with a secular uptrend, plus congestion spikes that
the scenario layer injects during market crashes.  Liquidator agents consult
:class:`GasMarket` to decide their bids.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .types import GWEI


@dataclass
class GasMarketConfig:
    """Parameters of the simulated gas market.

    Attributes
    ----------
    initial_gwei:
        Base gas price at the start of the scenario (≈ 2019 levels).
    trend_per_block:
        Multiplicative drift per block.  A value slightly above 1 creates the
        secular uptrend visible in Figure 6 from May 2020 onwards.
    volatility:
        Standard deviation of the per-block lognormal noise.
    mean_reversion:
        Strength with which the price reverts towards the trend level;
        between 0 (pure random walk) and 1 (immediate reversion).
    min_gwei / max_gwei:
        Hard clamps keeping the process inside the band observed on mainnet
        (roughly 1 gwei to 100 000 gwei at the worst of the crash).
    congestion_multiplier:
        Additional factor applied while congestion is active (crashes).
    """

    initial_gwei: float = 8.0
    trend_per_block: float = 1.0000022
    volatility: float = 0.02
    mean_reversion: float = 0.02
    min_gwei: float = 1.0
    max_gwei: float = 100_000.0
    congestion_multiplier: float = 12.0


@dataclass
class GasMarket:
    """Evolves the prevailing ("average") gas price block by block."""

    config: GasMarketConfig = field(default_factory=GasMarketConfig)
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))

    def __post_init__(self) -> None:
        self._level_gwei = self.config.initial_gwei
        self._trend_level = self.config.initial_gwei
        self._congested_blocks_remaining = 0

    @property
    def base_gas_price_gwei(self) -> float:
        """Current prevailing gas price in gwei, including congestion."""
        price = self._level_gwei
        if self._congested_blocks_remaining > 0:
            price *= self.config.congestion_multiplier
        # Plain clamps in these properties: bots read them on every bid.
        return float(min(max(price, self.config.min_gwei), self.config.max_gwei))

    @property
    def base_gas_price_wei(self) -> int:
        """Current prevailing gas price in wei."""
        return int(self.base_gas_price_gwei * GWEI)

    @property
    def is_congested(self) -> bool:
        """Whether a congestion episode is currently active."""
        return self._congested_blocks_remaining > 0

    @property
    def uncongested_gas_price_gwei(self) -> float:
        """The gas-price level without the congestion multiplier.

        Keeper bots that estimate gas from stale data effectively bid around
        this level during congestion episodes — which is why their bids fail
        to land (Section 4.3.1's March 2020 incident).
        """
        return float(min(max(self._level_gwei, self.config.min_gwei), self.config.max_gwei))

    @property
    def min_inclusion_gas_price_wei(self) -> int:
        """Market-clearing inclusion price: non-zero only during congestion."""
        if not self.is_congested:
            return 0
        return int(self.base_gas_price_gwei * 0.85 * GWEI)

    def trigger_congestion(self, n_blocks: int) -> None:
        """Start (or extend) a congestion episode lasting ``n_blocks`` blocks.

        The scenario layer calls this during market crashes; it is what makes
        liquidation and keeper transactions slow to confirm, reproducing the
        MakerDAO March 2020 incident dynamics.
        """
        self._congested_blocks_remaining = max(self._congested_blocks_remaining, n_blocks)

    def step(self) -> float:
        """Advance the gas market by one block and return the new level (gwei)."""
        cfg = self.config
        self._trend_level *= cfg.trend_per_block
        noise = float(self.rng.normal(0.0, cfg.volatility))
        reversion = cfg.mean_reversion * (np.log(self._trend_level) - np.log(self._level_gwei))
        self._level_gwei = float(
            np.clip(
                self._level_gwei * np.exp(reversion + noise),
                cfg.min_gwei,
                cfg.max_gwei,
            )
        )
        if self._congested_blocks_remaining > 0:
            self._congested_blocks_remaining -= 1
        return self.base_gas_price_gwei


def moving_average(values: list[float], window: int) -> list[float]:
    """Trailing moving average used for the Figure 6 "average gas price" curve.

    The first ``window - 1`` entries average over the available prefix, so
    the returned list has the same length as ``values``.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    averages: list[float] = []
    running = 0.0
    for index, value in enumerate(values):
        running += value
        if index >= window:
            running -= values[index - window]
            averages.append(running / window)
        else:
            averages.append(running / (index + 1))
    return averages
