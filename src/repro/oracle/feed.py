"""Price feeds: the exogenous "market" price of every asset, per block.

A :class:`PriceFeed` is the ground-truth market price process that the
scenario generator produces and that oracles sample from.  It is defined on a
block grid with a configurable stride (``blocks_per_step``), because the
simulation advances in strides of blocks rather than single blocks — two
years of Ethereum history is ≈ 4.7 M blocks, far more resolution than the
paper's monthly/percent-level results require.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class UnknownSymbol(KeyError):
    """Raised when querying a feed for a symbol it does not track."""


@dataclass
class PriceFeed:
    """Block-indexed USD price series for a set of assets.

    Attributes
    ----------
    start_block:
        Block number corresponding to step 0.
    blocks_per_step:
        Number of chain blocks covered by one step of the series.
    series:
        Mapping from symbol to a numpy array of USD prices, one per step.
        All arrays must have equal length.
    """

    start_block: int
    blocks_per_step: int
    series: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        lengths = {len(values) for values in self.series.values()}
        if len(lengths) > 1:
            raise ValueError(f"price series have inconsistent lengths: {sorted(lengths)}")
        self.series = {symbol.upper(): np.asarray(values, dtype=float) for symbol, values in self.series.items()}

    # ------------------------------------------------------------------ #
    # Grid helpers
    # ------------------------------------------------------------------ #
    @property
    def n_steps(self) -> int:
        """Number of steps in the feed (0 if empty)."""
        if not self.series:
            return 0
        return len(next(iter(self.series.values())))

    @property
    def end_block(self) -> int:
        """Last block covered by the feed."""
        return self.start_block + max(self.n_steps - 1, 0) * self.blocks_per_step

    def symbols(self) -> list[str]:
        """Sorted list of tracked symbols."""
        return sorted(self.series)

    def step_for_block(self, block_number: int) -> int:
        """Map a block number onto the nearest covered step (clamped)."""
        last = self.n_steps - 1
        if last < 0:
            raise ValueError("empty price feed")
        step = (block_number - self.start_block) // self.blocks_per_step
        # A plain clamp: every price lookup lands here, and a scalar
        # ``np.clip`` costs more than the rest of the lookup.
        return int(min(max(step, 0), last))

    def block_for_step(self, step: int) -> int:
        """Block number corresponding to ``step``."""
        return self.start_block + step * self.blocks_per_step

    # ------------------------------------------------------------------ #
    # Price queries
    # ------------------------------------------------------------------ #
    def has(self, symbol: str) -> bool:
        """Whether the feed tracks ``symbol``."""
        return symbol.upper() in self.series

    def price(self, symbol: str, block_number: int) -> float:
        """Market price of ``symbol`` (USD) at ``block_number``."""
        key = symbol.upper()
        if key not in self.series:
            raise UnknownSymbol(symbol)
        return float(self.series[key][self.step_for_block(block_number)])

    def price_at_step(self, symbol: str, step: int) -> float:
        """Market price of ``symbol`` (USD) at step ``step``."""
        key = symbol.upper()
        if key not in self.series:
            raise UnknownSymbol(symbol)
        return float(self.series[key][step])

    def prices_at(self, block_number: int) -> dict[str, float]:
        """All tracked prices at ``block_number`` as ``{symbol: usd_price}``."""
        step = self.step_for_block(block_number)
        return {symbol: float(values[step]) for symbol, values in self.series.items()}

    def window(self, symbol: str, from_block: int, to_block: int) -> np.ndarray:
        """Slice of the price series between two blocks (inclusive)."""
        start = self.step_for_block(from_block)
        stop = self.step_for_block(to_block)
        key = symbol.upper()
        if key not in self.series:
            raise UnknownSymbol(symbol)
        return self.series[key][start : stop + 1].copy()

    def returns(self, symbol: str) -> np.ndarray:
        """Per-step simple returns of ``symbol``."""
        key = symbol.upper()
        if key not in self.series:
            raise UnknownSymbol(symbol)
        values = self.series[key]
        if len(values) < 2:
            return np.zeros(0)
        return values[1:] / values[:-1] - 1.0

    def max_drawdown(self, symbol: str) -> float:
        """Largest peak-to-trough decline of ``symbol`` over the feed, in [0, 1]."""
        key = symbol.upper()
        if key not in self.series:
            raise UnknownSymbol(symbol)
        values = self.series[key]
        if len(values) == 0:
            return 0.0
        running_peak = np.maximum.accumulate(values)
        drawdowns = 1.0 - values / running_peak
        return float(drawdowns.max())
