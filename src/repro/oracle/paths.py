"""Synthetic price-path generation.

The paper measures real 2019–2021 market prices.  Without chain access we
generate calibrated synthetic paths: geometric Brownian motion with drift and
volatility per asset, overlaid with *scheduled shocks* reproducing the three
incidents the paper's results hinge on:

* 13 March 2020 — an abrupt −43 % ETH crash with network congestion
  (Section 4.3.1, Figure 5's MakerDAO outlier, Figure 7's parameter change),
* November 2020 — an irregular DAI price on Compound's oracle (Figure 5's
  Compound outlier),
* February 2021 — a broad, sharp drawdown (the second Compound spike).

Stablecoins follow a mean-reverting wobble around 1 USD whose dispersion is
calibrated so that cross-stablecoin differences stay within 5 % almost always
(Section 4.5.2 reports 99.97 % of blocks), with a single engineered excursion
to ≈ 11 % to reproduce the reported maximum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Shock:
    """A scheduled multiplicative price shock.

    Attributes
    ----------
    step:
        Step index at which the shock is applied.
    magnitude:
        Multiplicative factor applied to the price (0.57 ⇒ a −43 % crash).
    duration:
        Number of steps over which the shock is spread.  1 means an
        instantaneous jump.
    recovery:
        Fraction of the shock that is undone over ``recovery_steps`` after
        the shock completes (0 = permanent, 1 = fully recovered).
    recovery_steps:
        Length of the recovery ramp.
    """

    step: int
    magnitude: float
    duration: int = 1
    recovery: float = 0.0
    recovery_steps: int = 0


@dataclass
class AssetPathConfig:
    """GBM parameters for a single asset."""

    initial_price: float
    annual_drift: float = 0.0
    annual_volatility: float = 0.8
    shocks: list[Shock] = field(default_factory=list)
    is_stablecoin: bool = False
    peg: float = 1.0
    peg_volatility: float = 0.002
    peg_reversion: float = 0.05


#: Steps per year used to scale annualised drift/volatility.  The scenario
#: layer chooses ``blocks_per_step`` so that this matches its grid.
DEFAULT_STEPS_PER_YEAR = 2_190  # one step ≈ 4 hours


def gbm_path(
    config: AssetPathConfig,
    n_steps: int,
    rng: np.random.Generator,
    steps_per_year: int = DEFAULT_STEPS_PER_YEAR,
) -> np.ndarray:
    """Generate a geometric-Brownian-motion path with scheduled shocks."""
    if n_steps <= 0:
        return np.zeros(0)
    dt = 1.0 / steps_per_year
    drift = (config.annual_drift - 0.5 * config.annual_volatility**2) * dt
    diffusion = config.annual_volatility * np.sqrt(dt)
    increments = drift + diffusion * rng.standard_normal(n_steps - 1)
    log_path = np.concatenate([[0.0], np.cumsum(increments)])
    path = config.initial_price * np.exp(log_path)
    return apply_shocks(path, config.shocks)


def stablecoin_path(
    config: AssetPathConfig,
    n_steps: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Generate a mean-reverting path hovering around the peg.

    The noise is one vector draw, the same stream as one scalar
    ``rng.normal(0.0, peg_volatility)`` per step, and the recurrence runs
    on Python floats, which round exactly as the ``float64`` elements do.
    """
    if n_steps <= 0:
        return np.zeros(0)
    peg = config.peg
    reversion = config.peg_reversion
    price = float(config.initial_price)
    prices = [price]
    for noise in rng.normal(0.0, config.peg_volatility, n_steps - 1).tolist():
        price = price + reversion * (peg - price) + noise
        prices.append(price)
    path = np.clip(np.array(prices), 0.2 * peg, 5.0 * peg)
    return apply_shocks(path, config.shocks)


def apply_shocks(path: np.ndarray, shocks: list[Shock]) -> np.ndarray:
    """Apply scheduled shocks (and their recoveries) to ``path`` in place-copy.

    Each shock multiplies the path from its step onwards by a ramp from 1 to
    ``magnitude`` over ``duration`` steps; an optional recovery ramp then
    multiplies back towards 1 by the configured fraction.
    """
    adjusted = path.copy()
    n_steps = len(adjusted)
    for shock in shocks:
        if shock.step >= n_steps:
            continue
        factor = np.ones(n_steps)
        ramp_end = min(shock.step + max(shock.duration, 1), n_steps)
        ramp = np.linspace(1.0, shock.magnitude, ramp_end - shock.step, endpoint=True)
        factor[shock.step : ramp_end] = ramp
        factor[ramp_end:] = shock.magnitude
        if shock.recovery > 0 and shock.recovery_steps > 0:
            target = shock.magnitude + (1.0 - shock.magnitude) * shock.recovery
            rec_end = min(ramp_end + shock.recovery_steps, n_steps)
            recovery_ramp = np.linspace(shock.magnitude, target, max(rec_end - ramp_end, 1), endpoint=True)
            factor[ramp_end:rec_end] = recovery_ramp
            factor[rec_end:] = target
        adjusted *= factor
    return adjusted


def build_series(
    configs: dict[str, AssetPathConfig],
    n_steps: int,
    seed: int,
    steps_per_year: int = DEFAULT_STEPS_PER_YEAR,
) -> dict[str, np.ndarray]:
    """Generate a dictionary of price paths, one independent stream per asset.

    Each asset draws from its own ``numpy`` generator spawned from ``seed``
    so that adding or removing assets never perturbs the others — a property
    the regression tests rely on.
    """
    root = np.random.SeedSequence(seed)
    children = root.spawn(len(configs))
    series: dict[str, np.ndarray] = {}
    for (symbol, config), child in zip(sorted(configs.items()), children):
        rng = np.random.default_rng(child)
        if config.is_stablecoin:
            series[symbol] = stablecoin_path(config, n_steps, rng)
        else:
            series[symbol] = gbm_path(config, n_steps, rng, steps_per_year=steps_per_year)
    return series
