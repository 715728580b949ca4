"""Scenario simulation: the engine and the scenario configuration.

Worlds are built with the composable :mod:`repro.scenarios` package
(:class:`~repro.scenarios.ScenarioBuilder` and the scenario registry).
"""

from .config import (
    FEBRUARY_2021_CRASH_BLOCK,
    IncidentConfig,
    MARCH_2020_CRASH_BLOCK,
    MAKERDAO_RECONFIG_BLOCK,
    NOVEMBER_2020_ORACLE_BLOCK,
    PopulationConfig,
    STUDY_END_BLOCK,
    STUDY_START_BLOCK,
    ScenarioConfig,
)
from .engine import LiquidationOpportunity, ScheduledEvent, SimulationEngine, SimulationResult
from .market import MarketError, MarketMaker

__all__ = [
    "FEBRUARY_2021_CRASH_BLOCK",
    "IncidentConfig",
    "LiquidationOpportunity",
    "MARCH_2020_CRASH_BLOCK",
    "MAKERDAO_RECONFIG_BLOCK",
    "MarketError",
    "MarketMaker",
    "NOVEMBER_2020_ORACLE_BLOCK",
    "PopulationConfig",
    "STUDY_END_BLOCK",
    "STUDY_START_BLOCK",
    "ScenarioConfig",
    "ScheduledEvent",
    "SimulationEngine",
    "SimulationResult",
]

