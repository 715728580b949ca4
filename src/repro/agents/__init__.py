"""Simulation agents: borrowers, lenders, liquidation bots, keepers, arbitrageurs."""

from .arbitrageur import ArbitrageurAgent
from .base import Agent, spawn_rng, spawn_rngs
from .borrower import BorrowerAgent, BorrowerCohort, BorrowerProfile
from .keeper import AuctionKeeperAgent, KeeperProfile
from .lender import LenderAgent
from .liquidator import LiquidatorAgent, LiquidatorProfile

__all__ = [
    "Agent",
    "ArbitrageurAgent",
    "AuctionKeeperAgent",
    "BorrowerAgent",
    "BorrowerCohort",
    "BorrowerProfile",
    "KeeperProfile",
    "LenderAgent",
    "LiquidatorAgent",
    "LiquidatorProfile",
    "spawn_rng",
    "spawn_rngs",
]
