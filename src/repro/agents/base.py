"""Agent framework for the scenario simulation.

Agents are the behavioural counterparts of the paper's measured populations:
borrowers and lenders interacting with the pools, liquidation bots competing
on gas, and MakerDAO auction keepers.  Each agent owns an address (minted by
the world's chain when the agent joins the engine), a private random stream
(spawned from the scenario seed so runs are reproducible), and an
:meth:`Agent.act` hook called once per simulation step with the engine as
context.
"""

from __future__ import annotations

import abc
from itertools import count
from typing import TYPE_CHECKING, Iterator

import numpy as np

from ..chain.types import Address

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simulation.engine import SimulationEngine


class Agent(abc.ABC):
    """Base class of every simulated actor.

    :attr:`address` is set by
    :meth:`~repro.simulation.engine.SimulationEngine.add_agent`, from the
    world's chain: an agent has no address before it joins a world.
    """

    address: Address

    def __init__(self, label: str, rng: np.random.Generator) -> None:
        self.label = label
        self.rng = rng

    @abc.abstractmethod
    def act(self, engine: "SimulationEngine") -> None:
        """Perform this step's actions against the engine."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.label}>"


def spawn_rng(seed: int, index: int) -> np.random.Generator:
    """The ``index``-th independent generator derived from ``seed``.

    Equal to ``default_rng(SeedSequence(seed).spawn(index + 1)[index])``:
    a spawned child is the root's entropy with ``spawn_key=(index,)``.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def spawn_rngs(seed: int) -> Iterator[np.random.Generator]:
    """Independent generators derived from ``seed``, built on demand.

    Yields the same streams, in the same order, as
    ``SeedSequence(seed).spawn(n)`` for any ``n`` — without building the
    children a caller never draws.
    """
    return (spawn_rng(seed, index) for index in count())
