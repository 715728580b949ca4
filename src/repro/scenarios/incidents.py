"""First-class scenario incidents.

The paper's results hinge on a handful of historical *incidents* — the
13 March 2020 crash, the November 2020 Compound oracle irregularity, the
February 2021 drawdown, MakerDAO's auction re-parameterisation.  Instead of
hardcoding these as closures inside the scenario builder, each incident is a
small declarative object that knows how to

* contribute :class:`~repro.oracle.paths.Shock` s to the synthetic price feed
  (:meth:`Incident.price_shocks`), and
* register one-shot events on the engine (:meth:`Incident.schedule`).

Scenario definitions then declare incident *lists as data*, and the
:class:`~repro.scenarios.builder.ScenarioBuilder` threads them through feed
generation and event scheduling.  :func:`default_incidents` reproduces the
paper's calibrated incident set from a :class:`ScenarioConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.auction import AuctionConfig
from ..oracle.paths import Shock
from ..simulation.config import ScenarioConfig
from ..simulation.engine import SimulationEngine


@dataclass(frozen=True)
class FeedGrid:
    """The step grid on which the price feed is generated."""

    start_block: int
    blocks_per_step: int
    n_steps: int

    def step_for_block(self, block: int) -> int:
        """Map a block height onto the feed's step grid."""
        return max((block - self.start_block) // self.blocks_per_step, 0)


def pre_incident_auction_config(blocks_per_step: int) -> AuctionConfig:
    """MakerDAO's pre-March-2020 auction parameters, scaled to the stride.

    The paper-era values (6-hour auction length, ≈ 10-minute bid duration)
    are kept whenever the stride can resolve them; coarser strides stretch
    them so that auctions still span multiple simulation steps.
    """
    return AuctionConfig(
        auction_length_blocks=max(1_660, 3 * blocks_per_step),
        bid_duration_blocks=max(140, int(0.9 * blocks_per_step)),
    )


def post_incident_auction_config(blocks_per_step: int) -> AuctionConfig:
    """MakerDAO's post-March-2020 auction parameters (longer bid duration)."""
    return AuctionConfig(
        auction_length_blocks=max(1_660, 5 * blocks_per_step),
        bid_duration_blocks=max(1_660, 2 * blocks_per_step),
    )


class Incident:
    """Base class for declarative scenario incidents.

    An incident may shape the *market* (via :meth:`price_shocks`, consumed
    while the price feed is generated) and/or the *world* (via
    :meth:`schedule`, which registers one-shot engine events).  Both hooks
    default to no-ops so concrete incidents override only what they need.
    """

    name: str = "incident"

    def price_shocks(self, grid: FeedGrid) -> dict[str | None, Shock]:
        """Shocks this incident contributes to the feed.

        Keys are asset symbols; the special key ``None`` targets every
        non-stablecoin asset in the scenario's universe.
        """
        return {}

    def schedule(self, engine: SimulationEngine) -> None:
        """Register this incident's one-shot events on ``engine``."""


@dataclass(frozen=True)
class PriceCrash(Incident):
    """A market-wide (or per-asset) price crash, optionally with congestion.

    ``drop`` is the fractional drop (0.43 ⇒ −43 %); a negative drop models a
    spike (−0.1 ⇒ +10 %), which is how stablecoin premia are expressed.  When
    ``symbols`` is ``None`` the shock hits every non-stablecoin asset,
    mirroring the correlated drawdowns of March 2020 / February 2021.  A
    non-zero ``congestion_blocks`` additionally schedules a congestion
    episode starting at the crash block — the paper's crashes always came
    with congested blocks that crowded out keeper bids.
    """

    name: str = "price-crash"
    block: int = 0
    drop: float = 0.3
    duration_steps: int = 1
    recovery: float = 0.0
    recovery_steps: int | None = None
    recovery_divisor: int = 25
    congestion_blocks: int = 0
    symbols: tuple[str, ...] | None = None

    def price_shocks(self, grid: FeedGrid) -> dict[str | None, Shock]:
        step = grid.step_for_block(self.block)
        if step >= grid.n_steps:
            return {}
        recovery_steps = self.recovery_steps
        if recovery_steps is None:
            recovery_steps = max(grid.n_steps // self.recovery_divisor, 5)
        shock = Shock(
            step=step,
            magnitude=1.0 - self.drop,
            duration=self.duration_steps,
            recovery=self.recovery,
            recovery_steps=recovery_steps,
        )
        targets: tuple[str | None, ...] = self.symbols if self.symbols is not None else (None,)
        return {target: shock for target in targets}

    def schedule(self, engine: SimulationEngine) -> None:
        if self.congestion_blocks <= 0:
            return
        CongestionEpisode(
            name=self.name, block=self.block, congestion_blocks=self.congestion_blocks
        ).schedule(engine)


@dataclass(frozen=True)
class CongestionEpisode(Incident):
    """A standalone network-congestion episode (no price move)."""

    name: str = "congestion"
    block: int = 0
    congestion_blocks: int = 7_000

    def schedule(self, engine: SimulationEngine) -> None:
        congestion_blocks = self.congestion_blocks

        def action(eng: SimulationEngine) -> None:
            steps = max(congestion_blocks // eng.config.blocks_per_step, 1)
            eng.chain.gas_market.trigger_congestion(steps)

        engine.schedule(self.block, self.name, action)


@dataclass(frozen=True)
class OracleOverride(Incident):
    """A stuck or manipulated oracle reporting a wrong price for a while.

    ``oracle`` names the entry in the engine's ``protocol_oracles`` map
    (``"Compound"`` for the November 2020 incident, ``"chainlink"`` for an
    attack on the shared oracle).  With ``relative=True`` the override is a
    multiplier on the market price at the moment the incident fires, which is
    how attacks on volatile assets are expressed; otherwise ``price`` is an
    absolute USD value.
    """

    name: str = "oracle-override"
    block: int = 0
    symbol: str = "DAI"
    price: float = 1.3
    duration_blocks: int = 7_000
    oracle: str = "Compound"
    relative: bool = False
    recovery_name: str | None = None

    def schedule(self, engine: SimulationEngine) -> None:
        def apply(eng: SimulationEngine) -> None:
            oracle = eng.protocol_oracles.get(self.oracle)
            if oracle is None:
                return
            posted = self.price
            if self.relative:
                posted = eng.feed.price(self.symbol, eng.chain.current_block) * self.price
            oracle.set_override(self.symbol, posted)

        def clear(eng: SimulationEngine) -> None:
            oracle = eng.protocol_oracles.get(self.oracle)
            if oracle is not None:
                oracle.clear_override(self.symbol)

        engine.schedule(self.block, self.name, apply)
        if self.duration_blocks > 0:
            recovery_name = self.recovery_name or f"{self.name}-recovery"
            engine.schedule(self.block + self.duration_blocks, recovery_name, clear)


@dataclass(frozen=True)
class AuctionReconfig(Incident):
    """A MakerDAO governance change of the auction parameters.

    Without explicit block values the stride-scaled post-March-2020
    parameters (longer bid duration) are applied, reproducing the step in
    Figure 7's configured lines.
    """

    name: str = "makerdao-auction-reconfiguration"
    block: int = 0
    auction_length_blocks: int | None = None
    bid_duration_blocks: int | None = None

    def schedule(self, engine: SimulationEngine) -> None:
        def action(eng: SimulationEngine) -> None:
            makerdao = eng.makerdao
            if makerdao is None:
                return
            base = post_incident_auction_config(eng.config.blocks_per_step)
            auction_length = (
                base.auction_length_blocks if self.auction_length_blocks is None else self.auction_length_blocks
            )
            bid_duration = (
                base.bid_duration_blocks if self.bid_duration_blocks is None else self.bid_duration_blocks
            )
            makerdao.reconfigure_auctions(
                AuctionConfig(auction_length_blocks=auction_length, bid_duration_blocks=bid_duration)
            )

        engine.schedule(self.block, self.name, action)


def default_incidents(config: ScenarioConfig) -> tuple[Incident, ...]:
    """The paper's calibrated incident set, derived from ``config.incidents``.

    The March 2020 crash-plus-congestion, the February 2021 drawdown, the
    November 2020 Compound DAI oracle irregularity, and MakerDAO's subsequent
    auction reconfiguration.
    """
    incidents = config.incidents
    return (
        PriceCrash(
            name="march-2020-crash",
            block=incidents.march_2020_block,
            drop=incidents.march_2020_eth_drop,
            duration_steps=1,
            recovery=0.65,
            recovery_divisor=25,
            congestion_blocks=incidents.march_2020_congestion_blocks,
        ),
        PriceCrash(
            name="february-2021-crash",
            block=incidents.february_2021_block,
            drop=incidents.february_2021_drop,
            duration_steps=2,
            recovery=0.5,
            recovery_divisor=40,
            congestion_blocks=incidents.february_2021_congestion_blocks,
        ),
        OracleOverride(
            name="compound-dai-oracle-irregularity",
            recovery_name="compound-dai-oracle-recovery",
            block=incidents.november_2020_block,
            symbol="DAI",
            price=incidents.november_2020_dai_price,
            duration_blocks=incidents.november_2020_duration_blocks,
            oracle="Compound",
        ),
        AuctionReconfig(
            name="makerdao-auction-reconfiguration",
            block=incidents.makerdao_reconfig_block,
        ),
    )
