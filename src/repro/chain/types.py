"""Fundamental chain-level types and unit helpers.

The simulator mirrors the vocabulary of an Ethereum-like chain so that the
analytics pipeline (the paper's "custom client", cf. Figure 3) can be written
against the same abstractions a real archive node exposes: addresses,
transaction hashes, gas quantities and block numbers.

Identity is world-owned: each :class:`~repro.chain.chain.Blockchain` mints
its world's addresses and transaction-hash ids from its own sequences,
through the pure :func:`address_of` and :func:`tx_hash_of`, so two worlds
built in one process never affect each other's identifiers.

All monetary *token* amounts in the simulator are plain ``float`` token units
(e.g. 1.5 ETH, 4_200.0 USDC).  USD valuations are always derived through an
oracle at a specific block, never stored on the objects themselves, matching
the paper's methodology of normalising values "according to the prices given
by the platforms' on-chain price oracles at the block when the liquidation is
settled" (Section 4.2).
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass

#: Number of wei in one gwei.  Gas prices throughout the simulator are
#: expressed in gwei, as in Figure 6 of the paper.
GWEI = 10**9

#: Number of wei in one ether.
ETHER = 10**18

#: Default block gas limit (≈ the Ethereum mainnet limit during the study
#: window).  The mempool uses this to decide how many transactions fit into a
#: block, which is what creates congestion during market crashes.
DEFAULT_BLOCK_GAS_LIMIT = 12_500_000

#: Average gas consumed by a fixed spread liquidation call.  Calibrated to the
#: typical ``liquidationCall`` / ``liquidateBorrow`` cost on mainnet.
LIQUIDATION_GAS = 450_000

#: Average gas consumed by a MakerDAO auction interaction (bite/tend/dent/deal).
AUCTION_BID_GAS = 150_000

#: Average gas consumed by a plain ERC-20 style transfer.
TRANSFER_GAS = 21_000

#: Ethereum's average inter-block time in seconds; used to convert block
#: spans into wall-clock durations (Figure 7 reports auction durations in
#: hours).
SECONDS_PER_BLOCK = 13

#: Number of blocks per day under :data:`SECONDS_PER_BLOCK`.
BLOCKS_PER_DAY = 86_400 // SECONDS_PER_BLOCK  # 6646

#: Number of blocks in the paper's 6-hour post-liquidation observation window
#: (Appendix A).
POST_LIQUIDATION_WINDOW = 1_440


#: Ids behind :func:`make_address`, for addresses made outside any world.
_loose_address_ids = itertools.count(1)


@dataclass(frozen=True, order=True)
class Address:
    """A 160-bit style account identifier.

    The simulator does not need real keccak addresses; it only needs stable,
    hashable, printable identifiers that are unique per actor or contract.
    ``label`` carries a human-readable hint (``"liquidator-17"``,
    ``"compound"``) used in reports, while ``value`` is the canonical hex
    string used for equality.
    """

    value: str
    label: str = ""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.label or self.value

    def short(self) -> str:
        """Return the abbreviated ``0xabcd…1234`` form used in tables."""
        return f"{self.value[:6]}…{self.value[-4:]}"


def address_of(n: int, label: str = "") -> Address:
    """The ``n``-th address of an id sequence, a pure function of its arguments.

    A world's chain mints its addresses through this function
    (:meth:`~repro.chain.chain.Blockchain.new_address`), so a world's
    addresses depend on that world alone.
    """
    seed = f"address:{n}:{label}"
    digest = hashlib.sha256(seed.encode()).hexdigest()[:40]
    return Address(value="0x" + digest, label=label)


def make_address(label: str = "") -> Address:
    """A fresh address for code outside any world (unit tests, examples).

    It draws from a process-wide sequence, so its value depends on how many
    were made before; everything inside a world takes its address from the
    world's chain instead.
    """
    return address_of(next(_loose_address_ids), label)


def tx_hash_of(hash_id: int, payload: str = "") -> str:
    """The transaction-hash-like identifier of a reserved ``hash_id``.

    A pure function of its arguments: a hash computed long after its id was
    reserved is the same string.
    """
    seed = f"tx:{hash_id}:{payload}"
    return "0x" + hashlib.sha256(seed.encode()).hexdigest()


def blocks_to_hours(n_blocks: int | float) -> float:
    """Convert a span of blocks into hours (used for auction durations)."""
    return n_blocks * SECONDS_PER_BLOCK / 3600.0


def hours_to_blocks(hours: float) -> int:
    """Convert hours into a whole number of blocks (rounding down)."""
    return int(hours * 3600 / SECONDS_PER_BLOCK)


def gwei(amount: float) -> int:
    """Express ``amount`` gwei in wei."""
    return int(amount * GWEI)


def from_gwei(wei_amount: float) -> float:
    """Express a wei quantity in gwei."""
    return wei_amount / GWEI
