"""Blockchain substrate: blocks, transactions, gas market, mempool, events.

This package replaces the paper's Ethereum archive node + custom geth client
(Section 4.1) with a deterministic in-process simulator exposing the same
measurement surface: filtered event logs and historical state snapshots.
"""

from .block import Block
from .chain import Blockchain, ChainConfig
from .events import EventFilter, EventLog, EventStore
from .gas import GasMarket, GasMarketConfig, moving_average
from .mempool import Mempool
from .transaction import (
    Receipt,
    Transaction,
    TransactionReverted,
    TxKind,
    TxStatus,
)
from .types import (
    Address,
    BLOCKS_PER_DAY,
    DEFAULT_BLOCK_GAS_LIMIT,
    GWEI,
    LIQUIDATION_GAS,
    AUCTION_BID_GAS,
    POST_LIQUIDATION_WINDOW,
    SECONDS_PER_BLOCK,
    blocks_to_hours,
    from_gwei,
    gwei,
    hours_to_blocks,
    address_of,
    make_address,
    tx_hash_of,
)

__all__ = [
    "Address",
    "AUCTION_BID_GAS",
    "BLOCKS_PER_DAY",
    "Block",
    "Blockchain",
    "ChainConfig",
    "DEFAULT_BLOCK_GAS_LIMIT",
    "EventFilter",
    "EventLog",
    "EventStore",
    "GWEI",
    "GasMarket",
    "GasMarketConfig",
    "LIQUIDATION_GAS",
    "Mempool",
    "POST_LIQUIDATION_WINDOW",
    "Receipt",
    "SECONDS_PER_BLOCK",
    "Transaction",
    "TransactionReverted",
    "TxKind",
    "TxStatus",
    "blocks_to_hours",
    "from_gwei",
    "gwei",
    "hours_to_blocks",
    "address_of",
    "make_address",
    "moving_average",
    "tx_hash_of",
]
