"""The simulated blockchain: block production, execution and the archive.

This is the substrate standing in for the paper's Ethereum full archive node
(Section 4.1).  It provides

* block production with gas-price-ordered inclusion from a mempool,
* execution of transaction actions with revert semantics,
* an append-only :class:`~repro.chain.events.EventStore` of EVM-style logs,
* an *archive*: named state snapshots keyed by block number so analytics can
  read "the borrowing position debt amount at a specific block" exactly as
  the paper does.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from .. import sanitize
from ..telemetry.runtime import span
from .block import Block
from .events import EventFilter, EventLog, EventStore
from .gas import GasMarket
from .mempool import Mempool
from .transaction import Receipt, Transaction, TransactionReverted, TxKind, TxStatus
from .types import Address, DEFAULT_BLOCK_GAS_LIMIT, SECONDS_PER_BLOCK, address_of


@dataclass
class ChainConfig:
    """Static parameters of the simulated chain.

    ``blocks_per_step`` lets the simulator advance the chain in strides: one
    call to :meth:`Blockchain.mine_block` then represents ``blocks_per_step``
    real blocks (the block number and timestamp jump accordingly and the gas
    budget available to the mempool scales with the stride).  Two years of
    Ethereum history is ≈ 4.7 M blocks — far finer resolution than the
    paper's monthly/percent-level results need — so scenario runs use strides
    of a few hundred blocks while unit tests keep the default of 1.
    """

    inception_block: int = 8_000_000
    inception_timestamp: int = 1_561_000_000  # ≈ 2019-06-20, matching Figure 4's x-axis
    block_gas_limit: int = DEFAULT_BLOCK_GAS_LIMIT
    seconds_per_block: int = SECONDS_PER_BLOCK
    snapshot_interval: int = 0  # 0 disables periodic snapshots
    blocks_per_step: int = 1


class Blockchain:
    """A minimal, deterministic Ethereum-like chain.

    The chain owns the mempool, the gas market, the event store and the
    archive of state snapshots.  Protocol contracts hold a reference to the
    chain so they can emit events and read the current block number.

    It also owns its world's identity: the address and transaction-hash id
    sequences, both starting at 1.  Every address in a world comes from
    :meth:`new_address`, and every transaction the chain builds (and every
    background-fill entry) takes the next hash id, so a world's addresses
    and hashes depend on that world alone.
    """

    def __init__(self, config: ChainConfig | None = None, gas_market: GasMarket | None = None) -> None:
        self.config = config or ChainConfig()
        self.gas_market = gas_market or GasMarket()
        self.mempool = Mempool()
        self.events = EventStore()
        self.blocks: list[Block] = []
        #: Every receipt by transaction hash; background fill has none.
        self.receipts_by_hash: dict[str, Receipt] = {}
        self._snapshots: dict[int, dict[str, Any]] = {}
        self._snapshot_providers: dict[str, Callable[[], Any]] = {}
        self._current_block = self.config.inception_block
        self._current_timestamp = self.config.inception_timestamp
        self._log_index = 0
        self._executing_block: int | None = None
        self._block_receipts: list[Receipt] | None = None
        self._next_address_id = 1
        self._next_hash_id = 1

    # ------------------------------------------------------------------ #
    # Identity
    # ------------------------------------------------------------------ #
    def new_address(self, label: str = "") -> Address:
        """Mint the next address of this chain's sequence."""
        n = self._next_address_id
        self._next_address_id = n + 1
        return address_of(n, label)

    def reserve_hash_ids(self, n: int = 1) -> int:
        """Reserve the next ``n`` transaction-hash ids; return the first."""
        first = self._next_hash_id
        self._next_hash_id = first + n
        return first

    # ------------------------------------------------------------------ #
    # Chain head information
    # ------------------------------------------------------------------ #
    @property
    def current_block(self) -> int:
        """The next block number to be mined (i.e. the pending block)."""
        return self._current_block

    @property
    def latest_block(self) -> Block | None:
        """The most recently mined block, if any."""
        return self.blocks[-1] if self.blocks else None

    @property
    def current_timestamp(self) -> int:
        """Timestamp that the next mined block will carry."""
        return self._current_timestamp

    def timestamp_of_block(self, block_number: int) -> int:
        """Timestamp of an arbitrary block number (mined or future)."""
        delta = block_number - self.config.inception_block
        return self.config.inception_timestamp + delta * self.config.seconds_per_block

    # ------------------------------------------------------------------ #
    # Transaction submission and block production
    # ------------------------------------------------------------------ #
    def submit(self, transaction: Transaction) -> str:
        """Place a transaction into the mempool and return its hash."""
        self.mempool.submit(transaction, self._current_block)
        return transaction.tx_hash

    def submit_call(
        self,
        sender: Address,
        action: Callable[[], Any],
        gas_price: int,
        gas_limit: int,
        kind: TxKind = TxKind.OTHER,
        metadata: dict[str, Any] | None = None,
    ) -> Transaction:
        """Convenience wrapper building and submitting a :class:`Transaction`."""
        tx = Transaction(
            sender=sender,
            gas_price=gas_price,
            gas_limit=gas_limit,
            hash_id=self.reserve_hash_ids(),
            action=action,
            kind=kind,
            metadata=metadata or {},
        )
        self.mempool.submit(tx, self._current_block)
        return tx

    def submit_fill(self, gas_prices: list[int], gas_limit: int) -> None:
        """Submit one batch of background fill: ordinary traffic that competes
        for block space at ``gas_prices`` with ``gas_limit`` each.

        Fill is packed, evicted and expired like any transaction, but the
        only trace it leaves is its gas price in
        :attr:`~repro.chain.block.Block.fill_gas_prices`, so it is never
        built as a :class:`Transaction`.  Each entry still takes one id
        from this chain's hash sequence, as a transaction would, so later
        transaction hashes do not depend on how the fill is represented.
        """
        self.reserve_hash_ids(len(gas_prices))
        self.mempool.submit_fill(gas_prices, gas_limit, self._current_block)

    def mine_block(self) -> Block:
        """Mine one block (or block stride): execute pending transactions.

        With ``blocks_per_step > 1`` the produced :class:`Block` stands for a
        whole stride of real blocks: its gas capacity is scaled by the stride
        and the chain head jumps by the stride afterwards.
        """
        stride = max(self.config.blocks_per_step, 1)
        base_price = self.gas_market.base_gas_price_wei
        gas_budget = self.config.block_gas_limit * stride
        # ``chain.pack`` covers the mempool work (expiry sweep + heap pops),
        # ``chain.execute`` the transaction actions — the two halves of the
        # per-stride mining cost a trace needs to tell apart.
        with span("chain.pack"):
            selected = self.mempool.select_for_block(
                gas_budget,
                self._current_block,
                min_gas_price=self.gas_market.min_inclusion_gas_price_wei,
            )
        receipts: list[Receipt] = []
        self._executing_block = self._current_block
        self._block_receipts = receipts
        with span("chain.execute"):
            for tx in selected:
                receipts.append(self._execute(tx))
        self._executing_block = None
        self._block_receipts = None
        block = Block(
            number=self._current_block,
            timestamp=self._current_timestamp,
            receipts=receipts,
            gas_limit=gas_budget,
            base_gas_price=base_price,
            fill_gas_prices=array("q", selected.fill_gas_prices),
        )
        # Direct executions may have attached receipts mid-block without
        # going through packing; charge the block's gas accounting only for
        # what the mempool selection actually consumed of the budget.
        block.gas_used = selected.gas_used
        self.blocks.append(block)
        if self.config.snapshot_interval and (
            (block.number - self.config.inception_block) % self.config.snapshot_interval < stride
        ):
            self.take_snapshot(block.number)
        self._current_block += stride
        self._current_timestamp += self.config.seconds_per_block * stride
        # EVM log indices are per block: the head advanced, so the next
        # block's logs start counting from zero again.
        self._log_index = 0
        self.gas_market.step()
        if sanitize.enabled():
            # Packing is the only code that pops the mempool's lazy views;
            # auditing the bookkeeping once per mined stride bounds any
            # desynchronisation to the block that introduced it.
            self.mempool.check_invariants()
        return block

    def _execute(self, tx: Transaction) -> Receipt:
        """Execute a single transaction with revert semantics."""
        status = TxStatus.SUCCESS
        result: Any = None
        error: str | None = None
        if tx.action is not None:
            try:
                result = tx.action()
            except TransactionReverted as exc:
                status = TxStatus.REVERTED
                error = str(exc)
        tx.status = status
        receipt = Receipt(
            tx_hash=tx.tx_hash,
            sender=tx.sender,
            block_number=self._current_block,
            status=status,
            gas_used=tx.gas_limit,
            gas_price=tx.gas_price,
            kind=tx.kind,
            result=result,
            error=error,
            metadata=dict(tx.metadata),
        )
        self.receipts_by_hash[tx.tx_hash] = receipt
        return receipt

    def execute_directly(
        self,
        sender: Address,
        action: Callable[[], Any],
        gas_price: int | None = None,
        gas_limit: int = 450_000,
        kind: TxKind = TxKind.OTHER,
        metadata: dict[str, Any] | None = None,
    ) -> Receipt:
        """Execute an action immediately inside the *pending* block.

        Used for setup actions (deposits, borrows when constructing a
        scenario snapshot) and for the case-study replay where the paper
        forks the chain and applies the strategy at an exact block.  The
        receipt is appended to the next mined block's receipt list only if a
        block is currently being produced (it does not count against the
        block's gas budget, having bypassed packing); otherwise it is
        recorded standalone.
        """
        tx = Transaction(
            sender=sender,
            gas_price=self.gas_market.base_gas_price_wei if gas_price is None else gas_price,
            gas_limit=gas_limit,
            hash_id=self.reserve_hash_ids(),
            action=action,
            kind=kind,
            metadata=metadata or {},
        )
        receipt = self._execute(tx)
        if self._block_receipts is not None:
            self._block_receipts.append(receipt)
        return receipt

    # ------------------------------------------------------------------ #
    # Events
    # ------------------------------------------------------------------ #
    def emit_event(self, name: str, emitter: Address, data: dict[str, Any], tx_hash: str = "") -> None:
        """Record an EVM-style log emitted by a contract at the current block.

        ``data`` is archived as the log's payload as it is, not copied: the
        caller hands it over (every caller passes a fresh literal) and must
        not mutate it afterwards.
        """
        block_number = self._executing_block if self._executing_block is not None else self._current_block
        self.events.append(name, emitter, block_number, tx_hash, self._log_index, data)
        self._log_index += 1

    def emit_events(
        self, name: str, emitter: Address, columns: Mapping[str, Sequence[Any]], tx_hash: str = ""
    ) -> None:
        """Record one ``name`` log per row of ``columns``, in order, at the
        current block.

        ``columns`` maps each payload key to its values, one per log (for
        example an oracle's posts: ``{"symbol": (...), "price":
        array("d", ...), "oracle": (...)}``).  The logs are exactly those
        of one :meth:`emit_event` call per row, with the row's keys in
        ``columns`` order — consecutive log indices included — but the
        batch is archived as one row holding its columns, which the caller
        hands over, not as one dict per log
        (:class:`~repro.chain.events.PayloadRun`).
        """
        block_number = self._executing_block if self._executing_block is not None else self._current_block
        self._log_index += self.events.extend(name, emitter, block_number, tx_hash, self._log_index, columns)

    def get_logs(self, event_filter: EventFilter) -> list[EventLog]:
        """Archive-node style filtered log query."""
        return self.events.filter(event_filter)

    # ------------------------------------------------------------------ #
    # Archive snapshots ("historical state query")
    # ------------------------------------------------------------------ #
    def register_snapshot_provider(self, name: str, provider: Callable[[], Any]) -> None:
        """Register a callable whose return value is captured in snapshots.

        Protocols register a provider returning a deep-copyable summary of
        their positions; the archive then supports the paper's historical
        state queries ("the borrowing position debt amount at a specific
        block").
        """
        self._snapshot_providers[name] = provider

    def take_snapshot(self, block_number: int | None = None) -> dict[str, Any]:
        """Capture the registered providers' state, keyed by block number."""
        number = self._current_block if block_number is None else block_number
        with span("chain.snapshot"):
            snapshot = {name: provider() for name, provider in self._snapshot_providers.items()}
        self._snapshots[number] = snapshot
        return snapshot

    def snapshot_at(self, block_number: int) -> dict[str, Any]:
        """Return the snapshot taken at exactly ``block_number``.

        Raises ``KeyError`` if no snapshot exists at that block, like an
        archive query against a pruned node would fail.
        """
        return self._snapshots[block_number]

    def nearest_snapshot(self, block_number: int) -> tuple[int, dict[str, Any]]:
        """Return the most recent snapshot at or before ``block_number``."""
        candidates = [number for number in self._snapshots if number <= block_number]
        if not candidates:
            raise KeyError(f"no snapshot at or before block {block_number}")
        best = max(candidates)
        return best, self._snapshots[best]

    @property
    def snapshot_blocks(self) -> list[int]:
        """Sorted list of block numbers with stored snapshots."""
        return sorted(self._snapshots)
