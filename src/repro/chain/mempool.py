"""Mempool with gas-price priority ordering and bounded block capacity.

Section 2.1 of the paper: "a financially rational miner may include the
transactions with the highest gas prices from the mempool into the next
block.  The blockchain network congests when the mempool grows faster than
the transaction inclusion speed."  The March 2020 MakerDAO incident — keeper
bots unable to land bids — is a direct consequence of this mechanism, so the
simulator reproduces it: transactions wait in the mempool, blocks pack the
highest bidders first, and anything that does not fit waits (or expires).

The pool holds two kinds of pending bids in one population: transactions,
and background fill (:meth:`Mempool.submit_fill`) — ordinary traffic that
competes for block space like any transaction but whose only trace is its
gas price, so it is kept as a price, a gas limit and a submission block
with no :class:`~repro.chain.transaction.Transaction` behind it.  Both
kinds share one sequence of submission numbers, so packing, eviction and
expiry treat them exactly alike.

Internally the pool keeps three views over shared entries:

* a max-heap of ``(-gas_price, seq, entry)`` (FIFO on ties) that block
  packing pops from;
* a min-heap by gas price (LIFO on ties) so the bounded-capacity eviction
  finds its victim in O(log n) instead of a linear ``max`` + ``remove`` +
  re-heapify sweep;
* a FIFO of submissions so expired entries are swept as soon as their
  window passes, instead of lingering below the congestion break-point.

Entries are shared between the views and removed lazily: consuming an entry
in one view marks it dead, the other views skip dead entries when they
surface and compact when the garbage outweighs the live set.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Iterable

from .. import sanitize
from ..telemetry import runtime as telemetry
from .transaction import Transaction, TxStatus


class _PoolEntry:
    """A pending bid shared by the pool's views: a transaction, or a slot of
    background fill when ``transaction`` is ``None``.  The heaps order it by
    the key tuples that carry it, so it never compares itself."""

    __slots__ = ("transaction", "gas_price", "gas_limit", "submitted_block", "alive")

    def __init__(self, transaction: Transaction | None, gas_price: int, gas_limit: int, submitted_block: int) -> None:
        self.transaction = transaction
        self.gas_price = gas_price
        self.gas_limit = gas_limit
        self.submitted_block = submitted_block
        self.alive = True


class BlockSelection(list[Transaction]):
    """What one block packs: the transactions, in inclusion order, plus the
    gas prices of the background fill packed among them (in inclusion
    order, a plain list while packing appends to it; the mined block keeps
    them as one typed array) and the gas every packed entry used."""

    __slots__ = ("fill_gas_prices", "gas_used")

    def __init__(self) -> None:
        super().__init__()
        self.fill_gas_prices: list[int] = []
        self.gas_used = 0


class Mempool:
    """A single global mempool.

    The real network has no universal mempool (footnote 2 of the paper), but
    for measurement purposes a single priority queue captures the relevant
    behaviour: inclusion is ordered by gas price and bounded by block gas.
    """

    def __init__(self, max_pending: int = 50_000, expiry_blocks: int = 5_000) -> None:
        #: Max-heap of ``(-gas_price, seq, entry)``: the top is the pool's
        #: highest bidder (oldest on ties), i.e. the next one packed.
        self._heap: list[tuple[int, int, _PoolEntry]] = []
        #: Min-heap of ``(gas_price, -seq, entry)``: the top is the pool's
        #: lowest bidder (newest on ties), i.e. the eviction victim.
        self._evict_heap: list[tuple[int, int, _PoolEntry]] = []
        #: Entries in submission order; submission blocks are monotone in a
        #: simulation run, so expired entries sit at the left end.
        self._fifo: deque[_PoolEntry] = deque()
        self._counter = itertools.count()
        self._size = 0
        self._max_pending = max_pending
        self._expiry_blocks = expiry_blocks

    def __len__(self) -> int:
        """Pending entries, background fill included."""
        return self._size

    @property
    def pending(self) -> list[Transaction]:
        """Snapshot of pending transactions (not in inclusion order; fill
        has no transaction and is left out)."""
        return [entry.transaction for _, _, entry in self._heap if entry.alive and entry.transaction is not None]

    def submit(self, transaction: Transaction, current_block: int) -> None:
        """Add a transaction to the pool.

        If the pool is full, the lowest-paying entry is dropped — which,
        during congestion, is typically a stale keeper bid.
        """
        transaction.submitted_block = current_block
        self._enter((_PoolEntry(transaction, transaction.gas_price, transaction.gas_limit, current_block),))

    def submit_fill(self, gas_prices: Iterable[int], gas_limit: int, current_block: int) -> None:
        """Add one batch of background fill, one entry per gas price.

        Each entry is exactly what submitting a transaction with that bid
        and ``gas_limit`` would have added, in the same order; the pool
        compacts once for the batch.
        """
        self._enter(_PoolEntry(None, gas_price, gas_limit, current_block) for gas_price in gas_prices)

    def _enter(self, entries: Iterable[_PoolEntry]) -> None:
        """Enter each entry in every view, in order, evicting the lowest bid
        whenever the pool overflows; then compact once."""
        heap = self._heap
        evict_heap = self._evict_heap
        fifo = self._fifo
        counter = self._counter
        for entry in entries:
            seq = next(counter)
            heapq.heappush(heap, (-entry.gas_price, seq, entry))
            heapq.heappush(evict_heap, (entry.gas_price, -seq, entry))
            fifo.append(entry)
            self._size += 1
            if self._size > self._max_pending:
                self._drop_lowest()
        self._compact_if_stale()

    def _drop_lowest(self) -> None:
        """Drop the live entry with the lowest gas price (newest on ties)."""
        while self._evict_heap:
            _, _, entry = heapq.heappop(self._evict_heap)
            if entry.alive:
                self._discard(entry)
                return

    def _discard(self, entry: _PoolEntry) -> None:
        """Mark an entry dead and its transaction (if any) dropped."""
        entry.alive = False
        if entry.transaction is not None:
            entry.transaction.status = TxStatus.DROPPED
        self._size -= 1

    def _compact_if_stale(self) -> None:
        """Rebuild the lazy views once dead entries outnumber live ones."""
        threshold = 2 * self._size + 64
        if len(self._evict_heap) > threshold:
            self._evict_heap = [item for item in self._evict_heap if item[2].alive]
            heapq.heapify(self._evict_heap)
        if len(self._heap) > threshold:
            self._heap = [item for item in self._heap if item[2].alive]
            heapq.heapify(self._heap)
        if len(self._fifo) > threshold:
            self._fifo = deque(entry for entry in self._fifo if entry.alive)

    def sweep_expired(self, current_block: int) -> int:
        """Drop every entry whose expiry window has passed.

        Without this, anything bidding below the congestion break-point is
        never popped by block packing and would survive its expiry window
        indefinitely, inflating the pool through long congestion episodes.
        Returns the number of entries dropped, background fill included.
        """
        swept = 0
        while self._fifo:
            entry = self._fifo[0]
            if not entry.alive:
                self._fifo.popleft()
                continue
            if current_block - entry.submitted_block > self._expiry_blocks:
                self._fifo.popleft()
                self._discard(entry)
                swept += 1
                continue
            break
        if swept:
            active = telemetry.active()
            if active is not None:
                active.counter(
                    "repro_mempool_swept_total",
                    "Expired transactions dropped by the mempool sweep",
                ).inc(swept)
        return swept

    def select_for_block(
        self,
        gas_limit: int,
        current_block: int,
        min_gas_price: int = 0,
    ) -> BlockSelection:
        """Pop the best-paying entries that fit into ``gas_limit``.

        Returns the packed transactions in inclusion order; the packed
        fill's gas prices and the gas of everything packed ride along on
        the returned :class:`BlockSelection`.

        ``min_gas_price`` models the market-clearing inclusion price during
        congestion: bids below it stay pending (they are what outside
        traffic crowds out of full blocks).  Entries older than the expiry
        window are dropped (a transaction's status is set to
        :attr:`TxStatus.DROPPED`), emulating senders replacing or abandoning
        stale transactions — including the ones sitting below the
        ``min_gas_price`` break-point that block packing never reaches.
        """
        self.sweep_expired(current_block)
        selected = BlockSelection()
        fill_gas_prices = selected.fill_gas_prices
        gas_budget = gas_limit
        expiry_blocks = self._expiry_blocks
        heap = self._heap
        skipped: list[tuple[int, int, _PoolEntry]] = []
        while heap and gas_budget > 0:
            item = heapq.heappop(heap)
            entry = item[2]
            if not entry.alive:
                continue
            if current_block - entry.submitted_block > expiry_blocks:
                self._discard(entry)
                continue
            if entry.gas_price < min_gas_price:
                # Everything further down the heap bids even less: stop here.
                skipped.append(item)
                break
            if entry.gas_limit <= gas_budget:
                # Consumed: the entry leaves the pool.
                entry.alive = False
                self._size -= 1
                gas_budget -= entry.gas_limit
                if entry.transaction is None:
                    fill_gas_prices.append(entry.gas_price)
                else:
                    selected.append(entry.transaction)
            else:
                skipped.append(item)
                # A block is effectively full once remaining space is small.
                if gas_budget < 25_000:
                    break
        for item in skipped:
            heapq.heappush(heap, item)
        selected.gas_used = gas_limit - gas_budget
        return selected

    def check_invariants(self) -> None:
        """Sanitizer: revalidate the twin-heap bookkeeping.

        The three lazy views share entries and delete lazily, so a missed
        lazy deletion (or a double one) desynchronises the live count from
        the views *silently* — packing and eviction keep working,
        just on the wrong population.  This check asserts that every view
        agrees with :attr:`_size`, that sort keys still match their entries'
        (and transactions') gas prices, and that both heaps retain the heap
        property.  Raises :class:`~repro.sanitize.SanitizerError`.
        """
        live_pack = [item for item in self._heap if item[2].alive]
        live_fifo = [entry for entry in self._fifo if entry.alive]
        live_evict = [item for item in self._evict_heap if item[2].alive]
        for view, count in (("pack heap", len(live_pack)), ("fifo", len(live_fifo)), ("evict heap", len(live_evict))):
            if count != self._size:
                raise sanitize.SanitizerError(
                    f"mempool {view} holds {count} live entries but _size says "
                    f"{self._size}: a lazy deletion was missed or double-counted"
                )
        if {id(item[2]) for item in live_pack} != {id(e) for e in live_fifo}:
            raise sanitize.SanitizerError(
                "mempool pack heap and fifo disagree on the live entry set"
            )
        for key, _, entry in live_pack:
            tx = entry.transaction
            bid = entry.gas_price if tx is None else tx.gas_price
            if key != -entry.gas_price or bid != entry.gas_price:
                raise sanitize.SanitizerError(
                    f"mempool pack-heap sort key {key} does not match gas price "
                    f"{bid} of {_describe(entry)}: the bid mutated after submit"
                )
        for price, _, entry in live_evict:
            if price != entry.gas_price:
                raise sanitize.SanitizerError(
                    f"mempool evict-heap key {price} does not match gas price "
                    f"{entry.gas_price} of {_describe(entry)}"
                )
        for name, heap in (("pack", self._heap), ("evict", self._evict_heap)):
            for index in range(1, len(heap)):
                parent = (index - 1) >> 1
                if heap[index] < heap[parent]:
                    raise sanitize.SanitizerError(
                        f"mempool {name} heap lost the heap property at index {index}"
                    )

    def clear(self) -> list[Transaction]:
        """Drop every pending entry and return the transactions among them
        (used by tests)."""
        dropped = self.pending
        for tx in dropped:
            tx.status = TxStatus.DROPPED
        self._heap.clear()
        self._evict_heap.clear()
        self._fifo.clear()
        self._size = 0
        return dropped


def _describe(entry: _PoolEntry) -> str:
    """How a sanitizer message names an entry."""
    if entry.transaction is None:
        return f"background fill submitted at block {entry.submitted_block}"
    return entry.transaction.tx_hash
