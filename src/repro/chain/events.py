"""EVM-style event logs and filtering.

The paper's measurement pipeline works by filtering *events* ("The Ethereum
events are essentially EVM logs … indexed by its signature … and the contract
address emitting this event", Section 4.1).  This module reproduces that
interface: protocol contracts emit :class:`EventLog` records into the chain,
and the analytics layer retrieves them through :class:`EventFilter` queries —
exactly the workflow of ``eth_getLogs`` against an archive node.
"""

from __future__ import annotations

import bisect
import itertools
from array import array
from dataclasses import dataclass, field
from typing import Any, Container, Iterable, Iterator, Mapping, Sequence

from .types import Address


@dataclass(frozen=True)
class EventLog:
    """A single emitted event.

    Attributes
    ----------
    name:
        The event signature name, e.g. ``"LiquidationCall"`` (Aave),
        ``"LiquidateBorrow"`` (Compound), ``"Bite"`` / ``"Tend"`` / ``"Dent"``
        / ``"Deal"`` (MakerDAO) or ``"FlashLoan"``.
    emitter:
        Address of the contract that emitted the event (the lending pool,
        auction contract or flash-loan pool).
    block_number:
        Block in which the emitting transaction was included.
    tx_hash:
        Hash of the emitting transaction.
    log_index:
        Position of the log within the block, preserving intra-block order.
    data:
        The decoded event payload as a plain dictionary.
    """

    name: str
    emitter: Address
    block_number: int
    tx_hash: str
    log_index: int
    data: dict[str, Any] = field(default_factory=dict)

    def get(self, key: str, default: Any = None) -> Any:
        """Convenience accessor mirroring ``dict.get`` on the payload."""
        return self.data.get(key, default)


@dataclass(frozen=True)
class EventFilter:
    """A declarative query over the chain's event logs.

    Mirrors the common archive-node filter parameters: a set of event names
    (signatures), a set of emitting addresses and a block range.  Any field
    left as ``None`` matches everything.
    """

    names: frozenset[str] | None = None
    emitters: frozenset[Address] | None = None
    from_block: int | None = None
    to_block: int | None = None

    @classmethod
    def create(
        cls,
        names: Iterable[str] | None = None,
        emitters: Iterable[Address] | None = None,
        from_block: int | None = None,
        to_block: int | None = None,
    ) -> "EventFilter":
        """Build a filter from plain iterables."""
        return cls(
            names=frozenset(names) if names is not None else None,
            emitters=frozenset(emitters) if emitters is not None else None,
            from_block=from_block,
            to_block=to_block,
        )

    def matches(self, event: EventLog) -> bool:
        """Return whether ``event`` satisfies every constraint of the filter."""
        return self.admits(event.name, event.emitter, event.block_number)

    def admits(self, name: str, emitter: Address, block_number: int) -> bool:
        """Whether a log with these fields satisfies every constraint."""
        if self.names is not None and name not in self.names:
            return False
        if self.emitters is not None and emitter not in self.emitters:
            return False
        if self.from_block is not None and block_number < self.from_block:
            return False
        if self.to_block is not None and block_number > self.to_block:
            return False
        return True


class PayloadRun:
    """The payloads of one :meth:`EventStore.extend` batch, kept as columns.

    ``keys`` are the batch's payload keys in posting order, a tuple the
    store shares between every batch with the same keys; ``columns`` holds
    one sequence per key with an entry per log of the batch (a list or a
    tuple, which batches may share, or a typed ``array`` for numbers).  A
    view builds its ``data`` dict on read: the keys in order, the values at
    the log's offset in the batch.
    """

    __slots__ = ("keys", "columns")

    def __init__(self, keys: tuple[str, ...], columns: tuple[Sequence[Any], ...]) -> None:
        self.keys = keys
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns[0])

    def row(self, index: int) -> dict[str, Any]:
        """The payload dict of the batch's ``index``-th log."""
        return dict(zip(self.keys, [column[index] for column in self.columns]))


class EventStore:
    """Append-only store of every event emitted on the simulated chain,
    one row per emitting call.

    Logs come in one at a time (:meth:`append`, whose payload dict is
    stored) or as a batch of one name from one emitter at consecutive log
    indices (:meth:`extend`: an oracle's posts of a step), whose payloads
    arrive as columns and are stored as one :class:`PayloadRun`.  Either
    call adds one row: its name, emitter, block, tx hash and first log
    index, its payload, and the store position of its first log (an
    ``array("q")``), each in its own column.  Per event name, the store
    keeps the rows holding it (an ``array("q")``) and its log count.  A
    finished ``paper-full`` world emits ~193k logs in ~23k rows: ~178k of
    the logs are oracle posts, which arrive in ~8k batches.

    Readers still receive :class:`EventLog` s: iteration, :meth:`by_name`,
    :meth:`filter` and :meth:`since` build them on read, in emission order
    (block number, then log index).  A position maps to its row by
    bisecting the row starts, and a read skips a whole row whose name,
    emitter or block it does not want.  A view's ``data`` is the stored
    dict of an appended log, and a fresh dict equal to what was posted for
    a log of a batch.
    """

    def __init__(self) -> None:
        #: Per row, the store position of its first log.
        self._starts: array[int] = array("q")
        self._names: list[str] = []
        self._emitters: list[Address] = []
        self._blocks: array[int] = array("q")
        self._tx_hashes: list[str] = []
        #: Per row, the log index of its first log.
        self._log_indices: array[int] = array("q")
        #: Per row, the appended payload dict or the batch's
        #: :class:`PayloadRun`.
        self._payloads: list[dict[str, Any] | PayloadRun] = []
        #: Per event name, the ascending rows that hold it and its log count.
        self._name_rows: dict[str, array[int]] = {}
        self._name_counts: dict[str, int] = {}
        #: One shared tuple per distinct key sequence of a batch.
        self._payload_keys: dict[tuple[str, ...], tuple[str, ...]] = {}
        self._length = 0

    def __len__(self) -> int:
        return self._length

    @property
    def rows(self) -> int:
        """Number of stored rows: one per :meth:`append` and per non-empty
        :meth:`extend` batch."""
        return len(self._names)

    def __iter__(self) -> Iterator[EventLog]:
        for row in range(len(self._names)):
            yield from self._views(row)

    def _add_row(
        self,
        name: str,
        emitter: Address,
        block_number: int,
        tx_hash: str,
        log_index: int,
        payload: dict[str, Any] | PayloadRun,
        count: int,
    ) -> None:
        self._name_rows.setdefault(name, array("q")).append(len(self._names))
        self._name_counts[name] = self._name_counts.get(name, 0) + count
        self._starts.append(self._length)
        self._length += count
        self._names.append(name)
        self._emitters.append(emitter)
        self._blocks.append(block_number)
        self._tx_hashes.append(tx_hash)
        self._log_indices.append(log_index)
        self._payloads.append(payload)

    def append(
        self, name: str, emitter: Address, block_number: int, tx_hash: str, log_index: int, data: dict[str, Any]
    ) -> None:
        """Record a newly emitted event as a row of its own."""
        self._add_row(name, emitter, block_number, tx_hash, log_index, data, 1)

    def extend(
        self,
        name: str,
        emitter: Address,
        block_number: int,
        tx_hash: str,
        first_log_index: int,
        columns: Mapping[str, Sequence[Any]],
    ) -> int:
        """Record one ``name`` event per row of ``columns``, at consecutive
        log indices from ``first_log_index``, and return how many.

        ``columns`` maps each payload key to its values, one per log and all
        of one length; the sequences are stored as given, in one
        :class:`PayloadRun` on one row.  An empty batch stores nothing.
        """
        count = len(next(iter(columns.values())))
        if any(len(column) != count for column in columns.values()):
            raise ValueError(f"{name} payload columns differ in length")
        if count:
            keys = tuple(columns)
            run = PayloadRun(self._payload_keys.setdefault(keys, keys), tuple(columns.values()))
            self._add_row(name, emitter, block_number, tx_hash, first_log_index, run, count)
        return count

    def _views(self, row: int, first: int = 0) -> list[EventLog]:
        """The logs of ``row``, from its ``first``-th on."""
        name, emitter, block_number = self._names[row], self._emitters[row], self._blocks[row]
        tx_hash, log_index, payload = self._tx_hashes[row], self._log_indices[row], self._payloads[row]
        if not isinstance(payload, PayloadRun):
            return [EventLog(name, emitter, block_number, tx_hash, log_index, payload)]
        return [
            EventLog(name, emitter, block_number, tx_hash, log_index + index, payload.row(index))
            for index in range(first, len(payload))
        ]

    def filter(self, event_filter: EventFilter) -> list[EventLog]:
        """Return all events matching ``event_filter`` in emission order."""
        names = event_filter.names
        if names is None:
            rows: Iterable[int] = range(len(self._names))
        else:
            # Each name's rows ascend; their sorted union is emission order.
            rows = sorted(itertools.chain.from_iterable(self._name_rows.get(name, ()) for name in names))
        # A row's logs share its name, emitter and block: admit it whole.
        admits, row_names, emitters, blocks = event_filter.admits, self._names, self._emitters, self._blocks
        return [
            event for row in rows if admits(row_names[row], emitters[row], blocks[row]) for event in self._views(row)
        ]

    def by_name(self, name: str) -> list[EventLog]:
        """Return every event with signature ``name``."""
        return [event for row in self._name_rows.get(name, ()) for event in self._views(row)]

    def count(self, name: str) -> int:
        """Number of events with signature ``name``, without building them."""
        return self._name_counts.get(name, 0)

    def since(self, offset: int, names: Container[str] | None = None) -> list[EventLog]:
        """Events appended at or after position ``offset`` (≥ 0), in
        emission order.

        With ``names``, only the events whose signature is in it; the rows
        of other names are skipped whole, without building their events.
        A read starting inside a batch starts at ``offset``'s log.  The
        store is append-only, so ``since(cursor)`` followed by ``cursor =
        len(store)`` is a complete, gap-free streaming read — this is how
        the engine translates fresh logs into typed
        :class:`~repro.observers.events.SimEvent` s after each stride.
        """
        if offset >= self._length:
            return []
        starts, row_names = self._starts, self._names
        events: list[EventLog] = []
        for row in range(bisect.bisect_right(starts, offset) - 1, len(row_names)):
            if names is None or row_names[row] in names:
                events.extend(self._views(row, max(offset - starts[row], 0)))
        return events

    def names(self) -> set[str]:
        """Return the set of distinct event signatures seen so far."""
        return set(self._name_rows)
