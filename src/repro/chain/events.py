"""EVM-style event logs and filtering.

The paper's measurement pipeline works by filtering *events* ("The Ethereum
events are essentially EVM logs … indexed by its signature … and the contract
address emitting this event", Section 4.1).  This module reproduces that
interface: protocol contracts emit :class:`EventLog` records into the chain,
and the analytics layer retrieves them through :class:`EventFilter` queries —
exactly the workflow of ``eth_getLogs`` against an archive node.
"""

from __future__ import annotations

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
        if self.names is not None and event.name not in self.names:
            return False
        if self.emitters is not None and event.emitter not in self.emitters:
            return False
        if self.from_block is not None and event.block_number < self.from_block:
            return False
        if self.to_block is not None and event.block_number > self.to_block:
            return False
        return True


class PayloadRun:
    """The payloads of one :meth:`EventStore.extend` batch, kept as columns.

    ``columns`` maps each payload key to one sequence with an entry per log
    of the batch (a list, or a typed ``array`` for numbers); ``start`` is the
    store position of the batch's first log.  Every log of the batch shares
    this one object in the store's payload column, and a view builds its
    ``data`` dict on read: the keys in ``columns`` order, the values at the
    log's offset in the batch.
    """

    __slots__ = ("start", "columns")

    def __init__(self, start: int, columns: Mapping[str, Sequence[Any]]) -> None:
        self.start = start
        self.columns = columns

    def row(self, position: int) -> dict[str, Any]:
        """The payload dict of the log at store ``position``."""
        index = position - self.start
        return {key: column[index] for key, column in self.columns.items()}


class EventStore:
    """Append-only, columnar store of every event emitted on the simulated chain.

    The store keeps one list per :class:`EventLog` field plus, per event
    name, the positions holding that name in an ``array("q")``.  A finished
    ``paper-full`` world emits ~190k logs, ~177k of them oracle posts, and
    columns are a handful of containers the garbage collector walks as a
    whole instead of one frozen object per log.  Logs come in one at a
    time (:meth:`append`, whose payload dict is stored) or as a run of one
    name from one emitter at consecutive log indices (:meth:`extend`: an
    oracle's posts of a step), whose payloads arrive as columns and are
    stored as one shared :class:`PayloadRun` instead of one dict per log.
    Readers still receive :class:`EventLog` s: iteration, :meth:`by_name`,
    :meth:`filter` and :meth:`since` build them on read, in emission order
    (block number, then log index).  A view's ``data`` is the stored dict
    of an appended log, and a fresh dict equal to what was posted for a log
    of a run.
    """

    def __init__(self) -> None:
        #: One list per :class:`EventLog` field, in field order; the payload
        #: column holds a dict per appended log and the shared
        #: :class:`PayloadRun` for each log of an extended batch.
        self._columns: tuple[list[Any], ...] = ([], [], [], [], [], [])
        #: Per event name, the ascending positions that hold it.
        self._positions: dict[str, array[int]] = {}

    def __len__(self) -> int:
        return len(self._columns[0])

    def __iter__(self) -> Iterator[EventLog]:
        for position, (name, emitter, block_number, tx_hash, log_index, data) in enumerate(zip(*self._columns)):
            if type(data) is PayloadRun:
                data = data.row(position)
            yield EventLog(name, emitter, block_number, tx_hash, log_index, data)

    def append(
        self, name: str, emitter: Address, block_number: int, tx_hash: str, log_index: int, data: dict[str, Any]
    ) -> None:
        """Record a newly emitted event, one value per column."""
        names, emitters, blocks, tx_hashes, log_indices, payloads = self._columns
        self._positions.setdefault(name, array("q")).append(len(names))
        names.append(name)
        emitters.append(emitter)
        blocks.append(block_number)
        tx_hashes.append(tx_hash)
        log_indices.append(log_index)
        payloads.append(data)

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
        of one length; it is stored as given in one :class:`PayloadRun`.
        """
        count = len(next(iter(columns.values())))
        if any(len(column) != count for column in columns.values()):
            raise ValueError(f"{name} payload columns differ in length")
        names, emitters, blocks, tx_hashes, log_indices, stored = self._columns
        start = len(names)
        self._positions.setdefault(name, array("q")).extend(range(start, start + count))
        names.extend(itertools.repeat(name, count))
        emitters.extend(itertools.repeat(emitter, count))
        blocks.extend(itertools.repeat(block_number, count))
        tx_hashes.extend(itertools.repeat(tx_hash, count))
        log_indices.extend(range(first_log_index, first_log_index + count))
        stored.extend(itertools.repeat(PayloadRun(start, columns), count))
        return count

    def _view(self, position: int) -> EventLog:
        names, emitters, blocks, tx_hashes, log_indices, payloads = self._columns
        data = payloads[position]
        if type(data) is PayloadRun:
            data = data.row(position)
        return EventLog(
            names[position], emitters[position], blocks[position], tx_hashes[position], log_indices[position], data
        )

    def filter(self, event_filter: EventFilter) -> list[EventLog]:
        """Return all events matching ``event_filter`` in emission order."""
        names = event_filter.names
        if names is None:
            candidates: Iterable[int] = range(len(self))
        else:
            # Each name's positions ascend; their sorted union is emission order.
            candidates = sorted(itertools.chain.from_iterable(self._positions.get(name, ()) for name in names))
        return [event for event in map(self._view, candidates) if event_filter.matches(event)]

    def by_name(self, name: str) -> list[EventLog]:
        """Return every event with signature ``name``."""
        return [self._view(position) for position in self._positions.get(name, ())]

    def count(self, name: str) -> int:
        """Number of events with signature ``name``, without building them."""
        return len(self._positions.get(name, ()))

    def since(self, offset: int, names: Container[str] | None = None) -> list[EventLog]:
        """Events appended at or after position ``offset``, in emission order.

        With ``names``, only the events whose signature is in it; the others
        are skipped on the name column without being built.  The store is
        append-only, so ``since(cursor)`` followed by ``cursor = len(store)``
        is a complete, gap-free streaming read — this is how the engine
        translates fresh logs into typed
        :class:`~repro.observers.events.SimEvent` s after each stride.
        """
        positions = range(offset, len(self))
        if names is not None:
            column = self._columns[0]
            positions = [position for position in positions if column[position] in names]
        return [self._view(position) for position in positions]

    def names(self) -> set[str]:
        """Return the set of distinct event signatures seen so far."""
        return set(self._positions)
