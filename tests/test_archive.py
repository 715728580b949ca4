"""The chain archive keeps only what its readers use.

* The event log is columnar: every read builds :class:`EventLog` views,
  which must equal what was emitted, in emission order, through every
  access path (iteration, ``by_name``, ``count``, ``filter``, ``since``).
  A batch of posts is stored as payload columns, and its views equal the
  dicts one ``emit_event`` per post stores.
* Snapshot positions are columns too: their rows equal the dicts the
  archive stored per open position.
* What the archive retains per oracle post and per snapshot row is
  bounded (traced bytes, not RSS, so the bound holds on any host).
* Background fill is a lane of the mempool: slot-only entries that pack,
  evict and expire in one ``(price, seq)`` order with the transactions,
  exactly as transactions with the same bids would, and leave only their
  gas price on the block; the block median, its gas used and the
  executed-transaction count still cover it.
* Transaction hashes are computed on first read from an id the building
  chain reserved from its own sequence, so they are the strings eager
  hashing produced, whatever other chains do meanwhile.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import tracemalloc
from array import array

import numpy as np
import pytest

from repro.analytics.records import LIQUIDATION_EVENTS
from repro.chain.chain import Blockchain, ChainConfig
from repro.chain.events import EventFilter, EventLog
from repro.chain.mempool import Mempool
from repro.chain.transaction import Transaction, TxKind, TxStatus
from repro.chain import events as events_module
from repro.chain.types import gwei, make_address, tx_hash_of
from repro.observers.events import BlockMined
from repro.oracle import chainlink as chainlink_module
from repro.protocols import base as protocols_base
from repro.protocols.base import SnapshotPositions
from repro.scenarios import get as get_scenario
from repro.serialize import to_jsonable

ALICE = make_address("alice")
TRAFFIC = make_address("traffic")


# --------------------------------------------------------------------- #
# Columnar event log
# --------------------------------------------------------------------- #
class TestEventViews:
    def test_views_equal_what_was_emitted_in_order(self):
        chain = Blockchain(ChainConfig(inception_block=100))
        first, second = make_address("first"), make_address("second")
        emitted = []
        for index in range(7):
            name = ("Ping", "Pong", "Ping", "Deal", "Pong", "Ping", "Deal")[index]
            emitter = first if index % 2 else second
            payload = {"index": index, "name": name}
            chain.emit_event(name, emitter, payload, tx_hash=f"0x{index}")
            emitted.append((name, emitter, payload))
            if index == 3:
                chain.mine_block()
        views = list(chain.events)
        assert len(chain.events) == len(views) == len(emitted)
        assert [(view.name, view.emitter, view.data) for view in views] == emitted
        assert [view.tx_hash for view in views] == [f"0x{index}" for index in range(7)]
        assert [view.block_number for view in views] == [100] * 4 + [101] * 3
        assert [view.log_index for view in views] == [0, 1, 2, 3, 0, 1, 2]
        assert all(isinstance(view, EventLog) for view in views)

    def test_view_data_is_the_stored_copy(self):
        """The archive's one copy of a payload is the dict the emitter
        handed over: it is stored, not copied, and every view shares it."""
        chain = Blockchain()
        payload = {"x": 1}
        chain.emit_event("Ping", ALICE, payload)
        (view,) = chain.events.by_name("Ping")
        assert view.data is payload
        assert next(iter(chain.events)).data is payload
        assert chain.events.since(0)[0].data is payload

    def test_empty_and_unknown_names(self):
        chain = Blockchain()
        chain.emit_event("Ping", ALICE, {})
        store = chain.events
        assert store.by_name("Nope") == []
        assert store.count("Nope") == 0
        assert store.filter(EventFilter.create(names=["Nope", "Other"])) == []
        assert store.since(1) == []
        assert store.names() == {"Ping"}


class TestEventReadsOnARun:
    """Every indexed read agrees with a linear pass over all events."""

    @pytest.fixture(scope="class")
    def store(self, small_result):
        return small_result.chain.events

    @pytest.fixture(scope="class")
    def every_event(self, store):
        return list(store)

    def test_multi_name_filter_is_the_linear_filter(self, store, every_event):
        names = sorted(store.names())
        assert len(names) > 3
        for selection in (LIQUIDATION_EVENTS, ("AnswerUpdated", "Deal"), names, names[::2]):
            wanted = set(selection)
            linear = [event for event in every_event if event.name in wanted]
            assert store.filter(EventFilter.create(names=selection)) == linear

    def test_filter_with_every_constraint(self, store, every_event):
        emitter = every_event[len(every_event) // 2].emitter
        low = every_event[len(every_event) // 4].block_number
        high = every_event[3 * len(every_event) // 4].block_number
        query = EventFilter.create(names=LIQUIDATION_EVENTS + ("AnswerUpdated",), emitters=[emitter], from_block=low, to_block=high)
        linear = [event for event in every_event if query.matches(event)]
        assert linear
        assert store.filter(query) == linear
        unnamed = EventFilter.create(from_block=low, to_block=high)
        assert store.filter(unnamed) == [event for event in every_event if unnamed.matches(event)]

    def test_by_name_count_and_since_agree(self, store, every_event):
        for name in store.names():
            linear = [event for event in every_event if event.name == name]
            assert store.by_name(name) == linear
            assert store.count(name) == len(linear)
        assert sum(store.count(name) for name in store.names()) == len(store)
        for offset in (0, 1, len(every_event) // 3, len(every_event) - 1, len(every_event)):
            assert store.since(offset) == every_event[offset:]
            wanted = set(LIQUIDATION_EVENTS)
            assert store.since(offset, wanted) == [event for event in every_event[offset:] if event.name in wanted]


POSTER = make_address("poster")


def post_batches(chain: Blockchain, *, as_columns: bool) -> None:
    """Two blocks of posts between another emitter's logs: as payload
    columns, or (the reference) one copied dict per post."""
    batches = [
        [("DAI", 1.0), ("ETH", 2_000.5), ("WBTC", 9_100.25)],
        [("ETH", 1_950.0)],
        [("USDC", 0.999), ("DAI", 1.01)],
    ]
    for index, batch in enumerate(batches):
        chain.emit_event("Ping", ALICE, {"n": index})
        if as_columns:
            columns = {
                "symbol": [symbol for symbol, _ in batch],
                "price": array("d", [price for _, price in batch]),
                "oracle": ["chainlink"] * len(batch),
            }
            chain.emit_events("AnswerUpdated", POSTER, columns)
        else:
            for symbol, price in batch:
                chain.emit_event("AnswerUpdated", POSTER, {"symbol": symbol, "price": price, "oracle": "chainlink"})
        if index == 1:
            chain.mine_block()
    chain.emit_event("Pong", ALICE, {})


class TestPayloadRuns:
    @pytest.fixture()
    def pair(self):
        runs, reference = Blockchain(ChainConfig(inception_block=50)), Blockchain(ChainConfig(inception_block=50))
        post_batches(runs, as_columns=True)
        post_batches(reference, as_columns=False)
        return runs.events, reference.events

    def test_views_equal_the_stored_dicts_on_every_read(self, pair):
        runs, reference = pair
        assert list(runs) == list(reference)
        assert [event.log_index for event in runs] == [0, 1, 2, 3, 4, 5, 0, 1, 2, 3]
        for name in ("AnswerUpdated", "Ping", "Pong"):
            assert runs.by_name(name) == reference.by_name(name)
            assert runs.count(name) == reference.count(name)
        for names in (["AnswerUpdated", "Pong"], ["Ping", "AnswerUpdated"], None):
            query = EventFilter.create(names=names, from_block=50, to_block=51)
            assert runs.filter(query) == reference.filter(query)
        for offset in range(len(reference) + 1):
            assert runs.since(offset) == reference.since(offset)
            assert runs.since(offset, {"AnswerUpdated"}) == reference.since(offset, {"AnswerUpdated"})

    def test_view_data_has_the_posted_keys_order_and_types(self, pair):
        runs, _ = pair
        for view in runs.by_name("AnswerUpdated"):
            assert list(view.data) == ["symbol", "price", "oracle"]
            assert type(view.data["price"]) is float
        assert runs.by_name("AnswerUpdated")[1].data == {"symbol": "ETH", "price": 2_000.5, "oracle": "chainlink"}

    def test_a_batch_is_one_shared_run(self, pair):
        runs, _ = pair
        payloads = runs._columns[5]
        assert isinstance(payloads[1], events_module.PayloadRun)
        assert payloads[1] is payloads[2] is payloads[3]
        assert isinstance(runs._positions["AnswerUpdated"], array)

    def test_ragged_columns_are_rejected(self):
        chain = Blockchain()
        with pytest.raises(ValueError, match="differ in length"):
            chain.emit_events("AnswerUpdated", POSTER, {"symbol": ["ETH", "DAI"], "price": array("d", [1.0])})
        assert len(chain.events) == 0


# --------------------------------------------------------------------- #
# Snapshot positions
# --------------------------------------------------------------------- #
def old_rows(protocol) -> list[dict]:
    """The rows the archive stored before they became columns: one dict per
    open position with copies of its collateral and debt dicts."""
    prices = protocol.prices()
    thresholds = protocol.liquidation_thresholds()
    return [
        {
            "owner": position.owner.value,
            "collateral": dict(position.collateral),
            "debt": dict(position.debt),
            "health_factor": position.health_factor(prices, thresholds),
        }
        for position in protocol.open_positions()
    ]


class TestSnapshotPositions:
    @pytest.fixture(scope="class")
    def protocol(self):
        engine = get_scenario("small").build(seed=3)
        protocol = engine.protocols[0]
        book = [
            # Collateral only: no debt, so the health factor is inf.
            [("collateral", "USDC", 500.0), ("collateral", "ETH", 2.0)],
            # Explicit 0.0 and sub-dust entries, inserted out of sorted order.
            [
                ("collateral", "WBTC", 0.5),
                ("collateral", "ETH", 0.0),
                ("debt", "USDC", 1e-12),
                ("debt", "DAI", 3_000.0),
            ],
            # Debt without collateral (bad debt): HF 0.
            [("debt", "DAI", 10.0)],
            # Only dust: not an open position, so no row.
            [("collateral", "ETH", 1e-12)],
            [("debt", "USDT", 100.0), ("collateral", "LINK", 80.0), ("collateral", "BAT", 0.0)],
        ]
        for index, entries in enumerate(book):
            position = protocol.position_of(make_address(f"snapshot-{index}"))
            for side, symbol, amount in entries:
                (position.add_collateral if side == "collateral" else position.add_debt)(symbol, amount)
        return protocol

    def test_rows_equal_the_old_rows(self, protocol):
        positions = protocol.snapshot()["positions"]
        expected = old_rows(protocol)
        assert isinstance(positions, SnapshotPositions)
        assert len(positions) == len(expected) == 4
        rows = list(positions)
        assert rows == expected
        for row, old in zip(rows, expected):
            assert list(row) == list(old)
            assert list(row["collateral"]) == list(old["collateral"])
            assert list(row["debt"]) == list(old["debt"])
        assert rows[0]["health_factor"] == math.inf
        assert rows[1]["collateral"] == {"WBTC": 0.5, "ETH": 0.0}
        assert rows[1]["debt"] == {"USDC": 1e-12, "DAI": 3_000.0}
        assert rows[2]["collateral"] == {} and rows[2]["health_factor"] == 0.0
        assert json.dumps(to_jsonable(positions)) == json.dumps(to_jsonable(expected))

    def test_indexing_and_slicing(self, protocol):
        positions = protocol.snapshot()["positions"]
        expected = old_rows(protocol)
        assert [positions[index] for index in range(len(positions))] == expected
        assert positions[-1] == expected[-1] and positions[-4] == expected[0]
        assert positions[1:3] == expected[1:3] and positions[::-2] == expected[::-2]
        for index in (4, -5):
            with pytest.raises(IndexError):
                positions[index]
        assert list(protocol.snapshot()["positions"]) == expected

    @pytest.mark.parametrize(
        "debt_symbol, collateral_symbol",
        [("DAI", "ETH"), ("USDC", "WBTC"), ("USDT", "LINK"), ("USDT", "BAT"), ("ETH", "ETH")],
    )
    def test_collateral_of_debtors_equals_the_row_walk(self, protocol, debt_symbol, collateral_symbol):
        positions = protocol.snapshot()["positions"]
        expected = [
            row["collateral"].get(collateral_symbol, 0.0) for row in positions if debt_symbol in row["debt"]
        ]
        assert list(positions.collateral_of_debtors(debt_symbol, collateral_symbol)) == expected

    def test_equal_key_tuples_are_shared(self, protocol):
        first, second = protocol.snapshot()["positions"], protocol.snapshot()["positions"]
        assert first._collateral_keys[0] == ("USDC", "ETH")
        assert first._collateral_keys[0] is second._collateral_keys[0]
        assert first._debt_keys[1] is second._debt_keys[1]


# --------------------------------------------------------------------- #
# Archive footprint
# --------------------------------------------------------------------- #
#: Bytes the archive may retain per ``AnswerUpdated`` log (the event
#: columns and the oracle's posted history) and per snapshot row
#: (everything the protocols' snapshots keep), as tracemalloc counts them
#: on the window below.  Measured with CPython 3.11: 134 and 255; one dict
#: per post and three per row retained 272 and 836.
MAX_BYTES_PER_POST = 180
MAX_BYTES_PER_SNAPSHOT_ROW = 400


def traced_bytes(snapshot: tracemalloc.Snapshot, *modules) -> int:
    filters = [tracemalloc.Filter(True, module.__file__) for module in modules]
    return sum(stat.size for stat in snapshot.filter_traces(filters).statistics("filename"))


def test_archive_retains_few_bytes_per_post_and_snapshot_row():
    builder = get_scenario("small").builder(seed=3)
    config = builder.config
    builder.config = config.with_overrides(end_block=config.start_block + 120 * config.blocks_per_step)
    engine = builder.build()
    gc.collect()
    tracemalloc.start()
    try:
        result = engine.run()
        gc.collect()
        traced = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    chain = result.chain
    posts = chain.events.count("AnswerUpdated")
    rows = sum(
        len(state["positions"])
        for block in chain.snapshot_blocks
        for state in chain.snapshot_at(block).values()
        if isinstance(state, dict) and "positions" in state
    )
    assert posts > 4_000 and rows > 600
    per_post = traced_bytes(traced, events_module, chainlink_module) / posts
    per_row = traced_bytes(traced, protocols_base) / rows
    assert per_post < MAX_BYTES_PER_POST
    assert per_row < MAX_BYTES_PER_SNAPSHOT_ROW
    # The archived scalars are typed arrays: the int and float objects a
    # list would keep are allocated elsewhere, out of the bounds' sight.
    oracle = result.engine.oracle
    assert {history.typecode for history in oracle._blocks.values()} == {"q"}
    assert {history.typecode for history in oracle._prices.values()} == {"d"}
    assert {block.fill_gas_prices.typecode for block in chain.blocks} == {"q"}
    assert {positions.typecode for positions in chain.events._positions.values()} == {"q"}


# --------------------------------------------------------------------- #
# Background fill
# --------------------------------------------------------------------- #
class TestBackgroundFill:
    def test_fill_joins_the_median_but_gets_no_receipt(self):
        chain = Blockchain()
        chain.submit_fill([gwei(price) for price in (1.0, 2.0, 3.0, 4.0)], gas_limit=21_000)
        agents = [
            chain.submit_call(ALICE, lambda: "ok", gas_price=gwei(price), gas_limit=21_000, kind=TxKind.TRANSFER)
            for price in (50.0, 60.0)
        ]
        block = chain.mine_block()
        # Executed prices: 1 2 3 4 50 60 gwei.  Receipts alone would give 55.
        assert block.median_gas_price == pytest.approx(gwei(3.5))
        assert list(block.fill_gas_prices) == [gwei(price) for price in (4.0, 3.0, 2.0, 1.0)]
        assert [receipt.tx_hash for receipt in block.receipts] == [tx.tx_hash for tx in reversed(agents)]
        assert set(chain.receipts_by_hash) == {tx.tx_hash for tx in agents}
        assert block.gas_used == 6 * 21_000
        assert len(chain.mempool) == 0

    def test_actionless_transaction_is_receipted(self):
        chain = Blockchain()
        plain = chain.submit_call(ALICE, None, gas_price=gwei(5.0), gas_limit=21_000)
        # Metadata does not make a transaction fill: only submit_fill does.
        marked = chain.submit_call(TRAFFIC, None, gas_price=gwei(4.0), gas_limit=21_000, metadata={"background": True})
        block = chain.mine_block()
        assert list(block.fill_gas_prices) == []
        assert [receipt.tx_hash for receipt in block.receipts] == [plain.tx_hash, marked.tx_hash]
        assert chain.receipts_by_hash[plain.tx_hash].succeeded
        assert marked.status is TxStatus.SUCCESS

    def test_block_mined_counts_every_executed_transaction(self):
        builder = get_scenario("small").builder(5)
        config = builder.config
        builder.config = config.with_overrides(end_block=config.start_block + 20 * config.blocks_per_step)
        engine = builder.build()
        mined: list[BlockMined] = []

        class BlockProbe:
            def on_event(self, event):
                if isinstance(event, BlockMined):
                    mined.append(event)

            def finalize(self):
                pass

        engine.attach_probe(BlockProbe())
        result = engine.run()
        blocks = result.chain.blocks
        assert len(mined) == len(blocks)
        assert sum(len(block.fill_gas_prices) for block in blocks) > 0
        for event, block in zip(mined, blocks):
            assert event.n_receipts == len(block.receipts) + len(block.fill_gas_prices)
            assert event.gas_used == block.gas_used
        receipts = [receipt for block in blocks for receipt in block.receipts]
        assert not any(receipt.sender.label == "background-traffic" for receipt in receipts)
        assert len(result.chain.receipts_by_hash) == len(receipts)


class TestFillLane:
    """Fill entries sit in the same heaps and FIFO as transactions."""

    def test_fill_and_transactions_pack_in_price_then_submission_order(self):
        pool = Mempool()
        early = make_tx(5.0)
        pool.submit(early, current_block=0)  # seq 0
        pool.submit_fill([gwei(5.0), gwei(7.0), gwei(3.0)], 21_000, current_block=0)  # seq 1, 2, 3
        late = make_tx(7.0)
        pool.submit(late, current_block=0)  # seq 4
        # By (-price, seq): fill 7, tx 7, tx 5, fill 5, fill 3.  Room for three.
        first = pool.select_for_block(21_000 + 2 * 21_000, current_block=0)
        assert list(first) == [late, early]
        assert first.fill_gas_prices == [gwei(7.0)]
        assert first.gas_used == 21_000 + 2 * 21_000
        second = pool.select_for_block(10 * 21_000, current_block=0)
        assert list(second) == []
        assert second.fill_gas_prices == [gwei(5.0), gwei(3.0)]
        assert second.gas_used == 2 * 21_000
        assert len(pool) == 0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_lane_replays_fill_built_as_transactions(self, seed):
        """Against the same script with fill submitted as plain
        transactions: every block packs the same transactions, the same
        fill prices and the same gas, through ties, eviction, expiry and
        the min-price cut."""
        rng = np.random.default_rng(seed)
        script = []
        for block in range(80):
            txs = [
                (int(rng.integers(1, 6)) * 10**9, int(rng.choice([21_000, 150_000])))
                for _ in range(int(rng.integers(0, 4)))
            ]
            fill = [int(rng.integers(1, 6)) * 10**9 for _ in range(int(rng.integers(0, 14)))]
            script.append((txs, fill, int(rng.integers(2, 5)) * 10**9 if block % 5 == 3 else 0))
        lane = replay_pool(script, as_transactions=False)
        assert lane == replay_pool(script, as_transactions=True)
        assert any(record[0] for record in lane) and any(record[1] for record in lane)
        assert any(record[3] for record in lane)  # entries expired
        assert any(record[4] for record in lane)  # the pool overflowed and evicted

    def test_fill_is_evicted_at_max_pending(self):
        pool = Mempool(max_pending=3)
        keeper = make_tx(2.0)
        pool.submit(keeper, current_block=0)
        pool.submit_fill([gwei(1.0), gwei(5.0), gwei(1.0)], 21_000, current_block=0)
        # Four entries in a pool of three: the newest of the tied lowest goes.
        assert len(pool) == 3
        pool.submit_fill([gwei(9.0)], 21_000, current_block=0)
        assert len(pool) == 3  # the other 1-gwei fill went
        assert keeper.status is TxStatus.PENDING
        pool.submit_fill([gwei(9.0)], 21_000, current_block=0)
        assert keeper.status is TxStatus.DROPPED  # fill outbids a transaction
        selected = pool.select_for_block(10 * 21_000, current_block=0)
        assert list(selected) == []
        assert selected.fill_gas_prices == [gwei(9.0), gwei(9.0), gwei(5.0)]

    def test_fill_expires_in_the_sweep(self):
        pool = Mempool(expiry_blocks=10)
        pool.submit_fill([gwei(1.0)] * 3, 21_000, current_block=0)
        fresh = make_tx(1.0)
        pool.submit(fresh, current_block=95)
        assert pool.sweep_expired(current_block=100) == 3
        assert len(pool) == 1
        assert pool.pending == [fresh]

    def test_fill_expires_during_packing(self):
        pool = Mempool(expiry_blocks=10)
        head = make_tx(1.0)
        pool.submit(head, current_block=95)
        # Submitted out of block order behind a fresh head: the sweep stops
        # at the head, so packing meets the stale fill and drops it.
        pool.submit_fill([gwei(9.0)], 21_000, current_block=0)
        assert pool.sweep_expired(current_block=100) == 0
        selected = pool.select_for_block(10 * 21_000, current_block=100)
        assert list(selected) == [head]
        assert selected.fill_gas_prices == []
        assert selected.gas_used == 21_000
        assert len(pool) == 0

    def test_fill_below_the_min_price_waits(self):
        pool = Mempool()
        pool.submit_fill([gwei(1.0), gwei(60.0)], 21_000, current_block=0)
        selected = pool.select_for_block(10 * 21_000, current_block=0, min_gas_price=gwei(50.0))
        assert selected.fill_gas_prices == [gwei(60.0)]
        assert len(pool) == 1
        assert pool.pending == []

    def test_a_transaction_after_fill_keeps_its_hash(self):
        plain = Blockchain()
        for _ in range(40):  # the same fill as plain transactions
            plain.submit_call(TRAFFIC, None, gas_price=gwei(1.0), gas_limit=21_000)
        expected = plain.submit_call(ALICE, None, gas_price=gwei(1.0), gas_limit=21_000).tx_hash
        chain = Blockchain()
        chain.submit_fill([gwei(1.0)] * 40, gas_limit=21_000)
        tx = chain.submit_call(ALICE, None, gas_price=gwei(1.0), gas_limit=21_000)
        assert tx.hash_id == 41
        assert tx.tx_hash == expected
        # The fill reserved ids on its own chain only.
        assert Blockchain().submit_call(ALICE, None, gas_price=gwei(1.0), gas_limit=21_000).hash_id == 1


def replay_pool(script, *, as_transactions: bool) -> list[tuple]:
    """Run ``script`` through a small congested pool, one record per block.

    Each script entry is one block: transaction ``(price, gas)`` pairs, fill
    prices and the block's min inclusion price.  With ``as_transactions``
    the fill goes in as plain transactions from ``TRAFFIC``.
    """
    pool = Mempool(max_pending=30, expiry_blocks=6)
    submitted: dict[tuple[int, int], Transaction] = {}
    records = []
    for block, (txs, fill, min_price) in enumerate(script):
        before = len(pool)
        for index, (price, gas) in enumerate(txs):
            tx = Transaction(
                sender=ALICE, gas_price=price, gas_limit=gas, hash_id=next(_hash_ids), metadata={"label": (block, index)}
            )
            submitted[(block, index)] = tx
            pool.submit(tx, block)
        if as_transactions:
            for price in fill:
                pool.submit(Transaction(sender=TRAFFIC, gas_price=price, gas_limit=21_000, hash_id=next(_hash_ids)), block)
        else:
            pool.submit_fill(fill, 21_000, block)
        evicted = before + len(txs) + len(fill) - len(pool)
        swept = pool.sweep_expired(block)
        selected = pool.select_for_block(200_000, block, min_gas_price=min_price)
        if as_transactions:
            packed = [tx for tx in selected if tx.sender != TRAFFIC]
            fill_prices = [tx.gas_price for tx in selected if tx.sender == TRAFFIC]
            gas_used = sum(tx.gas_limit for tx in selected)
        else:
            packed, fill_prices, gas_used = list(selected), selected.fill_gas_prices, selected.gas_used
        dropped = sorted(label for label, tx in submitted.items() if tx.status is TxStatus.DROPPED)
        records.append(([tx.metadata["label"] for tx in packed], fill_prices, gas_used, swept, evicted, len(pool), dropped))
    return records


# --------------------------------------------------------------------- #
# Lazy transaction hashes
# --------------------------------------------------------------------- #
#: Hash ids for transactions built by hand, outside any chain.
_hash_ids = itertools.count(1)


def make_tx(price: float = 1.0) -> Transaction:
    return Transaction(sender=ALICE, gas_price=gwei(price), gas_limit=21_000, hash_id=next(_hash_ids))


def submit_plain(chain: Blockchain) -> Transaction:
    return chain.submit_call(ALICE, None, gas_price=gwei(1.0), gas_limit=21_000)


class TestLazyHashes:
    def test_mixed_reads_give_the_eager_strings(self):
        chain = Blockchain()
        txs = [submit_plain(chain) for _ in range(6)]
        eager = [tx_hash_of(hash_id) for hash_id in range(1, 7)]
        # Read out of order and skip some: ids were reserved when the chain
        # built each transaction.
        assert txs[4].tx_hash == eager[4]
        assert txs[1].tx_hash == eager[1]
        assert txs[5].tx_hash == eager[5]
        assert [tx.hash_id for tx in txs] == [1, 2, 3, 4, 5, 6]
        assert [tx.tx_hash for tx in txs] == eager
        assert chain.reserve_hash_ids() == 7

    def test_hash_read_after_counter_reset_is_unchanged(self):
        """Another chain's hash ids start again from 1; a hash of the first
        chain read afterwards is still its own."""
        first = Blockchain()
        submit_plain(first), submit_plain(first)
        late = submit_plain(first)
        other = Blockchain()
        assert submit_plain(other).hash_id == 1  # its own sequence; ``late`` keeps its id
        other.submit_fill([gwei(1.0)] * 5, gas_limit=21_000)
        assert late.hash_id == 3
        assert late.tx_hash == tx_hash_of(3)
        assert submit_plain(first).hash_id == 4

    def test_submit_returns_the_hash_and_receipts_carry_it(self):
        chain = Blockchain()
        tx = Transaction(sender=ALICE, gas_price=gwei(5.0), gas_limit=21_000, hash_id=chain.reserve_hash_ids())
        assert chain.submit(tx) == tx.tx_hash
        (receipt,) = chain.mine_block().receipts
        assert receipt.tx_hash == tx.tx_hash == tx_hash_of(tx.hash_id)
