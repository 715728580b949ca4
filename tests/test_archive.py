"""The chain archive keeps only what its readers use.

* The event log is columnar: every read builds :class:`EventLog` views,
  which must equal what was emitted, in emission order, through every
  access path (iteration, ``by_name``, ``count``, ``filter``, ``since``).
* Background fill — an action-less transaction carrying the
  ``{"background": True}`` marker — leaves only its gas price on the block;
  the block median and the executed-transaction count still cover it.
* Transaction hashes are computed on first read from an id reserved at
  construction, so they are the strings eager hashing produced.
"""

from __future__ import annotations

import pytest

from repro.analytics.records import LIQUIDATION_EVENTS
from repro.chain.chain import Blockchain, ChainConfig
from repro.chain.events import EventFilter, EventLog
from repro.chain.transaction import Transaction, TxKind, TxStatus
from repro.chain.types import gwei, make_address, make_tx_hash, reset_id_counters, tx_hash_of
from repro.observers.events import BlockMined
from repro.runtime_state import reset_run_state
from repro.scenarios import get as get_scenario

ALICE = make_address("alice")
TRAFFIC = make_address("traffic")
BACKGROUND = {"background": True}


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
        chain = Blockchain()
        payload = {"x": 1}
        chain.emit_event("Ping", ALICE, payload)
        payload["x"] = 2  # the emitter's dict is copied at emission
        (view,) = chain.events.by_name("Ping")
        assert view.data == {"x": 1}
        # Every view of the log shares the one stored dict.
        assert next(iter(chain.events)).data is view.data

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


# --------------------------------------------------------------------- #
# Background fill
# --------------------------------------------------------------------- #
class TestBackgroundFill:
    def test_fill_joins_the_median_but_gets_no_receipt(self):
        chain = Blockchain()
        fill = [
            chain.submit_call(TRAFFIC, None, gas_price=gwei(price), gas_limit=21_000, metadata=dict(BACKGROUND))
            for price in (1.0, 2.0, 3.0, 4.0)
        ]
        agents = [
            chain.submit_call(ALICE, lambda: "ok", gas_price=gwei(price), gas_limit=21_000, kind=TxKind.TRANSFER)
            for price in (50.0, 60.0)
        ]
        block = chain.mine_block()
        # Executed prices: 1 2 3 4 50 60 gwei.  Receipts alone would give 55.
        assert block.median_gas_price == pytest.approx(gwei(3.5))
        assert sorted(block.fill_gas_prices) == [gwei(price) for price in (1.0, 2.0, 3.0, 4.0)]
        assert [receipt.tx_hash for receipt in block.receipts] == [tx.tx_hash for tx in reversed(agents)]
        assert set(chain.receipts_by_hash) == {tx.tx_hash for tx in agents}
        assert block.gas_used == 6 * 21_000
        assert all(tx.status is TxStatus.SUCCESS for tx in fill)

    def test_unmarked_actionless_transaction_is_receipted(self):
        chain = Blockchain()
        plain = chain.submit_call(ALICE, None, gas_price=gwei(5.0), gas_limit=21_000)
        marked_action = chain.submit_call(
            TRAFFIC, lambda: "did something", gas_price=gwei(4.0), gas_limit=21_000, metadata=dict(BACKGROUND)
        )
        block = chain.mine_block()
        assert block.fill_gas_prices == []
        assert [receipt.tx_hash for receipt in block.receipts] == [plain.tx_hash, marked_action.tx_hash]
        assert chain.receipts_by_hash[plain.tx_hash].succeeded

    def test_block_mined_counts_every_executed_transaction(self):
        reset_run_state()
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
        receipts = [receipt for block in blocks for receipt in block.receipts]
        assert not any(receipt.metadata.get("background") for receipt in receipts)
        assert not any(receipt.metadata.get("background") for receipt in result.chain.receipts_by_hash.values())


# --------------------------------------------------------------------- #
# Lazy transaction hashes
# --------------------------------------------------------------------- #
def make_tx(price: float = 1.0) -> Transaction:
    return Transaction(sender=ALICE, gas_price=gwei(price), gas_limit=21_000)


class TestLazyHashes:
    def test_mixed_reads_give_the_eager_strings(self):
        reset_run_state()
        eager = [make_tx_hash() for _ in range(6)]
        reset_run_state()
        txs = [make_tx() for _ in range(6)]
        # Read out of order and skip some: ids were reserved at construction.
        assert txs[4].tx_hash == eager[4]
        assert txs[1].tx_hash == eager[1]
        assert txs[5].tx_hash == eager[5]
        assert [tx.hash_id for tx in txs] == [1, 2, 3, 4, 5, 6]
        assert make_tx_hash() == tx_hash_of(7)

    def test_hash_read_after_counter_reset_is_unchanged(self):
        reset_id_counters()
        eager = [make_tx_hash() for _ in range(3)]
        reset_id_counters()
        make_tx(), make_tx()
        late = make_tx()
        reset_id_counters()
        make_tx()  # takes id 1 again; ``late`` keeps its own id
        assert late.tx_hash == eager[2]
        assert late.tx_hash == late.tx_hash

    def test_submit_returns_the_hash_and_receipts_carry_it(self):
        chain = Blockchain()
        tx = make_tx(5.0)
        assert chain.submit(tx) == tx.tx_hash
        (receipt,) = chain.mine_block().receipts
        assert receipt.tx_hash == tx.tx_hash == tx_hash_of(tx.hash_id)
