"""Unit tests for the chain substrate: blocks, mempool, gas market, events."""

import itertools

import pytest

from repro.chain.chain import Blockchain, ChainConfig
from repro.chain.events import EventFilter
from repro.chain.gas import GasMarket, GasMarketConfig, moving_average
from repro.chain.mempool import Mempool
from repro.chain.transaction import Transaction, TransactionReverted, TxKind, TxStatus
from repro.chain.types import GWEI, blocks_to_hours, gwei, hours_to_blocks, make_address

ALICE = make_address("alice")

#: Hash ids for transactions built by hand, outside any chain.
_hash_ids = itertools.count(1)


def make_tx(gas_price_gwei: float, gas_limit: int = 100_000, action=None) -> Transaction:
    return Transaction(
        sender=ALICE, gas_price=gwei(gas_price_gwei), gas_limit=gas_limit, hash_id=next(_hash_ids), action=action
    )


class TestUnits:
    def test_gwei_round_trip(self):
        assert gwei(5.0) == 5 * GWEI

    def test_blocks_to_hours(self):
        assert blocks_to_hours(1_660) == pytest.approx(5.99, rel=1e-2)

    def test_hours_to_blocks_inverse(self):
        assert abs(blocks_to_hours(hours_to_blocks(6.0)) - 6.0) < 0.01


class TestMempool:
    def test_orders_by_gas_price(self):
        pool = Mempool()
        low, high = make_tx(1.0), make_tx(10.0)
        pool.submit(low, current_block=0)
        pool.submit(high, current_block=0)
        selected = pool.select_for_block(1_000_000, current_block=0)
        assert selected[0] is high

    def test_respects_block_gas_limit(self):
        pool = Mempool()
        for price in (5.0, 4.0, 3.0):
            pool.submit(make_tx(price, gas_limit=400_000), current_block=0)
        selected = pool.select_for_block(900_000, current_block=0)
        assert len(selected) == 2

    def test_min_gas_price_excludes_low_bids(self):
        pool = Mempool()
        pool.submit(make_tx(1.0), current_block=0)
        pool.submit(make_tx(100.0), current_block=0)
        selected = pool.select_for_block(1_000_000, current_block=0, min_gas_price=gwei(50.0))
        assert len(selected) == 1
        assert len(pool) == 1  # the low bid stays pending

    def test_expired_transactions_dropped(self):
        pool = Mempool(expiry_blocks=10)
        stale = make_tx(5.0)
        pool.submit(stale, current_block=0)
        selected = pool.select_for_block(1_000_000, current_block=100)
        assert selected == []
        assert stale.status is TxStatus.DROPPED

    def test_clear_drops_everything(self):
        pool = Mempool()
        pool.submit(make_tx(5.0), current_block=0)
        dropped = pool.clear()
        assert len(dropped) == 1
        assert len(pool) == 0

    def test_full_pool_evicts_lowest_bidder(self):
        pool = Mempool(max_pending=3)
        lowest = make_tx(1.0)
        keepers = [make_tx(price) for price in (5.0, 4.0, 3.0)]
        pool.submit(lowest, current_block=0)
        for tx in keepers:
            pool.submit(tx, current_block=0)
        assert len(pool) == 3
        assert lowest.status is TxStatus.DROPPED
        assert lowest not in pool.pending
        selected = pool.select_for_block(1_000_000, current_block=0)
        assert [tx.gas_price for tx in selected] == sorted(
            (tx.gas_price for tx in keepers), reverse=True
        )

    def test_eviction_drops_newest_of_tied_lowest(self):
        pool = Mempool(max_pending=2)
        older, newer = make_tx(1.0), make_tx(1.0)
        pool.submit(older, current_block=0)
        pool.submit(newer, current_block=0)
        pool.submit(make_tx(9.0), current_block=0)
        assert newer.status is TxStatus.DROPPED
        assert older.status is TxStatus.PENDING

    def test_eviction_stays_bounded_under_churn(self):
        pool = Mempool(max_pending=50)
        for i in range(1_000):
            pool.submit(make_tx(float(1 + i % 97)), current_block=i // 10)
        assert len(pool) == 50
        assert len(pool.pending) == 50

    def test_expired_low_bids_swept_below_congestion_breakpoint(self):
        """A bid below ``min_gas_price`` is never popped by block packing;
        the sweep must still drop it once its expiry window passes."""
        pool = Mempool(expiry_blocks=10)
        priced_out = make_tx(1.0)
        pool.submit(priced_out, current_block=0)
        # Congested selection never reaches the low bid, so it stays pending.
        pool.select_for_block(1_000_000, current_block=5, min_gas_price=gwei(50.0))
        assert len(pool) == 1
        # Long after expiry, selection sweeps it even though min_gas_price
        # still prevents it from being popped.
        pool.select_for_block(1_000_000, current_block=50, min_gas_price=gwei(50.0))
        assert len(pool) == 0
        assert priced_out.status is TxStatus.DROPPED

    def test_sweep_expired_reports_drop_count(self):
        pool = Mempool(expiry_blocks=10)
        for _ in range(3):
            pool.submit(make_tx(2.0), current_block=0)
        fresh = make_tx(2.0)
        pool.submit(fresh, current_block=95)
        assert pool.sweep_expired(current_block=100) == 3
        assert len(pool) == 1
        assert fresh.status is TxStatus.PENDING


class TestGasMarket:
    def test_congestion_raises_price(self):
        market = GasMarket(GasMarketConfig(initial_gwei=10.0, congestion_multiplier=10.0))
        baseline = market.base_gas_price_gwei
        market.trigger_congestion(5)
        assert market.base_gas_price_gwei == pytest.approx(baseline * 10.0, rel=0.01)
        assert market.is_congested
        assert market.min_inclusion_gas_price_wei > 0

    def test_congestion_expires(self):
        market = GasMarket(GasMarketConfig(initial_gwei=10.0))
        market.trigger_congestion(2)
        market.step()
        market.step()
        assert not market.is_congested
        assert market.min_inclusion_gas_price_wei == 0

    def test_uncongested_level_ignores_multiplier(self):
        market = GasMarket(GasMarketConfig(initial_gwei=10.0, congestion_multiplier=12.0))
        market.trigger_congestion(3)
        assert market.uncongested_gas_price_gwei < market.base_gas_price_gwei

    def test_price_stays_within_clamps(self):
        market = GasMarket(GasMarketConfig(initial_gwei=2.0, min_gwei=1.0, max_gwei=100.0))
        for _ in range(500):
            market.step()
        assert 1.0 <= market.base_gas_price_gwei <= 100.0

    def test_moving_average_smooths(self):
        values = [1.0] * 5 + [11.0] * 5
        averaged = moving_average(values, window=5)
        assert averaged[-1] == pytest.approx(11.0)
        assert averaged[5] < 11.0

    def test_moving_average_rejects_bad_window(self):
        with pytest.raises(ValueError):
            moving_average([1.0], 0)


class TestBlockchain:
    def test_mining_advances_head_and_timestamp(self):
        chain = Blockchain(ChainConfig(inception_block=100, inception_timestamp=1_000, seconds_per_block=13))
        block = chain.mine_block()
        assert block.number == 100
        assert chain.current_block == 101
        assert chain.timestamp_of_block(101) == 1_000 + 13

    def test_block_stride_advances_by_stride(self):
        chain = Blockchain(ChainConfig(inception_block=100, blocks_per_step=50))
        chain.mine_block()
        assert chain.current_block == 150

    def test_transaction_execution_and_receipt(self):
        chain = Blockchain()
        tx = chain.submit_call(ALICE, lambda: 42, gas_price=gwei(5.0), gas_limit=21_000, kind=TxKind.TRANSFER)
        block = chain.mine_block()
        receipt = block.receipts[0]
        assert receipt.result == 42
        assert receipt.succeeded
        assert chain.receipts_by_hash[tx.tx_hash] is receipt

    def test_reverted_transaction_records_error(self):
        chain = Blockchain()

        def failing():
            raise TransactionReverted("nope")

        chain.submit_call(ALICE, failing, gas_price=gwei(5.0), gas_limit=21_000)
        block = chain.mine_block()
        receipt = block.receipts[0]
        assert receipt.status is TxStatus.REVERTED
        assert "nope" in receipt.error

    def test_events_are_filterable(self):
        chain = Blockchain()
        emitter = make_address("contract")
        chain.emit_event("Ping", emitter, {"x": 1})
        chain.emit_event("Pong", emitter, {"x": 2})
        found = chain.get_logs(EventFilter.create(names=["Ping"]))
        assert len(found) == 1
        assert found[0].data["x"] == 1

    def test_event_filter_by_block_range(self):
        chain = Blockchain(ChainConfig(inception_block=10))
        emitter = make_address("contract")
        chain.emit_event("Ping", emitter, {})
        chain.mine_block()
        chain.emit_event("Ping", emitter, {})
        early = chain.get_logs(EventFilter.create(names=["Ping"], to_block=10))
        assert len(early) == 1

    def test_snapshots_capture_registered_providers(self):
        chain = Blockchain()
        state = {"value": 1}
        chain.register_snapshot_provider("demo", lambda: dict(state))
        chain.take_snapshot()
        state["value"] = 2
        chain.take_snapshot()
        first_block = chain.snapshot_blocks[0]
        assert chain.snapshot_at(first_block)["demo"]["value"] in (1, 2)
        block, snapshot = chain.nearest_snapshot(chain.current_block + 10)
        assert snapshot["demo"]["value"] == 2

    def test_nearest_snapshot_requires_history(self):
        chain = Blockchain()
        with pytest.raises(KeyError):
            chain.nearest_snapshot(chain.current_block)

    def test_median_gas_price_of_block(self):
        chain = Blockchain()
        for price in (1.0, 5.0, 9.0):
            chain.submit_call(ALICE, None, gas_price=gwei(price), gas_limit=21_000)
        block = chain.mine_block()
        assert block.median_gas_price == pytest.approx(gwei(5.0))

    def test_execute_directly_bypasses_mempool(self):
        chain = Blockchain()
        receipt = chain.execute_directly(ALICE, lambda: "done")
        assert receipt.result == "done"
        assert len(chain.mempool) == 0

    def test_execute_directly_outside_mining_is_standalone(self):
        chain = Blockchain()
        receipt = chain.execute_directly(ALICE, lambda: "setup")
        block = chain.mine_block()
        assert receipt not in block.receipts
        assert chain.receipts_by_hash[receipt.tx_hash] is receipt

    def test_execute_directly_during_mining_joins_block_receipts(self):
        """A direct execution triggered while a block is being produced must
        land in that block's receipt list, as the docstring promises."""
        chain = Blockchain()
        direct_receipts = []

        def action():
            direct_receipts.append(chain.execute_directly(ALICE, lambda: "mid-block"))
            return "outer"

        chain.submit_call(ALICE, action, gas_price=gwei(5.0), gas_limit=50_000)
        block = chain.mine_block()
        assert len(block.receipts) == 2
        assert block.receipts[0] is direct_receipts[0]
        assert block.receipts[0].result == "mid-block"
        assert block.receipts[1].result == "outer"
        # The in-flight list is released once the block is sealed.
        later = chain.execute_directly(ALICE, lambda: "after")
        assert later not in block.receipts

    def test_direct_execution_does_not_consume_block_gas(self):
        """Direct receipts join the block's receipt list but bypassed
        packing, so they must not inflate gas_used / utilization."""
        chain = Blockchain()

        def action():
            chain.execute_directly(ALICE, lambda: None, gas_limit=400_000)
            return None

        chain.submit_call(ALICE, action, gas_price=gwei(5.0), gas_limit=60_000)
        block = chain.mine_block()
        assert len(block.receipts) == 2
        assert block.gas_used == 60_000
        assert block.utilization <= 1.0

    def test_log_index_resets_every_block(self):
        chain = Blockchain()
        emitter = make_address("contract")
        chain.emit_event("Ping", emitter, {})
        chain.emit_event("Ping", emitter, {})
        chain.mine_block()
        chain.emit_event("Ping", emitter, {})
        chain.mine_block()
        by_block = {}
        for event in chain.events:
            by_block.setdefault(event.block_number, []).append(event.log_index)
        for indices in by_block.values():
            assert indices == list(range(len(indices)))

    def test_log_index_orders_events_within_a_mined_block(self):
        chain = Blockchain()
        emitter = make_address("contract")

        def action():
            chain.emit_event("FromTx", emitter, {})

        chain.emit_event("Setup", emitter, {})
        chain.submit_call(ALICE, action, gas_price=gwei(5.0), gas_limit=50_000)
        block = chain.mine_block()
        in_block = [event for event in chain.events if event.block_number == block.number]
        assert [event.log_index for event in in_block] == [0, 1]
        assert [event.name for event in in_block] == ["Setup", "FromTx"]
