"""Integration tests for the TSE system glue and the trace-driven simulator."""

import pytest

from repro.coherence.directory import Directory
from repro.common.config import TSEConfig
from repro.common.types import AccessTrace, AccessType, MemoryAccess
from repro.tse.engine import TemporalStreamingSystem
from repro.tse.simulator import Outcome, TSESimulator


def make_trace(accesses, num_nodes=4, name="synthetic"):
    trace = AccessTrace(num_nodes=num_nodes, name=name)
    timestamp = [0] * num_nodes
    for node, address, kind in accesses:
        timestamp[node] += 10
        trace.append(
            MemoryAccess(node=node, address=address, access_type=kind, timestamp=timestamp[node])
        )
    return trace


def migratory_trace(rounds=6, blocks=(100, 101, 102, 103, 104, 105), num_nodes=4):
    """Each round, a different node reads then writes the same block sequence."""
    accesses = []
    for round_index in range(rounds):
        node = round_index % num_nodes
        for block in blocks:
            accesses.append((node, block, AccessType.READ))
            accesses.append((node, block, AccessType.WRITE))
    return make_trace(accesses, num_nodes=num_nodes)


class TestTemporalStreamingSystem:
    def _system(self, num_nodes=2, **config_overrides):
        config = TSEConfig(
            cmob_capacity=256, svb_entries=16, stream_queues=4,
            stream_lookahead=4, compared_streams=2, **config_overrides
        )
        directory = Directory(num_nodes, config.cmob_pointers_per_block)
        return TemporalStreamingSystem(num_nodes, config, directory), directory

    def test_consumption_records_order_and_pointer(self):
        tse, directory = self._system()
        tse.on_consumption(0, 50)
        assert tse.nodes[0].cmob.appended == 1
        pointers = directory.cmob_pointers(50)
        assert len(pointers) == 1 and pointers[0][0] == 0  # (node, offset)

    def test_stream_located_from_recorded_order(self):
        tse, _ = self._system()
        # Node 0 records a consumption sequence.
        for address in (10, 11, 12, 13, 14):
            tse.on_consumption(0, address)
        # Node 1 misses on the head of that sequence: the stream {11..} is
        # located on node 0's CMOB and fetched.
        queue_id, fetches = tse.on_consumption(1, 10)
        assert queue_id >= 0
        # Fetches arrive as per-queue batches: (queue_id, [addresses]).
        assert [(q, list(a)) for q, a in fetches] == [(queue_id, [11, 12, 13, 14])]

    def test_svb_hit_records_in_cmob_and_directory(self):
        tse, directory = self._system()
        for address in (10, 11, 12):
            tse.on_consumption(0, address)
        _, fetches = tse.on_consumption(1, 10)
        for fetch_queue, addresses in fetches:
            for address in addresses:
                tse.deliver_block(1, address, fetch_queue)
        appended_before = tse.nodes[1].cmob.appended
        entry, _ = tse.on_svb_hit(1, 11)
        assert entry is not None
        assert tse.nodes[1].cmob.appended == appended_before + 1
        assert any(node == 1 for node, _ in directory.cmob_pointers(11))

    def test_write_invalidates_streamed_blocks_everywhere(self):
        tse, _ = self._system()
        for address in (10, 11, 12):
            tse.on_consumption(0, address)
        _, fetches = tse.on_consumption(1, 10)
        for fetch_queue, addresses in fetches:
            for address in addresses:
                tse.deliver_block(1, address, fetch_queue)
        invalidated = tse.on_write(0, 11)
        assert invalidated == 1
        assert not tse.svb_probe(1, 11)

    def test_message_sink_sees_tse_messages(self):
        config = TSEConfig(cmob_capacity=64, svb_entries=8, stream_lookahead=2)
        directory = Directory(2, config.cmob_pointers_per_block)
        messages = []
        tse = TemporalStreamingSystem(2, config, directory, message_sink=messages.append)
        tse.on_consumption(0, 10)
        tse.on_consumption(1, 10)
        kinds = {m.msg_type.value for m in messages}
        assert "cmob_pointer_update" in kinds
        assert "stream_request" in kinds


class TestTSESimulator:
    def test_migratory_trace_gets_high_coverage(self):
        trace = migratory_trace(rounds=12)
        simulator = TSESimulator(4, TSEConfig.paper_default(lookahead=8))
        stats = simulator.run(trace, warmup_fraction=0.25)
        assert stats.total_consumptions > 0
        assert stats.coverage > 0.6

    def test_random_trace_gets_low_coverage(self):
        import random

        rng = random.Random(3)
        accesses = []
        for _ in range(3000):
            node = rng.randrange(4)
            block = rng.randrange(400)
            kind = AccessType.WRITE if rng.random() < 0.3 else AccessType.READ
            accesses.append((node, block, kind))
        trace = make_trace(accesses)
        stats = TSESimulator(4, TSEConfig.paper_default()).run(trace, warmup_fraction=0.25)
        assert stats.coverage < 0.3

    def test_consumption_accounting_consistency(self):
        trace = migratory_trace(rounds=10)
        stats = TSESimulator(4, TSEConfig.paper_default()).run(trace)
        assert stats.total_consumptions == stats.svb_hits + stats.remaining_consumptions
        assert stats.blocks_fetched >= stats.svb_hits
        assert stats.discarded_blocks <= stats.blocks_fetched

    def test_outcomes_parallel_to_trace(self):
        trace = migratory_trace(rounds=5)
        simulator = TSESimulator(4, TSEConfig.paper_default(), record_outcomes=True)
        simulator.run(trace)
        assert len(simulator.outcome_codes) == len(simulator.outcome_leads) == len(trace)
        codes = {Outcome(code) for code in simulator.outcome_codes}
        assert Outcome.WRITE in codes
        assert Outcome.CONSUMPTION in codes or Outcome.SVB_HIT in codes

    def test_warmup_resets_counters_but_keeps_state(self):
        trace = migratory_trace(rounds=12)
        warm = TSESimulator(4, TSEConfig.paper_default()).run(trace, warmup_fraction=0.5)
        cold = TSESimulator(4, TSEConfig.paper_default()).run(trace, warmup_fraction=0.0)
        assert warm.accesses < cold.accesses
        assert warm.coverage >= cold.coverage

    def test_invalid_warmup_fraction_rejected(self):
        trace = migratory_trace(rounds=2)
        with pytest.raises(ValueError):
            TSESimulator(4).run(trace, warmup_fraction=1.5)

    def test_zero_lookahead_behaves_as_base_system(self):
        trace = migratory_trace(rounds=8)
        config = TSEConfig(stream_lookahead=0, queue_depth=1, refill_threshold=1)
        stats = TSESimulator(4, config).run(trace)
        assert stats.svb_hits == 0
        assert stats.coverage == 0.0

    def test_traffic_accounting_present_when_enabled(self):
        trace = migratory_trace(rounds=8)
        simulator = TSESimulator(4, TSEConfig.paper_default(), account_traffic=True)
        stats = simulator.run(trace)
        assert stats.traffic is not None
        assert stats.traffic["baseline.total_bytes"] > 0

    def test_stream_length_histogram_weighted_by_hits(self):
        trace = migratory_trace(rounds=12)
        stats = TSESimulator(4, TSEConfig.paper_default()).run(trace)
        assert stats.stream_length_hist.count == pytest.approx(stats.svb_hits, abs=1)
