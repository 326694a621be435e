"""Unit tests for the directory coherence protocol and miss classification."""

import pytest

from repro.coherence import CoherenceProtocol, Directory, MessageType
from repro.coherence.messages import CoherenceMessage
from repro.coherence.protocol import extract_consumptions
from repro.common.types import AccessType, MemoryAccess, MissClass


def read(node, address, spin=False):
    kind = AccessType.SPIN_READ if spin else AccessType.READ
    return MemoryAccess(node=node, address=address, access_type=kind)


def write(node, address):
    return MemoryAccess(node=node, address=address, access_type=AccessType.WRITE)


class TestDirectory:
    def test_home_node_interleaving(self):
        directory = Directory(num_nodes=4)
        assert directory.home_of(0) == 0
        assert directory.home_of(5) == 1
        assert directory.home_of(7) == 3

    def test_cmob_pointers_newest_first_and_bounded(self):
        directory = Directory(num_nodes=4, cmob_pointers_per_block=2)
        directory.record_cmob_pointer(10, node=0, offset=5)
        directory.record_cmob_pointer(10, node=1, offset=9)
        directory.record_cmob_pointer(10, node=2, offset=12)
        pointers = directory.cmob_pointers(10)
        assert len(pointers) == 2
        assert pointers[0] == (2, 12)  # (node, offset), newest first
        assert pointers[1] == (1, 9)

    def test_same_node_pointer_refreshes_in_place(self):
        directory = Directory(num_nodes=4, cmob_pointers_per_block=2)
        directory.record_cmob_pointer(10, node=0, offset=5)
        directory.record_cmob_pointer(10, node=1, offset=7)
        directory.record_cmob_pointer(10, node=0, offset=20)
        pointers = directory.cmob_pointers(10)
        assert pointers == [(0, 20), (1, 7)]

    def test_pointer_storage_bits_formula(self):
        directory = Directory(num_nodes=16, cmob_pointers_per_block=2)
        # 2 pointers x (log2(16) + log2(2^18)) = 2 x (4 + 18) = 44 bits.
        assert directory.pointer_storage_bits(cmob_capacity=1 << 18) == 44


class TestMissClassification:
    def test_first_read_of_unwritten_block_is_cold(self):
        protocol = CoherenceProtocol(num_nodes=2)
        result = protocol.process(read(0, 10))
        assert result.miss_class is MissClass.COLD_MISS

    def test_reread_is_hit(self):
        protocol = CoherenceProtocol(num_nodes=2)
        protocol.process(read(0, 10))
        assert protocol.process(read(0, 10)).miss_class is MissClass.HIT

    def test_read_after_remote_write_is_consumption(self):
        protocol = CoherenceProtocol(num_nodes=2)
        protocol.process(write(1, 10))
        result = protocol.process(read(0, 10))
        assert result.miss_class is MissClass.COHERENT_READ_MISS
        assert result.producer == 1
        assert result.is_consumption

    def test_read_after_own_write_is_hit(self):
        protocol = CoherenceProtocol(num_nodes=2)
        protocol.process(write(0, 10))
        assert protocol.process(read(0, 10)).miss_class is MissClass.HIT

    def test_spin_read_excluded_from_consumptions(self):
        protocol = CoherenceProtocol(num_nodes=2)
        protocol.process(write(1, 10))
        result = protocol.process(read(0, 10, spin=True))
        assert result.miss_class is MissClass.SPIN_COHERENT_MISS
        assert not result.is_consumption

    def test_write_invalidates_remote_copies(self):
        protocol = CoherenceProtocol(num_nodes=2)
        protocol.process(write(1, 10))
        protocol.process(read(0, 10))        # node 0 now shares the block
        protocol.process(write(1, 10))       # node 1 writes again
        result = protocol.process(read(0, 10))
        assert result.miss_class is MissClass.COHERENT_READ_MISS

    def test_migratory_pattern_produces_consumption_chain(self):
        protocol = CoherenceProtocol(num_nodes=3)
        protocol.process(write(0, 42))
        for reader, writer in ((1, 1), (2, 2), (0, 0)):
            result = protocol.process(read(reader, 42))
            assert result.miss_class is MissClass.COHERENT_READ_MISS
            protocol.process(write(writer, 42))

    def test_install_copy_prevents_future_consumption(self):
        protocol = CoherenceProtocol(num_nodes=2)
        protocol.process(write(1, 10))
        protocol.install_copy(0, 10)
        assert protocol.process(read(0, 10)).miss_class is MissClass.HIT

    def test_holders_tracking(self):
        protocol = CoherenceProtocol(num_nodes=3)
        protocol.process(write(0, 7))
        protocol.process(read(1, 7))
        assert set(protocol.holders_of(7)) == {0, 1}

    def test_version_increments_per_write(self):
        protocol = CoherenceProtocol(num_nodes=2)
        for expected in range(1, 4):
            protocol.process(write(0, 3))
            assert protocol.version_of(3) == expected


class TestFiniteCacheModel:
    def test_capacity_miss_classified(self):
        from repro.common.config import CacheConfig

        tiny_l2 = CacheConfig(size_bytes=4 * 64, associativity=1, block_size=64)
        protocol = CoherenceProtocol(num_nodes=1, cache_model="finite", l2_config=tiny_l2)
        protocol.process(write(0, 0))
        # Evict block 0 by filling its (direct-mapped) set with a conflicting block.
        protocol.process(read(0, 4))
        result = protocol.process(read(0, 0))
        assert result.miss_class is MissClass.CAPACITY_MISS

    def test_finite_model_requires_l2_config(self):
        with pytest.raises(ValueError):
            CoherenceProtocol(num_nodes=1, cache_model="finite")


def messages_of_last(accesses, num_nodes=4):
    """(miss class, messages of the last access) as (type, src, dst, block)."""
    sent = []
    protocol = CoherenceProtocol(num_nodes=num_nodes, message_sink=sent.append)
    for access in accesses[:-1]:
        protocol.process(access)
    del sent[:]
    result = protocol.process(accesses[-1])
    return result.miss_class, [(m.msg_type.name, m.src, m.dst, m.address) for m in sent]


#: Exact message sequence of every protocol transition, in the order the
#: sink receives it: 4 nodes, block 10 (home node 2).
TRANSITIONS = {
    "cold_read": (
        [read(0, 10)],
        MissClass.COLD_MISS,
        [("READ_REQUEST", 0, 2, 10), ("DATA_REPLY", 2, 0, 10)],
    ),
    "coherent_read_producer_not_home": (
        [write(1, 10), read(0, 10)],
        MissClass.COHERENT_READ_MISS,
        [("READ_REQUEST", 0, 2, 10), ("FORWARD_REQUEST", 2, 1, 10),
         ("DATA_REPLY_COHERENT", 1, 0, 10)],
    ),
    "coherent_read_producer_is_home": (
        [write(2, 10), read(0, 10)],
        MissClass.COHERENT_READ_MISS,
        [("READ_REQUEST", 0, 2, 10), ("DATA_REPLY_COHERENT", 2, 0, 10)],
    ),
    "spin_coherent_read": (
        [write(1, 10), read(0, 10, spin=True)],
        MissClass.SPIN_COHERENT_MISS,
        [("READ_REQUEST", 0, 2, 10), ("FORWARD_REQUEST", 2, 1, 10),
         ("DATA_REPLY_COHERENT", 1, 0, 10)],
    ),
    "write_miss_no_sharers": (
        [write(0, 10)],
        MissClass.WRITE_MISS,
        [("READ_EXCLUSIVE_REQUEST", 0, 2, 10), ("DATA_REPLY", 2, 0, 10)],
    ),
    "write_miss_one_sharer": (
        [read(1, 10), write(0, 10)],
        MissClass.WRITE_MISS,
        [("READ_EXCLUSIVE_REQUEST", 0, 2, 10), ("INVALIDATE", 2, 1, 10),
         ("INVALIDATE_ACK", 1, 0, 10), ("DATA_REPLY", 2, 0, 10)],
    ),
    "write_miss_sharers_including_home": (
        [read(1, 10), read(2, 10), read(3, 10), write(0, 10)],
        MissClass.WRITE_MISS,
        [("READ_EXCLUSIVE_REQUEST", 0, 2, 10), ("INVALIDATE", 2, 1, 10),
         ("INVALIDATE_ACK", 1, 0, 10), ("INVALIDATE", 2, 3, 10),
         ("INVALIDATE_ACK", 3, 0, 10), ("DATA_REPLY", 2, 0, 10)],
    ),
    "write_miss_after_remote_write": (
        [write(1, 10), write(0, 10)],
        MissClass.WRITE_MISS,
        [("READ_EXCLUSIVE_REQUEST", 0, 2, 10), ("INVALIDATE", 2, 1, 10),
         ("INVALIDATE_ACK", 1, 0, 10), ("DATA_REPLY", 2, 0, 10)],
    ),
    "upgrade": (
        [read(0, 10), read(1, 10), write(0, 10)],
        MissClass.HIT,
        [("UPGRADE_REQUEST", 0, 2, 10), ("INVALIDATE", 2, 1, 10),
         ("INVALIDATE_ACK", 1, 0, 10)],
    ),
    "upgrade_home_victim": (
        [read(0, 10), read(2, 10), write(0, 10)],
        MissClass.HIT,
        [("UPGRADE_REQUEST", 0, 2, 10)],
    ),
    "silent_upgrade": ([read(0, 10), write(0, 10)], MissClass.HIT, []),
    "private_rewrite": ([write(0, 10), write(0, 10)], MissClass.HIT, []),
}


class TestMessagesAndExtraction:
    def test_coherent_miss_generates_three_hop_messages(self):
        sent = []
        protocol = CoherenceProtocol(num_nodes=4, message_sink=sent.append)
        protocol.process(write(1, 10))
        del sent[:]
        protocol.process(read(0, 10))
        types = [m.msg_type for m in sent]
        assert MessageType.READ_REQUEST in types
        assert MessageType.DATA_REPLY_COHERENT in types

    @pytest.mark.parametrize("name", sorted(TRANSITIONS))
    def test_transition_message_sequence(self, name):
        accesses, miss_class, expected = TRANSITIONS[name]
        assert messages_of_last(accesses) == (miss_class, expected)

    def test_message_sizes_include_data_payload(self):
        control = CoherenceMessage(MessageType.READ_REQUEST, 0, 1, 5)
        data = CoherenceMessage(MessageType.DATA_REPLY, 1, 0, 5)
        assert data.size_bytes() > control.size_bytes()
        assert data.size_bytes() >= 64

    def test_address_stream_size_scales_with_entries(self):
        short = CoherenceMessage(MessageType.ADDRESS_STREAM, 0, 1, 5, num_addresses=4)
        long = CoherenceMessage(MessageType.ADDRESS_STREAM, 0, 1, 5, num_addresses=32)
        assert long.size_bytes() - short.size_bytes() == 28 * 6

    def test_tse_overhead_flag(self):
        assert MessageType.ADDRESS_STREAM.is_tse_overhead
        assert not MessageType.READ_REQUEST.is_tse_overhead

    def test_extract_consumptions_orders_and_indexes(self):
        protocol = CoherenceProtocol(num_nodes=2)
        accesses = [write(1, 10), write(1, 11), read(0, 10), read(0, 11)]
        results = [protocol.process(a) for a in accesses]
        per_node = extract_consumptions(results, 2)
        assert [c.address for c in per_node[0]] == [10, 11]
        assert [c.index for c in per_node[0]] == [0, 1]
        assert per_node[1] == []
