"""Functional directory coherence protocol.

The protocol processes the globally interleaved access trace one access at a
time, maintaining per-node cache contents and per-block directory state, and
classifies each read as a hit, cold miss, capacity miss, or coherent read
miss.  Coherent read misses that are not spin accesses are the *consumptions*
that the Temporal Streaming Engine targets (Section 5).

Two cache models are supported:

* ``infinite`` (default) — every node retains every block it has referenced
  until another node's write invalidates it.  This isolates coherence misses
  exactly, matching the paper's focus ("their detrimental effect is
  aggravated as cache sizes increase").
* ``finite`` — per-node L2-sized set-associative caches, so capacity misses
  also occur.  Used for ablations.

Classification rule (version-based): every block carries a version number
incremented on each write.  A read miss is

* a **cold miss** when the block has never been written by any remote node and
  the reader has never held it;
* a **coherent read miss** when the block's current version was produced by a
  different node than the reader and the reader has not yet observed that
  version;
* a **capacity miss** (finite mode only) when the reader observed the current
  version before but evicted the block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.coherence.directory import Directory, DirectoryEntry, DirectoryState
from repro.coherence.messages import CoherenceMessage, MessageType
from repro.common.config import CacheConfig
from repro.common.stats import StatsRegistry, publish_counters
from repro.common.types import (
    BlockAddress,
    Consumption,
    MemoryAccess,
    MissClass,
    NodeId,
)
from repro.memory.cache import Cache, LineState

#: Small-int read-classification codes returned by
#: :meth:`CoherenceProtocol.read_ints`; writes have no code — the caller
#: already knows the access was a write.
READ_HIT = 0
READ_COHERENT = 1
READ_SPIN_COHERENT = 2
READ_COLD = 3
READ_CAPACITY = 4

#: ``READ_*`` code -> MissClass (the object-level view :meth:`process` returns).
_MISS_CLASS_OF_READ = (
    MissClass.HIT,
    MissClass.COHERENT_READ_MISS,
    MissClass.SPIN_COHERENT_MISS,
    MissClass.COLD_MISS,
    MissClass.CAPACITY_MISS,
)


@dataclass(slots=True)
class AccessResult:
    """Outcome of one access processed by the protocol.

    Attributes:
        access: The access that was processed.
        miss_class: Hit/miss classification.
        producer: Node whose write produced the version being read (only
            meaningful for coherent read misses).
        is_consumption: True when this access counts as a consumption
            (coherent read miss, not a spin).
    """

    access: MemoryAccess
    miss_class: MissClass
    producer: Optional[NodeId] = None

    @property
    def is_consumption(self) -> bool:
        return self.miss_class is MissClass.COHERENT_READ_MISS


@dataclass(slots=True)
class _BlockState:
    """Protocol-internal per-block bookkeeping."""

    version: int = 0
    last_writer: Optional[NodeId] = None
    #: version of the block each node has observed (and still holds, in
    #: infinite mode). Missing key == never held.
    held_version: Dict[NodeId, int] = field(default_factory=dict)
    #: Lazily linked directory entry for this block (one dict probe saved on
    #: every miss/write).  Entries are created once and never replaced, so
    #: the link cannot go stale.
    entry: Optional[DirectoryEntry] = None


class CoherenceProtocol:
    """Functional MESI-style directory protocol with miss classification.

    :meth:`read_ints`, :meth:`write_ints` and :meth:`install_copy` are the
    only code that applies coherence transitions; :meth:`process` is the
    object-level wrapper.  When ``message_sink`` is set, every transaction
    hands its coherence messages to it in protocol order (the traffic
    accounting of Figure 11); with no sink, no message is ever built.
    """

    def __init__(
        self,
        num_nodes: int,
        cache_model: str = "infinite",
        l2_config: Optional[CacheConfig] = None,
        message_sink: Optional[Callable[[CoherenceMessage], None]] = None,
        cmob_pointers_per_block: int = 2,
    ) -> None:
        if cache_model not in ("infinite", "finite"):
            raise ValueError(f"unknown cache_model {cache_model!r}")
        if cache_model == "finite" and l2_config is None:
            raise ValueError("finite cache model requires an l2_config")
        self.num_nodes = num_nodes
        self.cache_model = cache_model
        self.message_sink = message_sink
        self.directory = Directory(num_nodes, cmob_pointers_per_block)
        self._stats = StatsRegistry(prefix="protocol")
        # Per-access classification counts, kept as plain ints on the hot
        # path and published into the registry lazily via ``stats``.
        self._n_read_hits = 0
        self._n_coherent_read_misses = 0
        self._n_spin_coherent_misses = 0
        self._n_capacity_misses = 0
        self._n_cold_misses = 0
        self._n_write_hits = 0
        self._n_write_misses = 0
        self._blocks: Dict[BlockAddress, _BlockState] = {}
        self._caches: Optional[List[Cache]] = None
        if cache_model == "finite":
            assert l2_config is not None
            self._caches = [Cache(l2_config, name=f"l2.n{i}") for i in range(num_nodes)]

    @property
    def stats(self) -> StatsRegistry:
        """Statistics registry, synchronized with the plain-int counters on read."""
        return publish_counters(self._stats, {
            "read_hits": self._n_read_hits,
            "coherent_read_misses": self._n_coherent_read_misses,
            "spin_coherent_misses": self._n_spin_coherent_misses,
            "capacity_misses": self._n_capacity_misses,
            "cold_misses": self._n_cold_misses,
            "write_hits": self._n_write_hits,
            "write_misses": self._n_write_misses,
        })

    # -------------------------------------------------------------- processing
    def process(self, access: MemoryAccess) -> AccessResult:
        """Process one access and return its classification."""
        node, address = access.node, access.address
        if access.is_write:
            hit = self.write_ints(node, address)
            return AccessResult(access, MissClass.HIT if hit else MissClass.WRITE_MISS)
        code = self.read_ints(node, address, access.is_spin)
        producer = None
        if code == READ_COHERENT or code == READ_SPIN_COHERENT:
            producer = self._blocks[address].last_writer
        return AccessResult(access, _MISS_CLASS_OF_READ[code], producer)

    def process_trace(self, accesses) -> List[AccessResult]:
        """Process an iterable of accesses; convenience for tests/examples."""
        return [self.process(a) for a in accesses]

    # ``read_ints`` / ``write_ints`` take raw (node, block, spin) ints so the
    # chunked replay loops call them with no ``MemoryAccess`` /
    # ``AccessResult`` allocation, and the read-hit path does no
    # directory-entry lookup (a hit implies a prior fill, so the entry
    # already exists).
    def read_ints(self, node: NodeId, address: BlockAddress, is_spin: bool) -> int:
        """Classify (and apply) one read; returns a ``READ_*`` code."""
        caches = self._caches
        block = self._blocks.get(address)
        if block is None:
            block = _BlockState()
            self._blocks[address] = block
            held = None
        else:
            held = block.held_version.get(node)
            if held == block.version and (
                caches is None or caches[node].contains(address)
            ):
                self._n_read_hits += 1
                return READ_HIT

        version = block.version
        entry = block.entry
        if entry is None:
            entry = block.entry = self.directory.entry(address)
        sink = self.message_sink
        producer = block.last_writer
        if (
            version > 0
            and producer is not None
            and producer != node
            and (held is None or held < version)
        ):
            # The version being read was produced by another node.
            if is_spin:
                code = READ_SPIN_COHERENT
                self._n_spin_coherent_misses += 1
            else:
                code = READ_COHERENT
                self._n_coherent_read_misses += 1
            if sink is not None:
                home = self.directory.home_of(address)
                sink(CoherenceMessage(MessageType.READ_REQUEST, node, home, address))
                replier = home
                if producer != home and producer in block.held_version:
                    # Three-hop: the home forwards to the producer's copy.
                    sink(CoherenceMessage(MessageType.FORWARD_REQUEST, home, producer, address))
                    replier = producer
                sink(CoherenceMessage(MessageType.DATA_REPLY_COHERENT, replier, node, address))
            # Reading downgrades a modified owner to shared.
            if entry.owner is not None and entry.owner != node and caches is not None:
                caches[entry.owner].downgrade(address)
            entry.owner = None
            entry.sharers.add(node)
            entry.state = DirectoryState.SHARED
        else:
            # Miss on data this node has already observed (finite caches
            # only) or on never-written data: capacity or cold.
            if held is not None and held == version:
                code = READ_CAPACITY
                self._n_capacity_misses += 1
            else:
                code = READ_COLD
                self._n_cold_misses += 1
            if sink is not None:
                home = self.directory.home_of(address)
                sink(CoherenceMessage(MessageType.READ_REQUEST, node, home, address))
                sink(CoherenceMessage(MessageType.DATA_REPLY, home, node, address))
            entry.sharers.add(node)
            if entry.state is DirectoryState.UNCACHED:
                entry.state = DirectoryState.SHARED
        # Install the current version in the node's cache.
        block.held_version[node] = version
        if caches is not None:
            caches[node].fill(address, LineState.SHARED)
        return code

    def write_ints(self, node: NodeId, address: BlockAddress) -> bool:
        """Apply one write (or atomic); returns True for a write hit."""
        caches = self._caches
        block = self._blocks.get(address)
        if block is None:
            block = _BlockState()
            self._blocks[address] = block
        held_map = block.held_version
        version = block.version
        if (
            caches is None
            and block.last_writer == node
            and len(held_map) == 1
            and held_map.get(node) == version
        ):
            # Private rewrite: the writer already owns the sole current-
            # version copy, so its last write left the directory entry at
            # exactly (MODIFIED, owner=node, sharers={node}, ever_written)
            # and no reader has touched the block since (any remote read
            # would have grown ``held_map``).  Only the version moves, and
            # the upgrade is silent: no messages.
            version += 1
            block.version = version
            held_map[node] = version
            self._n_write_hits += 1
            return True
        had_copy = held_map.get(node) == version and (
            caches is None or caches[node].contains(address)
        )
        sink = self.message_sink
        if sink is not None:
            victims = [victim for victim in held_map if victim != node]
            if victims or not had_copy:  # else: silent upgrade, no messages
                home = self.directory.home_of(address)
                request = (
                    MessageType.UPGRADE_REQUEST if had_copy
                    else MessageType.READ_EXCLUSIVE_REQUEST
                )
                sink(CoherenceMessage(request, node, home, address))
                for victim in victims:
                    if victim != home:
                        sink(CoherenceMessage(MessageType.INVALIDATE, home, victim, address))
                        sink(CoherenceMessage(MessageType.INVALIDATE_ACK, victim, node, address))
                if not had_copy:
                    sink(CoherenceMessage(MessageType.DATA_REPLY, home, node, address))
        if held_map:
            # Invalidate every copy other than the writer's (the common cases
            # hold one or two copies; fall back to the general loop).
            size = len(held_map)
            if size == 1:
                if node not in held_map:
                    if caches is not None:
                        for victim in held_map:
                            caches[victim].invalidate(address)
                    held_map.clear()
            elif size == 2 and node in held_map:
                # Migratory hand-off: exactly one other holder to invalidate.
                for victim in held_map:
                    if victim != node:
                        break
                del held_map[victim]
                if caches is not None:
                    caches[victim].invalidate(address)
            else:
                for victim in list(held_map):
                    if victim == node:
                        continue
                    del held_map[victim]
                    if caches is not None:
                        caches[victim].invalidate(address)
        entry = block.entry
        if entry is None:
            entry = block.entry = self.directory.entry(address)
        version += 1
        block.version = version
        block.last_writer = node
        entry.state = DirectoryState.MODIFIED
        entry.owner = node
        entry.sharers = {node}
        entry.ever_written = True
        # Install the freshly written version.
        held_map[node] = version
        if caches is not None:
            caches[node].fill(address, LineState.MODIFIED)
        if had_copy:
            self._n_write_hits += 1
        else:
            self._n_write_misses += 1
        return had_copy

    def install_copy(self, node: NodeId, address: BlockAddress) -> None:
        """Install a clean shared copy of the current version at ``node``.

        Used when a streamed block moves from the SVB to the cache: the node
        obtains the data without going through a demand miss, so the protocol
        records it as a sharer of the current version directly.
        """
        caches = self._caches
        block = self._blocks.get(address)
        if block is None:
            block = _BlockState()
            self._blocks[address] = block
        entry = block.entry
        if entry is None:
            entry = block.entry = self.directory.entry(address)
        owner = entry.owner
        if owner is not None and owner != node and caches is not None:
            caches[owner].downgrade(address)
        state = entry.state
        if state is DirectoryState.MODIFIED:
            if owner != node:
                entry.owner = None
                entry.state = DirectoryState.SHARED
        elif state is DirectoryState.UNCACHED:
            entry.state = DirectoryState.SHARED
        entry.sharers.add(node)
        block.held_version[node] = block.version
        if caches is not None:
            caches[node].fill(address, LineState.SHARED)

    # ------------------------------------------------------------- inspection
    def block_info(self, address: BlockAddress) -> Tuple[Optional[NodeId], int]:
        """``(last_writer, version)`` of a block in one lookup (hot path)."""
        block = self._blocks.get(address)
        if block is None:
            return None, 0
        return block.last_writer, block.version

    def version_of(self, address: BlockAddress) -> int:
        block = self._blocks.get(address)
        return block.version if block is not None else 0

    def last_writer_of(self, address: BlockAddress) -> Optional[NodeId]:
        block = self._blocks.get(address)
        return block.last_writer if block is not None else None

    def holders_of(self, address: BlockAddress) -> List[NodeId]:
        """Nodes currently holding a valid copy of the block."""
        block = self._blocks.get(address)
        if block is None:
            return []
        caches = self._caches
        return [
            n for n, held in block.held_version.items()
            if held == block.version and (caches is None or caches[n].contains(address))
        ]


def extract_consumptions(
    results: List[AccessResult], num_nodes: int
) -> List[List[Consumption]]:
    """Split classified results into per-node consumption sequences.

    Each node's list is ordered by the node's program order (which, because
    the trace is globally interleaved, is also its appearance order in the
    results).  The per-node ``index`` matches the CMOB slot the consumption
    would occupy.
    """
    per_node: List[List[Consumption]] = [[] for _ in range(num_nodes)]
    for global_index, result in enumerate(results):
        if not result.is_consumption:
            continue
        node = result.access.node
        per_node[node].append(
            Consumption(
                node=node,
                address=result.access.address,
                index=len(per_node[node]),
                global_index=global_index,
                timestamp=result.access.timestamp,
                producer=result.producer,
            )
        )
    return per_node
