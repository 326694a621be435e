"""Interconnect latency and traffic accounting.

The :class:`Network` answers "how long does this message take" for the timing
model, and the :class:`TrafficAccountant` accumulates byte volumes — total,
per message category, and across the bisection — for the bandwidth overhead
results (Figure 11 and the Section 5.4 pin-bandwidth discussion).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.coherence.messages import CoherenceMessage, MessageType
from repro.common.config import InterconnectConfig
from repro.common.stats import StatsRegistry
from repro.common.types import NodeId
from repro.interconnect.torus import TorusTopology


class Network:
    """Latency model for the 2D torus.

    Message latency = hops x hop_latency + serialization of the payload over
    a link whose bandwidth is the bisection bandwidth divided by the number
    of bisection links (a standard first-order approximation).
    """

    def __init__(self, config: InterconnectConfig) -> None:
        self.config = config
        self.topology = TorusTopology.from_config(config)
        # A width x height torus has 2*height wrap+direct links crossing the
        # X bisection (2 per row: one direct, one wrap-around).
        self._bisection_links = max(2 * config.height, 1)
        self._link_bandwidth_gbps = config.bisection_bandwidth_gbps / self._bisection_links

    def hop_count(self, src: NodeId, dst: NodeId) -> int:
        return self.topology.hop_count(src, dst)

    def message_latency_ns(self, message: CoherenceMessage) -> float:
        """End-to-end latency of one message in nanoseconds."""
        hops = self.topology.hop_count(message.src, message.dst)
        if hops == 0:
            return 0.0
        propagation = hops * self.config.hop_latency_ns
        bytes_on_wire = message.size_bytes(self.config.header_bytes)
        serialization = bytes_on_wire / self._link_bandwidth_gbps  # GB/s == bytes/ns
        return propagation + serialization

    def round_trip_ns(self, src: NodeId, dst: NodeId, data_bytes: int = 64) -> float:
        """Request/response round trip latency between two nodes."""
        request = CoherenceMessage(MessageType.READ_REQUEST, src, dst)
        reply = CoherenceMessage(MessageType.DATA_REPLY, dst, src, payload_bytes=data_bytes)
        return self.message_latency_ns(request) + self.message_latency_ns(reply)


@dataclass
class TrafficTotals:
    """Accumulated traffic volumes in bytes."""

    total_bytes: int = 0
    bisection_bytes: int = 0
    by_type: Dict[MessageType, int] = field(default_factory=dict)

    def add(self, msg_type: MessageType, size: int, crosses_bisection: bool) -> None:
        self.total_bytes += size
        if crosses_bisection:
            self.bisection_bytes += size
        self.by_type[msg_type] = self.by_type.get(msg_type, 0) + size


class TrafficAccountant:
    """Accumulates message traffic, split into baseline and TSE-overhead.

    Figure 11 reports the *overhead* bandwidth: traffic added by TSE beyond
    the baseline system.  Correctly streamed data blocks replace baseline
    coherent-read fills one-for-one, so they are not overhead; discarded
    (erroneously streamed) blocks, streamed address packets, stream requests
    and CMOB pointer updates are.
    """

    def __init__(self, config: InterconnectConfig) -> None:
        self.config = config
        self.topology = TorusTopology.from_config(config)
        self.stats = StatsRegistry(prefix="traffic")
        self.baseline = TrafficTotals()
        self.overhead = TrafficTotals()

    def record(self, message: CoherenceMessage, overhead: Optional[bool] = None) -> None:
        """Record one message.

        Args:
            message: The message to account for.
            overhead: Force the overhead/baseline classification; when None
                the message type's ``is_tse_overhead`` property decides.
        """
        if message.is_local:
            return
        size = message.size_bytes(self.config.header_bytes)
        crosses = self.topology.crosses_bisection(message.src, message.dst)
        is_overhead = message.msg_type.is_tse_overhead if overhead is None else overhead
        target = self.overhead if is_overhead else self.baseline
        target.add(message.msg_type, size, crosses)

    # ------------------------------------------------------------- reporting
    def overhead_ratio(self) -> float:
        """Overhead traffic as a fraction of baseline traffic (Figure 11 labels)."""
        if not self.baseline.total_bytes:
            return 0.0
        return self.overhead.total_bytes / self.baseline.total_bytes

    def bisection_bandwidth_gbps(self, elapsed_ns: float, overhead_only: bool = True) -> float:
        """Average bisection bandwidth in GB/s over an interval.

        Bytes / ns == GB/s, so the conversion is direct.
        """
        if elapsed_ns <= 0:
            return 0.0
        volume = self.overhead.bisection_bytes if overhead_only else (
            self.overhead.bisection_bytes + self.baseline.bisection_bytes
        )
        return volume / elapsed_ns

    def snapshot(self) -> Dict[str, float]:
        """Flat dictionary of traffic volumes for the experiment harness."""
        out: Dict[str, float] = {
            "baseline.total_bytes": float(self.baseline.total_bytes),
            "baseline.bisection_bytes": float(self.baseline.bisection_bytes),
            "overhead.total_bytes": float(self.overhead.total_bytes),
            "overhead.bisection_bytes": float(self.overhead.bisection_bytes),
            "overhead.ratio": self.overhead_ratio(),
        }
        for msg_type, volume in self.overhead.by_type.items():
            out[f"overhead.{msg_type.value}_bytes"] = float(volume)
        return out
