"""Per-node processor timing model.

The model is an *interval* model of an out-of-order core, not a pipeline
simulator: the core retires non-memory work at a fixed base IPC, issues
misses as soon as they are encountered, and overlaps independent misses
subject to three limits that bound memory-level parallelism:

* **dependence** — an access marked ``dependent`` (pointer chasing) cannot
  issue until the node's previous off-chip miss has completed;
* **MSHRs** — at most ``l2.mshrs`` misses may be outstanding;
* **ROB window** — a miss more than ``rob_entries`` instructions younger than
  the oldest outstanding miss forces that oldest miss to retire first.

Stalls accumulate into two buckets — coherent-read stalls (what TSE attacks)
and other stalls — matching Figure 14's execution-time breakdown.  The model
also measures consumption MLP (the average number of outstanding coherent
read misses when at least one is outstanding), reported in Table 3.

The walk reads one node's accesses as plain-int columns — timestamps,
dependence flags, outcome codes and SVB-hit leads — which
:class:`repro.system.timing.TimingSimulator` splits out of the packed trace
chunks and the functional labels; no ``MemoryAccess`` object is built.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from operator import itemgetter
from typing import List, Optional, Sequence, Tuple

from repro.common.config import SystemConfig
from repro.common.stats import ratio
from repro.node.latency import LatencyModel
from repro.tse.simulator import Outcome


@dataclass
class NodeTimingResult:
    """Execution-time breakdown for one node, in processor cycles."""

    node: int = 0
    busy_cycles: float = 0.0
    coherent_read_stall_cycles: float = 0.0
    other_stall_cycles: float = 0.0
    #: Consumptions whose latency was fully hidden (SVB hit, data already there).
    fully_covered: int = 0
    #: Consumptions whose latency was partially hidden (streamed data in flight).
    partially_covered: int = 0
    #: Consumptions not covered at all.
    uncovered: int = 0
    #: Sum of (outstanding consumptions x time) for MLP measurement.
    mlp_area: float = 0.0
    #: Total time during which at least one consumption was outstanding.
    mlp_busy_time: float = 0.0

    @property
    def total_cycles(self) -> float:
        return self.busy_cycles + self.coherent_read_stall_cycles + self.other_stall_cycles

    @property
    def consumption_mlp(self) -> float:
        """Average outstanding coherent read misses while at least one is outstanding."""
        return ratio(self.mlp_area, self.mlp_busy_time, default=1.0)

    def merge(self, other: "NodeTimingResult") -> None:
        self.busy_cycles += other.busy_cycles
        self.coherent_read_stall_cycles += other.coherent_read_stall_cycles
        self.other_stall_cycles += other.other_stall_cycles
        self.fully_covered += other.fully_covered
        self.partially_covered += other.partially_covered
        self.uncovered += other.uncovered
        self.mlp_area += other.mlp_area
        self.mlp_busy_time += other.mlp_busy_time


#: ``earliest`` completion while no miss is outstanding.
_NEVER = float("inf")
_instruction = itemgetter(0)
_completion = itemgetter(1)


def _retire(outstanding: List[Tuple[int, float, bool]], clock: float) -> float:
    """Drop the misses completed by ``clock``; return the earliest completion left."""
    outstanding[:] = [miss for miss in outstanding if miss[1] > clock]
    return min(map(_completion, outstanding), default=_NEVER)


class ProcessorModel:
    """Interval-based timing walk over one node's labelled access columns."""

    #: Spin reads burn issue slots but their latency is synchronisation time,
    #: charged to "other stalls" at a discounted rate (the spin overlaps the
    #: remote lock holder's critical section).
    SPIN_STALL_FRACTION = 0.25

    def __init__(self, system: SystemConfig, latency: Optional[LatencyModel] = None) -> None:
        self.system = system
        self.latency = latency if latency is not None else LatencyModel(system)
        self._ipc = system.processor.base_ipc
        self._rob = system.processor.rob_entries
        self._mshrs = system.l2.mshrs

    def run_node(
        self,
        node: int,
        timestamps: Sequence[int],
        deps: Sequence[int],
        codes: Sequence[int],
        leads: Sequence[int],
    ) -> NodeTimingResult:
        """Walk one node's accesses, given as parallel per-access columns.

        Args:
            node: Node id (for the result record).
            timestamps: Each access's logical retire time (instruction
                count), in program order.
            deps: Nonzero where the access is dependent (pointer chasing).
            codes: Each access's :class:`~repro.tse.simulator.Outcome` code,
                as labelled by the functional simulator.
            leads: Each SVB hit's lead in node-local accesses (ignored for
                other outcomes).

        Raises:
            ValueError: The four columns differ in length.
        """
        if not len(timestamps) == len(deps) == len(codes) == len(leads):
            raise ValueError("timestamps, deps, codes and leads must be parallel columns")

        latency = self.latency
        coherent_latency = latency.coherent_read_cycles
        remote_latency = latency.remote_memory_cycles
        spin_stall = coherent_latency * self.SPIN_STALL_FRACTION
        fetch = latency.stream_fetch_cycles + latency.block_serialization_cycles
        ipc, rob, mshrs = self._ipc, self._rob, self._mshrs
        # Outcome codes compared as plain ints: building an enum member per
        # access would dominate the walk.
        other_code = int(Outcome.OTHER)
        write_code = int(Outcome.WRITE)
        spin_code = int(Outcome.SPIN)
        svb_hit_code = int(Outcome.SVB_HIT)
        consumption_code = int(Outcome.CONSUMPTION)

        busy_cycles = 0.0
        # Other and coherent-read stall cycles, indexed by is_consumption.
        stalls = [0.0, 0.0]
        fully_covered = partially_covered = uncovered = 0
        mlp_area = mlp_busy_time = 0.0
        clock = 0.0
        previous_timestamp = 0
        # In-flight misses as (instruction, completion, is_consumption) tuples
        # in instruction order (ties in issue order), and their earliest
        # completion: retiring is needed only once the clock passes it.
        outstanding: List[Tuple[int, float, bool]] = []
        earliest = _NEVER
        last_miss_completion = 0.0
        # MLP bookkeeping: each consumption is outstanding for exactly its
        # latency; mlp_busy_time is the union of those intervals, tracked
        # incrementally because issues happen in increasing clock order.
        mlp_cover_end = 0.0
        # Wall-clock at which each of the node's accesses was reached; used to
        # reconstruct when a streamed block's fetch was issued.
        wallclock_history: List[float] = []
        record_clock = wallclock_history.append

        for index, (timestamp, dependent, outcome, lead) in enumerate(
            zip(timestamps, deps, codes, leads)
        ):
            # Busy time for the instructions since the previous access (none
            # when the timestamp repeats or goes backwards).
            if timestamp > previous_timestamp:
                busy = (timestamp - previous_timestamp) / ipc
                clock += busy
                busy_cycles += busy
            previous_timestamp = timestamp
            record_clock(clock)
            if earliest <= clock:
                earliest = _retire(outstanding, clock)

            if outcome == other_code or outcome == write_code:
                # Cache hits retire at full speed; write latency is hidden by
                # the relaxed consistency implementation (Section 4).
                continue

            if outcome == spin_code:
                stalls[0] += spin_stall
                continue

            if outcome == svb_hit_code:
                # The block's fetch was issued `lead` node-local accesses ago;
                # its arrival is that point's wall clock plus the stream fetch
                # latency.  If it has already arrived the consumption is fully
                # hidden, otherwise the remainder stalls the processor
                # (partial coverage, Table 3).
                request_clock = wallclock_history[index - lead] if 0 <= lead <= index else clock
                arrival = request_clock + fetch
                if arrival <= clock:
                    fully_covered += 1
                    continue
                partially_covered += 1
                if dependent:
                    # Pointer-chasing code needs the data immediately.
                    stalls[1] += arrival - clock
                    clock = arrival
                else:
                    # Independent consumers keep executing; the in-flight
                    # streamed block behaves like an outstanding miss and
                    # its residual latency overlaps with other work.
                    insort(outstanding, (timestamp, arrival, True), key=_instruction)
                    if arrival < earliest:
                        earliest = arrival
                    if arrival > last_miss_completion:
                        last_miss_completion = arrival
                continue

            # --- true off-chip misses ----------------------------------------
            is_consumption = outcome == consumption_code
            miss_latency = coherent_latency if is_consumption else remote_latency

            # Dependence: pointer-chasing accesses wait for the previous miss.
            # No miss completes after the last one, so none is left.
            if dependent and last_miss_completion > clock:
                stalls[is_consumption] += last_miss_completion - clock
                clock = last_miss_completion
                outstanding.clear()
                earliest = _NEVER

            # MSHR limit.
            while len(outstanding) >= mshrs:
                if earliest > clock:
                    stalls[1] += earliest - clock
                    clock = earliest
                earliest = _retire(outstanding, clock)

            # ROB window: the oldest outstanding miss must retire before an
            # instruction more than `rob` younger can issue.
            while outstanding and timestamp - outstanding[0][0] > rob:
                _, completion, consumption = outstanding[0]
                if completion > clock:
                    stalls[consumption] += completion - clock
                    clock = completion
                earliest = _retire(outstanding, clock)

            completion = clock + miss_latency
            insort(outstanding, (timestamp, completion, is_consumption), key=_instruction)
            if completion < earliest:
                earliest = completion
            if completion > last_miss_completion:
                last_miss_completion = completion
            if is_consumption:
                uncovered += 1
                # MLP: this consumption is outstanding for exactly its
                # latency; the busy-time denominator is the union of such
                # intervals.
                mlp_area += miss_latency
                covered_from = mlp_cover_end if mlp_cover_end > clock else clock
                if completion > covered_from:
                    mlp_busy_time += completion - covered_from
                if completion > mlp_cover_end:
                    mlp_cover_end = completion
            # Dependent misses stall the processor for their full latency
            # (the next instruction needs the data).  Issued no earlier than
            # the previous last completion, this miss completes last.
            if dependent:
                stalls[is_consumption] += completion - clock
                clock = completion
                outstanding.clear()
                earliest = _NEVER

        # Drain: the remaining outstanding misses stall the end of the
        # interval, earliest completion first (ties in instruction order).
        for _, completion, consumption in sorted(outstanding, key=_completion):
            if completion > clock:
                stalls[consumption] += completion - clock
                clock = completion

        return NodeTimingResult(
            node=node,
            busy_cycles=busy_cycles,
            coherent_read_stall_cycles=stalls[1],
            other_stall_cycles=stalls[0],
            fully_covered=fully_covered,
            partially_covered=partially_covered,
            uncovered=uncovered,
            mlp_area=mlp_area,
            mlp_busy_time=mlp_busy_time,
        )
