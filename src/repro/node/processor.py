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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.common.config import SystemConfig
from repro.common.stats import ratio
from repro.common.types import MemoryAccess
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


@dataclass
class _OutstandingMiss:
    """One in-flight off-chip miss tracked by the interval model."""

    completion: float
    instruction: int
    is_consumption: bool


class ProcessorModel:
    """Interval-based timing walk over one node's labelled access sequence."""

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

    # ----------------------------------------------------------------- helpers
    def _charge_wait(
        self, result: NodeTimingResult, clock: float, target: float, coherent: bool
    ) -> float:
        """Advance the clock to ``target``, charging the wait to a stall bucket."""
        wait = target - clock
        if wait <= 0:
            return clock
        if coherent:
            result.coherent_read_stall_cycles += wait
        else:
            result.other_stall_cycles += wait
        return target

    @staticmethod
    def _drain_completed(outstanding: List[_OutstandingMiss], clock: float) -> None:
        outstanding[:] = [m for m in outstanding if m.completion > clock]

    # -------------------------------------------------------------------- walk
    def run_node(
        self,
        node: int,
        accesses: Sequence[MemoryAccess],
        outcomes: Sequence[Tuple[int, int]],
    ) -> NodeTimingResult:
        """Walk one node's accesses with their outcome labels.

        Args:
            node: Node id (for the result record).
            accesses: The node's accesses in program order.
            outcomes: Parallel (Outcome, lead_instructions) labels produced by
                the functional simulator for the same accesses.
        """
        result = NodeTimingResult(node=node)
        if len(accesses) != len(outcomes):
            raise ValueError("accesses and outcomes must be parallel sequences")

        clock = 0.0
        previous_timestamp = 0
        outstanding: List[_OutstandingMiss] = []
        last_miss_completion = 0.0
        # MLP bookkeeping: each consumption is outstanding for exactly its
        # latency; mlp_busy_time is the union of those intervals, tracked
        # incrementally because issues happen in increasing clock order.
        mlp_cover_end = 0.0
        # Wall-clock at which each of the node's earlier accesses was reached;
        # used to reconstruct when a streamed block's fetch was issued.
        wallclock_history: List[float] = []

        # Outcome codes compared as plain ints: the labels arrive as raw
        # array values and constructing an enum member per access dominates
        # the walk otherwise.
        other_code = int(Outcome.OTHER)
        write_code = int(Outcome.WRITE)
        spin_code = int(Outcome.SPIN)
        svb_hit_code = int(Outcome.SVB_HIT)
        consumption_code = int(Outcome.CONSUMPTION)
        ipc = self._ipc

        for access, (outcome_code, lead) in zip(accesses, outcomes):
            outcome = int(outcome_code)
            # Busy time for the instructions since the previous access.
            gap_instructions = access.timestamp - previous_timestamp
            if gap_instructions < 0:
                gap_instructions = 0
            busy = gap_instructions / ipc
            clock += busy
            result.busy_cycles += busy
            previous_timestamp = access.timestamp
            wallclock_history.append(clock)
            if outstanding:
                self._drain_completed(outstanding, clock)

            if outcome == other_code or outcome == write_code:
                # Cache hits retire at full speed; write latency is hidden by
                # the relaxed consistency implementation (Section 4).
                continue

            if outcome == spin_code:
                result.other_stall_cycles += (
                    self.latency.coherent_read_cycles * self.SPIN_STALL_FRACTION
                )
                continue

            if outcome == svb_hit_code:
                # The block's fetch was issued `lead` node-local accesses ago;
                # its arrival is that point's wall clock plus the stream fetch
                # latency.  If it has already arrived the consumption is fully
                # hidden, otherwise the remainder stalls the processor
                # (partial coverage, Table 3).
                request_index = len(wallclock_history) - 1 - int(lead)
                if 0 <= request_index < len(wallclock_history):
                    request_clock = wallclock_history[request_index]
                else:
                    request_clock = clock
                fetch = self.latency.stream_fetch_cycles + self.latency.block_serialization_cycles
                arrival = request_clock + fetch
                remaining = arrival - clock
                if remaining <= 0:
                    result.fully_covered += 1
                else:
                    result.partially_covered += 1
                    if access.dependent:
                        # Pointer-chasing code needs the data immediately.
                        clock = self._charge_wait(result, clock, arrival, coherent=True)
                    else:
                        # Independent consumers keep executing; the in-flight
                        # streamed block behaves like an outstanding miss and
                        # its residual latency overlaps with other work.
                        outstanding.append(
                            _OutstandingMiss(
                                completion=arrival,
                                instruction=access.timestamp,
                                is_consumption=True,
                            )
                        )
                        outstanding.sort(key=lambda m: m.instruction)
                        last_miss_completion = max(last_miss_completion, arrival)
                continue

            # --- true off-chip misses ----------------------------------------
            is_consumption = outcome == consumption_code
            latency = (
                self.latency.coherent_read_cycles
                if is_consumption
                else self.latency.remote_memory_cycles
            )

            # Dependence: pointer-chasing accesses wait for the previous miss.
            if access.dependent and last_miss_completion > clock:
                clock = self._charge_wait(
                    result, clock, last_miss_completion, coherent=is_consumption
                )
                self._drain_completed(outstanding, clock)

            # MSHR limit.
            while len(outstanding) >= self._mshrs:
                earliest = min(outstanding, key=lambda m: m.completion)
                clock = self._charge_wait(result, clock, earliest.completion, coherent=True)
                self._drain_completed(outstanding, clock)

            # ROB window: the oldest outstanding miss must retire before an
            # instruction more than `rob` younger can issue.
            while outstanding and (
                access.timestamp - outstanding[0].instruction > self._rob
            ):
                oldest = outstanding[0]
                clock = self._charge_wait(
                    result, clock, oldest.completion, coherent=oldest.is_consumption
                )
                self._drain_completed(outstanding, clock)

            completion = clock + latency
            outstanding.append(
                _OutstandingMiss(
                    completion=completion,
                    instruction=access.timestamp,
                    is_consumption=is_consumption,
                )
            )
            outstanding.sort(key=lambda m: m.instruction)
            last_miss_completion = max(last_miss_completion, completion)
            if is_consumption:
                result.uncovered += 1
                # MLP: this consumption is outstanding for exactly `latency`;
                # the busy-time denominator is the union of such intervals.
                result.mlp_area += latency
                covered_from = max(clock, mlp_cover_end)
                if completion > covered_from:
                    result.mlp_busy_time += completion - covered_from
                mlp_cover_end = max(mlp_cover_end, completion)
            # Dependent misses stall the processor for their full latency
            # (the next instruction needs the data).
            if access.dependent:
                clock = self._charge_wait(result, clock, completion, coherent=is_consumption)
                self._drain_completed(outstanding, clock)

        # Drain: the remaining outstanding misses stall the end of the interval.
        for miss in sorted(outstanding, key=lambda m: m.completion):
            clock = self._charge_wait(result, clock, miss.completion, coherent=miss.is_consumption)
        return result
