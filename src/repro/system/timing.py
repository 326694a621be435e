"""DSM timing simulation: execution-time breakdown, speedups, timeliness.

Mirrors the paper's methodology split: the functional simulator decides
*which* misses are consumptions and which of them TSE eliminates, and this
timing model decides *how much time* that saves, by replaying each node's
labelled access sequence through the interval-based processor model with the
Table 1 latencies.  The base system is labelled by one plain coherence
classification pass (:mod:`repro.coherence.protocol`); the TSE system by an
exact-plane replay (:mod:`repro.tse.simulator`) that also records each SVB
hit's lead.

Outputs map directly onto the paper's results:

* Figure 14 (left): normalized execution-time breakdown (busy / other stalls
  / coherent-read stalls) for the base system and TSE;
* Figure 14 (right): TSE speedup over the base system;
* Table 3: consumption MLP in the base system, plus full and partial
  coverage fractions under TSE.
"""

from __future__ import annotations

import gc
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple, Union

from repro.coherence.protocol import CoherenceProtocol
from repro.common.chunk import ChunkedTrace, TraceChunk
from repro.common.config import SystemConfig, TSEConfig
from repro.common.stats import ratio
from repro.common.types import TYPE_IS_WRITE, TYPE_SPIN_READ, AccessTrace
from repro.node.latency import LatencyModel
from repro.node.processor import NodeTimingResult, ProcessorModel
from repro.tse.simulator import Outcome, TSESimulator, TSEStats


@dataclass
class TimingResult:
    """Machine-level timing summary for one configuration (base or TSE)."""

    label: str = ""
    workload: str = ""
    per_node: List[NodeTimingResult] = field(default_factory=list)

    @property
    def busy_cycles(self) -> float:
        return sum(n.busy_cycles for n in self.per_node)

    @property
    def coherent_read_stall_cycles(self) -> float:
        return sum(n.coherent_read_stall_cycles for n in self.per_node)

    @property
    def other_stall_cycles(self) -> float:
        return sum(n.other_stall_cycles for n in self.per_node)

    @property
    def total_cycles(self) -> float:
        return sum(n.total_cycles for n in self.per_node)

    @property
    def execution_cycles(self) -> float:
        """Wall-clock execution time: the slowest node determines the interval."""
        return max((n.total_cycles for n in self.per_node), default=0.0)

    def breakdown(self) -> Dict[str, float]:
        """Normalized execution-time breakdown (Figure 14 left)."""
        total = self.total_cycles
        if total <= 0:
            return {"busy": 0.0, "other_stalls": 0.0, "coherent_read_stalls": 0.0}
        return {
            "busy": self.busy_cycles / total,
            "other_stalls": self.other_stall_cycles / total,
            "coherent_read_stalls": self.coherent_read_stall_cycles / total,
        }

    @property
    def consumption_mlp(self) -> float:
        """Machine-average consumption MLP (Table 3)."""
        area = sum(n.mlp_area for n in self.per_node)
        busy = sum(n.mlp_busy_time for n in self.per_node)
        return ratio(area, busy, default=1.0)

    @property
    def fully_covered(self) -> int:
        return sum(n.fully_covered for n in self.per_node)

    @property
    def partially_covered(self) -> int:
        return sum(n.partially_covered for n in self.per_node)

    @property
    def uncovered(self) -> int:
        return sum(n.uncovered for n in self.per_node)

    @property
    def total_consumptions(self) -> int:
        return self.fully_covered + self.partially_covered + self.uncovered

    @property
    def full_coverage(self) -> float:
        """Fraction of consumptions completely hidden (Table 3 "Full Cov.")."""
        return ratio(self.fully_covered, self.total_consumptions)

    @property
    def partial_coverage(self) -> float:
        """Fraction of consumptions partially hidden (Table 3 "Partial Cov.")."""
        return ratio(self.partially_covered, self.total_consumptions)


#: Outcome label of each ``READ_*`` classification code (base system).
_OUTCOME_OF_READ = (
    int(Outcome.OTHER),
    int(Outcome.CONSUMPTION),
    int(Outcome.SPIN),
    int(Outcome.COLD_MISS),
    int(Outcome.CAPACITY_MISS),
)


def _chunks(trace: "Union[AccessTrace, ChunkedTrace]") -> Sequence[TraceChunk]:
    """The trace as packed chunks (an ``AccessTrace`` is packed into one)."""
    if isinstance(trace, ChunkedTrace):
        return trace.chunks()
    return [TraceChunk.from_accesses(trace.accesses)]


def _classify(trace: "Union[AccessTrace, ChunkedTrace]") -> Tuple[array, array]:
    """Base-system labels: one coherence classification pass, no TSE.

    Without TSE there are no SVB hits, so every read is labelled by its miss
    class alone and every lead is zero.
    """
    protocol = CoherenceProtocol(trace.num_nodes)
    read_ints, write_ints = protocol.read_ints, protocol.write_ints
    is_write, spin_code = TYPE_IS_WRITE, TYPE_SPIN_READ
    outcome_of_read, outcome_write = _OUTCOME_OF_READ, int(Outcome.WRITE)
    codes = array("B")
    append = codes.append
    gc_was_enabled = gc.isenabled()
    gc.disable()  # the pass allocates no reference cycles
    try:
        for chunk in _chunks(trace):
            columns = zip(chunk.types.tolist(), chunk.nodes.tolist(), chunk.blocks.tolist())
            for type_code, node, address in columns:
                if is_write[type_code]:
                    write_ints(node, address)
                    append(outcome_write)
                else:
                    append(outcome_of_read[read_ints(node, address, type_code == spin_code)])
    finally:
        if gc_was_enabled:
            gc.enable()
    return codes, array("q", [0]) * len(codes)


def _split_by_node(
    trace: "Union[AccessTrace, ChunkedTrace]",
) -> Tuple[List[int], List[int], List[int], List[int]]:
    """Group the trace's accesses by node, keeping program order per node.

    Returns ``(order, bounds, timestamps, deps)``: ``order`` lists trace
    positions node by node, node ``n``'s accesses are
    ``order[bounds[n]:bounds[n + 1]]``, and ``timestamps``/``deps`` are those
    columns gathered in ``order``.
    """
    nodes: List[int] = []
    timestamps: List[int] = []
    deps: List[int] = []
    for chunk in _chunks(trace):
        nodes += chunk.nodes.tolist()
        timestamps += chunk.timestamps.tolist()
        deps += chunk.deps.tolist()
    order = sorted(range(len(nodes)), key=nodes.__getitem__)  # stable: program order
    counts = Counter(nodes)
    bounds = [0, *accumulate(counts[node] for node in range(trace.num_nodes))]
    return (
        order, bounds,
        list(map(timestamps.__getitem__, order)), list(map(deps.__getitem__, order)),
    )


def _cached_labels(
    trace: "Union[AccessTrace, ChunkedTrace]", key: Hashable, label: Callable
) -> tuple:
    """Memoize a labelling (or the per-node split) of ``trace`` on the trace.

    TSE labellings are keyed by their exact configuration.  The base
    labels and the per-node split depend on the trace alone, so every
    configuration sweep over the same trace shares one classification pass
    and one split, and repeated ``compare()`` calls (Figure 14 + Table 3)
    reuse both labellings outright.
    The trace length guards against ``AccessTrace.append``/``extend`` after a
    cached run: a grown trace gets a fresh labelling.
    """
    cache: Dict = getattr(trace, "_label_cache", None)
    if cache is None:
        cache = {}
        trace._label_cache = cache  # type: ignore[attr-defined]
    cache_key = (key, len(trace))
    cached = cache.get(cache_key)
    if cached is None:
        cached = label(trace)
        cache[cache_key] = cached
    return cached


class TimingSimulator:
    """Runs the base system and TSE over one trace and compares them."""

    def __init__(
        self,
        system: Optional[SystemConfig] = None,
        tse_config: Optional[TSEConfig] = None,
    ) -> None:
        self.system = system if system is not None else SystemConfig.isca2005()
        self.tse_config = tse_config if tse_config is not None else TSEConfig.paper_default()
        self.latency = LatencyModel(self.system)
        self._processor = ProcessorModel(self.system, self.latency)

    # ---------------------------------------------------------------- plumbing
    def _replay_tse(
        self, trace: "Union[AccessTrace, ChunkedTrace]"
    ) -> Tuple[TSEStats, array, array]:
        """Label each access with its TSE outcome and SVB-hit lead."""
        # Outcome labeling needs per-access fill times, which only the exact
        # plane records: pin mode explicitly so an ambient REPRO_FAST_MODE
        # never reaches the timing model.  (Fast-mode sweeps still speed up
        # their functional runs; timing comparisons are exact by
        # construction.)
        simulator = TSESimulator(
            trace.num_nodes, tse_config=self.tse_config, record_outcomes=True,
            mode="exact",
        )
        stats = simulator.run(trace, warmup_fraction=0.0)
        return stats, simulator.outcome_codes, simulator.outcome_leads

    def _run_timing(
        self,
        trace: "Union[AccessTrace, ChunkedTrace]",
        codes: array,
        leads: array,
        label: str,
    ) -> TimingResult:
        """Walk each node's columns with their labels through the processor model."""
        order, bounds, timestamps, deps = _cached_labels(trace, "split", _split_by_node)
        codes = list(map(codes.tolist().__getitem__, order))
        leads = list(map(leads.tolist().__getitem__, order))
        result = TimingResult(label=label, workload=trace.name)
        for node in range(trace.num_nodes):
            lo, hi = bounds[node], bounds[node + 1]
            result.per_node.append(self._processor.run_node(
                node, timestamps[lo:hi], deps[lo:hi], codes[lo:hi], leads[lo:hi]
            ))
        return result

    # --------------------------------------------------------------------- API
    def run_base(self, trace: "Union[AccessTrace, ChunkedTrace]") -> TimingResult:
        """Time the baseline system (no TSE) on a trace."""
        codes, leads = _cached_labels(trace, "base", _classify)
        return self._run_timing(trace, codes, leads, label="base")

    def run_tse(self, trace: "Union[AccessTrace, ChunkedTrace]") -> Tuple[TimingResult, TSEStats]:
        """Time the TSE-equipped system; also returns the functional stats."""
        stats, codes, leads = _cached_labels(trace, self.tse_config, self._replay_tse)
        timing = self._run_timing(trace, codes, leads, label="tse")
        return timing, stats

    def compare(self, trace: "Union[AccessTrace, ChunkedTrace]") -> "TimingComparison":
        """Run base and TSE on the same trace and package the comparison."""
        base = self.run_base(trace)
        tse, functional = self.run_tse(trace)
        return TimingComparison(workload=trace.name, base=base, tse=tse, functional=functional)


@dataclass
class TimingComparison:
    """Base-vs-TSE timing for one workload (one Figure 14 group)."""

    workload: str
    base: TimingResult
    tse: TimingResult
    functional: TSEStats

    @property
    def speedup(self) -> float:
        """TSE speedup over the base system (Figure 14 right)."""
        return ratio(self.base.total_cycles, self.tse.total_cycles, default=1.0)

    def normalized_breakdowns(self) -> Dict[str, Dict[str, float]]:
        """Both breakdowns normalized to the base system's total time."""
        base_total = self.base.total_cycles
        if base_total <= 0:
            return {"base": self.base.breakdown(), "tse": self.tse.breakdown()}
        def scaled(result: TimingResult) -> Dict[str, float]:
            return {
                "busy": result.busy_cycles / base_total,
                "other_stalls": result.other_stall_cycles / base_total,
                "coherent_read_stalls": result.coherent_read_stall_cycles / base_total,
            }
        return {"base": scaled(self.base), "tse": scaled(self.tse)}

    def table3_row(
        self, trace_coverage: Optional[float] = None, lookahead: int = 8
    ) -> Dict[str, float]:
        """One row of Table 3 for this workload."""
        return {
            "workload": self.workload,
            "trace_coverage": trace_coverage if trace_coverage is not None else self.functional.coverage,
            "mlp": self.base.consumption_mlp,
            "lookahead": float(lookahead),
            "full_coverage": self.tse.full_coverage,
            "partial_coverage": self.tse.partial_coverage,
            "speedup": self.speedup,
        }
