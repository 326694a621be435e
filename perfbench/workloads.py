"""The three benchmark workloads: ``sweep``, ``timing`` and ``campaign``.

Each workload drives the simulator through its public API from this one
process, checks every output, and returns a :class:`Result`.  With tracing
on, each operation runs twice, untraced (the reference operation time) and
inside spans around each call into a layer, in alternating order; layer
probes that no operation makes on its own follow.

All times are host seconds.  Simulated statistics are exact counts and
repeat exactly for a given seed.
"""

from __future__ import annotations

import gc
import json
import math
import os
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Dict, List, Optional, Sequence, Tuple

from measure import (
    OUT_DIR, HostReference, Tracer, measure_setup, median, perf, timing_summary,
)
from validate_fast_mode import BANDS, check_metric

from repro.coherence.protocol import (
    READ_CAPACITY,
    READ_COHERENT,
    READ_COLD,
    READ_SPIN_COHERENT,
    CoherenceProtocol,
)
from repro.common.chunk import ChunkedTrace
from repro.common.config import DEFAULT_WARMUP_FRACTION, PAPER_LOOKAHEAD, TSEConfig
from repro.common.types import TYPE_IS_WRITE, TYPE_SPIN_READ
from repro.system.timing import TimingComparison, TimingSimulator
from repro.tse.simulator import TSEStats, run_tse_on_trace
from repro.workloads import WorkloadParams, get_workload

NODES = 16
#: Trace classes of the sweep and timing workloads: em3d is bound by
#: classification, db2 and apache by the TSE.
CLASSES: Tuple[str, ...] = ("em3d", "db2", "apache")
TRACE_ACCESSES = 80_000
#: Timing traces are half the sweep's, so a run holds several comparisons
#: of every class and the per-class medians are steady.
TIMING_ACCESSES = 40_000
CAMPAIGN_ACCESSES = 4_000
#: Set-up repeats per run (reported as a median): fewer where set-up is
#: costly, more where it takes milliseconds and one sample is noise.
SETUP_REPEATS = {"sweep": 5, "timing": 25, "campaign": 25}
#: A small untimed comparison first, so allocator arenas and lazy imports
#: do not land on the first timed operation.
WARMUP_ACCESSES = 10_000
#: Tolerance the ROADMAP sets for per-layer sums against end-to-end time.
LAYER_SUM_TOLERANCE = 0.05

#: Table 3 trace coverage from the paper, as listed in EXPERIMENTS.md.
PAPER_TABLE3_COVERAGE: Dict[str, float] = {
    "em3d": 1.00, "moldyn": 0.98, "ocean": 0.99,
    "db2": 0.60, "oracle": 0.53, "apache": 0.43, "zeus": 0.43,
}

#: Span names whose time is extra probe work inside a traced operation,
#: not part of the operation the untraced loop times.
PROBE_SPANS = ("timing.walk_base", "timing.walk_tse")


def sweep_grid() -> List[Tuple[str, TSEConfig]]:
    """Fixed design points from Figs. 7-10: both planes' costs and both the
    paper-default and the unconstrained hardware."""
    return [
        ("fig10.cmob2048", TSEConfig.paper_default(lookahead=8).with_(cmob_capacity=2048)),
        ("fig09.svb8", TSEConfig.paper_default(lookahead=8).with_(svb_entries=8)),
        ("fig08.lookahead24", TSEConfig.unconstrained(lookahead=24, compared_streams=2)),
        ("fig07.streams1", TSEConfig.unconstrained(lookahead=8, compared_streams=1)),
    ]


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    #: End-to-end metrics: name -> (value, unit).
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Per-layer metrics: name -> value (units come from BENCHMARK.json).
    layers: Dict[str, float] = field(default_factory=dict)
    report: List[str] = field(default_factory=list)

    def op(self, problems: Sequence[str], wrong: bool = False) -> None:
        """Count one operation; it failed when any check found a problem.

        ``wrong`` marks a problem in a result that must be exact (a
        determinism or equality check), which makes the whole run incorrect.
        """
        self.attempted += 1
        if problems:
            self.failed += 1
            self.report.append("FAILED: " + "; ".join(problems))
            if wrong:
                self.correct = False

    def note(self, name: str, value: float, unit: str, count: Optional[int] = None) -> None:
        suffix = f" (n={count})" if count is not None else ""
        self.report.append(f"{name} = {value:.6g} {unit}{suffix}")


def _geomean(values: Sequence[float]) -> float:
    return math.exp(sum(map(math.log, values)) / len(values))


def _cell_summary(cells: Sequence, times: Sequence[float], accesses: Sequence[float]):
    """(operation time, accesses per time unit) over a workload's cells.

    A cell is one kind of operation (a grid point on one trace class, or
    one trace class).  Each cell counts once, at its median, and cells are
    combined by geometric mean, so neither the mix of operations a run fits
    in nor the few costliest cells decide the figure.
    """
    by_cell: Dict = {}
    for cell, t, a in zip(cells, times, accesses):
        by_cell.setdefault(cell, ([], []))
        by_cell[cell][0].append(t)
        by_cell[cell][1].append(a)
    op_times = [median(ts) for ts, _ in by_cell.values()]
    rates = [median(acc) / median(ts) for ts, acc in by_cell.values()]
    return _geomean(op_times), _geomean(rates)


def end_to_end(result: Result, reference: HostReference, cells: Sequence,
               times: Sequence[float], accesses: Sequence[float]) -> None:
    """The gated metrics, in host-reference units so that the host's drift
    cancels; the same summary of the raw seconds goes in the report."""
    normalized = [t / r for t, r in zip(times, reference.normalizers())]
    op_ref, acc_per_ref = _cell_summary(cells, normalized, accesses)
    result.metrics["op_ref"] = (op_ref, "ref")
    result.metrics["acc_per_ref"] = (acc_per_ref, "1/ref")
    op_s, acc_per_s = _cell_summary(cells, times, accesses)
    result.note("op_s", op_s, "s")
    result.note("acc_per_s", acc_per_s, "1/s")
    result.note("reference_s", median(reference.samples), "s", len(reference.samples))


def generate(workload: str, seed: int, accesses: int) -> ChunkedTrace:
    params = WorkloadParams(num_nodes=NODES, seed=seed, target_accesses=accesses)
    return get_workload(workload, params).generate_chunked()


def stats_signature(stats: TSEStats) -> Tuple:
    return (tuple(sorted(stats.as_dict().items())),
            tuple(sorted(stats.stream_length_hist.buckets().items())))


def classify(trace: ChunkedTrace, warmup_fraction: float) -> Dict[str, int]:
    """Classification alone: the coherence protocol with no TSE attached.

    Counts start after the same warm-up the functional replays use.
    """
    protocol = CoherenceProtocol(trace.num_nodes)
    read, write = protocol.read_ints, protocol.write_ints
    is_write, spin = TYPE_IS_WRITE, TYPE_SPIN_READ
    accesses = chain.from_iterable(
        zip(chunk.nodes, chunk.blocks, chunk.types) for chunk in trace.chunks()
    )
    codes = [0] * 5
    reads = writes = 0
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for node, block, code in islice(accesses, int(len(trace) * warmup_fraction)):
            if is_write[code]:
                write(node, block)
            else:
                read(node, block, code == spin)
        for node, block, code in accesses:
            if is_write[code]:
                write(node, block)
                writes += 1
            else:
                codes[read(node, block, code == spin)] += 1
                reads += 1
    finally:
        if gc_was_enabled:
            gc.enable()
    return {
        "consumptions": codes[READ_COHERENT],
        "cold_misses": codes[READ_COLD],
        "capacity_misses": codes[READ_CAPACITY],
        "spin_misses": codes[READ_SPIN_COHERENT],
        "reads": reads,
        "writes": writes,
    }


def layer_accounting(tracer: Tracer, untraced_s: float,
                     pairs: Sequence[Tuple[float, float]], parts: str, result: Result) -> None:
    """Per-layer sum against untraced time, and the tracing overhead.

    Each pair holds one operation's time summed from its per-layer
    measurements in the traced pass (``parts`` names them) and the same
    operation's untraced time, so time that no layer accounts for shows
    as a ratio below one; the ratio is the median over the pairs.  The
    verdict is reported, not counted as a failed operation: two runs of
    one operation differ by about a tenth on a shared host, which leaves
    the median of the few pairs a run holds a few percent from one.
    The overhead compares all traced operation spans, less the probe spans
    that the untraced operation does not make, with all untraced time.
    """
    op_total = probe_total = 0.0
    for name, start, end, parent, op in tracer.spans:
        if op is None:
            continue
        if parent < 0:
            op_total += end - start
        if name in PROBE_SPANS:
            probe_total += end - start
    ratio = median([layer_s / op_s for layer_s, op_s in pairs])
    overhead = (op_total - probe_total) / untraced_s - 1.0
    result.layers["trace.layer_sum_ratio"] = ratio
    result.layers["trace.overhead"] = overhead
    within = abs(ratio - 1.0) <= LAYER_SUM_TOLERANCE
    result.report.append(
        f"per-layer sum ({parts}) / untraced op time = {ratio:.4f}, median of "
        f"{len(pairs)} ({'within' if within else 'outside'} the "
        f"{LAYER_SUM_TOLERANCE:.0%} tolerance); tracing overhead = {overhead:+.4f}"
    )


def _paired(tracers: Sequence[Tracer], index: int) -> List[int]:
    """Indices of the tracers that run operation ``index``, in run order.

    A traced run makes each operation twice, untraced and traced, with the
    order alternating, so host drift during the run falls on both alike.
    """
    order = list(range(len(tracers)))
    return order if index % 2 == 0 else order[::-1]


# --------------------------------------------------------------------- sweep
def _sweep_op(tracer: Tracer, trace: ChunkedTrace, config: TSEConfig):
    with tracer.span("op"):
        start = perf()
        with tracer.span("tse.replay_exact"):
            exact = run_tse_on_trace(trace, config, mode="exact")
        middle = perf()
        with tracer.span("tse.replay_fast"):
            fast = run_tse_on_trace(trace, config, mode="fast")
        end = perf()
    return exact, fast, middle - start, end - middle


def _sweep_loop(tracers, traces, grid, seconds, reference: HostReference):
    """Replay grid points round by round: one configuration on every class.

    Whole rounds run until ``seconds`` have passed and every grid point has
    run twice, counting both passes of a traced run: each point then has a
    repeat to check.
    """
    records: List[List] = [[] for _ in tracers]
    start = perf()
    rounds = 0
    while rounds < 2 * len(grid) // len(tracers) or perf() - start < seconds:
        point = rounds % len(grid)
        for cls in CLASSES:
            index = len(records[0])
            reference.stamp()
            for k in _paired(tracers, index):
                tracers[k].op_id = index
                records[k].append(
                    (point, cls) + _sweep_op(tracers[k], traces[cls], grid[point][1]))
                tracers[k].op_id = None
            reference.spent(records[0][-1][4] + records[0][-1][5])
        rounds += 1
    return records


def _band_problems(exact: TSEStats, fast: TSEStats, where: str) -> List[str]:
    """Fast-plane coverage and discards against the declared tolerance bands."""
    problems = []
    for metric in ("coverage", "discard_rate"):
        kind, width = BANDS[metric][:2]
        delta, within = check_metric(
            kind, width, getattr(exact, metric), getattr(fast, metric), *BANDS[metric][2:])
        if not within:
            problems.append(f"fast-plane {metric} off by {delta:+.4f} (band {width}) at {where}")
    return problems


def _check_sweep(records, first_seen, grid, result: Result) -> None:
    """Exact stats repeat exactly; fast stats stay in the declared bands."""
    for point, cls, exact, fast, _, _ in records:
        where = f"{grid[point][0]} on {cls}"
        signature = stats_signature(exact)
        known = first_seen.setdefault((point, cls), (signature, exact, fast))[0]
        if known != signature:
            result.op([f"exact-plane stats differ between repeats of {where}"], wrong=True)
        else:
            result.op(_band_problems(exact, fast, where))


def _plane_times(records):
    """Per (grid point, class): the exact and fast replay times."""
    exact_s: Dict[Tuple[int, str], List[float]] = {}
    fast_s: Dict[Tuple[int, str], List[float]] = {}
    for point, cls, _, _, t_exact, t_fast in records:
        exact_s.setdefault((point, cls), []).append(t_exact)
        fast_s.setdefault((point, cls), []).append(t_fast)
    return exact_s, fast_s


def run_sweep(seed: int, seconds: float, tracer: Tracer) -> Result:
    result = Result()
    grid = sweep_grid()

    def build() -> Dict[str, ChunkedTrace]:
        traces = {}
        for cls in CLASSES:
            with tracer.span("workloads.generate"):
                traces[cls] = generate(cls, seed, TRACE_ACCESSES)
        return traces

    first: List[Dict[str, ChunkedTrace]] = []

    def keep_first(traces: Dict[str, ChunkedTrace]) -> None:
        if not first:
            first.append(traces)

    traces, setup_s, raw_s = measure_setup(build, SETUP_REPEATS["sweep"], keep_first)
    if any(first[0][c].to_payload() != traces[c].to_payload() for c in CLASSES):
        result.correct = False
        result.report.append("FAILED: one seed generated two different traces")
    result.metrics["setup_s"] = (setup_s, "s")
    result.note("setup_raw_s", raw_s, "s", SETUP_REPEATS["sweep"])
    lengths = {cls: len(traces[cls]) for cls in CLASSES}

    tracers = [Tracer(False)] + ([tracer] if tracer.enabled else [])
    reference = HostReference()
    records = _sweep_loop(tracers, traces, grid, seconds, reference)
    first_seen: Dict = {}
    for pass_records in records:
        _check_sweep(pass_records, first_seen, grid, result)

    exact_s, fast_s = _plane_times(records[0])
    points = sorted(exact_s)
    exact_total = sum(median(exact_s[p]) for p in points)
    fast_total = sum(median(fast_s[p]) for p in points)
    replayed = sum(lengths[cls] for _, cls in points)

    # Each operation replays its trace twice: exact, then fast.
    end_to_end(result, reference, [r[:2] for r in records[0]],
               [r[4] + r[5] for r in records[0]], [2 * lengths[r[1]] for r in records[0]])
    result.note("exact_acc_per_s", replayed / exact_total, "1/s", len(records[0]))
    result.note("fast_acc_per_s", replayed / fast_total, "1/s", len(records[0]))
    for name, value, count in timing_summary("point_s", [a + b for *_, a, b in records[0]]):
        result.note(name, value, "s", count)
    result.note("trace_accesses", float(sum(lengths.values())), "accesses")

    if tracer.enabled:
        _trace_sweep(traces, lengths, grid, records, first_seen, tracer, result)
    return result


def _trace_sweep(traces, lengths, grid, records, first_seen, tracer, result) -> None:
    layers = result.layers
    generate_s = _durations(tracer, "workloads.generate")
    per_class_generate = [median(generate_s[i::len(CLASSES)]) for i in range(len(CLASSES))]
    layers["workloads.generate_s"] = sum(per_class_generate)
    layers["workloads.generate_acc_per_s"] = sum(lengths.values()) / sum(per_class_generate)

    counts: Dict[str, int] = {}
    materialize_s = classify_s = 0.0
    for cls in CLASSES:
        fresh = ChunkedTrace.from_payload(traces[cls].to_payload())
        with tracer.span("chunk.materialize") as index:
            fresh.accesses
        materialize_s += tracer.duration(index)
        with tracer.span("coherence.classify") as index:
            for name, value in classify(traces[cls], DEFAULT_WARMUP_FRACTION).items():
                counts[name] = counts.get(name, 0) + value
        classify_s += tracer.duration(index)
    layers["chunk.materialize_s"] = materialize_s
    layers["coherence.classify_s"] = classify_s
    for name, value in counts.items():
        layers[f"coherence.{name}"] = float(value)

    exact_s, fast_s = _plane_times(records[1])
    points = sorted(exact_s)
    for cls in CLASSES:
        layers[f"tse.replay_exact_s.{cls}"] = sum(
            median(exact_s[p]) for p in points if p[1] == cls)
        layers[f"tse.replay_fast_s.{cls}"] = sum(
            median(fast_s[p]) for p in points if p[1] == cls)
    exact_total = sum(layers[f"tse.replay_exact_s.{cls}"] for cls in CLASSES)
    fast_total = sum(layers[f"tse.replay_fast_s.{cls}"] for cls in CLASSES)
    layers["tse.replay_exact_s"] = exact_total
    layers["tse.replay_fast_s"] = fast_total
    layers["tse.fast_speedup"] = exact_total / fast_total
    layer_accounting(
        tracer, sum(a + b for *_, a, b in records[0]),
        [(traced[4] + traced[5], untraced[4] + untraced[5])
         for untraced, traced in zip(*records)],
        "tse.replay_exact + tse.replay_fast", result)
    # One exact replay per trace class against one classification pass each.
    layers["coherence.classify_share"] = classify_s / (exact_total / len(grid))

    exact_stats = [first_seen[p][1] for p in points]
    hits = sum(s.svb_hits for s in exact_stats)
    fetched = sum(s.blocks_fetched for s in exact_stats)
    consumptions = sum(s.total_consumptions for s in exact_stats)
    layers["tse.svb_hits"] = float(hits)
    layers["tse.blocks_fetched"] = float(fetched)
    layers["tse.discards"] = float(sum(s.discarded_blocks for s in exact_stats))
    layers["tse.accuracy"] = hits / fetched if fetched else 0.0
    layers["tse.coverage"] = hits / consumptions if consumptions else 0.0
    layers["tse.ns_per_consumption"] = 1e9 * exact_total / consumptions
    layers["tse.fast_band_failures"] = float(sum(
        1 for p in points if _band_problems(first_seen[p][1], first_seen[p][2], "")))


def _durations(tracer: Tracer, name: str) -> List[float]:
    return [end - start for n, start, end, _, _ in tracer.spans if n == name]


# -------------------------------------------------------------------- timing
def _timing_seed(seed: int, rotation: int) -> int:
    """Seed of a rotation's traces; every third rotation repeats the last."""
    index = rotation - 1 if rotation % 3 == 2 else rotation
    return seed * 1000 + index


def _comparison_signature(comparison: TimingComparison) -> Tuple:
    return (
        comparison.speedup, comparison.base.total_cycles, comparison.tse.total_cycles,
        comparison.base.consumption_mlp, comparison.tse.fully_covered,
        comparison.tse.partially_covered, comparison.tse.uncovered,
        stats_signature(comparison.functional),
    )


def _simulators() -> Dict[str, TimingSimulator]:
    return {
        cls: TimingSimulator(tse_config=TSEConfig.paper_default(lookahead=PAPER_LOOKAHEAD[cls]))
        for cls in CLASSES
    }


def _timing_op(tracer: Tracer, simulator: TimingSimulator, cls: str, trace_seed: int):
    """Generate a fresh trace and compare base and TSE on it.

    Traced, the comparison is split into the calls ``compare()`` makes, and
    each is called twice: labels are cached on the trace, so the second
    call is the timing walk alone.
    """
    if not tracer.enabled:
        start = perf()
        trace = generate(cls, trace_seed, TIMING_ACCESSES)
        comparison = simulator.compare(trace)
        return cls, trace_seed, _comparison_signature(comparison), perf() - start, \
            len(trace), None
    spans = {}
    with tracer.span("op") as op:
        with tracer.span("workloads.generate") as spans["generate"]:
            trace = generate(cls, trace_seed, TIMING_ACCESSES)
        with tracer.span("chunk.materialize") as spans["materialize"]:
            trace.accesses
        with tracer.span("timing.run_base") as spans["run_base"]:
            base = simulator.run_base(trace)
        with tracer.span("timing.walk_base") as spans["walk_base"]:
            base_again = simulator.run_base(trace)
        with tracer.span("timing.run_tse") as spans["run_tse"]:
            tse, functional = simulator.run_tse(trace)
        with tracer.span("timing.walk_tse") as spans["walk_tse"]:
            tse_again, _ = simulator.run_tse(trace)
    comparison = TimingComparison(workload=trace.name, base=base, tse=tse, functional=functional)
    d = {name: tracer.duration(index) for name, index in spans.items()}
    layers = {
        "generate": d["generate"],
        "materialize": d["materialize"],
        "label_base": d["run_base"] - d["walk_base"],
        "label_tse": d["run_tse"] - d["walk_tse"],
        "walk": d["walk_base"] + d["walk_tse"],
        "accesses": float(len(trace)),
        "speedup": comparison.speedup,
        "full_coverage": comparison.tse.full_coverage,
        "walk_repeats": float((base_again.total_cycles, tse_again.total_cycles)
                              == (base.total_cycles, tse.total_cycles)),
    }
    return cls, trace_seed, _comparison_signature(comparison), tracer.duration(op), \
        len(trace), layers


def _timing_loop(tracers, simulators, seed: int, seconds: float, reference: HostReference):
    """Rotations em3d -> db2 -> apache until ``seconds`` pass (at least three,
    so that one rotation repeats an earlier one's seed)."""
    records: List[List] = [[] for _ in tracers]
    start = perf()
    rotation = 0
    while rotation < 3 or perf() - start < seconds:
        trace_seed = _timing_seed(seed, rotation)
        for cls in CLASSES:
            index = len(records[0])
            reference.stamp()
            for k in _paired(tracers, index):
                tracers[k].op_id = index
                records[k].append(_timing_op(tracers[k], simulators[cls], cls, trace_seed))
                tracers[k].op_id = None
            reference.spent(records[0][-1][3])
        rotation += 1
    return records


def _check_timing(records, first_seen, result: Result) -> None:
    for cls, trace_seed, signature, _, _, layers in records:
        problems = []
        if first_seen.setdefault((cls, trace_seed), signature) != signature:
            problems.append(f"{cls} seed {trace_seed}: simulated results differ on a repeat")
        if layers is not None and not layers["walk_repeats"]:
            problems.append(f"{cls} seed {trace_seed}: walk differs once labels are cached")
        result.op(problems, wrong=True)


def run_timing(seed: int, seconds: float, tracer: Tracer) -> Result:
    result = Result()
    simulators, setup_s, raw_s = measure_setup(
        _simulators, SETUP_REPEATS["timing"], lambda _: None)
    result.metrics["setup_s"] = (setup_s, "s")
    result.note("setup_raw_s", raw_s, "s", SETUP_REPEATS["timing"])
    simulators[CLASSES[0]].compare(generate(CLASSES[0], seed, WARMUP_ACCESSES))

    tracers = [Tracer(False)] + ([tracer] if tracer.enabled else [])
    reference = HostReference()
    records = _timing_loop(tracers, simulators, seed, seconds, reference)
    first_seen: Dict = {}
    for pass_records in records:
        _check_timing(pass_records, first_seen, result)

    times = [record[3] for record in records[0]]
    lengths = [record[4] for record in records[0]]
    end_to_end(result, reference, [record[0] for record in records[0]], times, lengths)
    for name, value, count in timing_summary("compare_s", times):
        result.note(name, value, "s", count)
    result.note("timing_acc_per_s", sum(lengths) / sum(times), "1/s", len(times))

    if tracer.enabled:
        _trace_timing(seed, records, tracer, result)
    return result


def _trace_timing(seed, records, tracer, result) -> None:
    layers = result.layers
    per_class: Dict[str, Dict[str, List[float]]] = {cls: {} for cls in CLASSES}
    for cls, _, _, _, _, op_layers in records[1]:
        for name, value in op_layers.items():
            per_class[cls].setdefault(name, []).append(value)

    def rotation_sum(name: str) -> float:
        """One em3d -> db2 -> apache rotation, from the per-class medians."""
        return sum(median(per_class[cls][name]) for cls in CLASSES)

    layers["workloads.generate_s"] = rotation_sum("generate")
    layers["workloads.generate_acc_per_s"] = \
        rotation_sum("accesses") / layers["workloads.generate_s"]
    layers["chunk.materialize_s"] = rotation_sum("materialize")
    layers["timing.label_base_s"] = rotation_sum("label_base")
    layers["timing.label_tse_s"] = rotation_sum("label_tse")
    layers["timing.walk_s"] = rotation_sum("walk")
    parts = ("generate", "materialize", "label_base", "label_tse", "walk")
    layer_accounting(
        tracer, sum(record[3] for record in records[0]),
        [(sum(traced[5][name] for name in parts), untraced[3])
         for untraced, traced in zip(*records)],
        " + ".join(parts), result)
    # Simulated results of the first rotation, whose seeds every run shares.
    first = records[1][:len(CLASSES)]
    speedups = [op_layers["speedup"] for *_, op_layers in first]
    layers["timing.speedup"] = math.exp(sum(map(math.log, speedups)) / len(speedups))
    layers["timing.full_coverage"] = \
        sum(op_layers["full_coverage"] for *_, op_layers in first) / len(first)
    for cls, _, _, _, _, op_layers in first:
        result.report.append(
            f"{cls}: simulated speedup {op_layers['speedup']:.4f} (unvalidated: the "
            f"repository holds no reference speedups), full coverage "
            f"{op_layers['full_coverage']:.4f}")

    errors = []
    for workload, paper in PAPER_TABLE3_COVERAGE.items():
        with tracer.span("model.table3_coverage"):
            stats = run_tse_on_trace(
                generate(workload, seed, TRACE_ACCESSES),
                TSEConfig.paper_default(lookahead=PAPER_LOOKAHEAD[workload]),
                mode="exact",
            )
        error = abs(stats.coverage - paper)
        errors.append(error)
        layers[f"model.coverage_abs_err.{workload}"] = error
        result.report.append(
            f"{workload}: trace coverage {stats.coverage:.4f}, paper {paper:.2f}, "
            f"absolute error {error:.4f}")
    layers["model.coverage_abs_err.mean"] = sum(errors) / len(errors)


# ------------------------------------------------------------------ campaign
class _Campaigns:
    """One client in a closed loop against an in-process ``Service``."""

    def __init__(self, store_root: str) -> None:
        from repro.service import Service

        self.path = tempfile.mkdtemp(prefix="store-", dir=store_root)
        self.service = Service(
            store_path=os.path.join(self.path, "store.sqlite"),
            max_workers=1, events_enabled=True,
        )

    def close(self) -> None:
        try:
            self.service.close()
        finally:
            shutil.rmtree(self.path, ignore_errors=True)


def _campaign_step(client: _Campaigns, tracer: Tracer, new_seed: int, old_seed: int):
    """Submit a new fig13 campaign, then resubmit an earlier one."""
    from repro.experiments.cache import clear_cache
    from repro.experiments.runner import WORKLOADS, trace_for
    from repro.service.presets import campaign

    clear_cache()
    began = perf()
    with tracer.span("service.submit"):
        run = client.service.submit(
            campaign("fig13", target_accesses=CAMPAIGN_ACCESSES, seed=new_seed), wait=True)
    new_s = perf() - began
    # The jobs ran in this process, so their traces sit in trace_for's cache.
    accesses = sum(len(trace_for(w, CAMPAIGN_ACCESSES, new_seed, NODES)) for w in WORKLOADS)
    began = perf()
    with tracer.span("service.resubmit"):
        rerun = client.service.submit(
            campaign("fig13", target_accesses=CAMPAIGN_ACCESSES, seed=old_seed), wait=True)
    return run, new_s, accesses, rerun, perf() - began, new_seed


def _campaign_loop(clients, tracers, seed: int, seconds: float, reference: HostReference):
    """Steps until ``seconds`` pass (at least two, so one resubmission is of
    an earlier campaign than the one just made)."""
    picker = random.Random(seed)
    records: List[List] = [[] for _ in tracers]
    start = perf()
    step = 0
    while step < 2 or perf() - start < seconds:
        new_seed = seed * 1000 + step
        old_seed = seed * 1000 + picker.randrange(step + 1)
        reference.stamp()
        for k in _paired(tracers, step):
            tracers[k].op_id = step
            records[k].append(_campaign_step(clients[k], tracers[k], new_seed, old_seed))
            tracers[k].op_id = None
        reference.spent(records[0][-1][1] + records[0][-1][4])
        step += 1
    return records, perf() - start


def _check_campaigns(records, result: Result) -> None:
    for run, _, _, rerun, _, _ in records:
        result.op([] if run.status == "done" and run.computed == run.total else
                  [f"campaign {run.id}: {run.status}, computed {run.computed} of {run.total}"])
        result.op([] if rerun.status == "done" and rerun.computed == 0 else
                  [f"resubmission {rerun.id} computed {rerun.computed} jobs"], wrong=True)


def run_campaign(seed: int, seconds: float, tracer: Tracer) -> Result:
    from repro.experiments import fig13_stream_length
    from repro.experiments.cache import clear_cache
    from repro.service.presets import campaign

    result = Result()
    store_root = os.path.join(OUT_DIR, "tmp")
    os.makedirs(store_root, exist_ok=True)
    clients: List[_Campaigns] = []
    try:
        client, setup_s, raw_s = measure_setup(
            lambda: _Campaigns(store_root), SETUP_REPEATS["campaign"], _Campaigns.close)
        clients.append(client)
        result.metrics["setup_s"] = (setup_s, "s")
        result.note("setup_raw_s", raw_s, "s", SETUP_REPEATS["campaign"])
        # An untimed campaign first, at a size no timed one uses, so lazy
        # imports and first-call costs do not land on the first timed one.
        client.service.submit(
            campaign("fig13", target_accesses=WARMUP_ACCESSES // 4, seed=seed), wait=True)
        tracers = [Tracer(False)]
        if tracer.enabled:
            tracers.append(tracer)
            clients.append(_Campaigns(store_root))

        reference = HostReference()
        records, loop_s = _campaign_loop(clients, tracers, seed, seconds, reference)
        for pass_records in records:
            _check_campaigns(pass_records, result)
        new_s = [record[1] for record in records[0]]
        resubmit_s = [record[4] for record in records[0]]
        end_to_end(result, reference, [None] * len(new_s), new_s,
                   [record[2] for record in records[0]])
        for name, value, count in timing_summary("campaign_s", new_s):
            result.note(name, value, "s", count)
        for name, value, count in timing_summary("resubmit_s", resubmit_s):
            result.note(name, value, "s", count)
        if not tracer.enabled:
            computed = sum(record[0].computed for record in records[0])
            result.note("jobs_per_s", computed / loop_s, "1/s", computed)

        runs = {record[5]: record[0] for record in records[0]}
        sampled = random.Random(seed + 1).choice(sorted(runs))
        rows = clients[0].service.results(runs[sampled])
        clear_cache()
        direct = fig13_stream_length.run(target_accesses=CAMPAIGN_ACCESSES, seed=sampled)
        result.op([] if rows == json.loads(json.dumps(direct)) else
                  [f"stored rows of seed {sampled} differ from fig13_stream_length.run"],
                  wrong=True)

        if tracer.enabled:
            _trace_campaign(clients[1], records, tracer, result)
    finally:
        for client in clients:
            client.close()
        shutil.rmtree(store_root, ignore_errors=True)
    return result


def _trace_campaign(client, records, tracer, result) -> None:
    from repro.experiments.runner import WORKLOADS
    from repro.service import events

    layers = result.layers
    waits, computes, overheads, serviced, counted = [], [], [], [], 0
    retries = quarantined = 0
    for run, latency, *_ in records[1]:
        queued, compute, bounds = {}, 0.0, {}
        log = client.service.store.event_log.after(run.id, 0, limit=100_000)
        counted += len(log)
        for event in log:
            key = event.data.get("key")
            if event.type in (events.CAMPAIGN_SUBMITTED, events.CAMPAIGN_FINISHED):
                bounds[event.type] = event.created
            elif event.type == events.JOB_QUEUED:
                queued[key] = event.created
            elif event.type == events.JOB_STARTED and key in queued:
                waits.append(event.created - queued[key])
            elif event.type == events.JOB_COMPLETED:
                computes.append(event.data.get("duration_s") or 0.0)
                compute += computes[-1]
            elif event.type == events.JOB_RETRIED:
                retries += 1
            elif event.type == events.JOB_QUARANTINED:
                quarantined += 1
        overheads.append(latency - compute)
        # The service's own account of the campaign: admission, queueing,
        # job compute, result writes and events, up to campaign.finished.
        serviced.append(bounds[events.CAMPAIGN_FINISHED] - bounds[events.CAMPAIGN_SUBMITTED])
    layers["service.queue_wait_s.p50"] = median(waits)
    layers["service.compute_s.p50"] = median(computes)
    layers["service.overhead_s"] = median(overheads)
    layers["service.events_per_job"] = counted / sum(run.computed for run, *_ in records[1])
    layers["service.retries"] = float(retries)
    layers["service.quarantined"] = float(quarantined)
    layer_accounting(
        tracer, sum(r[1] + r[4] for r in records[0]),
        list(zip(serviced, [r[1] for r in records[0]])),
        "campaign.submitted -> campaign.finished in the service's event log", result)

    sampled = records[1][0][5]
    generated = 0
    with tracer.span("workloads.generate") as index:
        for workload in WORKLOADS:
            generated += len(generate(workload, sampled, CAMPAIGN_ACCESSES))
    layers["workloads.generate_s"] = tracer.duration(index)
    layers["workloads.generate_acc_per_s"] = generated / tracer.duration(index)
    result.report.append(
        f"generating one campaign's {len(WORKLOADS)} traces takes "
        f"{tracer.duration(index):.4f} s of a {median([r[1] for r in records[1]]):.4f} s "
        f"median campaign")


RUNNERS = {"sweep": run_sweep, "timing": run_timing, "campaign": run_campaign}
