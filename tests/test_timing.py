"""Tests for the latency model, processor interval model and timing simulator."""

import pytest

from repro.common.config import PAPER_LOOKAHEAD, SystemConfig, TSEConfig
from repro.node.latency import LatencyModel
from repro.node.processor import ProcessorModel
from repro.system.timing import TimingSimulator
from repro.tse.simulator import Outcome
from repro.workloads import get_workload
from repro.workloads.base import WorkloadParams


@pytest.fixture()
def latency():
    return LatencyModel(SystemConfig.isca2005())


class TestLatencyModel:
    def test_latencies_ordered_by_distance(self, latency):
        assert latency.l2_hit_cycles < latency.local_memory_cycles
        assert latency.local_memory_cycles < latency.remote_memory_cycles
        assert latency.coherent_read_cycles > latency.l2_hit_cycles

    def test_stream_fetch_matches_coherent_read(self, latency):
        # Section 5.6: stream retrieval latency ~= consumption miss latency.
        assert latency.stream_fetch_cycles == pytest.approx(latency.coherent_read_cycles)

    def test_coherent_read_is_hundreds_of_cycles(self, latency):
        assert 300 < latency.coherent_read_cycles < 2000


def _columns(specs):
    """Build run_node's (timestamps, deps, codes, leads) from (gap, outcome, dependent, lead)."""
    timestamps, deps, codes, leads = [], [], [], []
    timestamp = 0
    for gap, outcome, dependent, lead in specs:
        timestamp += gap
        timestamps.append(timestamp)
        deps.append(int(dependent))
        codes.append(int(outcome))
        leads.append(lead)
    return timestamps, deps, codes, leads


class TestProcessorModel:
    def _model(self):
        return ProcessorModel(SystemConfig.isca2005())

    def test_pure_hits_are_all_busy_time(self):
        model = self._model()
        result = model.run_node(0, *_columns([(100, Outcome.OTHER, False, 0)] * 10))
        assert result.coherent_read_stall_cycles == 0
        assert result.other_stall_cycles == 0
        assert result.busy_cycles == pytest.approx(1000 / 2.0)

    def test_dependent_consumptions_serialize(self):
        model = self._model()
        specs = [(10, Outcome.CONSUMPTION, True, 0)] * 5
        result = model.run_node(0, *_columns(specs))
        latency = LatencyModel(SystemConfig.isca2005()).coherent_read_cycles
        assert result.coherent_read_stall_cycles == pytest.approx(5 * latency, rel=0.05)
        assert result.consumption_mlp == pytest.approx(1.0, abs=0.05)

    def test_independent_consumptions_overlap(self):
        model = self._model()
        specs = [(10, Outcome.CONSUMPTION, False, 0)] * 8
        result = model.run_node(0, *_columns(specs))
        latency = LatencyModel(SystemConfig.isca2005()).coherent_read_cycles
        assert result.coherent_read_stall_cycles < 8 * latency * 0.5
        assert result.consumption_mlp > 2.0

    def test_svb_hit_with_large_lead_is_fully_covered(self):
        model = self._model()
        specs = [(2000, Outcome.OTHER, False, 0)] * 5 + [(2000, Outcome.SVB_HIT, False, 5)]
        result = model.run_node(0, *_columns(specs))
        assert result.fully_covered == 1
        assert result.partially_covered == 0
        assert result.coherent_read_stall_cycles == 0

    def test_svb_hit_with_no_lead_is_partial(self):
        model = self._model()
        specs = [(10, Outcome.SVB_HIT, True, 0)]
        result = model.run_node(0, *_columns(specs))
        assert result.partially_covered == 1
        assert result.coherent_read_stall_cycles > 0

    @pytest.mark.parametrize("slack, full", [(0, 1), (1, 0)])
    def test_svb_hit_arriving_at_clock_is_fully_covered(self, latency, slack, full):
        # The stream fetch issued one access earlier arrives `fetch` cycles
        # after that access; reaching the hit exactly then hides it fully, one
        # cycle sooner leaves one cycle of it exposed.
        model = self._model()
        fetch = latency.stream_fetch_cycles + latency.block_serialization_cycles
        gap = int((fetch - slack) * SystemConfig.isca2005().processor.base_ipc)
        specs = [(0, Outcome.OTHER, False, 0), (gap, Outcome.SVB_HIT, True, 1)]
        result = model.run_node(0, *_columns(specs))
        assert (result.fully_covered, result.partially_covered) == (full, 1 - full)
        assert result.coherent_read_stall_cycles == slack

    def test_mismatched_lengths_rejected(self):
        model = self._model()
        for short in range(4):
            columns = list(_columns([(10, Outcome.OTHER, False, 0)] * 3))
            columns[short] = columns[short][:-1]
            with pytest.raises(ValueError):
                model.run_node(0, *columns)

    def test_writes_and_spins_do_not_add_coherent_stalls(self):
        model = self._model()
        specs = [(50, Outcome.WRITE, False, 0), (50, Outcome.SPIN, False, 0)] * 4
        result = model.run_node(0, *_columns(specs))
        assert result.coherent_read_stall_cycles == 0
        assert result.other_stall_cycles > 0  # spins charge synchronisation time


class TestTimingSimulator:
    @pytest.fixture(scope="class")
    def comparison(self, medium_trace):
        simulator = TimingSimulator(SystemConfig.isca2005(), TSEConfig.paper_default(lookahead=18))
        return simulator.compare(medium_trace)

    def test_tse_is_faster_on_em3d(self, comparison):
        assert comparison.speedup > 1.2

    def test_breakdown_fractions_sum_to_one(self, comparison):
        for result in (comparison.base, comparison.tse):
            breakdown = result.breakdown()
            assert sum(breakdown.values()) == pytest.approx(1.0)

    def test_tse_reduces_coherent_stalls(self, comparison):
        assert (
            comparison.tse.coherent_read_stall_cycles
            < comparison.base.coherent_read_stall_cycles
        )

    def test_busy_time_unchanged_by_tse(self, comparison):
        assert comparison.tse.busy_cycles == pytest.approx(comparison.base.busy_cycles, rel=0.01)

    def test_base_mlp_in_reasonable_range(self, comparison):
        assert 1.0 <= comparison.base.consumption_mlp < 16.0

    def test_coverage_split_consistent(self, comparison):
        timing = comparison.tse
        assert timing.total_consumptions > 0
        assert timing.full_coverage + timing.partial_coverage <= 1.0 + 1e-9

    def test_compare_leaves_chunked_trace_unmaterialized(self):
        params = WorkloadParams(num_nodes=4, seed=7, target_accesses=4000, scale=0.25)
        trace = get_workload("db2", params).generate_chunked()
        TimingSimulator(SystemConfig.isca2005(), TSEConfig.paper_default()).compare(trace)
        assert trace._accesses is None

    def test_table3_row_fields(self, comparison):
        row = comparison.table3_row(trace_coverage=0.9, lookahead=18)
        assert row["lookahead"] == 18.0
        assert row["trace_coverage"] == 0.9
        assert 0.0 <= row["full_coverage"] <= 1.0


#: (timestamp, outcome, dependent, lead) per access: absolute timestamps, so
#: repeats and backward steps are expressible.
C, M, S = Outcome.CONSUMPTION, Outcome.COLD_MISS, Outcome.SVB_HIT
H, W, X = Outcome.OTHER, Outcome.WRITE, Outcome.SPIN
EDGE_CASES = {
    "equal_and_decreasing_timestamps": [
        (0, C, 0, 0), (0, C, 0, 0), (40, M, 0, 0), (20, C, 1, 0), (20, H, 0, 0),
        (10, S, 0, 1), (90, C, 0, 0), (90, M, 1, 0), (60, S, 1, 2), (400, C, 0, 0),
    ],
    # 48 misses four to an instruction fill the 32 MSHRs.
    "mshr_saturation": [(i // 4, C if i % 3 else M, 0, 0) for i in range(48)]
    + [(30, C, 1, 0), (40, M, 0, 0)],
    # Misses more than 256 instructions apart retire the oldest one first.
    "rob_window_retirement": [
        (0, C, 0, 0), (100, M, 0, 0), (200, S, 0, 0), (300, C, 0, 0), (350, H, 0, 0),
        (600, M, 0, 0), (700, C, 0, 0), (1000, W, 0, 0), (1300, C, 0, 0), (1300, X, 0, 0),
    ],
    # A streamed block in flight arrives before the 31 misses issued after
    # it, and its MSHR is free again for the last miss.
    "svb_arrival_frees_an_mshr": [(0, H, 0, 0), (1400, S, 0, 1)] + [(1500, C, 0, 0)] * 31
    + [(1700, C, 0, 0)],
    # The end-of-walk drain charges each wait to the bucket of the miss that
    # completes it, earliest completion first.
    "drain_mixed_buckets": [(0, C, 0, 0), (100, M, 0, 0), (120, S, 0, 0)],
    # A cold miss and 31 consumptions fill the MSHRs at clock 0.  The next
    # consumption issues when the cold miss completes and the final cold miss
    # when the consumptions do, so both complete at 810 + 771.67 cycles and
    # the end-of-walk drain charges the tie to the older one's bucket: coherent
    # in the first case, other stalls (771.67 cycles) in the second.
    "drain_tie_consumption_first": [(0, M, 0, 0)] + [(0, C, 0, 0)] * 31
    + [(0, C, 0, 0), (0, M, 0, 0)],
    "drain_tie_cold_miss_first": [(0, M, 0, 0)] + [(0, C, 0, 0)] * 31
    + [(2, C, 0, 0), (1, M, 0, 0)],
}

#: NodeTimingResult fields in this order, recorded with the MemoryAccess-object
#: walk that the column walk replaced; they must stay bit-identical.
GOLDEN_FIELDS = (
    "busy_cycles", "coherent_read_stall_cycles", "other_stall_cycles",
    "fully_covered", "partially_covered", "uncovered", "mlp_area", "mlp_busy_time",
)
GOLDEN_EDGE_CASES = {
    "equal_and_decreasing_timestamps": (230.0, 2410.0, 1581.666666666667, 1, 1, 5, 4050.0, 3240.0),
    "mshr_saturation": (20.0, 2415.5, 771.666666666667, 0, 0, 33, 26730.0, 2430.5),
    "rob_window_retirement": (650.0, 2218.333333333333, 624.166666666667, 0, 1, 4, 3240.0, 3240.0),
    "svb_arrival_frees_an_mshr": (850.0, 810.0, 0.0, 0, 1, 32, 25920.0, 910.0),
    "drain_mixed_buckets": (60.0, 830.3333333333333, 11.666666666666742, 0, 1, 1, 810.0, 810.0),
    "drain_tie_consumption_first":
        (0.0, 1581.6666666666667, 0.0, 0, 0, 32, 25920.0, 1581.6666666666667),
    "drain_tie_cold_miss_first":
        (1.0, 809.0, 771.6666666666667, 0, 0, 32, 25920.0, 1581.6666666666667),
}

#: Per node, base then TSE, on 4-node 6000-access traces (seed 7, scale 0.25).
GOLDEN_TRACES = {
    ("em3d", "base"): [
        (13952.0, 44503.0, 6081.666666666669, 0, 0, 448, 362880.0, 56700.0),
        (13952.0, 44503.0, 6081.666666666669, 0, 0, 448, 362880.0, 56700.0),
        (13952.0, 44503.0, 6081.666666666669, 0, 0, 448, 362880.0, 56700.0),
        (13952.0, 44503.0, 6081.666666666669, 0, 0, 448, 362880.0, 56700.0),
    ],
    ("em3d", "tse"): [
        (13952.0, 12938.0, 6081.666666666669, 0, 315, 133, 107730.0, 20250.0),
        (13952.0, 12938.0, 6081.666666666669, 0, 315, 133, 107730.0, 20250.0),
        (13952.0, 12938.0, 6081.666666666669, 0, 315, 133, 107730.0, 20250.0),
        (13952.0, 12938.0, 6081.666666666669, 0, 315, 133, 107730.0, 20250.0),
    ],
    ("db2", "base"): [
        (877486.0, 162819.6666666665, 255506.99999999523, 0, 0, 235, 190350.0, 190349.99999999994),
        (721403.0, 175382.99999999994, 162570.66666666264, 0, 0, 271, 219510.0, 219510.0),
        (713304.0, 78611.33333333331, 222298.66666666226, 0, 0, 97, 78570.0, 78570.0),
        (698823.5, 85111.99999999994, 250689.83333333026, 0, 0, 105, 85050.0, 85050.0),
    ],
    ("db2", "tse"): [
        (877486.0, 138498.99999999983, 255506.99999999482, 68, 0, 205, 166050.0, 166050.0),
        (721403.0, 114047.99999999993, 154467.3333333297, 106, 24, 166, 134460.0, 134460.0),
        (713304.0, 71321.33333333331, 222298.66666666226, 49, 0, 88, 71280.0, 71280.0),
        (698823.5, 69701.33333333331, 250689.83333333055, 45, 0, 86, 69660.0, 69660.0),
    ],
    ("apache", "base"): [
        (1028029.5, 115020.0, 323437.50000000536, 0, 0, 142, 115020.0, 115020.0),
        (1132837.0, 117450.0, 294241.66666667664, 0, 0, 145, 117450.0, 117450.0),
        (1060033.0, 110970.0, 319781.66666667315, 0, 0, 137, 110970.0, 110970.0),
        (908828.0, 113400.0, 245486.66666666832, 0, 0, 140, 113400.0, 113400.0),
    ],
    ("apache", "tse"): [
        (1028029.5, 100440.0, 323437.5000000049, 34, 0, 124, 100440.0, 100440.0),
        (1132837.0, 106110.0, 294241.66666667606, 43, 0, 131, 106110.0, 106110.0),
        (1060033.0, 89100.0, 319781.6666666719, 50, 0, 110, 89100.0, 89100.0),
        (908828.0, 98819.99999999988, 245486.6666666678, 38, 0, 122, 98820.0, 98819.99999999988),
    ],
}


def _fields(result):
    return tuple(getattr(result, name) for name in GOLDEN_FIELDS)


class TestGoldenWalk:
    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_edge_case(self, case):
        spec = EDGE_CASES[case]
        result = ProcessorModel(SystemConfig.isca2005()).run_node(
            0,
            [timestamp for timestamp, _, _, _ in spec],
            [dependent for _, _, dependent, _ in spec],
            [int(outcome) for _, outcome, _, _ in spec],
            [lead for _, _, _, lead in spec],
        )
        assert _fields(result) == GOLDEN_EDGE_CASES[case]

    @staticmethod
    def _workload(name):
        params = WorkloadParams(num_nodes=4, seed=7, target_accesses=6000, scale=0.25)
        return get_workload(name, params)

    @staticmethod
    def _simulator(name):
        lookahead = PAPER_LOOKAHEAD.get(name, 8)
        config = TSEConfig.paper_default(lookahead=lookahead)
        return TimingSimulator(SystemConfig.isca2005(), config)

    @pytest.mark.parametrize("name", ["em3d", "db2", "apache"])
    def test_trace_walk(self, name):
        trace = self._workload(name).generate_chunked()
        comparison = self._simulator(name).compare(trace)
        for label, result in (("base", comparison.base), ("tse", comparison.tse)):
            assert [_fields(n) for n in result.per_node] == GOLDEN_TRACES[(name, label)]

    @pytest.mark.parametrize("name", ["em3d", "db2", "apache"])
    def test_object_trace_walks_the_same(self, name):
        comparison = self._simulator(name).compare(self._workload(name).generate())
        for label, result in (("base", comparison.base), ("tse", comparison.tse)):
            assert [_fields(n) for n in result.per_node] == GOLDEN_TRACES[(name, label)]
