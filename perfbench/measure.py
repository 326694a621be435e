"""Measurement helpers: spans, order statistics and the host fingerprint.

Spans are recorded by the benchmark around its calls into each layer of
the simulator.  They live in memory for the whole run and are written out
once, when the run ends.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, TypeVar

perf = time.perf_counter
T = TypeVar("T")

#: Where runs leave spans and temporary stores (ignored by git).
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


class Tracer:
    """Nested spans: (name, start, end, parent index, operation id).

    Disabled tracers record nothing and cost one shared no-op context per
    call, so the untraced loop and the traced loop share their code.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[List] = []
        self._stack: List[int] = []
        self.op_id: Optional[int] = None
        self._null = nullcontext()

    def span(self, name: str):
        if not self.enabled:
            return self._null
        return self._span(name)

    @contextmanager
    def _span(self, name: str) -> Iterator[int]:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, perf(), None, parent, self.op_id])
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            self.spans[index][2] = perf()

    def duration(self, index: int) -> float:
        return self.spans[index][2] - self.spans[index][1]

    def write(self, path: str, header: Dict[str, object]) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        records = [
            {"name": name, "start_s": start - origin, "end_s": end - origin,
             "parent": parent, "op": op}
            for name, start, end, parent, op in self.spans
        ]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump({**header, "spans": records}, handle)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def percentile(values: Sequence[float], pct: int) -> float:
    """Linear-interpolated percentile (``pct`` in 1..99)."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[pct - 1]


def tail_percentile(count: int) -> Optional[int]:
    """The highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    for pct in (99, 95, 90, 75):
        if count * (100 - pct) / 100 >= 10:
            return pct
    return None


def timing_summary(name: str, values: Sequence[float]) -> List[Tuple[str, float, int]]:
    """(metric name, value, sample count): the median plus the tail percentile."""
    out = [(f"{name}.p50", median(values), len(values))]
    pct = tail_percentile(len(values))
    if pct is not None:
        out.append((f"{name}.p{pct}", percentile(values, pct), len(values)))
    return out


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


class _Pair:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def reference_op() -> int:
    """A fixed pure-Python workload that uses no repository code.

    Dict probes, list growth and small-object allocation, the operations
    the simulator's loops are made of, so its time follows the host's
    speed for this kind of code.  On a shared host that speed drifts by a
    third over minutes; a plain arithmetic loop does not track it.
    """
    table: Dict[int, List[int]] = {}
    x = 12345
    for i in range(30_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        bucket = table.get(x % 10_000)
        if bucket is None:
            table[x % 10_000] = [i]
        else:
            bucket.append(i)
    pairs = [_Pair(i, i + 1) for i in range(15_000)]
    return len(table) + len(pairs)


class HostReference:
    """Times :func:`reference_op` between operations, about once a second.

    Each operation is normalized by the mean of the samples taken just
    before and just after it, and end-to-end times are reported in that
    unit: it takes the host's drift out of run-to-run comparisons.  The raw
    seconds are reported beside them.
    """

    INTERVAL_S = 1.0
    #: Reference ops per sample.  The host's speed spikes for tens of
    #: milliseconds at a time; the fastest of a few runs of the reference
    #: op is far steadier than one run.
    RUNS = 3

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: Per stamped operation: the index of the last sample before it.
        self._before: List[int] = []
        self._due = self.INTERVAL_S

    def sample(self) -> None:
        # With the collector on, the sample would also time collections of
        # whatever the operations left on the heap, not the host alone.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            runs = []
            for _ in range(self.RUNS):
                start = perf()
                reference_op()
                runs.append(perf() - start)
            self.samples.append(min(runs))
        finally:
            if gc_was_enabled:
                gc.enable()

    def stamp(self) -> None:
        """Before an operation: sample once an interval of operation time
        has passed since the last sample."""
        if self._due >= self.INTERVAL_S:
            self._due = 0.0
            self.sample()
        self._before.append(len(self.samples) - 1)

    def spent(self, op_s: float) -> None:
        self._due += op_s

    def normalizers(self) -> List[float]:
        """Per stamped operation, the mean of the samples around it."""
        self.sample()
        return [(self.samples[i] + self.samples[i + 1]) / 2 for i in self._before]


#: Seconds of one :class:`HostReference` sample on the nominal host in
#: whose seconds ``setup_s`` is reported: about its median on the 2-core
#: Xeon VM the benchmark was defined on.
NOMINAL_REFERENCE_S = 0.015


def measure_setup(build: Callable[[], T], repeats: int,
                  discard: Callable[[T], None]) -> Tuple[T, float, float]:
    """Run a workload's set-up ``repeats`` times and time it.

    Each repeat is timed between two reference samples and divided by
    their mean, which takes the host's drift out as it does for the
    operations; the median of these is converted to seconds of the nominal
    host.  Returns the last build, that figure and the median raw seconds.
    ``discard`` receives every earlier build, outside the timed part.
    """
    reference = HostReference()
    reference.sample()
    raw: List[float] = []
    scaled: List[float] = []
    product = None
    for index in range(repeats):
        if index:
            discard(product)
        start = perf()
        product = build()
        raw.append(perf() - start)
        reference.sample()
        scaled.append(raw[-1] * 2 / (reference.samples[-2] + reference.samples[-1]))
    return product, NOMINAL_REFERENCE_S * median(scaled), median(raw)


def _calibration_s() -> float:
    """Median of five reference samples, in seconds: a host-speed yardstick."""
    reference = HostReference()
    for _ in range(5):
        reference.sample()
    return median(reference.samples)


def host_fingerprint() -> Dict[str, object]:
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "calibration_s": _calibration_s(),
    }

