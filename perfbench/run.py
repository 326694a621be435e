"""Repository benchmark: one workload per run, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs every operation twice, untraced and traced, and
reports the per-layer metrics, the per-layer self-time sum against the
untraced operation time, and the tracing overhead; its spans are written
to ``perfbench/out/spans-<workload>-<seed>.json`` when the run ends.

Metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is the result object; the lines before it are a readable
report that starts with the host fingerprint.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "timing", "campaign"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # The simulator reads REPRO_* knobs from the environment; the benchmark
    # runs every layer at its defaults, serially (no process pool).
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_PARALLEL_WORKERS"] = "1"
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks")]
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
        from measure import OUT_DIR, Tracer, host_fingerprint, peak_rss_mb
        from workloads import RUNNERS
    except (ImportError, OSError) as exc:
        print(f"cannot load the simulator or its benchmark: {exc}", file=sys.stderr)
        return 2

    host = host_fingerprint()
    print("host: " + json.dumps(host, sort_keys=True), flush=True)
    tracer = Tracer(bool(args.trace))
    result = RUNNERS[args.workload](args.seed, args.seconds, tracer)
    result.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    result.layers["host.calibration_s"] = host["calibration_s"]
    for line in result.report:
        print(line)

    if tracer.enabled:
        result.layers["trace.spans"] = float(len(tracer.spans))
        values = {m["name"]: (result.layers.get(m["name"], 0.0), m["unit"])
                  for m in spec["per_layer"]}
        path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.json")
        tracer.write(path, {"workload": args.workload, "seed": args.seed, "host": host})
        print(f"spans: {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
    else:
        values = {m["name"]: result.metrics[m["name"]] for m in spec["end_to_end"]}
    for name, (value, unit) in values.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
