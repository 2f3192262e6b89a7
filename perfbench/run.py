"""The repository's benchmark: one workload, one run, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload {insitu,serve,explore} \\
        --seed N --seconds S --trace {0,1}

Workloads (see ``workloads.py`` and ``BENCHMARK.json`` for why each):
``insitu`` (Fig 7 distributed Q-criterion steps), ``serve`` (open-loop
bursts through the asyncio service client) and ``explore`` (new
expressions on a long-lived engine).

A run splits ``--seconds`` into slices and, between slices, starts
fresh Python processes that time the workload's set-up
(``setup_probe.py``), so set-up samples spread over the whole run like
the operations do.  With ``--trace 0`` it prints the end-to-end metrics:
the median set-up, peak RSS, latency p50/p90 and throughput.  With
``--trace 1`` it first measures the host triad roofline, then alternates
untraced and traced slices (layer wrappers installed, see
``tracing.py``), prints the per-layer metrics and tables of layer
shares, and writes the spans to
``perfbench/out/trace-<workload>-<seed>.json``.  The last line of
standard output is always the JSON result.  Exits with 2, printing no
result, when the program's sources (``src/repro``) are missing.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

from tracing import PER_LAYER, TraceSession, layer_metrics, quantile, \
    triad_gbps
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"          # traced runs write their spans here

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "throughput_per_s": "1/s",
}

# The timed window runs in SLICES short slices spread over the run's
# whole wall time, with checks and set-up probes between them: the
# host's speed shifts in phases of seconds, and many spread-out slices
# average over more phases than a few long ones.  The set-up samples
# (fresh processes) are spread evenly between the slices too.
SLICES = 16
PROBES = 6
TRACE_PROBES = 3
TRACE_SLICES = 8


def setup_sample(workload: str, seed: int) -> dict:
    """Time one fresh-process set-up of ``workload``."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result object the command prints."""
    probes = TRACE_PROBES if trace else PROBES
    # The roofline probe's arrays are the run's largest allocation; it
    # runs first, while the process holds nothing else.
    triad = triad_gbps() if trace else None
    wl = WORKLOADS[workload](seed)
    setup_sample(workload, seed)      # discarded: warms the file cache
    wl.start()
    session = TraceSession() if trace else None
    n_slices = TRACE_SLICES if trace else SLICES
    samples = []
    try:
        for i in range(n_slices):
            if trace and i % 2 == 1:
                with session.installed():
                    wl.run_slice(seconds / n_slices, session)
            else:
                wl.run_slice(seconds / n_slices)
            wl.after_slice()
            if len(samples) < (i + 1) * probes // n_slices:
                samples.append(setup_sample(workload, seed))
    finally:
        wl.close()

    if trace:
        values, tables = layer_metrics(
            session.tracer, wl, triad,
            statistics.median(s["parser_build_s"] for s in samples))
        units = PER_LAYER
        report_trace(workload, seed, session.tracer, values, tables)
    else:
        latencies = wl.latencies["untraced"]
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in samples),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "latency_p50_s": quantile(latencies, 0.5),
            "latency_p90_s": quantile(latencies, 0.9),
            "throughput_per_s": wl.throughput(),
        }
        units = END_TO_END
    if set(values) != set(units):
        raise RuntimeError(f"metric names drifted: {sorted(values)}")
    return {
        "correct": wl.failed == 0 and wl.attempted > 0,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }


def report_trace(workload: str, seed: int, tracer, values: dict,
                 tables: dict) -> None:
    """Print the share tables and per-layer metrics; write the spans."""
    from repro.trace import write_chrome_trace
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-{seed}.json"
    write_chrome_trace(tracer, path)
    for title, shares in tables.items():
        print(f"{workload}: self-time shares of {title}")
        for part, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            if share:
                print(f"  {part:<36} {100.0 * share:6.1f} %")
    for name, unit in PER_LAYER.items():
        print(f"  {name:<36} {values[name]:.6g} {unit}")
    print(f"spans written to {path}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("insitu", "serve", "explore"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
