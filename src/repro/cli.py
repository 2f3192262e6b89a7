"""Command-line interface: ``python -m repro <command>``.

The subcommands mirror the ways the paper's framework is used:

* ``derive`` — evaluate an expression over a synthetic workload (or show
  its generated OpenCL) on a chosen device/strategy;
* ``sweep`` — regenerate the paper's evaluation tables and figure series;
* ``render`` — run the in-situ pipeline and write a pseudocolor PPM image
  of a derived-field slice (the Fig 7 visualization);
* ``plan`` — dry-run one configuration at full paper scale and report its
  memory requirement and modeled runtime;
* ``serve`` — run the concurrent multi-device service under a closed-loop
  synthetic load and print the latency/throughput/utilization report.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .analysis.vortex import EXPRESSION_INPUTS, EXPRESSIONS
from .clsim import GIB
from .errors import ReproError
from .experiments import (format_fig_series, format_table1, format_table2,
                          gpu_success_rate, run_case, run_sweep)
from .host.engine import DerivedFieldEngine
from .workloads import SubGrid, TABLE1_SUBGRIDS, make_fields, make_shapes

__all__ = ["main"]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--device", choices=("cpu", "gpu"), default="cpu")
    parser.add_argument("--strategy",
                        choices=("roundtrip", "staged", "fusion",
                                 "streaming", "multi-device"),
                        default="fusion")
    parser.add_argument("--grid", default="16x16x32",
                        help="cell dims NIxNJxNK of the synthetic "
                             "workload (default 16x16x32)")
    parser.add_argument("--seed", type=int, default=0)


def _add_backend(parser: argparse.ArgumentParser) -> None:
    from .codegen import default_plan_cache_dir
    parser.add_argument(
        "--backend",
        choices=("vectorized", "interpreted", "compiled"),
        default=None,
        help="executor backend (default: compiled for cached fusion, "
             "vectorized otherwise)")
    parser.add_argument(
        "--plan-cache-dir", metavar="DIR", nargs="?",
        const=str(default_plan_cache_dir()), default=None,
        help="persist compiled plans on disk so a restarted process "
             "warms without recompiling (bare flag uses "
             f"{default_plan_cache_dir()})")


def _parse_grid(text: str) -> SubGrid:
    try:
        ni, nj, nk = (int(p) for p in text.lower().split("x"))
        return SubGrid(ni, nj, nk)
    except ValueError:
        raise SystemExit(f"bad --grid {text!r}; expected e.g. 16x16x32")


def _expression(args) -> str:
    if args.expression in EXPRESSIONS:
        return EXPRESSIONS[args.expression]
    return args.expression


def cmd_derive(args) -> int:
    grid = _parse_grid(args.grid)
    fields = make_fields(grid, seed=args.seed)
    tracer = None
    if args.trace or args.profile:
        from .trace import Tracer
        tracer = Tracer()
    engine = DerivedFieldEngine(device=args.device, strategy=args.strategy,
                                backend=args.backend,
                                plan_cache_dir=args.plan_cache_dir,
                                tracer=tracer)
    compiled = engine.compile(_expression(args))
    inputs = {k: fields[k] for k in compiled.required_inputs}
    report = engine.execute(compiled, inputs)
    if args.trace:
        from .trace import write_chrome_trace
        n_events = write_chrome_trace(tracer, args.trace)
        print(f"wrote {n_events} trace events to {args.trace} "
              "(open in chrome://tracing or Perfetto)")
    if args.profile:
        from .trace import format_profile
        print(format_profile(tracer))
    if args.metrics:
        from .metrics import get_registry, write_metrics_json
        snapshot = write_metrics_json(args.metrics, get_registry())
        print(f"wrote {len(snapshot)} metric families to {args.metrics}")
    out = report.output
    print(f"derived {compiled.result_name!r} over {grid.n_cells:,} cells "
          f"on {args.device} / {report.strategy}")
    print(f"  range:   [{out.min():.6g}, {out.max():.6g}]  "
          f"mean {out.mean():.6g}")
    print(f"  events:  Dev-W={report.counts.dev_writes} "
          f"Dev-R={report.counts.dev_reads} "
          f"K-Exe={report.counts.kernel_execs}")
    print(f"  modeled: {report.timing.total:.6f} s   "
          f"device memory {report.mem_high_water:,} B")
    if args.verbose:
        if report.codegen is not None:
            cg = report.codegen
            print(f"  executor:   {cg.backend} ({cg.disposition})")
        else:
            print(f"  executor:   {engine.backend}")
        if report.cache is not None:
            c = report.cache
            print(f"  plan cache: {'hit' if c.hit else 'miss'} "
                  f"(hits={c.hits} misses={c.misses} "
                  f"evictions={c.evictions} size={c.size}/{c.maxsize})")
        if report.alloc is not None:
            a = report.alloc
            print(f"  allocator:  {a.total_allocations} reservations, "
                  f"{a.reused_allocations} reused from pool "
                  f"(hits={a.pool_hits} misses={a.pool_misses})")
            print(f"  pool:       {a.pooled_bytes:,} B parked, "
                  f"{a.live_bytes:,} B live, peak {a.peak_bytes:,} B")
    if args.show_kernels:
        for name, source in report.generated_sources.items():
            print(f"\n// ---- {name} ----\n{source}")
    return 0


def cmd_check(args) -> int:
    """Differentially validate an expression: the generated OpenCL,
    executed from source by the interpreter, must match the vectorized
    execution bit for bit."""
    import numpy as np
    grid = _parse_grid(args.grid)
    fields = make_fields(grid, seed=args.seed)
    text = _expression(args)
    fast = DerivedFieldEngine(device=args.device, strategy=args.strategy)
    slow = DerivedFieldEngine(device=args.device, strategy=args.strategy,
                              backend="interpreted")
    compiled = fast.compile(text)
    inputs = {k: fields[k] for k in compiled.required_inputs}
    report = fast.execute(compiled, inputs)
    interpreted = slow.derive(text, inputs)
    max_err = float(np.abs(report.output - interpreted).max())
    n_kernels = len(report.generated_sources)
    lines = sum(s.count("\n") for s in report.generated_sources.values())
    exact = max_err == 0.0
    print(f"expression:        {compiled.result_name!r} over "
          f"{grid.n_cells:,} cells ({args.strategy}/{args.device})")
    print(f"generated kernels: {n_kernels} ({lines} lines of OpenCL C)")
    print(f"max |vectorized - interpreted|: {max_err:.3e} "
          f"({'bit-exact' if exact else 'MISMATCH'})")
    return 0 if exact else 1


def cmd_sweep(args) -> int:
    print(format_table1())
    results = run_sweep()
    print()
    print(format_table2(results))
    for expression in EXPRESSIONS:
        print()
        print(format_fig_series(results, metric=args.metric,
                                expression=expression))
    ok, total = gpu_success_rate(results)
    print(f"\nGPU completed {ok} of {total} cases (paper: 106 of 144)")
    return 0


def cmd_render(args) -> int:
    from .host.visitsim import (GlobalArrayReader, Pipeline,
                                PythonExpressionFilter,
                                RectilinearDataset, save_ppm)
    grid = _parse_grid(args.grid)
    fields = make_fields(grid, seed=args.seed)

    def loader(_timestep):
        return RectilinearDataset(
            x=fields["x"], y=fields["y"], z=fields["z"],
            cell_fields={"u": fields["u"], "v": fields["v"],
                         "w": fields["w"]})

    engine = DerivedFieldEngine(device=args.device, strategy=args.strategy)
    expr_filter = PythonExpressionFilter(_expression(args), engine=engine)
    pipeline = Pipeline(GlobalArrayReader(loader), [expr_filter])
    image = pipeline.render(0, field=expr_filter.output_name,
                            axis=args.axis)
    save_ppm(image, args.output)
    print(f"wrote {image.shape[1]}x{image.shape[0]} pseudocolor of "
          f"{expr_filter.output_name!r} (axis {args.axis}) to "
          f"{args.output}")
    return 0


def cmd_plan(args) -> int:
    grid = (TABLE1_SUBGRIDS[args.table1_row - 1]
            if args.table1_row else _parse_grid(args.grid))
    name = args.expression
    if name not in EXPRESSIONS:
        raise SystemExit(
            f"plan needs a named paper expression: {sorted(EXPRESSIONS)}")
    result = run_case(name, grid, args.device, args.strategy)
    status = "FAILED (out of device global memory)" if result.failed \
        else "ok"
    print(f"{name} on {grid.label()} ({grid.n_cells:,} cells), "
          f"{args.device}/{args.strategy}: {status}")
    print(f"  device memory high-water: "
          f"{result.mem_high_water / GIB:.3f} GiB")
    if not result.failed:
        print(f"  modeled runtime: {result.runtime:.3f} s")
        print(f"  events: Dev-W={result.dev_writes} "
              f"Dev-R={result.dev_reads} K-Exe={result.kernel_execs}")
    return 1 if result.failed else 0


def cmd_serve(args) -> int:
    import json

    from .service import (build_service, default_cases,
                          format_load_report, run_load)

    devices = [d.strip() for d in args.devices.split(",") if d.strip()]
    for device in devices:
        if device not in ("cpu", "gpu"):
            raise SystemExit(f"bad --devices entry {device!r}; "
                             "expected a comma list of cpu/gpu")
    names = ([e.strip() for e in args.expressions.split(",") if e.strip()]
             if args.expressions else None)
    grid = _parse_grid(args.grid)
    fields = make_fields(grid, seed=args.seed)
    try:
        cases = default_cases(fields, names)
    except ValueError as exc:
        raise SystemExit(str(exc))

    # Observability (DESIGN.md §12): always on.  --trace-dir upgrades
    # the flight recorder to retain mode so it doubles as the full
    # tracer; --debug-bundle-dir arms tail-sampled debug bundles;
    # --log-jsonl streams the structured log.
    from .obs import Observability, StructuredLogger, set_logger
    obs = Observability(bundle_dir=args.debug_bundle_dir,
                        retain_trace=bool(args.trace_dir))
    log_stream = None
    if args.log_jsonl:
        log_stream = open(args.log_jsonl, "w")
        set_logger(StructuredLogger(level=args.log_level,
                                    stream=log_stream))
    elif args.log_level != "info":
        set_logger(StructuredLogger(level=args.log_level))
    tracer = obs.recorder

    metrics_server = None
    metrics_registry = None
    if args.metrics_port is not None:
        from .metrics import MetricsServer, get_registry
        # Re-base the service's metrics on the process registry so one
        # endpoint exposes service + engine + clsim families together.
        metrics_registry = get_registry()
        metrics_server = MetricsServer(metrics_registry,
                                       port=args.metrics_port).start()
        print(f"metrics on {metrics_server.url('/metrics')} "
              f"(Prometheus text) and "
              f"{metrics_server.url('/metrics.json')}")

    mode = "open" if args.open_loop else "closed"
    print(f"serving {sorted({c.name for c in cases})} over "
          f"{grid.n_cells:,} cells on devices {devices} "
          f"({args.strategy}), queue depth {args.queue_depth}, "
          f"max batch {args.max_batch}")
    try:
        with build_service(devices=devices, strategy=args.strategy,
                           queue_depth=args.queue_depth,
                           default_timeout=args.timeout,
                           backend=args.backend,
                           plan_cache_dir=args.plan_cache_dir,
                           max_batch=args.max_batch,
                           batch_window=args.batch_window,
                           tracer=tracer,
                           metrics_registry=metrics_registry,
                           obs=obs,
                           ) as service:
            if metrics_server is not None:
                # Health/debug surfaces ride the metrics listener.
                metrics_server.add_json_route("/healthz", service.health)
                metrics_server.add_json_route("/readyz",
                                              service.readiness)
                metrics_server.add_json_route("/debugz",
                                              service.debug_index)
                print(f"health on {metrics_server.url('/healthz')}, "
                      f"{metrics_server.url('/readyz')}, debug index "
                      f"on {metrics_server.url('/debugz')}")
            report = run_load(
                service, cases, clients=args.clients,
                requests=args.requests, mode=mode, rate_rps=args.rate,
                inject_deadline_miss=args.inject_deadline_miss)
            snapshot = service.snapshot()
    finally:
        if metrics_server is not None:
            metrics_server.close()
        if log_stream is not None:
            log_stream.close()
    print(format_load_report(report))
    if args.debug_bundle_dir and obs.bundles is not None:
        stats = obs.bundles.stats()
        print(f"debug bundles: {stats['written']} written under "
              f"{stats['root']} ({stats['skipped']} skipped)")
    if args.trace_dir:
        import os

        from .trace import format_profile, write_chrome_trace
        os.makedirs(args.trace_dir, exist_ok=True)
        trace_path = os.path.join(args.trace_dir, "trace.json")
        profile_path = os.path.join(args.trace_dir, "profile.txt")
        n_events = write_chrome_trace(tracer, trace_path)
        with open(profile_path, "w") as handle:
            handle.write(format_profile(tracer) + "\n")
        print(f"wrote {n_events} trace events to {trace_path} and the "
              f"phase profile to {profile_path}")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump({"load": report, "metrics": snapshot}, handle,
                      indent=2)
        print(f"wrote load report + metrics snapshot to {args.json}")
    if report["dropped"]:
        print(f"ERROR: {report['dropped']} requests dropped on the floor",
              file=sys.stderr)
        return 1
    return 0


def cmd_top(args) -> int:
    from .obs.top import run_top
    return run_top(args.url, interval=args.interval, once=args.once)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Derived field generation framework "
                    "(SC 2012 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive", help="evaluate an expression")
    _add_common(p)
    p.add_argument("expression",
                   help="expression text, or a named one: "
                        + ", ".join(EXPRESSIONS))
    p.add_argument("--show-kernels", action="store_true",
                   help="print the generated OpenCL C")
    p.add_argument("--verbose", "-v", action="store_true",
                   help="also print the executor backend, its cache "
                        "disposition, and plan-cache and allocator/pool "
                        "statistics for this run")
    _add_backend(p)
    p.add_argument("--trace", metavar="FILE",
                   help="trace this run (engine phases, strategy spans, "
                        "modeled device lanes) and write Chrome "
                        "trace-event JSON")
    p.add_argument("--profile", action="store_true",
                   help="print a per-phase self/total time profile of "
                        "this run")
    p.add_argument("--metrics", metavar="FILE",
                   help="dump the metrics-registry JSON snapshot "
                        "(allocator, event, plan-cache, engine-phase "
                        "families) after the run")
    p.set_defaults(fn=cmd_derive)

    p = sub.add_parser("check",
                       help="differentially validate generated OpenCL "
                            "against the vectorized execution")
    _add_common(p)
    p.add_argument("expression")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("sweep", help="regenerate the evaluation tables")
    p.add_argument("--metric", choices=("runtime", "memory"),
                   default="runtime")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("render", help="render a derived-field slice")
    _add_common(p)
    p.add_argument("expression")
    p.add_argument("--axis", type=int, default=2, choices=(0, 1, 2))
    p.add_argument("--output", default="derived.ppm")
    p.set_defaults(fn=cmd_render)

    p = sub.add_parser("serve",
                       help="run the concurrent service under synthetic "
                            "load and report latency/throughput")
    p.add_argument("--devices", default="cpu",
                   help="comma list of worker devices, e.g. cpu,gpu "
                        "(repeat a device for more workers)")
    p.add_argument("--strategy",
                   choices=("roundtrip", "staged", "fusion"),
                   default="fusion")
    p.add_argument("--clients", type=int, default=8,
                   help="closed-loop client threads (default 8)")
    p.add_argument("--requests", type=int, default=500,
                   help="total requests to issue (default 500)")
    p.add_argument("--queue-depth", type=int, default=64,
                   help="admission queue depth; beyond it requests are "
                        "rejected with backpressure (default 64)")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-request deadline in seconds (default none)")
    p.add_argument("--max-batch", type=int, default=8,
                   help="coalesce up to this many queued same-plan "
                        "requests into one batched device launch "
                        "(1 disables micro-batching; default 8)")
    p.add_argument("--batch-window", type=float, default=0.0,
                   help="seconds a device worker may linger for "
                        "same-plan followers before launching a partial "
                        "batch "
                        "(bounded by request deadlines; default 0)")
    p.add_argument("--open-loop", action="store_true",
                   help="submit the whole request stream without waiting "
                        "for outcomes (arrivals independent of service "
                        "speed; --clients is ignored)")
    p.add_argument("--rate", type=float, default=None, metavar="RPS",
                   help="pace open-loop arrivals at this rate "
                        "(default: as fast as possible)")
    p.add_argument("--expressions", default=None,
                   help="comma list of paper expressions to serve "
                        "(default: all three)")
    p.add_argument("--grid", default="16x16x32",
                   help="cell dims NIxNJxNK of the synthetic workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", metavar="FILE", default=None,
                   help="also write the load report and metrics snapshot "
                        "as JSON")
    p.add_argument("--trace-dir", metavar="DIR", default=None,
                   help="trace the whole run and write DIR/trace.json "
                        "(Chrome trace events) and DIR/profile.txt")
    p.add_argument("--metrics-port", type=int, default=None,
                   metavar="PORT",
                   help="serve live /metrics (Prometheus text), "
                        "/metrics.json, /healthz, /readyz, and /debugz "
                        "on this port for the duration of the run "
                        "(0 picks an ephemeral port)")
    p.add_argument("--debug-bundle-dir", metavar="DIR", default=None,
                   help="dump a self-contained debug bundle (trace, "
                        "report, plan, metrics, log slice) for every "
                        "anomalous request — failure, deadline miss, "
                        "cancellation, codegen fallback, p99 latency "
                        "outlier — under DIR")
    p.add_argument("--inject-deadline-miss", type=int, default=0,
                   metavar="N",
                   help="force the first N requests to miss their "
                        "deadline at the post-execution checkpoint "
                        "(deterministic fault injection for the obs "
                        "smoke test; default 0)")
    p.add_argument("--log-jsonl", metavar="FILE", default=None,
                   help="stream the correlated structured log (JSON "
                        "lines with trace ids) to FILE")
    p.add_argument("--log-level", default="info",
                   choices=("debug", "info", "warning", "error"),
                   help="structured-log level (default info)")
    _add_backend(p)
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("top",
                       help="live terminal view of a serving process "
                            "(polls its /metrics.json endpoint)")
    p.add_argument("url",
                   help="base URL or /metrics.json endpoint of a "
                        "running `repro serve --metrics-port` process, "
                        "e.g. http://127.0.0.1:9100")
    p.add_argument("--interval", type=float, default=2.0,
                   help="poll interval in seconds (default 2)")
    p.add_argument("--once", action="store_true",
                   help="print one frame and exit (for scripts/CI)")
    p.set_defaults(fn=cmd_top)

    p = sub.add_parser("plan",
                       help="dry-run one full-scale configuration")
    _add_common(p)
    p.add_argument("expression")
    p.add_argument("--table1-row", type=int, choices=range(1, 13),
                   metavar="1..12",
                   help="use a Table I sub-grid instead of --grid")
    p.set_defaults(fn=cmd_plan)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
