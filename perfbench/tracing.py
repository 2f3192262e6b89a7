"""The traced run: spans around calls into each layer, from outside ``src/``.

:class:`TraceSession` wraps public functions and methods of the program
with a :class:`repro.trace.Tracer` span each, only while a traced slice
runs, and puts every original attribute back afterwards.  Functions the
engine imported by name (``parse``, ``lower``, ``Network``, ``plan_key``,
``compile_plan``, ``extract_block``) are wrapped where the caller looks
them up, in the importing module.  Spans stay in memory; the run writes
them once, as a Chrome trace, when it ends.

:func:`layer_metrics` turns the spans into the per-layer metrics: self
time per operation (a span's duration minus the part its child spans
cover), call counts, and ratios given next to their bases.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = ["PATCHES", "PER_LAYER", "TraceSession", "layer_metrics",
           "quantile", "triad_gbps"]


# -- hooks: read what a call did, after its span closed ----------------------

def _hit(session, span, args, result, pre):
    span.annotate(hit=result is not None)


def _launch_bytes(session, span, args, result, pre):
    plan, bindings = args[0], args[1]
    moved = sum(bindings[s].data.nbytes for s in plan.source_order)
    span.annotate(bytes=moved + (result.nbytes if result is not None else 0))


def _ghost_bytes(session, span, args, result, pre):
    extent = args[1]
    ghost_cells = result.n_cells - extent.n_cells
    span.annotate(ghost_bytes=sum(
        ghost_cells * values.itemsize
        for values in result.cell_fields.values()))


def _pool_before(args):
    env = args[0].environment
    return None if env is None else env.alloc_stats()


def _pool_delta(session, span, args, result, pre):
    engine, request = args[0], args[1]
    if engine.environment is None:      # uncached path: no warm pool
        return
    after = engine.environment.alloc_stats()
    hits = after.pool_hits - (pre.pool_hits if pre else 0)
    misses = after.pool_misses - (pre.pool_misses if pre else 0)
    members = request if isinstance(request, (list, tuple)) else [request]
    span.annotate(pool_hits=hits, pool_misses=misses,
                  requests=tuple(session.live.pop(id(p.bindings), None)
                                 for p in members))


def _submitted(session, span, args, result, pre):
    session.live[id(result.prepared.bindings)] = result.id
    session.submitted.append(result.id)
    span.annotate(request=result.id)


def _assigned(session, span, args, result, pre):
    span.annotate(requests=tuple(r.id for r in args[1]))


def _resolved(session, span, args, result, pre):
    span.annotate(request=args[0].id)


def _batch_size(session, span, args, result, pre):
    span.annotate(size=args[1])


def _busy(session, span, args, result, pre):
    span.annotate(busy=args[2])


@dataclass(frozen=True)
class Patch:
    """One wrapped attribute: ``module[.owner].attr`` becomes span ``layer``."""

    layer: str
    module: str
    owner: Optional[str]
    attr: str
    hook: Optional[Callable] = None
    pre: Optional[Callable] = None


# Grouped by the src/repro module that owns the code being timed.
PATCHES = (
    Patch("expr.parse", "repro.host.engine", None, "parse"),
    Patch("expr.lower", "repro.host.engine", None, "lower"),
    Patch("expr.optimize", "repro.host.engine", None,
          "eliminate_common_subexpressions"),
    Patch("dataflow.validate", "repro.host.engine", None, "Network"),
    Patch("engine.compile", "repro.host.engine", "DerivedFieldEngine",
          "compile"),
    Patch("engine.prepare", "repro.host.engine", "DerivedFieldEngine",
          "prepare"),
    Patch("engine.execute", "repro.host.engine", "DerivedFieldEngine",
          "execute_prepared", _pool_delta, _pool_before),
    Patch("engine.execute_batch", "repro.host.engine", "DerivedFieldEngine",
          "execute_batch", _pool_delta, _pool_before),
    Patch("strategies.binding_prepare", "repro.strategies.base",
          "ExecutionStrategy", "prepare"),
    Patch("strategies.plan_key", "repro.host.engine", None, "plan_key"),
    Patch("strategies.plan_lookup", "repro.strategies.plancache",
          "PlanCache", "get", _hit),
    Patch("strategies.build_plan", "repro.strategies.fusion",
          "FusionStrategy", "build_plan"),
    Patch("strategies.report", "repro.strategies.plancache",
          "ExecutablePlan", "run"),
    Patch("codegen.compile_plan", "repro.host.engine", None, "compile_plan"),
    Patch("codegen.launch", "repro.codegen.compiled", "CompiledPlan",
          "launch", _launch_bytes),
    Patch("clsim.event_record", "repro.clsim.events", "EventLog", "record"),
    Patch("visitsim.extract_block", "repro.par.driver", None,
          "extract_block", _ghost_bytes),
    Patch("par.allreduce", "repro.par.mpi", "Comm", "allreduce"),
    Patch("service.submit", "repro.service.service", "DerivedFieldService",
          "submit", _submitted),
    Patch("service.assign", "repro.service.worker", "DeviceWorker",
          "assign_batch", _assigned),
    Patch("service.resolve", "repro.service.request", "ServiceRequest",
          "resolve_served", _resolved),
    Patch("obs.request_done", "repro.obs.manager", "Observability",
          "on_request_done"),
    Patch("metrics.record", "repro.service.metrics", "ServiceMetrics",
          "record_admitted"),
    Patch("metrics.record", "repro.service.metrics", "ServiceMetrics",
          "record_result"),
    Patch("metrics.record", "repro.service.metrics", "ServiceMetrics",
          "record_batch", _batch_size),
    Patch("metrics.record", "repro.service.metrics", "ServiceMetrics",
          "record_execution", _busy),
)

# The rank body each MPI rank thread runs gets a root span of its own.
RANK_SPAN = "par.rank"
# The benchmark's own root span around one closed-loop operation.
OP_SPAN = "op"


class TraceSession:
    """Spans from wrapped layer entry points, kept in one tracer.

    ``with session.installed():`` wraps every :data:`PATCHES` target and
    ``repro.par.mpi.World.run`` (whose rank function gets a root span)
    and restores the originals on exit, so traced and untraced slices of
    one run alternate in the same process.  ``live`` maps a request's
    bindings to its id between submit and execution; ``submitted`` lists
    request ids in submit order."""

    def __init__(self):
        from repro.trace import Tracer
        self.tracer = Tracer()
        self.live: dict[int, int] = {}
        self.submitted: list[int] = []
        self._saved: list[tuple[object, str, bool, object]] = []

    @contextmanager
    def installed(self):
        try:
            for patch in PATCHES:
                owner = importlib.import_module(patch.module)
                if patch.owner is not None:
                    owner = getattr(owner, patch.owner)
                self._replace(owner, patch.attr,
                              self._wrap(patch, getattr(owner, patch.attr)))
            from repro.par.mpi import World
            self._replace(World, "run", self._wrap_world_run(World.run))
            yield self
        finally:
            self._restore()

    def _restore(self) -> None:
        """Put back every wrapped attribute, newest first."""
        while self._saved:
            owner, attr, had_own, original = self._saved.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _replace(self, owner, attr: str, value) -> None:
        own = vars(owner)
        self._saved.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, value)

    def _wrap(self, patch: Patch, original):
        tracer, session = self.tracer, self
        category = patch.layer.split(".")[0]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            pre = patch.pre(args) if patch.pre is not None else None
            span = tracer.span(patch.layer, category=category)
            with span:
                result = original(*args, **kwargs)
            if patch.hook is not None:
                patch.hook(session, span, args, result, pre)
            return result
        return wrapper

    def _wrap_world_run(self, original):
        tracer = self.tracer

        @functools.wraps(original)
        def run(world, fn, *args, **kwargs):
            @functools.wraps(fn)
            def rank_body(comm, *rank_args):
                with tracer.span(RANK_SPAN, category="par", parent=None,
                                 rank=comm.rank):
                    return fn(comm, *rank_args)
            return original(world, rank_body, *args, **kwargs)
        return run


# -- per-layer metrics -------------------------------------------------------

S, COUNT, RATIO = "s", "count", "ratio"

# name -> unit; every traced run reports all of them (0 where a workload
# never enters the layer).
PER_LAYER = {
    "expr.parser_build_s": S,
    "expr.parse_s": S,
    "expr.lower_s": S,
    "expr.optimize_s": S,
    "dataflow.validate_s": S,
    "engine.compile_s": S,
    "engine.prepare_s": S,
    "engine.execute_s": S,
    "engine.execute_batch_s": S,
    "engine.execute_self_s": S,
    "engine.execute_p50_s": S,
    "strategies.binding_prepare_s": S,
    "strategies.plan_key_s": S,
    "strategies.plan_lookup_s": S,
    "strategies.report_s": S,
    "strategies.build_plan_s": S,
    "strategies.plan_hits": COUNT,
    "strategies.plan_lookups": COUNT,
    "strategies.plan_hit_ratio": RATIO,
    "codegen.compile_plan_s": S,
    "codegen.launch_s": S,
    "codegen.sweep_s": S,
    "codegen.sweep_share": RATIO,
    "codegen.bytes_per_op_computed": "bytes",
    "codegen.sweep_gbps_computed": "GB/s",
    "codegen.sweep_roofline_fraction": RATIO,
    "clsim.event_record_s": S,
    "clsim.events_per_op": COUNT,
    "clsim.modeled_s": S,
    "clsim.mem_high_water_bytes": "bytes",
    "clsim.kernel_execs": COUNT,
    "clsim.dev_writes": COUNT,
    "clsim.dev_reads": COUNT,
    "clsim.pool_hits": COUNT,
    "clsim.pool_requests": COUNT,
    "clsim.pool_reuse_ratio": RATIO,
    "visitsim.extract_block_s": S,
    "visitsim.ghost_bytes_computed": "bytes",
    "par.rank_busy_s": S,
    "par.rank_wait_s": S,
    "service.submit_s": S,
    "service.queue_wait_s": S,
    "service.inbox_wait_s": S,
    "service.batch_execute_s": S,
    "service.post_s": S,
    "service.worker_busy_s": S,
    "service.wakeup_s": S,
    "service.batch_size_mean": COUNT,
    "service.coalesced_requests": COUNT,
    "service.coalesced_ratio": RATIO,
    "service.served_p50_s": S,
    "service.overhead_ratio": RATIO,
    "obs.request_done_s": S,
    "metrics.record_s": S,
    "loadgen.lag_s": S,
    "loadgen.lag_p90_s": S,
    "host.triad_gbps": "GB/s",
    "host.triad_array_mib": "MiB",
    "trace.compile_path_share": RATIO,
    "trace.share_base_s": S,
    "trace.unattributed_ratio": RATIO,
    "trace.ops": COUNT,
    "trace.traced_p50_s": S,
    "trace.untraced_p50_s": S,
    "trace.overhead_ratio": RATIO,
}

# Per-op self time of one span name.
_SELF = {
    "expr.parse_s": "expr.parse",
    "expr.lower_s": "expr.lower",
    "expr.optimize_s": "expr.optimize",
    "dataflow.validate_s": "dataflow.validate",
    "strategies.binding_prepare_s": "strategies.binding_prepare",
    "strategies.plan_key_s": "strategies.plan_key",
    "strategies.plan_lookup_s": "strategies.plan_lookup",
    "strategies.report_s": "strategies.report",
    "codegen.sweep_s": "codegen.launch",
    "clsim.event_record_s": "clsim.event_record",
    "visitsim.extract_block_s": "visitsim.extract_block",
    "obs.request_done_s": "obs.request_done",
    "metrics.record_s": "metrics.record",
}
# Per-op inclusive time of one span name.
_INCLUSIVE = {
    "engine.compile_s": "engine.compile",
    "engine.prepare_s": "engine.prepare",
    "engine.execute_s": "engine.execute",
    "engine.execute_batch_s": "engine.execute_batch",
    "strategies.build_plan_s": "strategies.build_plan",
    "codegen.compile_plan_s": "codegen.compile_plan",
    "codegen.launch_s": "codegen.launch",
    "service.submit_s": "service.submit",
}
# Self time summed into the shares printed by the traced run.
SHARE_GROUPS = {
    "sweep": ("codegen.launch",),
    "compile path": ("engine.compile", "expr.parse", "expr.lower",
                     "expr.optimize", "dataflow.validate",
                     "strategies.build_plan", "codegen.compile_plan"),
    "event accounting": ("clsim.event_record",),
    "report": ("strategies.report",),
    "prepare/bind/key": ("engine.prepare", "strategies.binding_prepare",
                         "strategies.plan_key"),
    "plan lookup": ("strategies.plan_lookup",),
    "engine self": ("engine.execute", "engine.execute_batch"),
    "ghost extraction": ("visitsim.extract_block",),
    "rank wait (allreduce)": ("par.allreduce",),
}
# The groups that run inside a warm engine call (serve's second table).
ENGINE_GROUPS = ("sweep", "event accounting", "report", "plan lookup",
                 "engine self")


def quantile(values, q: float) -> float:
    """Nearest-rank quantile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(np.ceil(q * len(ordered))) - 1))
    return float(ordered[rank])


class _SpanIndex:
    """Self/inclusive totals and lookups over one tracer's spans."""

    def __init__(self, spans):
        self.spans = spans
        children = defaultdict(float)
        for span in spans:
            if span.parent_id is not None:
                children[span.parent_id] += span.duration
        self.self_time = {s.span_id: s.duration - children[s.span_id]
                          for s in spans}
        self.by_name: dict[str, list] = defaultdict(list)
        for span in spans:
            self.by_name[span.name].append(span)

    def self_total(self, *names: str) -> float:
        return sum(self.self_time[s.span_id]
                   for name in names for s in self.by_name.get(name, ()))

    def incl_total(self, *names: str) -> float:
        return sum(s.duration for name in names
                   for s in self.by_name.get(name, ()))

    def count(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def attr_sum(self, name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in self.by_name.get(name, ()))


def _serve_segments(index: _SpanIndex, requests: list[dict]) -> dict:
    """Split each traced serve request's latency into consecutive segments.

    Due -> submit start (load-generator lag) -> submit end -> dispatch to
    the worker (queue wait) -> engine call start (inbox wait) -> engine
    call end (batch execute) -> resolution (post: worker bookkeeping) ->
    coroutine resumed (wake-up).  The segments sum to the latency."""
    submit = {s.attrs["request"]: s for s in index.by_name["service.submit"]
              if "request" in s.attrs}
    assign = {rid: s for s in index.by_name["service.assign"]
              for rid in s.attrs.get("requests", ())}
    resolve = {s.attrs["request"]: s for s in index.by_name["service.resolve"]}
    execute = {}
    for name in ("engine.execute", "engine.execute_batch"):
        for span in index.by_name.get(name, ()):
            for rid in span.attrs.get("requests", ()):
                if rid is not None:
                    execute[rid] = span
    # Top-level worker spans (telemetry, resolution) inside each post
    # segment count as attributed; the rest of post is not.
    tops = defaultdict(list)
    for span in index.spans:
        if span.parent_id is None:
            tops[span.thread].append(span)
    for spans in tops.values():
        spans.sort(key=lambda s: s.start_time)
    starts = {t: [s.start_time for s in spans] for t, spans in tops.items()}

    seg = defaultdict(list)
    for req in requests:
        rid = req["id"]
        if not all(rid in table for table in (submit, assign, resolve,
                                              execute)):
            continue
        sub, exe = submit[rid], execute[rid]
        t_assign, t_resolve = assign[rid].start_time, resolve[rid].start_time
        seg["lag"].append(sub.start_time - req["due"])
        seg["submit"].append(sub.duration)
        seg["queue_wait"].append(t_assign - sub.end_time)
        seg["inbox_wait"].append(exe.start_time - t_assign)
        seg["execute"].append(exe.duration)
        seg["post"].append(t_resolve - exe.end_time)
        seg["wakeup"].append(req["resume"] - t_resolve)
        seg["served"].append(req["resume"] - sub.start_time)
        seg["latency"].append(req["resume"] - req["due"])
        covered = 0.0
        spans, keys = tops[exe.thread], starts[exe.thread]
        for span in spans[bisect.bisect_left(keys, exe.end_time):]:
            if span.start_time >= t_resolve:
                break
            covered += min(span.end_time, t_resolve) - span.start_time
        seg["post_unspanned"].append(max(0.0, t_resolve - exe.end_time
                                         - covered))
    return seg


def layer_metrics(tracer, workload, triad: dict, parser_build_s: float
                  ) -> tuple[dict, dict]:
    """Per-layer metrics of one traced run, plus tables of shares.

    The tables map a title naming the denominator to ``{part: share}``.
    ``trace.unattributed_ratio`` is the stated residual: the time no
    layer span covers, as a share of the operation wall (explore), of
    the rank bodies' wall (insitu), or of request latency (serve, where
    the segments telescope exactly and only the worker's bookkeeping
    between the engine call and resolution can go unspanned).
    ``workload`` supplies the exact per-op counts, the operation
    latencies of the untraced and traced slices and, for serve, the
    traced requests' due and resume times."""
    index = _SpanIndex(list(tracer.spans))
    m = {name: 0.0 for name in PER_LAYER}
    m.update(workload.exact_counts())
    m["expr.parser_build_s"] = parser_build_s
    m["host.triad_gbps"] = triad["gbps"]
    m["host.triad_array_mib"] = triad["array_mib"]
    untraced = statistics.median(workload.latencies["untraced"])
    traced = statistics.median(workload.latencies["traced"])
    m["trace.untraced_p50_s"] = untraced
    m["trace.traced_p50_s"] = traced
    m["trace.overhead_ratio"] = traced / untraced

    requests = getattr(workload, "traced_requests", None)
    if requests is not None:
        seg = _serve_segments(index, requests)
        n = len(seg["latency"])
        # The warm engine call is the denominator of the sweep share:
        # the ROADMAP's "framework overhead vs sweep" attribution.
        base = index.incl_total("engine.execute", "engine.execute_batch")
        unattributed = sum(seg["post_unspanned"]) / sum(seg["latency"])
        m["service.queue_wait_s"] = statistics.fmean(seg["queue_wait"])
        m["service.inbox_wait_s"] = statistics.fmean(seg["inbox_wait"])
        m["service.batch_execute_s"] = statistics.fmean(seg["execute"])
        m["service.post_s"] = statistics.fmean(seg["post"])
        m["service.wakeup_s"] = statistics.fmean(seg["wakeup"])
        m["loadgen.lag_s"] = statistics.fmean(seg["lag"])
        m["loadgen.lag_p90_s"] = quantile(seg["lag"], 0.9)
        served_p50 = quantile(seg["served"], 0.5)
        m["service.served_p50_s"] = served_p50
    elif index.count(RANK_SPAN):
        ops = index.by_name[OP_SPAN]
        ranks = index.by_name[RANK_SPAN]
        n = len(ops)
        base = index.incl_total(RANK_SPAN)
        unattributed = index.self_total(RANK_SPAN) / base
        busy, wait = [], []
        for op in ops:
            for rank in ranks:
                if op.start_time <= rank.start_time <= op.end_time:
                    reduce = sum(s.duration for s in index.by_name[
                        "par.allreduce"] if s.thread == rank.thread
                        and rank.start_time <= s.start_time
                        <= rank.end_time)
                    busy.append(rank.duration - reduce)
                    wait.append(op.duration - busy[-1])
        m["par.rank_busy_s"] = statistics.fmean(busy)
        m["par.rank_wait_s"] = statistics.fmean(wait)
    else:
        n = index.count(OP_SPAN)
        base = index.incl_total(OP_SPAN)
        unattributed = index.self_total(OP_SPAN) / base

    m["trace.ops"] = n
    m["trace.unattributed_ratio"] = unattributed
    for metric, name in _SELF.items():
        m[metric] = index.self_total(name) / n
    for metric, name in _INCLUSIVE.items():
        m[metric] = index.incl_total(name) / n
    m["engine.execute_self_s"] = index.self_total(
        "engine.execute", "engine.execute_batch") / n
    execute_walls = [s.duration for name in ("engine.execute",
                                             "engine.execute_batch")
                     for s in index.by_name.get(name, ())]
    m["engine.execute_p50_s"] = quantile(execute_walls, 0.5)
    if requests is not None and m["engine.execute_p50_s"]:
        m["service.overhead_ratio"] = (m["service.served_p50_s"]
                                       / m["engine.execute_p50_s"])

    lookups = index.by_name.get("strategies.plan_lookup", ())
    hits = sum(1 for s in lookups if s.attrs.get("hit"))
    m["strategies.plan_hits"] = hits
    m["strategies.plan_lookups"] = len(lookups)
    m["strategies.plan_hit_ratio"] = hits / len(lookups) if lookups else 0.0

    sweep = index.self_total("codegen.launch")
    moved = index.attr_sum("codegen.launch", "bytes")
    m["codegen.sweep_share"] = sweep / base
    m["codegen.bytes_per_op_computed"] = moved / n
    if sweep:
        m["codegen.sweep_gbps_computed"] = moved / sweep / 1e9
        m["codegen.sweep_roofline_fraction"] = (
            m["codegen.sweep_gbps_computed"] / triad["gbps"])
    m["trace.compile_path_share"] = index.incl_total(
        "engine.compile", "strategies.build_plan",
        "codegen.compile_plan") / base
    # The shares' denominator per op: rank busy wall (insitu), warm
    # engine-call wall (serve) or operation wall (explore).
    m["trace.share_base_s"] = base / n

    m["clsim.events_per_op"] = index.count("clsim.event_record") / n
    pool_hits = sum(index.attr_sum(name, "pool_hits")
                    for name in ("engine.execute", "engine.execute_batch"))
    pool_requests = pool_hits + sum(
        index.attr_sum(name, "pool_misses")
        for name in ("engine.execute", "engine.execute_batch"))
    m["clsim.pool_hits"] = pool_hits
    m["clsim.pool_requests"] = pool_requests
    m["clsim.pool_reuse_ratio"] = (pool_hits / pool_requests
                                   if pool_requests else 0.0)
    m["visitsim.ghost_bytes_computed"] = index.attr_sum(
        "visitsim.extract_block", "ghost_bytes") / n

    sizes = [s.attrs["size"] for s in index.by_name.get("metrics.record", ())
             if "size" in s.attrs]
    busy = [s.attrs["busy"] for s in index.by_name.get("metrics.record", ())
            if "busy" in s.attrs]
    if sizes:
        m["service.batch_size_mean"] = statistics.fmean(sizes)
        m["service.coalesced_requests"] = sum(x for x in sizes if x > 1)
        m["service.coalesced_ratio"] = (m["service.coalesced_requests"]
                                        / sum(sizes))
    if busy:
        m["service.worker_busy_s"] = statistics.fmean(busy)

    shares = {group: index.self_total(*names) / base
              for group, names in SHARE_GROUPS.items()}
    if requests is None:
        shares["unattributed"] = unattributed
        title = ("rank busy wall" if index.count(RANK_SPAN)
                 else "operation wall")
        return m, {title: shares}
    total = sum(seg["latency"])
    segments = {name: sum(seg[name]) / total
                for name in ("lag", "submit", "queue_wait", "inbox_wait",
                             "execute", "post", "wakeup")}
    segments["unattributed (post outside spans)"] = unattributed
    return m, {"request latency, by segment": segments,
               "warm engine calls, by layer": {
                   group: shares[group] for group in ENGINE_GROUPS}}


# -- host roofline -----------------------------------------------------------

# The L3 size of the reference host; each triad array is four times it so
# the probe streams from memory, not cache.
L3_BYTES = 105 * 2**20
TRIAD_ARRAY_BYTES = 4 * L3_BYTES
TRIAD_REPEATS = 3
_TRIAD_CHUNK = 2**17          # elements per step: 1 MiB, cache resident


def triad_gbps() -> dict:
    """STREAM-style triad ``a = b + s*c`` over float64 arrays of
    ``TRIAD_ARRAY_BYTES`` each; the best of ``TRIAD_REPEATS`` passes.

    The scaled ``c`` goes through a small cache-resident buffer, so each
    element moves 24 bytes to or from memory: read b, read c, write a."""
    n = TRIAD_ARRAY_BYTES // 8
    b = np.full(n, 1.0)
    c = np.full(n, 2.0)
    a = np.empty(n)
    a.fill(0.0)
    tmp = np.empty(_TRIAD_CHUNK)
    best = float("inf")
    for _ in range(TRIAD_REPEATS):
        start = time.perf_counter()
        for lo in range(0, n, _TRIAD_CHUNK):
            hi = min(n, lo + _TRIAD_CHUNK)
            t = tmp[:hi - lo]
            np.multiply(c[lo:hi], 3.0, out=t)
            np.add(b[lo:hi], t, out=a[lo:hi])
        best = min(best, time.perf_counter() - start)
    if a[n // 2] != 7.0:
        raise RuntimeError("triad probe computed a wrong value")
    return {"gbps": 24.0 * n / best / 1e9, "array_mib": n * 8 / 2**20}
