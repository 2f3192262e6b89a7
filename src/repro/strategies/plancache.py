"""Warm-path execution: executable plans and the LRU plan cache.

The paper amortizes *parsing* (tables built once, expressions compiled per
time step change) but every ``execute()`` still re-plans stages, regenerates
and revalidates OpenCL C, re-``exec``-compiles NumPy executors, and
re-reserves every device buffer.  For the in-situ workload the paper
targets — the same compiled expression applied to each new time step — all
of that is loop-invariant.  PyOpenCL keys a persistent compiled-kernel
cache by (source, device) for exactly this reason, and Loo.py separates
one-time transformation/codegen from repeated invocation.

An :class:`ExecutablePlan` captures everything execution needs that does
not depend on array *values*: the op schedule (upload, alloc, kernel,
read, release, host ops — the only thing the paper's strategies differ
in), generated (and validated) OpenCL C, compiled
:class:`~repro.clsim.kernel.Kernel` objects with their exec'd Python
executors — fusion builds these two on first read, see
:class:`~repro.clsim.kernel.KernelSources` — precomputed byte sizes and
:class:`~repro.clsim.perfmodel.KernelCost` models.  One launcher,
:meth:`ExecutablePlan.launch`, runs any strategy's schedule and only
computes; a warm run binds new arrays and launches again, with the cold
run's allocation order and bitwise-identical output.
:meth:`ExecutablePlan.modeled` walks the schedule for its modeled effects
alone and folds the walk once per device into a :class:`ModeledRun` —
events, counts, timing, peak, and the out-of-memory point — which every
run reports, and the planner and batch coalescing read.

:class:`PlanCache` (held by
:class:`~repro.host.engine.DerivedFieldEngine`) is an LRU keyed by
:class:`PlanKey` — a content hash of the network structure plus every
execution-relevant parameter — with hit/miss/evict counters surfaced in
:class:`~repro.strategies.base.ExecutionReport`.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import astuple, dataclass, replace
from operator import attrgetter
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from ..clsim.buffer import Allocator, Buffer
from ..clsim.context import Context
from ..clsim.device import DeviceSpec
from ..clsim.environment import CLEnvironment, TimingSummary
from ..clsim.events import (Event, EventCounts, EventKind, EventLog,
                            event_counters)
from ..clsim.kernel import Kernel, KernelSources
from ..clsim.perfmodel import KernelCost, kernel_seconds, transfer_seconds
from ..dataflow.network import Network
from ..errors import CLOutOfMemoryError
from ..metrics import NULL_REGISTRY, get_registry
from ..dataflow.spec import CONST, SOURCE
from ..primitives.base import ResultKind, VECTOR_WIDTH
from .base import DeviceReport, ExecutionReport
from .bindings import Binding

__all__ = ["CODEGEN_VERSION", "ExecutablePlan", "PlanKey", "PlanCache",
           "CacheInfo", "ModeledRun", "network_signature", "plan_key",
           "AllocOp", "HostOp", "KernelOp", "Op", "ReadOp", "ReleaseOp",
           "UploadOp"]

DEFAULT_PLAN_CACHE_SIZE = 32

# Version of the compiled-executor code generator (repro.codegen).  Bump
# whenever generated sweep semantics change: the value is folded into the
# on-disk plan cache's validity token, so persisted entries from an older
# generator self-invalidate instead of being replayed.
CODEGEN_VERSION = 2


def network_signature(network: Network) -> tuple[str, tuple[str, ...]]:
    """Content-hash the network's *structure*: filters, parameters, and
    topology over canonical node indices, with source/alias names erased.

    Returns ``(digest, source_ids)`` where ``source_ids`` are the live
    sources in schedule order — the plan's positional binding order.  Two
    structurally identical expressions (``t = u*v`` vs ``s = p*q``) hash
    equal and can share one executable plan; bindings are rebound
    positionally on a hit.

    The result is memoized on the network instance (a ``Network`` is fully
    derived in ``__init__`` and immutable afterward) — hashing ~30 nodes
    costs a noticeable slice of a warm execute otherwise.
    """
    cached = getattr(network, "_plan_signature", None)
    if cached is not None:
        return cached
    schedule = network.schedule()
    index = {node.id: i for i, node in enumerate(schedule)}
    parts: list[tuple] = []
    for node in schedule:
        if node.filter == SOURCE:
            parts.append((SOURCE, network.kind_of(node.id).name))
        elif node.filter == CONST:
            parts.append((CONST, repr(node.param("value"))))
        else:
            parts.append((node.filter,
                          tuple(index[i] for i in node.inputs),
                          node.params))
    outputs = tuple(index[o] for o in network.output_ids())
    digest = hashlib.sha1(repr((parts, outputs)).encode()).hexdigest()
    sources = tuple(node.id for node in schedule if node.filter == SOURCE)
    network._plan_signature = (digest, sources)
    return network._plan_signature


@dataclass(frozen=True)
class PlanKey:
    """Everything a cached plan's validity depends on.

    ``signature`` covers network structure; ``source_shapes`` covers every
    bound array's shape/dtype (two grids can share an element count but
    differ in coordinate-array sizes); the rest cover the execution
    configuration.  Any change produces a different key — i.e. a miss.
    """

    signature: str
    strategy: tuple
    dtype: np.dtype       # np.dtype objects hash/compare by value
    n: int
    source_shapes: tuple
    device: tuple
    backend: str
    # Primitive-registry content fingerprint: redefining a primitive
    # changes the key, so both the in-memory cache and the on-disk cache
    # (which names its files by this key's hash) miss instead of
    # replaying a plan built against different primitive semantics.
    fingerprint: str = ""

    def for_device(self, device) -> "PlanKey":
        """This key re-targeted at another device — everything but the
        device identity is device-independent, which is how a service
        worker keys a request prepared on the front engine for its own
        device."""
        return replace(self,
                       device=(device.name, device.global_mem_bytes))


def plan_key(network: Network, strategy, bindings: Mapping[str, Binding],
             n: int, dtype: np.dtype, device, backend: str,
             ) -> tuple["PlanKey", tuple[str, ...]]:
    """Assemble the cache key for one execution; also returns the current
    network's source order (for positional rebinding on a hit)."""
    signature, sources = network_signature(network)
    shapes = tuple((bindings[s].spec.shape, bindings[s].spec.dtype)
                   for s in sources)
    key = PlanKey(
        signature=signature,
        strategy=strategy.plan_token(),
        dtype=np.dtype(dtype),
        n=n,
        source_shapes=shapes,
        device=(device.name, device.global_mem_bytes),
        backend=backend,
        fingerprint=network.registry.fingerprint(),
    )
    return key, sources


@dataclass(frozen=True)
class CacheInfo:
    """Plan-cache counters surfaced on every warm-path ExecutionReport."""

    hit: bool          # did THIS execution reuse a cached plan?
    hits: int          # lifetime totals for the owning cache
    misses: int
    evictions: int
    size: int
    maxsize: int
    invalidations: int = 0   # stale on-disk entries discarded


class PlanCache:
    """Bounded LRU of :class:`ExecutablePlan` keyed by :class:`PlanKey`.

    Thread-safe: one lock serializes lookup/insert/counter updates, so a
    single cache instance can back every worker of a
    :class:`~repro.service.DerivedFieldService`.  Plans themselves are
    immutable-after-build and launch against caller-owned environments, so
    a cached plan may be run by several threads at once.  Two threads
    missing on the same key may both build the plan (last ``put`` wins) —
    a benign duplicate, never a correctness hazard.
    """

    def __init__(self, maxsize: int = DEFAULT_PLAN_CACHE_SIZE):
        if maxsize < 1:
            raise ValueError(f"plan cache maxsize must be >= 1: {maxsize}")
        self.maxsize = maxsize
        self._plans: "OrderedDict[PlanKey, ExecutablePlan]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        # Registry mirror: process-wide hit/miss/evict counters
        # (cumulative across every cache instance; per-cache exactness
        # stays on the instance counters above, surfaced via CacheInfo).
        registry = get_registry()
        self._m_hits = registry.counter(
            "repro_plancache_hits_total",
            "Executable-plan lookups served from the cache")
        self._m_misses = registry.counter(
            "repro_plancache_misses_total",
            "Executable-plan lookups that required a plan build")
        self._m_evictions = registry.counter(
            "repro_plancache_evictions_total",
            "Cached plans evicted by the LRU bound")
        self._m_invalidations = registry.counter(
            "repro_plancache_invalidations_total",
            "Stale or corrupt persisted plan entries discarded")

    def get(self, key: PlanKey) -> "Optional[ExecutablePlan]":
        with self._lock:
            plan = self._plans.get(key)
            if plan is None:
                self.misses += 1
                self._m_misses.inc()
                return None
            self._plans.move_to_end(key)
            self.hits += 1
            self._m_hits.inc()
            return plan

    def put(self, key: PlanKey, plan: "ExecutablePlan") -> None:
        with self._lock:
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self.maxsize:
                self._plans.popitem(last=False)
                self.evictions += 1
                self._m_evictions.inc()

    def record_invalidation(self) -> None:
        """Count one discarded stale/corrupt persisted plan entry (the
        disk layer's analogue of an eviction)."""
        with self._lock:
            self.invalidations += 1
            self._m_invalidations.inc()

    def info(self, hit: bool) -> CacheInfo:
        with self._lock:
            return CacheInfo(hit=hit, hits=self.hits, misses=self.misses,
                             evictions=self.evictions,
                             size=len(self._plans), maxsize=self.maxsize,
                             invalidations=self.invalidations)

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def __contains__(self, key: PlanKey) -> bool:
        """Affinity probe: no counter updates, no LRU refresh."""
        with self._lock:
            return key in self._plans


# -- the op schedule ----------------------------------------------------------
#
# A plan's schedule is one immutable tuple of ops.  Device buffers are named
# by integer *slot* (roundtrip uploads a fresh buffer for every argument
# occurrence, so a node id does not identify a buffer); host values — source
# bindings, read-back results, host-side computations — are named by node id.
# Every op also says where it runs: its ``slab`` of a chunked plan
# (:mod:`repro.strategies.chunking`) and its ``device`` — 0 is the launching
# environment's, k >= 1 the plan's ``devices[k - 1]``.


@dataclass(frozen=True, kw_only=True)
class _Placed:
    slab: int = 0
    device: int = 0


@dataclass(frozen=True)
class UploadOp(_Placed):
    """Copy a host value into a fresh device buffer (one Dev-W)."""

    slot: int
    node_id: str        # host value to upload; also the buffer label
    nbytes: int         # the value's size (the modeled walk has no data)


@dataclass(frozen=True)
class AllocOp(_Placed):
    """Reserve an uninitialized device buffer for a kernel output."""

    slot: int
    node_id: str
    nbytes: int


@dataclass(frozen=True)
class KernelOp(_Placed):
    """Launch one kernel (one K-Exe) over buffer slots, then any trailing
    by-value scalars; ``outs`` receive its result(s)."""

    kernel: Kernel
    args: tuple[int, ...]
    outs: tuple[int, ...]
    cost: KernelCost
    by_value: tuple = ()


@dataclass(frozen=True)
class ReadOp(_Placed):
    """Read a buffer back into host value ``node_id`` (one Dev-R)."""

    slot: int
    node_id: str
    reshape: bool = False   # view the result as (n, VECTOR_WIDTH)


@dataclass(frozen=True)
class ReleaseOp(_Placed):
    """Return buffers to the allocator (or the pool) eagerly."""

    slots: tuple[int, ...]


@dataclass(frozen=True)
class HostOp(_Placed):
    """Compute host value ``node_id`` on the host — no device events.
    ``fn`` receives the host values of ``inputs``; the modeled walk
    skips it."""

    node_id: str
    fn: Callable
    inputs: tuple[str, ...] = ()


Op = Union[UploadOp, AllocOp, KernelOp, ReadOp, ReleaseOp, HostOp]

_TRANSFER_KIND = {UploadOp: EventKind.DEV_WRITE, ReadOp: EventKind.DEV_READ}
_ENGINES = {EventKind.DEV_WRITE: "h2d", EventKind.KERNEL: "compute",
            EventKind.DEV_READ: "d2h"}
_start = attrgetter("ts_seconds")


@dataclass(frozen=True)
class ModeledRun:
    """A schedule's modeled effects, folded once: the events a run
    records and the counts, timing (wall 0) and peak it reports.
    ``events`` are the launching device's, stamped from 0 on its
    timeline (:meth:`ExecutablePlan._walk`), and ``totals`` are their
    per-kind ``(kind, count, nbytes)`` sums.  On a device too small for
    the schedule, ``error`` is the out-of-memory failure and the rest is
    what came before it.  A multi-device fold sums counts over its
    ``devices``, takes the slowest device's timing per category and the
    largest peak, and keeps each further device's totals in ``others``
    for that device's counters."""

    events: tuple[Event, ...]
    totals: tuple[tuple[EventKind, int, int], ...]
    counts: EventCounts
    timing: TimingSummary
    peak: int
    error: Optional[CLOutOfMemoryError] = None
    last_kernel: Optional[int] = None   # index of the last kernel event
    devices: tuple[DeviceReport, ...] = ()
    others: tuple[tuple[str, tuple], ...] = ()

    @classmethod
    def of(cls, events: Iterable[Event], peak: int,
           error: Optional[CLOutOfMemoryError] = None) -> "ModeledRun":
        """Fold ``events`` as a fresh log holding them reads."""
        log = EventLog()
        log.record_all(events, ())
        kinds = dict.fromkeys(e.kind for e in log.events)
        kernels = [i for i, e in enumerate(log.events)
                   if e.kind is EventKind.KERNEL]
        return cls(tuple(log.events),
                   tuple((k, log.count(k), log.bytes_moved(k))
                         for k in kinds),
                   log.counts(), TimingSummary.of(log), peak, error,
                   kernels[-1] if kernels else None)

    def record(self, log: EventLog, wall: float = 0.0) -> None:
        """Record the (pre-stamped) events in an empty ``log`` with one
        :meth:`EventLog.record_all`; ``wall`` rides on the last kernel
        event, the one new :class:`Event`.  Further devices' totals
        advance their own devices' counters."""
        events, at = self.events, self.last_kernel
        if wall and at is not None:
            e = events[at]
            events = (*events[:at], Event(e.kind, e.name, e.nbytes,
                                          e.sim_seconds, wall, e.ts_seconds),
                      *events[at + 1:])
        log.record_all(events, self.totals)
        for name, totals in self.others:
            observe = event_counters(name)
            for kind, count, nbytes in totals:
                observe(kind, count, nbytes)


class ExecutablePlan:
    """A fully-compiled, value-independent execution recipe.

    Strategies emit the plan's op schedule at build time; :meth:`launch`
    runs it against fresh bindings.  The plan holds no
    :class:`~repro.clsim.buffer.Buffer` or array data — only sizes,
    kernels, and costs — so one plan instance can run any number of times,
    on any environment of the same device/backend.

    Every plan is accounted one way: :meth:`launch` only computes,
    :meth:`run` reports the plan's fold (:meth:`modeled`), and one
    caller records the fold — :meth:`execute` for a strategy's run, the
    engine for a cached one (once solo, coalesced for a batch).  A
    chunked plan (:func:`~repro.strategies.chunking.chunk_plan`) sets
    ``pipeline_depth``, the slabs one device holds at once, and
    ``devices``, the further devices its ops' device indices name.
    """

    pipeline_depth: int = 1
    devices: tuple[DeviceSpec, ...] = ()

    def __init__(self, strategy_name: str, source_order: tuple[str, ...],
                 n: int, dtype: np.dtype, output_id: str,
                 output_kind: ResultKind, output_uniform: bool,
                 generated_sources: Mapping[str, str],
                 ops: tuple[Op, ...] = ()):
        self.strategy_name = strategy_name
        self.source_order = source_order
        self.n = n
        self.dtype = np.dtype(dtype)
        self.output_id = output_id
        self.output_kind = output_kind
        self.output_uniform = output_uniform
        self.generated_sources = generated_sources
        self.ops = ops
        self._modeled: dict = {}      # device -> fold

    def launch(self, bindings: Mapping[str, Binding],
               env: CLEnvironment) -> np.ndarray:
        """Run the op schedule and return the raw output; records
        nothing.  Buffers come from ``env``'s context (device k's from a
        fresh one on ``devices[k - 1]``), so pooling, the live peak and
        out-of-memory at allocation are real.  Buffers still live when
        the schedule ends — or when an op fails — are released."""
        with env.tracer.span("plan.schedule", category="strategy",
                             strategy=self.strategy_name,
                             ops=len(self.ops)):
            run_kernel = env.queue.run_kernel
            contexts = [env.context, *(Context(d, backend=env.context.backend)
                                       for d in self.devices)]
            host = {s: bindings[s].data for s in self.source_order}
            live: dict[int, Buffer] = {}
            try:
                for op in self.ops:
                    kind = type(op)
                    if kind is UploadOp:
                        array = host[op.node_id]
                        live[op.slot] = buf = contexts[op.device] \
                            .create_buffer(array.nbytes, op.node_id)
                        buf.set_data(array)
                    elif kind is AllocOp:
                        live[op.slot] = contexts[op.device].create_buffer(
                            op.nbytes, op.node_id)
                    elif kind is KernelOp:
                        args = [live[s] for s in op.args]
                        args.extend(op.by_value)
                        run_kernel(op.kernel, args,
                                   [live[s] for s in op.outs])
                    elif kind is ReadOp:
                        result = live[op.slot].get_data().copy()
                        if op.reshape:
                            result = result.reshape(-1, VECTOR_WIDTH)
                        host[op.node_id] = result
                    elif kind is ReleaseOp:
                        for s in op.slots:
                            live.pop(s).release()
                    else:               # HostOp
                        host[op.node_id] = op.fn(
                            *[host[i] for i in op.inputs])
            finally:
                for buf in live.values():
                    buf.release()
        return self._broadcast(host[self.output_id])

    def _walk(self, allocators: Sequence[Allocator]):
        """The modeled walk: each op's reservations on
        ``allocators[op.device]`` and its events, stamped on its device's
        timeline.  Returns each device's events (an :class:`EventLog`)
        and per-slab peaks, and the out-of-memory error of a reservation
        that did not fit (the walk stops there); whatever is still
        reserved is released.

        A device has three in-order engines — upload DMA, compute core,
        readback DMA (the M2050's dual-DMA layout) — and holds at most
        ``pipeline_depth`` slabs: a slab starts once the slab that many
        before it ended.  Within a slab each event starts when its
        predecessor ends and its engine is free; across slabs only the
        engines and that bound serialize, and devices run concurrently.
        Events keep their modeled durations, so the overlap moves only
        the makespan; with one slab the stamps are the in-order queue's.
        """
        depth = self.pipeline_depth
        logs = [EventLog() for _ in allocators]
        peaks: list[list[int]] = [[] for _ in allocators]
        ends: list[list[float]] = [[] for _ in allocators]  # slab ends
        free: dict[tuple[int, str], float] = {}  # engine -> when free
        reserved: dict[int, tuple[int, str, int]] = {}  # slot -> op facts
        at, end, error = None, 0.0, None
        try:
            for op in self.ops:
                kind = type(op)
                if kind is ReleaseOp:
                    for s in op.slots:
                        nbytes, _, owner = reserved.pop(s)
                        allocators[owner].release(nbytes)
                if kind is ReleaseOp or kind is HostOp:
                    continue
                device = op.device
                allocator = allocators[device]
                if (device, op.slab) != at:
                    if at is not None:
                        ends[at[0]].append(end)
                    at, done = (device, op.slab), ends[device]
                    end = done[-depth] if len(done) >= depth else 0.0
                    peaks[device].append(0)
                if kind is UploadOp or kind is AllocOp:
                    allocator.reserve(op.nbytes, op.node_id)
                    reserved[op.slot] = (op.nbytes, op.node_id, device)
                    peaks[device][-1] = max(peaks[device][-1],
                                            allocator.current_bytes)
                    if kind is AllocOp:
                        continue
                if kind is KernelOp:
                    event_kind = EventKind.KERNEL
                    name, nbytes = op.kernel.name, op.cost.global_bytes
                    seconds = kernel_seconds(op.cost, allocator.device)
                else:
                    event_kind = _TRANSFER_KIND[kind]
                    nbytes, name, _ = reserved[op.slot]
                    seconds = transfer_seconds(nbytes, allocator.device)
                engine = (device, _ENGINES[event_kind])
                start = max(free.get(engine, 0.0), end)
                end = free[engine] = start + seconds
                logs[device].record(
                    Event(event_kind, name, nbytes, seconds, 0.0, start))
        except CLOutOfMemoryError as exc:
            error = exc
        finally:
            for nbytes, _, owner in reserved.values():
                allocators[owner].release(nbytes)
        return logs, peaks, error

    def model(self, allocator: Allocator, log: EventLog) -> None:
        """A dry run: the walk's reservations on ``allocator`` (a further
        device's on an unmetered one) and the launching device's events
        in ``log``; a reservation that does not fit raises
        :class:`~repro.errors.CLOutOfMemoryError` after the events
        before it.  :meth:`modeled` folds the walk once per device."""
        logs, _, error = self._walk([allocator, *(
            Allocator(d, registry=NULL_REGISTRY) for d in self.devices)])
        for event in sorted(logs[0].events, key=_start):
            log.record(event)
        if error is not None:
            raise error

    def modeled(self, device: DeviceSpec) -> ModeledRun:
        """The schedule's :class:`ModeledRun` launched on ``device``:
        the walk on unmetered allocators, folded on first request and
        memoized (the plan is immutable; two threads racing here may
        both walk, and every caller gets the first fold kept).  A
        device's peak is the most ``pipeline_depth`` consecutive slabs
        reserve together."""
        run = self._modeled.get(device)
        if run is None:
            specs = (device, *self.devices)
            logs, peaks, error = self._walk(
                [Allocator(d, registry=NULL_REGISTRY) for d in specs])
            depth = self.pipeline_depth
            parts = [ModeledRun.of(
                sorted(log.events, key=_start),
                max((sum(p[i:i + depth]) for i in range(len(p))),
                    default=0), error) for log, p in zip(logs, peaks)]
            run = parts[0]
            if len(parts) > 1:
                run = replace(
                    run, peak=max(p.peak for p in parts),
                    counts=EventCounts(*map(sum, zip(
                        *(p.counts.as_row() for p in parts)))),
                    timing=TimingSummary(*map(max, zip(
                        *(astuple(p.timing) for p in parts)))),
                    devices=tuple(DeviceReport(d.name, p.counts, p.timing,
                                               p.peak)
                                  for d, p in zip(specs, parts)),
                    others=tuple((d.name, p.totals)
                                 for d, p in zip(specs[1:], parts[1:])))
            run = self._modeled.setdefault(device, run)
        return run

    def run(self, bindings: Mapping[str, Binding],
            env: CLEnvironment) -> ExecutionReport:
        """Launch and report the fold on ``env``'s device, with the
        launch's host wall time and ``env``'s allocator peak once the
        fold's peak is noted on it (a pooled launch can peak higher).
        Records nothing."""
        fold = self.modeled(env.device)
        start = time.perf_counter()
        output = self.launch(bindings, env)
        wall = time.perf_counter() - start
        t = fold.timing
        env.context.allocator.note_external_peak(fold.peak)
        return ExecutionReport(
            strategy=self.strategy_name,
            output=output,
            counts=fold.counts,
            timing=TimingSummary(t.host_to_device, t.kernel_exec,
                                 t.device_to_host, t.build, wall,
                                 t.makespan),
            mem_high_water=env.mem_high_water,
            generated_sources=self.generated_sources,
            device_reports=fold.devices,
        )

    def execute(self, bindings: Mapping[str, Binding],
                env: CLEnvironment) -> ExecutionReport:
        """:meth:`run`, then record the fold in ``env``'s log.  On a
        device too small for the schedule, the events before the failing
        reservation are recorded and the fold's error is raised."""
        fold = self.modeled(env.device)
        try:
            report = self.run(bindings, env)
        except CLOutOfMemoryError:
            if fold.error is None:
                raise
            fold.record(env.queue.log)
            raise fold.error from None
        fold.record(env.queue.log, report.timing.wall)
        return report

    def pull_kernels(self) -> None:
        """Build the plan's on-demand kernels now — render, validate and
        compile — so a :class:`~repro.errors.CLBuildError` surfaces here
        rather than at a later launch."""
        if isinstance(self.generated_sources, KernelSources):
            self.generated_sources.kernels()

    def rebind(self, bindings: Mapping[str, Binding],
               current_sources: tuple[str, ...],
               ) -> Mapping[str, Binding]:
        """Remap bindings keyed by another (structurally identical)
        network's source names onto this plan's names, positionally."""
        if current_sources == self.source_order:
            return bindings
        return {mine: bindings[theirs]
                for mine, theirs in zip(self.source_order, current_sources)}

    # -- shared launch helpers ------------------------------------------------

    @property
    def output_components(self) -> int:
        return VECTOR_WIDTH if self.output_kind is ResultKind.VECTOR else 1

    def _broadcast(self, output: np.ndarray) -> np.ndarray:
        """Expand a uniform result to the full problem size on return."""
        if not self.output_uniform:
            return output
        components = self.output_components
        shape = (self.n,) if components == 1 else (self.n, components)
        return np.ascontiguousarray(
            np.broadcast_to(output.reshape(1, -1)[0], shape))
