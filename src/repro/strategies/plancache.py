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
executors, precomputed byte sizes and
:class:`~repro.clsim.perfmodel.KernelCost` models.  One launcher,
:meth:`ExecutablePlan.launch`, runs any strategy's schedule; a warm
``run()`` only binds input arrays and replays it — producing the
*identical* event sequence, allocation order, and bitwise-identical
output of a cold run.  :meth:`ExecutablePlan.model` walks the same
schedule for its modeled effects alone: that is a dry run, and
:func:`~repro.strategies.planner.plan` is the one place that runs it on
shapes.

Strategies that support planning implement ``build_plan()`` and inherit
:meth:`~repro.strategies.base.ExecutionStrategy.execute`, which routes
through it, so cold and warm paths share one code path by construction.
:class:`PlanCache` (held by
:class:`~repro.host.engine.DerivedFieldEngine`) is an LRU keyed by
:class:`PlanKey` — a content hash of the network structure plus every
execution-relevant parameter — with hit/miss/evict counters surfaced in
:class:`~repro.strategies.base.ExecutionReport`.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Optional, Union

import numpy as np

from ..clsim.buffer import Allocator, Buffer
from ..clsim.environment import CLEnvironment
from ..clsim.events import Event, EventKind, EventLog
from ..clsim.kernel import Kernel
from ..clsim.perfmodel import KernelCost, kernel_seconds, transfer_seconds
from ..dataflow.network import Network
from ..metrics import get_registry
from ..dataflow.spec import CONST, SOURCE
from ..primitives.base import ResultKind, VECTOR_WIDTH
from .base import ExecutionReport
from .bindings import Binding

__all__ = ["CODEGEN_VERSION", "ExecutablePlan", "PlanKey", "PlanCache",
           "CacheInfo", "network_signature", "plan_key", "AllocOp",
           "HostOp", "KernelOp", "Op", "ReadOp", "ReleaseOp", "UploadOp"]

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
        device identity is device-independent, which is how the service
        scheduler asks 'would this request hit on worker X's device?'."""
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


@dataclass(frozen=True)
class UploadOp:
    """Copy a host value into a fresh device buffer (one Dev-W)."""

    slot: int
    node_id: str        # host value to upload; also the buffer label
    nbytes: int         # the value's size (the modeled walk has no data)


@dataclass(frozen=True)
class AllocOp:
    """Reserve an uninitialized device buffer for a kernel output."""

    slot: int
    node_id: str
    nbytes: int


@dataclass(frozen=True)
class KernelOp:
    """Launch one kernel (one K-Exe) over buffer slots, then any trailing
    by-value scalars; ``outs`` receive its result(s)."""

    kernel: Kernel
    args: tuple[int, ...]
    outs: tuple[int, ...]
    cost: KernelCost
    by_value: tuple = ()


@dataclass(frozen=True)
class ReadOp:
    """Read a buffer back into host value ``node_id`` (one Dev-R)."""

    slot: int
    node_id: str
    reshape: bool = False   # view the result as (n, VECTOR_WIDTH)


@dataclass(frozen=True)
class ReleaseOp:
    """Return buffers to the allocator (or the pool) eagerly."""

    slots: tuple[int, ...]


@dataclass(frozen=True)
class HostOp:
    """Compute host value ``node_id`` on the host — no device events.
    ``fn`` receives the host values of ``inputs``; the modeled walk
    skips it."""

    node_id: str
    fn: Callable
    inputs: tuple[str, ...] = ()


Op = Union[UploadOp, AllocOp, KernelOp, ReadOp, ReleaseOp, HostOp]

_TRANSFER_KIND = {UploadOp: EventKind.DEV_WRITE, ReadOp: EventKind.DEV_READ}


class ExecutablePlan:
    """A fully-compiled, value-independent execution recipe.

    Strategies emit the plan's op schedule at build time; :meth:`launch`
    runs it against fresh bindings.  The plan holds no
    :class:`~repro.clsim.buffer.Buffer` or array data — only sizes,
    kernels, and costs — so one plan instance can run any number of times,
    on any environment of the same device/backend.
    """

    def __init__(self, strategy_name: str, source_order: tuple[str, ...],
                 n: int, dtype: np.dtype, output_id: str,
                 output_kind: ResultKind, output_uniform: bool,
                 generated_sources: dict[str, str],
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

    def launch(self, bindings: Mapping[str, Binding],
               env: CLEnvironment) -> np.ndarray:
        """Run the op schedule on ``env`` and return the raw output.
        Buffers still live when the schedule ends — or when an op fails
        (OOM, validation) — are released."""
        with env.tracer.span("plan.schedule", category="strategy",
                             strategy=self.strategy_name,
                             ops=len(self.ops)):
            queue = env.queue
            host = {s: bindings[s].data for s in self.source_order}
            live: dict[int, Buffer] = {}
            try:
                for op in self.ops:
                    kind = type(op)
                    if kind is UploadOp:
                        live[op.slot] = env.upload(host[op.node_id],
                                                   op.node_id)
                    elif kind is AllocOp:
                        live[op.slot] = env.create_buffer(op.nbytes,
                                                          op.node_id)
                    elif kind is KernelOp:
                        args = [live[s] for s in op.args]
                        args.extend(op.by_value)
                        queue.enqueue_kernel(op.kernel, args,
                                             [live[s] for s in op.outs],
                                             op.cost)
                    elif kind is ReadOp:
                        result = queue.enqueue_read_buffer(live[op.slot])
                        if op.reshape:
                            result = result.reshape(self.n, -1)
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

    def model(self, allocator: Allocator, log: EventLog) -> None:
        """Apply only the schedule's modeled effects: reservations on
        ``allocator``, and the upload, kernel and read events a live
        launch records, in ``log``.  A reservation that does not fit
        raises :class:`~repro.errors.CLOutOfMemoryError` after the events
        before it; whatever is still reserved is released.  This walk is
        a dry run: :func:`repro.strategies.plan` runs it on shapes."""
        device = allocator.device
        reserved: dict[int, tuple[int, str]] = {}   # slot -> (size, label)
        try:
            for op in self.ops:
                kind = type(op)
                if kind is UploadOp or kind is AllocOp:
                    allocator.reserve(op.nbytes, op.node_id)
                    reserved[op.slot] = (op.nbytes, op.node_id)
                if kind is UploadOp or kind is ReadOp:
                    nbytes, label = reserved[op.slot]
                    log.record(Event(
                        _TRANSFER_KIND[kind], label, nbytes,
                        sim_seconds=transfer_seconds(nbytes, device)))
                elif kind is KernelOp:
                    log.record(Event(
                        EventKind.KERNEL, op.kernel.name,
                        op.cost.global_bytes,
                        sim_seconds=kernel_seconds(op.cost, device)))
                elif kind is ReleaseOp:
                    for s in op.slots:
                        allocator.release(reserved.pop(s)[0])
        finally:
            for nbytes, _ in reserved.values():
                allocator.release(nbytes)

    def run(self, bindings: Mapping[str, Binding],
            env: CLEnvironment) -> ExecutionReport:
        """Execute and assemble the instrumented report."""
        output = self.launch(bindings, env)
        return ExecutionReport(
            strategy=self.strategy_name,
            output=output,
            counts=env.event_counts(),
            timing=env.timing(),
            mem_high_water=env.mem_high_water,
            generated_sources=dict(self.generated_sources),
        )

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
