"""The derived-field engine: parse -> lower -> optimize -> execute.

:class:`DerivedFieldEngine` is the orchestration object a host application
holds onto.  Compiling an expression (parse + lower + CSE + network
validation) happens once; the compiled form is cached and re-executed for
each new time step's arrays, matching the paper's in-situ usage where *"the
pipeline is executed only once per time step ... and it is executed again
if the data set changes."*

The engine extends that amortization down through execution.  On top of
the expression cache it keeps an LRU :class:`~repro.strategies.plancache.
PlanCache` of :class:`~repro.strategies.plancache.ExecutablePlan` objects —
planned stages, generated + validated OpenCL C, compiled kernels (fusion
builds these two on first use), buffer sizes — and a persistent pooled
:class:`~repro.clsim.environment.CLEnvironment` whose buffer pool recycles
device reservations between runs.  A warm ``execute()`` therefore only
binds the new arrays and launches.  Every run reports its plan's fold,
which the engine records once (coalesced for a batch), so a warm run's
output, event counts, and modeled timings are identical to a cold run's.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from ..clsim.device import DeviceSpec, DeviceType
from ..clsim.environment import CLEnvironment
from ..clsim.pipeline import coalesce_events
from ..clsim.platform import find_device
from ..codegen import (CompiledPlan, PlanDiskCache, codegen_token,
                       compile_plan)
from ..dataflow.network import Network
from ..dataflow.script import render_script
from ..errors import CLOutOfMemoryError, HostInterfaceError
from ..expr.lower import lower
from ..expr.optimize import eliminate_common_subexpressions
from ..expr.parser import parse
from ..metrics import get_registry
from ..obs.log import get_logger
from ..primitives.base import PrimitiveRegistry, ResultKind
from ..strategies import (CodegenInfo, ExecutionReport, ExecutionStrategy,
                          get_strategy)
from ..strategies.bindings import Binding, BindingInput, require_data
from ..strategies.plancache import ModeledRun, PlanCache, PlanKey, plan_key
from ..trace import NULL_TRACER, Tracer

__all__ = ["BatchExecution", "CompiledExpression", "DerivedFieldEngine",
           "PreparedExecution"]


@dataclass(frozen=True)
class CompiledExpression:
    """A parsed, lowered, optimized, validated expression."""

    text: str
    result_name: str
    network: Network

    @property
    def required_inputs(self) -> list[str]:
        return self.network.live_sources()

    def definition_script(self) -> str:
        """The inspectable Python script of network-API calls."""
        return render_script(self.network.spec)


@dataclass(frozen=True)
class PreparedExecution:
    """Everything the engine derives from a request before running it.

    The public prepare/plan path: :meth:`DerivedFieldEngine.prepare`
    validates the request, normalizes its bindings, sizes the problem,
    and (on the cached path) assembles the plan-cache key.  Hosts that
    schedule work — notably :class:`~repro.service.DerivedFieldService` —
    prepare once, route on ``key``, and hand the prepared request to a
    worker's :meth:`DerivedFieldEngine.execute_batch`.

    ``key`` is ``None`` when this engine bypasses the plan cache
    (``plan_cache=False``, or a strategy that is not ``plan_cached``).
    ``sources`` is the network's source order, for positional rebinding
    on a structural cache hit.
    """

    compiled: CompiledExpression
    bindings: Mapping[str, Binding]
    n: int
    dtype: np.dtype
    key: Optional[PlanKey]
    sources: tuple[str, ...]


@dataclass
class BatchExecution:
    """The result of one launch of B >= 1 same-key requests.

    ``reports`` are per-member :class:`ExecutionReport` objects whose
    output/counts/timing/memory are identical to what each member's solo
    warm run would have produced — batching changes *scheduling*, never
    results.  ``modeled_seconds`` is the launch's own modeled device
    time (for B >= 2, stacked transfers + one amortized kernel launch
    per plan step), which is what the service attributes to the device:
    it is smaller than the sum of the members' solo timings by exactly
    the amortized per-launch/latency overhead.  ``hit`` is the batch's
    single plan-cache lookup outcome (None on the uncached path).
    """

    reports: list[ExecutionReport]
    modeled_seconds: float
    hit: Optional[bool]


class DerivedFieldEngine:
    """Compile and execute derived-field expressions on a simulated device.

    Parameters mirror the paper's knobs: the target device ('cpu'/'gpu'),
    the execution strategy ('roundtrip'/'staged'/'fusion'), whether the
    limited CSE pass runs, and optionally the stronger commutative CSE
    extension.

    ``plan_cache`` controls the warm-execution layer: ``True`` (default)
    builds an LRU of executable plans, an ``int`` sets its capacity, a
    :class:`PlanCache` instance is shared as-is, and ``False`` disables
    caching entirely (every run re-plans, like the seed implementation).
    The persistent warm environment pools released device-buffer
    reservations.  Strategies that are not ``plan_cached`` (streaming,
    multi-device, custom ones) take the uncached fresh-environment path.  The
    engine runs live arrays only (:meth:`prepare` rejects shape-only
    bindings); dry runs over shapes go through
    :func:`repro.strategies.plan`.

    ``backend`` selects the executor: ``"vectorized"`` / ``"interpreted"``
    run the clsim kernel backends; ``"compiled"`` lowers each cached plan
    to one generated Python sweep function (DESIGN.md §10), falling back
    to the interpreter plan when codegen cannot lower the network.
    ``None`` (default) picks ``"compiled"`` for fusion engines on the
    cached path and ``"vectorized"`` otherwise.  ``plan_cache_dir``
    additionally persists compiled plans on disk (a path, or a shared
    :class:`~repro.codegen.PlanDiskCache` instance) so a restarted
    process warms without recompiling.
    """

    def __init__(self, device: Union[str, DeviceType, DeviceSpec] = "cpu",
                 strategy: Union[str, ExecutionStrategy] = "fusion", *,
                 registry: Optional[PrimitiveRegistry] = None,
                 cse: bool = True, commutative_cse: bool = False,
                 backend: Optional[str] = None,
                 plan_cache: Union[bool, int, PlanCache] = True,
                 plan_cache_dir: Union[None, str, Path,
                                       PlanDiskCache] = None,
                 tracer: Optional[Tracer] = None):
        self.device = device
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.device_spec: DeviceSpec = (
            device if isinstance(device, DeviceSpec) else find_device(device))
        self.strategy = (get_strategy(strategy)
                         if isinstance(strategy, str) else strategy)
        self.registry = registry
        self.cse = cse
        self.commutative_cse = commutative_cse
        if plan_cache is True:
            self.plan_cache: Optional[PlanCache] = PlanCache()
        elif isinstance(plan_cache, PlanCache):
            self.plan_cache = plan_cache
        elif plan_cache:
            self.plan_cache = PlanCache(int(plan_cache))
        else:
            self.plan_cache = None
        # The compiled executor lives on the warm plan path; without a
        # plan cache (or with a strategy that cannot build plans) it has
        # nowhere to hang, so requests for it downgrade gracefully.
        can_compile = (self.plan_cache is not None
                       and self.strategy.plan_cached)
        if backend is None:
            backend = ("compiled"
                       if can_compile and self.strategy.name == "fusion"
                       else "vectorized")
        elif backend == "compiled" and not can_compile:
            backend = "vectorized"
        self.backend = backend
        # The clsim Context only knows vectorized/interpreted; compiled
        # plans record their folds on a vectorized environment.
        self.env_backend = ("vectorized" if backend == "compiled"
                            else backend)
        if isinstance(plan_cache_dir, PlanDiskCache):
            self.plan_disk: Optional[PlanDiskCache] = plan_cache_dir
        elif plan_cache_dir:
            self.plan_disk = PlanDiskCache(plan_cache_dir)
        else:
            self.plan_disk = None
        self._cache: dict[tuple, CompiledExpression] = {}
        self._env: Optional[CLEnvironment] = None
        # Serializes warm-path execution: the persistent environment's
        # instrumentation (event log, peak tracking) describes exactly one
        # run at a time, so a single engine shared by several threads
        # executes warm runs one after another.  Service deployments get
        # real concurrency from one engine per device worker instead.
        self._exec_lock = threading.Lock()
        # Registry mirror of the engine phases (DESIGN.md §9): call
        # counters + duration histograms, with execution split by cache
        # disposition.  Children are bound once; a warm execute touches
        # exactly one counter and one histogram.
        registry = get_registry()
        self._m_compile_total = registry.counter(
            "repro_engine_compile_total",
            "Expressions compiled (parse+lower+optimize+validate; "
            "expression-cache hits not included)")
        self._m_compile_seconds = registry.histogram(
            "repro_engine_compile_duration_seconds",
            "Wall time of one expression compilation")
        self._m_prepare_total = registry.counter(
            "repro_engine_prepare_total",
            "Requests prepared (validated, bound, sized, keyed)")
        self._m_prepare_seconds = registry.histogram(
            "repro_engine_prepare_duration_seconds",
            "Wall time of one prepare")
        execute_total = registry.counter(
            "repro_engine_execute_total",
            "Executions, by plan-cache disposition",
            ("cache",))
        execute_seconds = registry.histogram(
            "repro_engine_execute_duration_seconds",
            "Wall time of one execution, by plan-cache disposition",
            ("cache",))
        self._m_execute = {
            disposition: (execute_total.labels(cache=disposition),
                          execute_seconds.labels(cache=disposition))
            for disposition in ("hit", "miss", "uncached")
        }
        # Compiled-executor observability (DESIGN.md §10): how every plan
        # the backend needed was obtained, and how often codegen bailed.
        self._m_codegen = {
            "compiles": registry.counter(
                "repro_codegen_compiles_total",
                "Plans lowered and compiled to a fused Python sweep"),
            "disk_hits": registry.counter(
                "repro_codegen_disk_hits_total",
                "Compiled plans rebuilt from the persistent plan cache"),
            "disk_misses": registry.counter(
                "repro_codegen_disk_misses_total",
                "Persistent plan-cache lookups that found no entry"),
            "invalidations": registry.counter(
                "repro_codegen_invalidations_total",
                "Stale or corrupt persistent plan-cache entries discarded"),
            "fallbacks": registry.counter(
                "repro_codegen_fallbacks_total",
                "Codegen failures that fell back to the interpreter plan"),
        }

    # -- compilation -----------------------------------------------------------

    def compile(self, expression: str,
                known_fields: Optional[Mapping[str, ResultKind]] = None,
                ) -> CompiledExpression:
        """Parse, lower, optimize, and validate an expression (cached)."""
        key = (expression, self.cse, self.commutative_cse,
               tuple(sorted(known_fields.items())) if known_fields else None)
        compiled = self._cache.get(key)
        if compiled is not None:
            return compiled
        tracer = self.tracer
        start = time.perf_counter()
        with tracer.span("engine.compile", category="engine",
                         expression=expression):
            with tracer.span("parse", category="engine"):
                program = parse(expression)
            with tracer.span("lower", category="engine"):
                spec, source_kinds = lower(program, registry=self.registry,
                                           known_fields=known_fields)
            if self.cse:
                with tracer.span("optimize", category="engine"):
                    spec = eliminate_common_subexpressions(
                        spec, commutative=self.commutative_cse,
                        registry=self.registry)
            with tracer.span("validate", category="engine"):
                network = Network(spec, registry=self.registry,
                                  source_kinds=source_kinds)
        self._m_compile_total.inc()
        self._m_compile_seconds.observe(time.perf_counter() - start)
        get_logger().info("engine.compiled", tracer=tracer,
                          expression=expression,
                          device=self.device_spec.name,
                          seconds=time.perf_counter() - start)
        compiled = CompiledExpression(expression, program.result_name,
                                      network)
        self._cache[key] = compiled
        return compiled

    # -- execution ----------------------------------------------------------------

    @property
    def environment(self) -> Optional[CLEnvironment]:
        """The persistent warm-path environment (None before first use or
        on engines that always take the fresh-environment path)."""
        return self._env

    def _warm_environment(self) -> CLEnvironment:
        if self._env is None:
            self._env = CLEnvironment(self.device_spec,
                                      backend=self.env_backend,
                                      pooling=True,
                                      tracer=self.tracer)
        return self._env

    def prepare(self, expression: Union[str, CompiledExpression],
                fields: Mapping[str, BindingInput]) -> PreparedExecution:
        """The public prepare/plan path: validate, bind, size, and key a
        request without executing it.

        Raises :class:`HostInterfaceError` on missing or shape-only
        fields — so a serving layer can reject a malformed request
        synchronously, before admitting it to a queue.  The returned
        object is immutable and safe to hand to another thread (or,
        re-keyed via ``key.for_device``, to a worker on a different
        device).
        """
        start = time.perf_counter()
        with self.tracer.span("engine.prepare", category="engine"):
            compiled = (expression
                        if isinstance(expression, CompiledExpression)
                        else self.compile(expression))
            missing = [name for name in compiled.required_inputs
                       if name not in fields]
            if missing:
                raise HostInterfaceError(
                    f"expression {compiled.result_name!r} needs host "
                    f"fields {missing}; got {sorted(fields)}")
            bindings, n, dtype = self.strategy.prepare(compiled.network,
                                                       fields)
            require_data(bindings, HostInterfaceError)
            if self.plan_cache is None or not self.strategy.plan_cached:
                key: Optional[PlanKey] = None
                sources: tuple[str, ...] = ()
            else:
                key, sources = plan_key(compiled.network, self.strategy,
                                        bindings, n, dtype,
                                        self.device_spec, self.backend)
            self._m_prepare_total.inc()
            self._m_prepare_seconds.observe(time.perf_counter() - start)
            return PreparedExecution(compiled=compiled, bindings=bindings,
                                     n=n, dtype=dtype, key=key,
                                     sources=sources)

    def execute_prepared(self, prepared: PreparedExecution,
                         ) -> ExecutionReport:
        """Run a previously prepared request (see :meth:`prepare`)."""
        if prepared.key is None:
            return self._execute_uncached(prepared)
        return self._execute_keyed([prepared]).reports[0]

    def execute_batch(self, batch: "Sequence[PreparedExecution]",
                      ) -> BatchExecution:
        """Run prepared requests sharing one plan key as one launch — the
        service's only path, where a solo request is a batch of one and
        runs on the warm environment exactly as :meth:`execute_prepared`.

        For B >= 2 every member's report is *identical* to its solo warm
        run: each member launches on the warm environment and reports the
        plan's fold.  The fold coalesced B times
        (:func:`~repro.clsim.pipeline.coalesce_events`) is the batched
        timeline the warm log records once: transfers move the stacked
        payload behind one link latency and each kernel pays its launch
        overhead once.  That timeline is the batch's ``modeled_seconds``.
        An unkeyed batch of one takes the uncached path.
        """
        if not batch:
            raise ValueError("execute_batch needs at least one request")
        key = batch[0].key
        if key is None and len(batch) == 1:
            report = self._execute_uncached(batch[0])
            return BatchExecution([report], report.timing.total, None)
        if key is None or any(member.key != key for member in batch):
            raise HostInterfaceError(
                "execute_batch needs cache-keyed requests sharing one "
                "plan key; coalesce only same-key requests")
        return self._execute_keyed(batch)

    def _execute_uncached(self, prepared: PreparedExecution,
                          ) -> ExecutionReport:
        """Plan and run one request on a fresh environment."""
        tracer = self.tracer
        start = time.perf_counter()
        with tracer.span("engine.execute", category="engine",
                         strategy=self.strategy.name,
                         device=self.device_spec.name,
                         cached=False) as exec_span:
            env = CLEnvironment(self.device_spec, backend=self.env_backend,
                                tracer=tracer)
            anchor = tracer.now()
            with tracer.span("execute", category="engine"):
                report = self.strategy.execute(
                    prepared.compiled.network, prepared.bindings, env)
            report.alloc = env.alloc_stats()
            report.trace_id = exec_span.trace_id
            self._trace_device_run(env, anchor)
            self._observe_execute("uncached", start)
            return report

    def _execute_keyed(self, batch: "Sequence[PreparedExecution]",
                       ) -> BatchExecution:
        """Launch B >= 1 same-key requests on the warm environment with
        one plan lookup (see :meth:`execute_batch`)."""
        tracer = self.tracer
        start = time.perf_counter()
        batched = len(batch) > 1
        name = "engine.execute_batch" if batched else "engine.execute"
        attrs = {"batch": len(batch)} if batched else {"cached": True}
        with self._exec_lock:
            with tracer.span(name, category="engine",
                             strategy=self.strategy.name,
                             device=self.device_spec.name,
                             **attrs) as exec_span:
                env = self._warm_environment()
                env.reset_instrumentation()
                head = batch[0]
                with tracer.span("plan.lookup", category="engine") as look:
                    plan = self.plan_cache.get(head.key)
                    hit = plan is not None
                    look.annotate(hit=hit)
                disposition = "memory-hit"
                if plan is None:
                    if self.backend == "compiled":
                        plan, disposition = self._codegen_plan(head)
                    else:
                        with tracer.span("plan.build", category="engine"):
                            plan = self.strategy.build_plan(
                                head.compiled.network, head.bindings,
                                head.n, head.dtype)
                    if not isinstance(plan, CompiledPlan):
                        # An interpreter plan launches its kernels: build
                        # them before caching, so a CLBuildError leaves
                        # nothing cached.
                        plan.pull_kernels()
                    self.plan_cache.put(head.key, plan)
                codegen = None
                if self.backend == "compiled":
                    ran_compiled = isinstance(plan, CompiledPlan)
                    codegen = CodegenInfo(
                        backend=("compiled" if ran_compiled
                                 else self.env_backend),
                        disposition=disposition, compiled=ran_compiled)
                tracer.note_plan(head.key, plan, disposition=disposition)
                reports: list[ExecutionReport] = []
                anchor = tracer.now()
                with tracer.span("plan.launch", category="engine",
                                 **(attrs if batched else {})):
                    for member in batch:
                        if batched:
                            env.context.allocator.reset_peak()
                        report = plan.run(
                            plan.rebind(member.bindings, member.sources),
                            env)
                        report.cache = self.plan_cache.info(hit)
                        report.alloc = env.alloc_stats()
                        report.codegen = codegen
                        report.trace_id = exec_span.trace_id
                        reports.append(report)
                exec_span.annotate(cache_hit=hit)
                timeline = plan.modeled(self.device_spec)
                if batched:
                    # Record the batched timeline once, into the warm
                    # environment's observed log: process-wide transfer
                    # and kernel counters see what the device would
                    # actually do — one coalesced launch — not B solo
                    # runs.
                    timeline = ModeledRun.of(coalesce_events(
                        [timeline.events] * len(batch), self.device_spec),
                        timeline.peak)
                    env.context.allocator.reset_peak()
                    env.context.allocator.note_external_peak(
                        max(r.mem_high_water for r in reports))
                    exec_span.annotate(
                        modeled_seconds=timeline.timing.total)
                timeline.record(env.queue.log,
                                sum(r.timing.wall for r in reports))
                log = get_logger()
                if log.debug_enabled:
                    log.debug("engine.execute", tracer=tracer,
                              device=self.device_spec.name,
                              plan_key=str(head.key),
                              cache=disposition)
                self._trace_device_run(env, anchor)
                self._observe_execute("hit" if hit else "miss", start)
                return BatchExecution(reports, timeline.timing.total, hit)

    def _codegen_plan(self, prepared: PreparedExecution):
        """Obtain a compiled plan for a cache miss.

        Returns ``(plan, disposition)``: a persisted entry rebuilt from
        the disk cache (``disk-hit``), a freshly generated-and-compiled
        sweep (``cold-codegen``), or — when codegen cannot lower the
        network — the interpreter plan (``interpreter-fallback``), which
        is still cached so later runs take memory hits.  A device OOM
        in the base plan's modeled walk propagates: it is the request's
        failure, not a codegen gap.
        """
        tracer = self.tracer
        network = prepared.compiled.network
        with tracer.span("codegen", category="engine"):
            token = codegen_token(network.registry)
            if self.plan_disk is not None:
                lookup = self.plan_disk.load(prepared.key, token)
                if lookup.status == "hit":
                    try:
                        plan = CompiledPlan.from_entry(lookup.entry,
                                                       network.registry)
                    except Exception:
                        # A structurally valid file the current code
                        # cannot rebuild — treat like a stale entry.
                        self.plan_disk.invalidate(prepared.key)
                        self._m_codegen["invalidations"].inc()
                        self.plan_cache.record_invalidation()
                    else:
                        self._m_codegen["disk_hits"].inc()
                        return plan, "disk-hit"
                elif lookup.status == "invalid":
                    self._m_codegen["invalidations"].inc()
                    self.plan_cache.record_invalidation()
                else:
                    self._m_codegen["disk_misses"].inc()
            with tracer.span("plan.build", category="engine"):
                base = self.strategy.build_plan(
                    network, prepared.bindings, prepared.n, prepared.dtype)
            try:
                plan = compile_plan(base, network, self.device_spec)
            except CLOutOfMemoryError:
                raise       # the request does not fit; codegen is fine
            except Exception as exc:
                self._m_codegen["fallbacks"].inc()
                get_logger().warning(
                    "codegen.fallback", tracer=tracer,
                    device=self.device_spec.name,
                    plan_key=str(prepared.key),
                    error=f"{type(exc).__name__}: {exc}")
                return base, "interpreter-fallback"
            self._m_codegen["compiles"].inc()
            get_logger().info("codegen.compiled", tracer=tracer,
                              device=self.device_spec.name,
                              plan_key=str(prepared.key))
            if self.plan_disk is not None:
                self.plan_disk.store(prepared.key, token, plan.entry())
            return plan, "cold-codegen"

    def _observe_execute(self, disposition: str, start: float) -> None:
        counter, histogram = self._m_execute[disposition]
        counter.inc()
        histogram.observe(time.perf_counter() - start)

    def _trace_device_run(self, env: CLEnvironment, anchor: float) -> None:
        """Bridge one run's device events into trace lanes and sample the
        pool/allocator gauges (no-op under the NullTracer)."""
        tracer = self.tracer
        if not tracer.enabled:
            return
        lane = threading.current_thread().name
        tracer.add_device_events(self.device_spec.name,
                                 env.queue.log.events, anchor=anchor,
                                 lane=lane)
        stats = env.alloc_stats()
        tracer.counter("pooled_bytes", stats.pooled_bytes)
        tracer.counter("live_bytes", stats.live_bytes)

    def execute(self, expression: Union[str, CompiledExpression],
                fields: Mapping[str, BindingInput]) -> ExecutionReport:
        """Run an expression over host arrays; returns the full report.

        With the plan cache enabled, execution reuses a persistent
        environment whose instrumentation resets per run, so event counts,
        timings, and the memory high-water mark still describe exactly one
        run; the report's ``cache``/``alloc`` fields carry the warm-layer
        counters.  Otherwise a fresh environment is created per execution.
        Equivalent to ``execute_prepared(prepare(...))``.
        """
        return self.execute_prepared(self.prepare(expression, fields))

    def derive(self, expression: Union[str, CompiledExpression],
               fields: Mapping[str, np.ndarray]) -> np.ndarray:
        """Execute and return just the derived field array."""
        return self.execute(expression, fields).output
