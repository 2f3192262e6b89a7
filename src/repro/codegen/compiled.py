"""The compiled executable plan and its build pipeline.

A :class:`CompiledPlan` wraps an interpreter-built base plan with the
``exec``-compiled sweep function from :mod:`repro.codegen.generator`.  A
warm launch is then one Python call — no executor-tree walk, no simulated
buffer traffic — while the modeled observables stay exact: at compile
time the base plan's modeled walk
(:meth:`~repro.strategies.plancache.ExecutablePlan.model`) runs once
against an unmetered allocator and a bare event log to capture its full
event trace (kind, name, bytes, modeled seconds) and its allocator
high-water mark, and every compiled launch replays that trace into the
live environment's log, advancing each registry counter once by the
trace's per-kind totals.  Event counts, modeled timings, transfer
bytes, and the Fig 6 peak therefore match the interpreter bit-for-bit;
only the host wall time changes (that is the point).

A compiled plan shares its base plan's ``generated_sources``: the
OpenCL C the sweep replaces is built (and validated) only when something
reads it — a report's JSON, ``--show-kernels``, or ``entry()``.

``entry()``/``from_entry()`` round-trip a plan through JSON for the
on-disk cache: the sweep *source* is persisted (compiled closures cannot
be pickled portably) and re-``exec``'d on load against the loading
process's primitive registry.
"""

from __future__ import annotations

import time
from typing import Mapping, Optional

import numpy as np

from ..clsim.buffer import Allocator
from ..clsim.environment import CLEnvironment
from ..clsim.events import Event, EventKind, EventLog
from ..dataflow.network import Network
from ..errors import CodegenError
from ..metrics import NULL_REGISTRY
from ..primitives.base import PrimitiveRegistry, ResultKind
from ..strategies import plancache as _plancache
from ..strategies.bindings import Binding
from ..strategies.fusion import (_as_field_factory, _as_uniform_factory,
                                 _as_vec)
from ..strategies.plancache import ExecutablePlan
from .generator import SweepSource, generate_sweep
from .runtime import aos4, grad3d_rows, grad3d_stack, uniform_float

__all__ = ["CompiledPlan", "compile_plan", "codegen_token"]

# (kind, name, nbytes, sim_seconds) per captured event.
EventTrace = tuple[tuple[EventKind, str, int, float], ...]


def codegen_token(registry: PrimitiveRegistry) -> str:
    """The disk-cache validity token: generator version + registry
    fingerprint.  Either changing invalidates every persisted entry."""
    return f"cg{_plancache.CODEGEN_VERSION}:{registry.fingerprint()}"


def _build_namespace(primitive_names: tuple[str, ...],
                     registry: PrimitiveRegistry, n: int,
                     dtype: np.dtype) -> dict[str, object]:
    namespace: dict[str, object] = {
        "np": np,
        "_grad3d_rows": grad3d_rows,
        "_grad3d_stack": grad3d_stack,
        "_aos4": aos4,
        "_ufloat": uniform_float,
        "_field": _as_field_factory(n, dtype),
        "_vec": _as_vec,
        "_uniform": _as_uniform_factory(dtype),
    }
    for name in primitive_names:
        primitive = registry.get(name)
        if primitive.numpy_fn is None:
            raise CodegenError(
                f"primitive {name!r} has no numpy implementation")
        namespace[f"_p_{name}"] = primitive.numpy_fn
    return namespace


def _compile_fn(source: str, namespace: dict[str, object]):
    exec(compile(source, "<repro-codegen-sweep>", "exec"), namespace)
    return namespace["_sweep"]


class CompiledPlan(ExecutablePlan):
    """One compiled sweep plus the captured interpreter event trace."""

    def __init__(self, *, fn, sweep_source: str,
                 params: tuple[str, ...],
                 primitive_names: tuple[str, ...],
                 events: EventTrace, captured_peak: int, **common):
        super().__init__(**common)
        self._fn = fn
        self.sweep_source = sweep_source
        self.params = params
        self.primitive_names = primitive_names
        self.events = events
        self.captured_peak = int(captured_peak)
        kernel_indices = [i for i, e in enumerate(events)
                         if e[0] is EventKind.KERNEL]
        self._last_kernel = kernel_indices[-1] if kernel_indices else None
        # Per-kind (count, bytes) sums of the trace: a warm launch
        # advances each registry counter once by these.
        totals: dict[EventKind, list[int]] = {}
        for kind, _, nbytes, _ in events:
            entry = totals.setdefault(kind, [0, 0])
            entry[0] += 1
            entry[1] += nbytes
        self._totals = tuple((kind, count, nbytes)
                             for kind, (count, nbytes) in totals.items())

    def launch(self, bindings: Mapping[str, Binding],
               env: CLEnvironment) -> Optional[np.ndarray]:
        args = [bindings[s].data for s in self.source_order]
        with env.tracer.span("compiled.sweep", category="strategy",
                             kernel="_sweep"):
            start = time.perf_counter()
            output = self._fn(*args)
            wall = time.perf_counter() - start
        # Replay the captured interpreter trace so counts, modeled
        # timings, and transfer-byte counters match the interpreter run
        # exactly; the real sweep wall time rides on the last kernel.
        env.queue.log.record_all(
            (Event(kind, name, nbytes, sim_seconds=sim,
                   wall_seconds=wall if i == self._last_kernel else 0.0)
             for i, (kind, name, nbytes, sim) in enumerate(self.events)),
            self._totals)
        env.context.allocator.note_external_peak(self.captured_peak)
        return self._broadcast(output)

    # -- disk-cache round trip -------------------------------------------------

    def entry(self) -> dict:
        """JSON-serializable form for the on-disk plan cache."""
        return {
            "strategy_name": self.strategy_name,
            "source_order": list(self.source_order),
            "n": self.n,
            "dtype": str(self.dtype),
            "output_id": self.output_id,
            "output_kind": self.output_kind.name,
            "output_uniform": self.output_uniform,
            "generated_sources": dict(self.generated_sources),
            "sweep_source": self.sweep_source,
            "params": list(self.params),
            "primitives": list(self.primitive_names),
            "events": [[kind.name, name, nbytes, sim]
                       for kind, name, nbytes, sim in self.events],
            "mem_high_water": self.captured_peak,
        }

    @classmethod
    def from_entry(cls, entry: dict,
                   registry: PrimitiveRegistry) -> "CompiledPlan":
        """Rebuild a plan from a disk entry — re-``exec`` the persisted
        sweep source and rebind primitives by name from the live
        registry.  Raises (KeyError/ValueError/PrimitiveError/...) on any
        malformed or stale entry; callers treat that as an invalidation."""
        n = int(entry["n"])
        dtype = np.dtype(entry["dtype"])
        primitive_names = tuple(entry["primitives"])
        sweep_source = entry["sweep_source"]
        fn = _compile_fn(sweep_source,
                         _build_namespace(primitive_names, registry,
                                          n, dtype))
        events = tuple(
            (EventKind[kind], str(name), int(nbytes), float(sim))
            for kind, name, nbytes, sim in entry["events"])
        return cls(
            fn=fn, sweep_source=sweep_source,
            params=tuple(entry["params"]),
            primitive_names=primitive_names,
            events=events,
            captured_peak=int(entry["mem_high_water"]),
            strategy_name=str(entry["strategy_name"]),
            source_order=tuple(entry["source_order"]),
            n=n, dtype=dtype,
            output_id=str(entry["output_id"]),
            output_kind=ResultKind[entry["output_kind"]],
            output_uniform=bool(entry["output_uniform"]),
            generated_sources=dict(entry["generated_sources"]))


def compile_plan(base_plan: ExecutablePlan, network: Network,
                 device) -> CompiledPlan:
    """Generate, compile, and instrument the sweep for one base plan.
    The base plan's modeled walk, on an unmetered allocator, supplies the
    event trace and peak (and raises if the plan does not fit)."""
    sweep: SweepSource = generate_sweep(network)
    namespace = _build_namespace(sweep.primitive_names, network.registry,
                                 base_plan.n, base_plan.dtype)
    fn = _compile_fn(sweep.source, namespace)
    allocator = Allocator(device, registry=NULL_REGISTRY)
    log = EventLog()
    base_plan.model(allocator, log)
    return CompiledPlan(
        fn=fn, sweep_source=sweep.source,
        params=sweep.params,
        primitive_names=sweep.primitive_names,
        events=tuple((e.kind, e.name, e.nbytes, e.sim_seconds)
                     for e in log.events),
        captured_peak=allocator.peak_bytes,
        strategy_name=base_plan.strategy_name,
        source_order=base_plan.source_order,
        n=base_plan.n, dtype=base_plan.dtype,
        output_id=base_plan.output_id,
        output_kind=base_plan.output_kind,
        output_uniform=base_plan.output_uniform,
        generated_sources=base_plan.generated_sources)
