"""The compiled executable plan and its build pipeline.

A :class:`CompiledPlan` wraps an interpreter-built base plan with the
``exec``-compiled sweep function from :mod:`repro.codegen.generator`.  A
warm launch is then one Python call — no executor-tree walk, no simulated
buffer traffic — while the modeled observables stay exact: the plan
holds its base plan's :class:`~repro.strategies.plancache.ModeledRun`,
the schedule's modeled walk folded once for the device (pre-stamped
events, per-kind totals, counts, timing, peak).  A run reports the
fold's counts and timing with the sweep's host wall time, notes the
fold's peak on the allocator and reports the allocator's peak, and the
engine records the fold's events in the live log with one
:meth:`~repro.clsim.events.EventLog.record_all`, advancing each
registry counter once — as for an interpreter plan, whose launch runs
the whole schedule instead of one sweep.  Event counts, modeled
timings, transfer bytes, and the Fig 6 peak therefore match the
interpreter bit-for-bit; only the host wall time changes (that is the
point).

A compiled plan shares its base plan's ``generated_sources``: the
OpenCL C the sweep replaces is built (and validated) only when something
reads it — a report's JSON, ``--show-kernels``, or ``entry()``.

``entry()``/``from_entry()`` round-trip a plan through JSON for the
on-disk cache: the sweep *source* is persisted (compiled closures cannot
be pickled portably) and re-``exec``'d on load against the loading
process's primitive registry; the fold is rebuilt from the persisted
event trace and peak.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..clsim.environment import CLEnvironment
from ..clsim.events import Event, EventKind
from ..dataflow.network import Network
from ..errors import CodegenError
from ..primitives.base import PrimitiveRegistry, ResultKind
from ..strategies import plancache as _plancache
from ..strategies.bindings import Binding
from ..strategies.fusion import (_as_field_factory, _as_uniform_factory,
                                 _as_vec)
from ..strategies.plancache import ExecutablePlan, ModeledRun
from .generator import SweepSource, generate_sweep
from .runtime import aos4, grad3d_rows, grad3d_stack, uniform_float

__all__ = ["CompiledPlan", "compile_plan", "codegen_token"]


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
    """One compiled sweep plus its base plan's fold."""

    def __init__(self, *, fn, sweep_source: str,
                 params: tuple[str, ...],
                 primitive_names: tuple[str, ...],
                 fold: ModeledRun, **common):
        super().__init__(**common)
        self._fn = fn
        self.sweep_source = sweep_source
        self.params = params
        self.primitive_names = primitive_names
        self.fold = fold

    def modeled(self, device) -> ModeledRun:
        """The base plan's fold (a compiled plan is built per device)."""
        return self.fold

    def launch(self, bindings: Mapping[str, Binding],
               env: CLEnvironment) -> np.ndarray:
        """Run the sweep and return the output; records nothing."""
        args = [bindings[s].data for s in self.source_order]
        with env.tracer.span("compiled.sweep", category="strategy",
                             kernel="_sweep"):
            output = self._fn(*args)
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
            "events": [[e.kind.name, e.name, e.nbytes, e.sim_seconds]
                       for e in self.fold.events],
            "mem_high_water": self.fold.peak,
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
        fold = ModeledRun.of(
            (Event(EventKind[kind], str(name), int(nbytes), float(sim))
             for kind, name, nbytes, sim in entry["events"]),
            int(entry["mem_high_water"]))
        return cls(
            fn=fn, sweep_source=sweep_source,
            params=tuple(entry["params"]),
            primitive_names=primitive_names,
            fold=fold,
            strategy_name=str(entry["strategy_name"]),
            source_order=tuple(entry["source_order"]),
            n=n, dtype=dtype,
            output_id=str(entry["output_id"]),
            output_kind=ResultKind[entry["output_kind"]],
            output_uniform=bool(entry["output_uniform"]),
            generated_sources=dict(entry["generated_sources"]))


def compile_plan(base_plan: ExecutablePlan, network: Network,
                 device) -> CompiledPlan:
    """Generate and compile the sweep for one base plan, which lends it
    its fold on ``device`` (raising the fold's out-of-memory error if the
    plan does not fit)."""
    sweep: SweepSource = generate_sweep(network)
    namespace = _build_namespace(sweep.primitive_names, network.registry,
                                 base_plan.n, base_plan.dtype)
    fn = _compile_fn(sweep.source, namespace)
    fold = base_plan.modeled(device)
    if fold.error is not None:
        raise fold.error
    return CompiledPlan(
        fn=fn, sweep_source=sweep.source,
        params=sweep.params,
        primitive_names=sweep.primitive_names,
        fold=fold,
        strategy_name=base_plan.strategy_name,
        source_order=base_plan.source_order,
        n=base_plan.n, dtype=base_plan.dtype,
        output_id=base_plan.output_id,
        output_kind=base_plan.output_kind,
        output_uniform=base_plan.output_uniform,
        generated_sources=base_plan.generated_sources)
