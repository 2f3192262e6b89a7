"""Compiled executor backend (DESIGN.md §10).

Lowers a fused :class:`~repro.strategies.plancache.ExecutablePlan` into
one ``compile()``-d Python sweep function and layers a persistent on-disk
plan cache underneath, so a warm launch is a single function call and a
restarted engine process warms instantly from disk.
"""

from .compiled import CompiledPlan, codegen_token, compile_plan
from .diskcache import DiskLookup, PlanDiskCache, default_plan_cache_dir
from .generator import SweepSource, generate_sweep
from .runtime import aos4, grad3d_rows, grad3d_stack

__all__ = [
    "CompiledPlan", "DiskLookup", "PlanDiskCache", "SweepSource",
    "aos4", "codegen_token", "compile_plan",
    "default_plan_cache_dir", "generate_sweep", "grad3d_rows",
    "grad3d_stack",
]
