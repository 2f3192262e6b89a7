"""Host-array bindings handed to execution strategies.

A strategy needs, for every ``source`` node, either a real NumPy array
(live execution) or just its shape/dtype (dry-run planning at full paper
scale, :func:`repro.strategies.plan`).  :class:`ArraySpec` is the
shape-only form; :func:`normalize` accepts a mix and returns a uniform
mapping, and :func:`require_data` guards the paths that execute.

The *problem size* — the element count of every derived intermediate and of
the output — is the largest floating-point source, i.e. the mesh field
(coordinate arrays and ``dims`` are comparatively tiny auxiliaries).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from ..errors import StrategyError

__all__ = ["ArraySpec", "Binding", "normalize", "problem_size",
           "require_data"]


@dataclass(frozen=True)
class ArraySpec:
    """Shape/dtype description of a host array, without data."""

    shape: tuple[int, ...]
    dtype: np.dtype

    def __post_init__(self):
        object.__setattr__(self, "dtype", np.dtype(self.dtype))

    @property
    def nbytes(self) -> int:
        n = 1
        for d in self.shape:
            n *= int(d)
        return n * self.dtype.itemsize

    @property
    def size(self) -> int:
        return self.nbytes // self.dtype.itemsize


@dataclass(frozen=True)
class Binding:
    """One normalized source binding."""

    name: str
    spec: ArraySpec
    data: np.ndarray | None  # None when planning

    @property
    def nbytes(self) -> int:
        return self.spec.nbytes


BindingInput = Union[np.ndarray, ArraySpec, Binding]


def normalize(arrays: Mapping[str, BindingInput],
              required: list[str]) -> dict[str, Binding]:
    """Validate that every required source is bound and normalize.

    Idempotent: already-normalized :class:`Binding` values pass through,
    so a prepared execution can be re-prepared (e.g. the engine's uncached
    path re-running a prepared request through ``strategy.execute``).
    """
    out: dict[str, Binding] = {}
    for name in required:
        if name not in arrays:
            raise StrategyError(
                f"expression requires host array {name!r}; "
                f"bound: {sorted(arrays)}")
        value = arrays[name]
        if isinstance(value, Binding):
            out[name] = value
        elif isinstance(value, ArraySpec):
            out[name] = Binding(name, value, None)
        else:
            array = np.asarray(value)
            out[name] = Binding(
                name, ArraySpec(array.shape, array.dtype), array)
    return out


def require_data(bindings: Mapping[str, Binding],
                 error: type[Exception] = StrategyError) -> None:
    """Raise ``error`` when any binding is shape-only: execution needs
    arrays, and shapes are planned, not run."""
    shape_only = sorted(name for name, binding in bindings.items()
                        if binding.data is None)
    if shape_only:
        raise error(
            f"bindings {shape_only} are shape-only (ArraySpec) and cannot "
            "execute; plan shapes with repro.strategies.plan()")


def problem_size(bindings: Mapping[str, Binding]) -> tuple[int, np.dtype]:
    """(n_elements, float dtype) of the problem, from the largest
    floating-point source.

    Every problem-sized field must share one element type — mixing
    float32 and float64 mesh fields is an input error, caught here rather
    than as a cryptic buffer-size mismatch inside a kernel.
    """
    best_n, best_dtype = 0, None
    for binding in bindings.values():
        if binding.spec.dtype.kind != "f":
            continue
        if binding.spec.size > best_n:
            best_n = binding.spec.size
            best_dtype = binding.spec.dtype
    if best_dtype is None:
        raise StrategyError(
            "no floating-point source field bound; cannot size the problem")
    mismatched = sorted(
        binding.name for binding in bindings.values()
        if binding.spec.dtype.kind == "f"
        and binding.spec.size == best_n
        and binding.spec.dtype != best_dtype)
    if mismatched:
        raise StrategyError(
            f"mesh fields must share one float dtype; {mismatched} differ "
            f"from {np.dtype(best_dtype)}")
    return best_n, best_dtype
