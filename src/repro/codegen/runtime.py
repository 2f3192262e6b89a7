"""Runtime helpers referenced by generated sweep functions.

The sweep generator (:mod:`repro.codegen.generator`) lowers a dataflow
network into the source of one Python function.  That source calls the
small vocabulary defined here:

``grad3d_stack``
    The gradients of fields sharing one mesh (the paper's expressions
    differentiate u, v and w on the *same* mesh) as flat rows (d/dx,
    d/dy, d/dz per field) instead of the interpreter's AoS ``(n, 4)``
    layout, so the generated code aliases decompositions (``du[0]``) to
    locals with zero copies.  The mesh is checked and its spacings
    computed once per call; each axis is one :func:`~repro.primitives.
    gradient.axis_derivative` block holding every field's row (a field
    of another dtype gets a block of its own).

``grad3d_rows``
    ``grad3d_stack`` of one field.

``aos4``
    Materializes rows back into the interpreter's padded
    ``(n, VECTOR_WIDTH)`` layout, for consumers that need the whole
    vector (the network output, or a non-decompose consumer).

Every helper is bitwise-faithful to :func:`~repro.primitives.gradient.
grad3d_numpy`: the same axis-derivative kernel, the same dtype flow
(float64 spacings dividing the field's dtype), the same zero padding.
"""

from __future__ import annotations

import numpy as np

from ..primitives.base import VECTOR_WIDTH
from ..primitives.gradient import (axis_denominator, axis_derivative,
                                   cell_centers, mesh_cells)

__all__ = ["grad3d_rows", "grad3d_stack", "aos4", "uniform_float"]


def uniform_float(arrays) -> bool:
    """True when every value is a real array sharing one floating dtype.

    The precondition for a generated sweep's in-place fast body: with
    all dtype-contributing inputs proper arrays of one float dtype,
    weak Python-scalar constants can never promote an intermediate and
    every param-derived value is an ndarray, so donating a dead
    temporary as a ufunc ``out=`` buffer is cast-free and the in-place
    statements stay bitwise-identical to the pure-SSA fallback."""
    dtypes = set()
    for a in arrays:
        if not isinstance(a, np.ndarray) or a.ndim == 0:
            return False
        dtypes.add(a.dtype)
    return len(dtypes) == 1 and dtypes.pop().kind == "f"


def grad3d_stack(fields, dims, x, y, z) -> tuple[np.ndarray, ...]:
    """Gradients of several fields over one shared mesh.

    Returns a flat tuple grouped per field:
    ``(f0_dx, f0_dy, f0_dz, f1_dx, f1_dy, f1_dz, ...)``.
    """
    shape, arrays = mesh_cells(fields, dims, x, y, z)
    denominators = [axis_denominator(cell_centers(c), shape, axis)
                    for axis, c in enumerate((x, y, z))]
    # One block per axis for all fields; mixed dtypes get one each.
    mixed = len({a.dtype for a in arrays}) > 1
    rows = []
    for group in ([a] for a in arrays) if mixed else [arrays]:
        blocks = [axis_derivative(group, d, axis)
                  for axis, d in enumerate(denominators)]
        rows.extend(b[i].ravel() for i in range(len(group))
                    for b in blocks)
    return tuple(rows)


def grad3d_rows(field, dims, x, y, z,
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradient of one flat cell-centered field as three flat rows."""
    return grad3d_stack((field,), dims, x, y, z)


def aos4(r0: np.ndarray, r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """Rows back to the padded ``(n, VECTOR_WIDTH)`` vector layout."""
    out = np.zeros((r0.size, VECTOR_WIDTH), dtype=r0.dtype)
    out[:, 0] = r0
    out[:, 1] = r1
    out[:, 2] = r2
    return out
