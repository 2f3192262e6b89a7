"""The 3D rectilinear-mesh gradient primitive (``grad3d``).

This is the paper's heavyweight building block: *"the 3D rectilinear mesh
field gradient requires over 50 lines of OpenCL source code"*, and it is the
reason the fusion generator supports direct global-memory access — a
work-item needs its neighbours' values, so the input field must live in a
global array even inside a fused kernel.

Semantics: the field is cell-centered on a rectilinear mesh whose point
coordinates are the 1-D arrays ``x``/``y``/``z`` (lengths ``ni+1``/
``nj+1``/``nk+1`` for ``dims = (ni, nj, nk)`` cells).  Derivatives are
taken with respect to cell-center coordinates, central differences in the
interior and first-order one-sided differences on the boundary — matching
the emitted OpenCL code exactly.  Cells are stored C-order (k fastest).

The result is a 3-component vector field stored in ``VECTOR_WIDTH`` lanes
(an OpenCL ``double4``), whose padding is visible in the paper's memory
study.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import PrimitiveError
from .base import CallStyle, Primitive, ResultKind, VECTOR_WIDTH

__all__ = ["GRAD3D", "grad3d_numpy", "cell_centers",
           "AXIS_HELPER_CL"]


def cell_centers(points: np.ndarray) -> np.ndarray:
    """Cell-center coordinates from point coordinates along one axis."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 1 or points.size < 2:
        raise PrimitiveError("coordinate array must be 1-D with >= 2 points")
    return 0.5 * (points[:-1] + points[1:])


def mesh_cells(fields, dims, x, y, z):
    """The cell counts ``dims`` names and each flat field as its
    ``(ni, nj, nk)`` block, with field and coordinate sizes checked."""
    ni, nj, nk = shape = tuple(int(d) for d in np.asarray(dims).ravel()[:3])
    arrays = [np.asarray(f) for f in fields]
    for field in arrays:
        if field.size != ni * nj * nk:
            raise PrimitiveError(
                f"field has {field.size} values but dims {ni}x{nj}x{nk} "
                f"imply {ni * nj * nk} cells")
    for name, coord, want in (("x", x, ni + 1), ("y", y, nj + 1),
                              ("z", z, nk + 1)):
        if np.asarray(coord).size != want:
            raise PrimitiveError(
                f"{name} has {np.asarray(coord).size} points; expected {want}")
    return shape, [field.reshape(shape) for field in arrays]


def axis_denominator(centers: np.ndarray, shape: tuple[int, ...],
                     axis: int) -> np.ndarray:
    """Spacings ``c[i+1] - c[i-1]`` along ``axis`` (one-sided at the
    ends), ``(n, 1)`` to broadcast over the cells after it, or repeated
    out contiguously for a middle axis so the divide is not stride-0."""
    n = centers.size
    d = np.empty((n, 1))
    if n > 1:
        np.subtract(centers[2:], centers[:-2], out=d[1:-1, 0])
        d[0], d[-1] = centers[1] - centers[0], centers[-1] - centers[-2]
    after = math.prod(shape[axis + 1:])
    if after > 1 and math.prod(shape[:axis]) > 1:
        return np.repeat(d, after, axis=1)
    return d


def axis_derivative(fields, denominator: np.ndarray,
                    axis: int) -> np.ndarray:
    """Central differences inside, one-sided at the boundary, of fields
    sharing one shape and dtype, as one ``(F, *shape)`` block.

    The interior is one subtraction over each flat field shifted a step
    along ``axis``; the pairs it wraps across the boundary layers are
    overwritten with one-sided differences, and one divide covers the
    block — the per-region stencil's own operations, bit for bit.
    """
    shape = fields[0].shape
    n = shape[axis]
    out = np.empty((len(fields), *shape), dtype=fields[0].dtype)
    if n == 1:
        out.fill(0)     # degenerate axis: no neighbours to difference
        return out
    step = math.prod(shape[axis + 1:])
    blocks = out.reshape(len(fields), -1, n, step)
    for f, o in zip(fields, blocks):
        g = f.reshape(-1, n, step)
        if n > 2:
            flat = g.reshape(-1)
            np.subtract(flat[2 * step:], flat[:-2 * step],
                        out=o.reshape(-1)[step:-step])
        np.subtract(g[:, 1], g[:, 0], out=o[:, 0])
        np.subtract(g[:, n - 1], g[:, n - 2], out=o[:, n - 1])
    np.divide(blocks, denominator, out=blocks)
    return out


def _axis_derivative(f, centers: np.ndarray, axis: int) -> np.ndarray:
    """One field's derivative with respect to cell-center coordinates."""
    return axis_derivative(
        (f,), axis_denominator(centers, f.shape, axis), axis)[0]


def grad3d_numpy(field: np.ndarray, dims, x: np.ndarray, y: np.ndarray,
                 z: np.ndarray) -> np.ndarray:
    """Vectorized gradient of a flat cell-centered field.

    Returns shape ``(n_cells, VECTOR_WIDTH)`` with components
    (d/dx, d/dy, d/dz, 0).

    Its bytecode keys every persisted compiled plan (the registry
    fingerprint), so it keeps its own copy of :func:`mesh_cells`'s
    checks rather than invalidate those plans.
    """
    ni, nj, nk = (int(d) for d in np.asarray(dims).ravel()[:3])
    n_cells = ni * nj * nk
    field = np.asarray(field)
    if field.size != n_cells:
        raise PrimitiveError(
            f"field has {field.size} values but dims {ni}x{nj}x{nk} "
            f"imply {n_cells} cells")
    for name, coord, want in (("x", x, ni + 1), ("y", y, nj + 1),
                              ("z", z, nk + 1)):
        if np.asarray(coord).size != want:
            raise PrimitiveError(
                f"{name} has {np.asarray(coord).size} points; expected {want}")
    f = field.reshape(ni, nj, nk)
    out = np.zeros((n_cells, VECTOR_WIDTH), dtype=field.dtype)
    out[:, 0] = _axis_derivative(f, cell_centers(x), 0).ravel()
    out[:, 1] = _axis_derivative(f, cell_centers(y), 1).ravel()
    out[:, 2] = _axis_derivative(f, cell_centers(z), 2).ravel()
    return out


# Shared axis-derivative helper, depended on by every mesh operator
# (grad3d here; div3d/curl3d/laplace3d in mesh_ops).
AXIS_HELPER_CL = """
/* Cell-center coordinate along one axis from the point coordinates. */
inline {T} dfg_cell_center(__global const {T}* pts, const int idx)
{{
    return ({T})0.5 * (pts[idx] + pts[idx + 1]);
}}

/*
 * Derivative of a cell-centered field along one logical axis of a 3D
 * rectilinear mesh: central difference with respect to the (possibly
 * non-uniform) cell-center spacing in the interior, first-order one-sided
 * difference on the two boundary layers, zero for degenerate axes.
 */
inline {T} dfg_grad3d_axis(__global const {T}* f,
                           __global const {T}* pts,
                           const int idx, const int n,
                           const long stride, const long base)
{{
    if (n == 1)
    {{
        /* degenerate axis: no neighbours to difference against */
        return ({T})0;
    }}
    if (idx == 0)
    {{
        const {T} c_0 = dfg_cell_center(pts, 0);
        const {T} c_p = dfg_cell_center(pts, 1);
        return (f[base + stride] - f[base]) / (c_p - c_0);
    }}
    if (idx == n - 1)
    {{
        const {T} c_m = dfg_cell_center(pts, n - 2);
        const {T} c_0 = dfg_cell_center(pts, n - 1);
        return (f[base] - f[base - stride]) / (c_0 - c_m);
    }}
    {{
        const {T} c_m = dfg_cell_center(pts, idx - 1);
        const {T} c_p = dfg_cell_center(pts, idx + 1);
        return (f[base + stride] - f[base - stride]) / (c_p - c_m);
    }}
}}
"""

# The grad3d entry helper (the paper: "over 50 lines of OpenCL source"
# together with its axis machinery).  A work-item computes the gradient
# for its own cell, reading neighbour values straight from the global
# field array — the "direct access to device global memory" path.
_GRAD3D_CL = """
/*
 * grad3d: gradient of a cell-centered scalar field on a 3D rectilinear
 * mesh.  dims holds the cell counts (ni, nj, nk); x/y/z are the point
 * coordinate arrays (lengths ni+1, nj+1, nk+1).  Cells are stored in
 * C order with k fastest: gid = (i * nj + j) * nk + k.  The result is a
 * 3-component vector in a {T4}; the fourth lane is zero padding.
 */
inline {T4} dfg_grad3d(__global const {T}* f,
                       __global const int* dims,
                       __global const {T}* x,
                       __global const {T}* y,
                       __global const {T}* z,
                       const size_t gid)
{{
    const int ni = dims[0];
    const int nj = dims[1];
    const int nk = dims[2];
    const int k = (int)(gid % nk);
    const int j = (int)((gid / nk) % nj);
    const int i = (int)(gid / ((long)nk * nj));
    const long base = (long)gid;
    {T4} g;
    g.s0 = dfg_grad3d_axis(f, x, i, ni, (long)nj * nk, base);
    g.s1 = dfg_grad3d_axis(f, y, j, nj, (long)nk, base);
    g.s2 = dfg_grad3d_axis(f, z, k, nk, (long)1, base);
    g.s3 = ({T})0;
    return g;
}}
"""

GRAD3D = Primitive(
    name="grad3d", arity=5,
    result_kind=ResultKind.VECTOR,
    call_style=CallStyle.GLOBAL,
    flops_per_element=30,
    cl_name="dfg_grad3d",
    cl_source=_GRAD3D_CL,
    cl_call="dfg_grad3d({a0}, {a1}, {a2}, {a3}, {a4}, gid)",
    numpy_fn=grad3d_numpy,
    cl_deps=(("dfg_grad3d_axis", AXIS_HELPER_CL),),
)
