"""Higher-level mesh operators: divergence, curl, and Laplacian.

Extensions to the paper's building-block subset, in the spirit of VisIt's
expression library (whose operator set includes these).  Like ``grad3d``
they are GLOBAL-call-style primitives — a work-item reads its neighbours'
values from global field arrays — and they share the same axis-derivative
OpenCL helper via :data:`~repro.primitives.gradient.AXIS_HELPER_CL`, so a
fused kernel using several mesh operators carries exactly one copy.

With these, the paper's vorticity-magnitude expression collapses to

    w_mag = vmag(curl3d(u, v, w, dims, x, y, z))

which tests (``tests/primitives/test_mesh_ops.py``) verify is numerically
identical to the Fig 3B composition.
"""

from __future__ import annotations

import numpy as np

from .base import CallStyle, Primitive, ResultKind, VECTOR_WIDTH
from .gradient import AXIS_HELPER_CL, cell_centers, grad3d_numpy, \
    mesh_cells, _axis_derivative

__all__ = ["DIV3D", "CURL3D", "LAPLACE3D", "MESH_PRIMITIVES",
           "div3d_numpy", "curl3d_numpy", "laplace3d_numpy"]


def _mesh_args(dims, x, y, z):
    shape, _ = mesh_cells((), dims, x, y, z)
    return shape, cell_centers(x), cell_centers(y), cell_centers(z)


def div3d_numpy(u, v, w, dims, x, y, z) -> np.ndarray:
    """div(V) = du/dx + dv/dy + dw/dz for a cell-centered vector field
    given as three component arrays."""
    (ni, nj, nk), xc, yc, zc = _mesh_args(dims, x, y, z)
    shape = (ni, nj, nk)
    return (_axis_derivative(np.asarray(u).reshape(shape), xc, 0)
            + _axis_derivative(np.asarray(v).reshape(shape), yc, 1)
            + _axis_derivative(np.asarray(w).reshape(shape), zc, 2)
            ).ravel()


def curl3d_numpy(u, v, w, dims, x, y, z) -> np.ndarray:
    """curl(V) as an (n, VECTOR_WIDTH) vector field (Eq. 1's omega)."""
    (ni, nj, nk), xc, yc, zc = _mesh_args(dims, x, y, z)
    shape = (ni, nj, nk)
    u3 = np.asarray(u).reshape(shape)
    v3 = np.asarray(v).reshape(shape)
    w3 = np.asarray(w).reshape(shape)
    n = ni * nj * nk
    out = np.zeros((n, VECTOR_WIDTH), dtype=u3.dtype)
    out[:, 0] = (_axis_derivative(w3, yc, 1)
                 - _axis_derivative(v3, zc, 2)).ravel()
    out[:, 1] = (_axis_derivative(u3, zc, 2)
                 - _axis_derivative(w3, xc, 0)).ravel()
    out[:, 2] = (_axis_derivative(v3, xc, 0)
                 - _axis_derivative(u3, yc, 1)).ravel()
    return out


def laplace3d_numpy(f, dims, x, y, z) -> np.ndarray:
    """Laplacian as divergence of the gradient (composed first-order
    operators, matching the OpenCL helper's two-pass definition)."""
    g = grad3d_numpy(f, dims, x, y, z)
    return div3d_numpy(g[:, 0], g[:, 1], g[:, 2], dims, x, y, z)


_COMMON_INDEX_CL = """
inline long dfg_mesh_index(__global const int* dims, const size_t gid,
                           int* i, int* j, int* k)
{{
    const int nj = dims[1];
    const int nk = dims[2];
    *k = (int)(gid % nk);
    *j = (int)((gid / nk) % nj);
    *i = (int)(gid / ((long)nk * nj));
    return (long)gid;
}}
"""

_DIV3D_CL = """
/* Divergence of a cell-centered vector field given by components. */
inline {T} dfg_div3d(__global const {T}* u,
                     __global const {T}* v,
                     __global const {T}* w,
                     __global const int* dims,
                     __global const {T}* x,
                     __global const {T}* y,
                     __global const {T}* z,
                     const size_t gid)
{{
    int i, j, k;
    const long base = dfg_mesh_index(dims, gid, &i, &j, &k);
    const int ni = dims[0];
    const int nj = dims[1];
    const int nk = dims[2];
    return dfg_grad3d_axis(u, x, i, ni, (long)nj * nk, base)
         + dfg_grad3d_axis(v, y, j, nj, (long)nk, base)
         + dfg_grad3d_axis(w, z, k, nk, (long)1, base);
}}
"""

_CURL3D_CL = """
/* Curl of a cell-centered vector field given by components (Eq. 1). */
inline {T4} dfg_curl3d(__global const {T}* u,
                       __global const {T}* v,
                       __global const {T}* w,
                       __global const int* dims,
                       __global const {T}* x,
                       __global const {T}* y,
                       __global const {T}* z,
                       const size_t gid)
{{
    int i, j, k;
    const long base = dfg_mesh_index(dims, gid, &i, &j, &k);
    const int ni = dims[0];
    const int nj = dims[1];
    const int nk = dims[2];
    const long si = (long)nj * nk;
    const long sj = (long)nk;
    {T4} c;
    c.s0 = dfg_grad3d_axis(w, y, j, nj, sj, base)
         - dfg_grad3d_axis(v, z, k, nk, (long)1, base);
    c.s1 = dfg_grad3d_axis(u, z, k, nk, (long)1, base)
         - dfg_grad3d_axis(w, x, i, ni, si, base);
    c.s2 = dfg_grad3d_axis(v, x, i, ni, si, base)
         - dfg_grad3d_axis(u, y, j, nj, sj, base);
    c.s3 = ({T})0;
    return c;
}}
"""

# The Laplacian needs grad values at *neighbour* cells, i.e. a second
# stencil pass; in a single work-item this means re-evaluating the axis
# derivative at offset bases.
_LAPLACE3D_CL = """
/* Laplacian: second central differences about the cell, axis by axis. */
inline {T} dfg_laplace3d_axis(__global const {T}* f,
                              __global const {T}* pts,
                              const int idx, const int n,
                              const long stride, const long base)
{{
    if (n == 1)
        return ({T})0;
    const {T} d_here = dfg_grad3d_axis(f, pts, idx, n, stride, base);
    const {T} d_lo = (idx > 0)
        ? dfg_grad3d_axis(f, pts, idx - 1, n, stride, base - stride)
        : d_here;
    const {T} d_hi = (idx < n - 1)
        ? dfg_grad3d_axis(f, pts, idx + 1, n, stride, base + stride)
        : d_here;
    const {T} c_lo = (idx > 0) ? dfg_cell_center(pts, idx - 1)
                               : dfg_cell_center(pts, idx);
    const {T} c_hi = (idx < n - 1) ? dfg_cell_center(pts, idx + 1)
                                   : dfg_cell_center(pts, idx);
    const {T} span = c_hi - c_lo;
    return (span != ({T})0) ? (d_hi - d_lo) / span : ({T})0;
}}

inline {T} dfg_laplace3d(__global const {T}* f,
                         __global const int* dims,
                         __global const {T}* x,
                         __global const {T}* y,
                         __global const {T}* z,
                         const size_t gid)
{{
    int i, j, k;
    const long base = dfg_mesh_index(dims, gid, &i, &j, &k);
    const int ni = dims[0];
    const int nj = dims[1];
    const int nk = dims[2];
    return dfg_laplace3d_axis(f, x, i, ni, (long)nj * nk, base)
         + dfg_laplace3d_axis(f, y, j, nj, (long)nk, base)
         + dfg_laplace3d_axis(f, z, k, nk, (long)1, base);
}}
"""

_DEPS = (("dfg_grad3d_axis", AXIS_HELPER_CL),
         ("dfg_mesh_index", _COMMON_INDEX_CL))

DIV3D = Primitive(
    name="div3d", arity=7,
    result_kind=ResultKind.SCALAR,
    call_style=CallStyle.GLOBAL,
    flops_per_element=30,
    cl_name="dfg_div3d",
    cl_source=_DIV3D_CL,
    cl_call="dfg_div3d({a0}, {a1}, {a2}, {a3}, {a4}, {a5}, {a6}, gid)",
    numpy_fn=div3d_numpy,
    cl_deps=_DEPS,
)

CURL3D = Primitive(
    name="curl3d", arity=7,
    result_kind=ResultKind.VECTOR,
    call_style=CallStyle.GLOBAL,
    flops_per_element=60,
    cl_name="dfg_curl3d",
    cl_source=_CURL3D_CL,
    cl_call="dfg_curl3d({a0}, {a1}, {a2}, {a3}, {a4}, {a5}, {a6}, gid)",
    numpy_fn=curl3d_numpy,
    cl_deps=_DEPS,
)

LAPLACE3D = Primitive(
    name="laplace3d", arity=5,
    result_kind=ResultKind.SCALAR,
    call_style=CallStyle.GLOBAL,
    flops_per_element=90,
    cl_name="dfg_laplace3d",
    cl_source=_LAPLACE3D_CL,
    cl_call="dfg_laplace3d({a0}, {a1}, {a2}, {a3}, {a4}, gid)",
    numpy_fn=laplace3d_numpy,
    cl_deps=_DEPS,
)

MESH_PRIMITIVES = (DIV3D, CURL3D, LAPLACE3D)
