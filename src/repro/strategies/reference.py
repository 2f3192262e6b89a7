"""Hand-written reference kernels for the three test expressions.

Section IV-D1: *"we also compared our roundtrip, staged and fusion
execution strategies to reference OpenCL kernels written for each of the
three vortex detection expressions. The reference kernels have the same
input and output global device memory constraints as our fusion strategy.
They were written to directly compute the desired expression and hence are
able to execute the expressions using less memory fetches and floating
point operations than our strategies."*

Each reference here is a hand-written OpenCL kernel string plus a direct
NumPy implementation (from :mod:`repro.analysis.vortex`).  It emits the
same kind of op schedule the strategies do — upload every input, one
kernel, read the output back — and runs through the shared launcher, so
its events, memory, and timing are measured identically, live or
planned (:func:`repro.strategies.plan`).
It is *not* an :class:`ExecutionStrategy` over a network — it is the
custom one-off solution the framework is competing with.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..analysis import vortex
from ..clsim.compiler import PREAMBLE, validate_source
from ..clsim.environment import CLEnvironment
from ..clsim.kernel import Kernel
from ..clsim.perfmodel import KernelCost
from ..errors import StrategyError
from ..primitives.base import ResultKind
from ..primitives.gradient import GRAD3D
from .base import ExecutionReport, ctype_for
from .bindings import Binding, BindingInput, normalize, problem_size, \
    require_data
from .plancache import AllocOp, ExecutablePlan, KernelOp, ReadOp, UploadOp

__all__ = ["ReferenceKernel", "REFERENCE_FLOPS"]

# Direct-computation FLOP counts per element (fewer than the composed
# strategies, per the paper).
REFERENCE_FLOPS = {
    "velocity_magnitude": 9,
    "vorticity_magnitude": 3 * GRAD3D.flops_per_element + 12,
    "q_criterion": 3 * GRAD3D.flops_per_element + 40,
}

_VELMAG_CL = PREAMBLE + """
__kernel void ref_velocity_magnitude(
    __global const {T}* u,
    __global const {T}* v,
    __global const {T}* w,
    __global {T}* out)
{{
    const size_t gid = get_global_id(0);
    const {T} uu = u[gid];
    const {T} vv = v[gid];
    const {T} ww = w[gid];
    out[gid] = sqrt(uu*uu + vv*vv + ww*ww);
}}
"""

_VORTMAG_CL = PREAMBLE + "{GRAD}" + """
__kernel void ref_vorticity_magnitude(
    __global const {T}* u,
    __global const {T}* v,
    __global const {T}* w,
    __global const int* dims,
    __global const {T}* x,
    __global const {T}* y,
    __global const {T}* z,
    __global {T}* out)
{{
    const size_t gid = get_global_id(0);
    const {T4} du = dfg_grad3d(u, dims, x, y, z, gid);
    const {T4} dv = dfg_grad3d(v, dims, x, y, z, gid);
    const {T4} dw = dfg_grad3d(w, dims, x, y, z, gid);
    const {T} wx = dw.s1 - dv.s2;
    const {T} wy = du.s2 - dw.s0;
    const {T} wz = dv.s0 - du.s1;
    out[gid] = sqrt(wx*wx + wy*wy + wz*wz);
}}
"""

_QCRIT_CL = PREAMBLE + "{GRAD}" + """
__kernel void ref_q_criterion(
    __global const {T}* u,
    __global const {T}* v,
    __global const {T}* w,
    __global const int* dims,
    __global const {T}* x,
    __global const {T}* y,
    __global const {T}* z,
    __global {T}* out)
{{
    const size_t gid = get_global_id(0);
    const {T4} du = dfg_grad3d(u, dims, x, y, z, gid);
    const {T4} dv = dfg_grad3d(v, dims, x, y, z, gid);
    const {T4} dw = dfg_grad3d(w, dims, x, y, z, gid);
    const {T} s1 = ({T})0.5 * (du.s1 + dv.s0);
    const {T} s2 = ({T})0.5 * (du.s2 + dw.s0);
    const {T} s5 = ({T})0.5 * (dv.s2 + dw.s1);
    const {T} w1 = ({T})0.5 * (du.s1 - dv.s0);
    const {T} w2 = ({T})0.5 * (du.s2 - dw.s0);
    const {T} w5 = ({T})0.5 * (dv.s2 - dw.s1);
    const {T} s_norm = du.s0*du.s0 + dv.s1*dv.s1 + dw.s2*dw.s2
                     + ({T})2 * (s1*s1 + s2*s2 + s5*s5);
    const {T} w_norm = ({T})2 * (w1*w1 + w2*w2 + w5*w5);
    out[gid] = ({T})0.5 * (w_norm - s_norm);
}}
"""


def _velmag_np(u, v, w):
    return vortex.velocity_magnitude_reference(u, v, w)


def _vortmag_np(u, v, w, dims, x, y, z):
    return vortex.vorticity_magnitude_reference(u, v, w, dims, x, y, z)


def _qcrit_np(u, v, w, dims, x, y, z):
    return vortex.q_criterion_reference(u, v, w, dims, x, y, z)


_KERNELS = {
    "velocity_magnitude": (_VELMAG_CL, _velmag_np, ("u", "v", "w")),
    "vorticity_magnitude": (_VORTMAG_CL, _vortmag_np,
                            ("u", "v", "w", "dims", "x", "y", "z")),
    "q_criterion": (_QCRIT_CL, _qcrit_np,
                    ("u", "v", "w", "dims", "x", "y", "z")),
}


class ReferenceKernel:
    """One of the three hand-written comparison kernels."""

    name = "reference"

    def __init__(self, expression: str):
        if expression not in _KERNELS:
            raise StrategyError(
                f"no reference kernel for {expression!r}; "
                f"available: {sorted(_KERNELS)}")
        self.expression = expression

    def build_plan(self, bindings: Mapping[str, Binding], n: int,
                   dtype: np.dtype) -> ExecutablePlan:
        """The reference schedule: upload every input, run the one
        hand-written kernel, read the output back (the launcher releases
        every buffer at the end)."""
        template, numpy_fn, inputs = _KERNELS[self.expression]
        ctype = ctype_for(dtype)
        source = template.format(T=ctype, T4=f"{ctype}4",
                                 GRAD=GRAD3D.render_source(ctype))
        validate_source(source)
        kernel = Kernel(f"ref_{self.expression}", source,
                        executor=numpy_fn, arg_names=inputs)
        out_nbytes = n * dtype.itemsize
        cost = KernelCost(
            global_bytes=(sum(bindings[name].nbytes for name in inputs)
                          + out_nbytes),
            flops=REFERENCE_FLOPS[self.expression] * n,
            register_words=16,
            itemsize=dtype.itemsize,
            elements=n)
        args = tuple(range(len(inputs)))
        out = len(inputs)
        ops = [UploadOp(slot, name, bindings[name].nbytes)
               for slot, name in zip(args, inputs)]
        ops += [AllocOp(out, "out", out_nbytes),
                KernelOp(kernel, args, (out,), cost),
                ReadOp(out, "out")]
        return ExecutablePlan(
            ops=tuple(ops),
            strategy_name=self.name,
            source_order=inputs,
            n=n, dtype=dtype,
            output_id="out",
            output_kind=ResultKind.SCALAR,
            output_uniform=False,
            generated_sources={kernel.name: source})

    def prepare(self, arrays: Mapping[str, BindingInput],
                ) -> tuple[dict[str, Binding], int, np.dtype]:
        """Normalize this kernel's own inputs and size the problem."""
        bindings = normalize(arrays, list(_KERNELS[self.expression][2]))
        n, dtype = problem_size(bindings)
        return bindings, n, np.dtype(dtype)

    def execute(self, arrays: Mapping[str, BindingInput],
                env: CLEnvironment) -> ExecutionReport:
        bindings, n, dtype = self.prepare(arrays)
        require_data(bindings)
        return self.build_plan(bindings, n, dtype).execute(bindings, env)
