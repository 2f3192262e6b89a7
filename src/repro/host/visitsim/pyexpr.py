"""The custom "VisIt Python Expression" that embeds our framework.

Section III-D: *"To call our framework from within VisIt, we wrote a custom
VisIt Python Expression ... a Python filter that processes Python-wrapped
instances of VTK data sets from a VisIt pipeline to create a new mesh
field."*  Here the VTK dataset is a
:class:`~repro.host.visitsim.dataset.RectilinearDataset`; its field arrays
are handed to the engine as NumPy objects with zero copies on the way in.
"""

from __future__ import annotations

from typing import Optional

from ..engine import CompiledExpression, DerivedFieldEngine
from .contracts import Contract
from .dataset import RectilinearDataset

__all__ = ["PythonExpressionFilter"]

_MESH_NAMES = frozenset({"dims", "x", "y", "z"})


class PythonExpressionFilter:
    """A pipeline stage computing one derived field via the framework."""

    def __init__(self, expression: str,
                 engine: Optional[DerivedFieldEngine] = None,
                 output_name: Optional[str] = None):
        self.engine = engine if engine is not None else DerivedFieldEngine()
        self.compiled: CompiledExpression = self.engine.compile(expression)
        self.output_name = output_name or self.compiled.result_name

    # -- pipeline protocol -------------------------------------------------------

    def contract(self) -> Contract:
        """Request the input fields — and, if the network uses a stencil
        (global-access) primitive such as the gradient, as many ghost
        layers as its stencil depth."""
        depth = self.compiled.network.stencil_depth()
        wanted = frozenset(self.compiled.required_inputs) - _MESH_NAMES
        return Contract(fields=wanted, ghost_zones=depth > 0,
                        ghost_width=depth)

    def provides(self) -> frozenset[str]:
        """The derived field this stage adds, satisfying downstream
        contract requests during pipeline negotiation."""
        return frozenset({self.output_name})

    def execute(self, dataset: RectilinearDataset) -> RectilinearDataset:
        """Compute the derived field and attach it to the dataset.

        When the dataset carries ghost cells the derived field is computed
        over the ghosted block (so gradients are right at seams) and the
        returned dataset keeps the ghost metadata — stripping is the
        pipeline sink's job, as in VisIt.
        """
        bindings = dict(dataset.mesh_arrays())
        for name in self.compiled.required_inputs:
            if name not in _MESH_NAMES:
                bindings[name] = dataset.field(name)
        derived = self.engine.derive(self.compiled, bindings)
        out = dataset.with_fields({self.output_name: derived})
        return out
