"""Nested stencils: a gradient of a gradient's result reads two cells
past each seam, so chunked and distributed paths need two halo (ghost)
layers.  With one, the seam cells of streaming, multi-device and
distributed runs differ from the fused single-device result."""

import pytest

from repro.host import DerivedFieldEngine
from repro.host.visitsim.dataset import RectilinearDataset
from repro.host.visitsim.pyexpr import PythonExpressionFilter
from repro.par.driver import plan_distributed, run_distributed
from repro.strategies.chunking import halo_width
from repro.strategies.multidevice import MultiDeviceStrategy
from repro.strategies.streaming import StreamingFusionStrategy
from repro.workloads import SubGrid, make_fields

NESTED = ("g = grad3d(u,dims,x,y,z)\n"
          "a = g[0]*g[0]\n"
          "h = grad3d(a,dims,x,y,z)\n"
          "r = h[0] + v")


@pytest.fixture(scope="module")
def fields():
    return make_fields(SubGrid(16, 16, 32), seed=3)


@pytest.fixture(scope="module")
def fused(fields):
    return DerivedFieldEngine(device="gpu", strategy="fusion").execute(
        NESTED, fields).output


def _network(text):
    return DerivedFieldEngine().compile(text).network


@pytest.mark.parametrize("text, depth", [
    ("a = u * v", 0),
    ("g = grad3d(u,dims,x,y,z)\nr = g[0] + v", 1),
    ("g = grad3d(u,dims,x,y,z)\nh = grad3d(v,dims,x,y,z)\n"
     "r = g[0] * h[1]", 1),
    (NESTED, 2),
])
def test_stencil_depth_is_the_longest_stencil_chain(text, depth):
    network = _network(text)
    assert network.stencil_depth() == depth
    assert halo_width(network) == depth
    contract = PythonExpressionFilter(text).contract()
    assert contract.ghost_width == depth
    assert contract.ghost_zones == (depth > 0)


def test_streaming_matches_fusion_bitwise(fields, fused):
    engine = DerivedFieldEngine(device="gpu",
                                strategy=StreamingFusionStrategy(n_chunks=4))
    got = engine.execute(NESTED, fields).output
    assert got.tobytes() == fused.tobytes()


def test_multidevice_matches_fusion_bitwise(fields, fused):
    engine = DerivedFieldEngine(device="gpu",
                                strategy=MultiDeviceStrategy(("gpu", "gpu")))
    got = engine.execute(NESTED, fields).output
    assert got.tobytes() == fused.tobytes()


def test_distributed_matches_fusion_bitwise(fields, fused):
    dataset = RectilinearDataset(
        fields["x"], fields["y"], fields["z"],
        {name: fields[name] for name in ("u", "v", "w")})
    result = run_distributed(NESTED, dataset, block_dims=(8, 8, 16),
                             n_ranks=2)
    assert result.field.tobytes() == fused.tobytes()
    # The dry plan sizes the same two-layer ghosted blocks.
    plans = plan_distributed(NESTED, global_dims=dataset.dims,
                             block_dims=(8, 8, 16), n_ranks=2)
    assert [p.mem_high_water for p in plans] == \
        [s.mem_high_water for s in result.rank_stats]
