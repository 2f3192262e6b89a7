"""Unit tests for the 3D rectilinear gradient primitive."""

import itertools

import numpy as np
import pytest

from repro.clsim.compiler import PREAMBLE, validate_source
from repro.codegen.runtime import grad3d_rows, grad3d_stack
from repro.errors import PrimitiveError
from repro.primitives import (GRAD3D, VECTOR_WIDTH, cell_centers,
                              div3d_numpy, grad3d_numpy, laplace3d_numpy)
from repro.primitives.gradient import _axis_derivative
from repro.workloads import linear_field, quadratic_field


def uniform_mesh(ni, nj, nk, extent=(1.0, 1.0, 1.0)):
    return (np.linspace(0, extent[0], ni + 1),
            np.linspace(0, extent[1], nj + 1),
            np.linspace(0, extent[2], nk + 1))


class TestCellCenters:
    def test_uniform(self):
        np.testing.assert_allclose(
            cell_centers(np.array([0.0, 1.0, 2.0])), [0.5, 1.5])

    def test_nonuniform(self):
        np.testing.assert_allclose(
            cell_centers(np.array([0.0, 1.0, 4.0])), [0.5, 2.5])

    def test_too_short_rejected(self):
        with pytest.raises(PrimitiveError):
            cell_centers(np.array([1.0]))

    def test_2d_rejected(self):
        with pytest.raises(PrimitiveError):
            cell_centers(np.zeros((2, 2)))


class TestExactness:
    def test_linear_field_exact(self):
        x, y, z = uniform_mesh(5, 6, 7)
        f, coeffs = linear_field(x, y, z, (2.0, -3.0, 0.5))
        g = grad3d_numpy(f, (5, 6, 7), x, y, z)
        for axis in range(3):
            np.testing.assert_allclose(g[:, axis], coeffs[axis],
                                       atol=1e-12)

    def test_linear_field_exact_nonuniform(self):
        x = np.array([0.0, 0.1, 0.5, 0.6, 2.0, 2.2])
        y = np.array([0.0, 1.0, 1.5, 4.0])
        z = np.array([-1.0, 0.0, 0.25, 0.75, 1.0])
        f, coeffs = linear_field(x, y, z, (1.5, 2.5, -4.0))
        g = grad3d_numpy(f, (5, 3, 4), x, y, z)
        for axis in range(3):
            np.testing.assert_allclose(g[:, axis], coeffs[axis],
                                       atol=1e-10)

    def test_quadratic_interior_exact_on_uniform_mesh(self):
        x, y, z = uniform_mesh(8, 8, 8)
        f, exact = quadratic_field(x, y, z)
        g = grad3d_numpy(f, (8, 8, 8), x, y, z)
        interior = np.ones((8, 8, 8), dtype=bool)
        interior[[0, -1], :, :] = False
        interior[:, [0, -1], :] = False
        interior[:, :, [0, -1]] = False
        mask = interior.ravel()
        np.testing.assert_allclose(g[mask, :3], exact[mask], atol=1e-10)

    def test_matches_numpy_gradient_interior(self):
        rng = np.random.default_rng(3)
        x, y, z = uniform_mesh(6, 6, 6)
        f = rng.standard_normal(216)
        g = grad3d_numpy(f, (6, 6, 6), x, y, z)
        xc, yc, zc = (cell_centers(c) for c in (x, y, z))
        ref = np.gradient(f.reshape(6, 6, 6), xc, yc, zc)
        interior = (slice(1, -1),) * 3
        for axis in range(3):
            np.testing.assert_allclose(
                g[:, axis].reshape(6, 6, 6)[interior],
                ref[axis][interior], atol=1e-10)


class TestShapeAndMetadata:
    def test_output_shape_and_padding(self):
        x, y, z = uniform_mesh(3, 4, 5)
        f = np.ones(60)
        g = grad3d_numpy(f, (3, 4, 5), x, y, z)
        assert g.shape == (60, VECTOR_WIDTH)
        np.testing.assert_array_equal(g[:, 3], 0.0)

    def test_constant_field_zero_gradient(self):
        x, y, z = uniform_mesh(4, 4, 4)
        g = grad3d_numpy(np.full(64, 7.0), (4, 4, 4), x, y, z)
        np.testing.assert_array_equal(g[:, :3], 0.0)

    def test_preserves_dtype(self):
        x, y, z = uniform_mesh(2, 2, 2)
        f = np.ones(8, dtype=np.float32)
        assert grad3d_numpy(f, (2, 2, 2), x, y, z).dtype == np.float32

    def test_dims_accepts_int_array(self):
        x, y, z = uniform_mesh(2, 3, 4)
        g = grad3d_numpy(np.zeros(24), np.array([2, 3, 4], np.int32),
                         x, y, z)
        assert g.shape == (24, VECTOR_WIDTH)

    def test_degenerate_axis(self):
        # a single-cell axis yields zero derivative along it
        x = np.array([0.0, 1.0])
        y, z = np.linspace(0, 1, 4), np.linspace(0, 1, 5)
        f, _ = linear_field(x, y, z, (9.0, 1.0, 1.0))
        g = grad3d_numpy(f, (1, 3, 4), x, y, z)
        np.testing.assert_array_equal(g[:, 0], 0.0)


class TestValidationErrors:
    def test_field_size_mismatch(self):
        x, y, z = uniform_mesh(2, 2, 2)
        with pytest.raises(PrimitiveError, match="cells"):
            grad3d_numpy(np.zeros(9), (2, 2, 2), x, y, z)

    def test_coordinate_length_mismatch(self):
        x, y, z = uniform_mesh(2, 2, 2)
        with pytest.raises(PrimitiveError, match="points"):
            grad3d_numpy(np.zeros(8), (2, 2, 2), x[:-1], y, z)


class TestOpenCLSource:
    def test_source_is_over_50_lines(self):
        # the paper calls this out explicitly
        assert GRAD3D.render_source("double").strip().count("\n") >= 50

    def test_source_validates_in_kernel(self):
        for ctype in ("double", "float"):
            source = (
                PREAMBLE + GRAD3D.render_source(ctype) +
                f"\n__kernel void t(__global const {ctype}* f, "
                "__global const int* dims, "
                f"__global const {ctype}* x, __global const {ctype}* y, "
                f"__global const {ctype}* z, __global {ctype}4* out)\n"
                "{ const size_t gid = get_global_id(0); "
                "out[gid] = dfg_grad3d(f, dims, x, y, z, gid); }")
            assert validate_source(source) == ["t"]

    def test_call_style_is_global(self):
        from repro.primitives import CallStyle
        assert GRAD3D.call_style is CallStyle.GLOBAL


def region_axis_derivative(f, centers, axis):
    """The region-by-region stencil the kernel replaced: each region's
    difference subtracted into a view of the output, then divided by a
    freshly broadcast spacing array.  The bitwise oracle below."""
    n = f.shape[axis]
    out = np.empty_like(f)

    def ix(sl):
        index = [slice(None)] * f.ndim
        index[axis] = sl
        return tuple(index)

    def shape_c(sl):
        shape = [1] * f.ndim
        shape[axis] = -1
        return centers[sl].reshape(shape)

    def diff_into(target, hi, lo):
        np.subtract(f[ix(hi)], f[ix(lo)], out=target)
        np.divide(target, shape_c(hi) - shape_c(lo), out=target)

    if n == 1:
        out[...] = 0.0
        return out
    if n > 2:
        diff_into(out[ix(slice(1, -1))], slice(2, None), slice(None, -2))
    diff_into(out[ix(slice(0, 1))], slice(1, 2), slice(0, 1))
    diff_into(out[ix(slice(n - 1, n))], slice(n - 1, n),
              slice(n - 2, n - 1))
    return out


def region_rows(field, dims, x, y, z):
    f = np.asarray(field).reshape(dims)
    return [region_axis_derivative(f, cell_centers(c), axis).ravel()
            for axis, c in enumerate((x, y, z))]


def nonuniform_mesh(rng, ni, nj, nk):
    return tuple(np.cumsum(rng.random(n + 1) + 0.05) for n in (ni, nj, nk))


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


SIZES = (1, 2, 3, 5)
SPECIALS = (np.nan, np.inf, -np.inf, 5e-324, -1e-310, 0.0, -0.0)


class TestBitwiseAgainstRegionStencil:
    """The kernel makes the old stencil's subtractions and divisions,
    so it must agree with it bit for bit on every layout and value."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("dims", list(itertools.product(SIZES,
                                                            repeat=3)))
    def test_every_axis_size(self, dims, dtype):
        rng = np.random.default_rng(sum(dims))
        x, y, z = nonuniform_mesh(rng, *dims)
        f = rng.standard_normal(dims).astype(dtype)
        for axis, c in enumerate((x, y, z)):
            centers = cell_centers(c)
            assert same_bits(_axis_derivative(f, centers, axis),
                             region_axis_derivative(f, centers, axis))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_nan_inf_and_denormals(self, dtype):
        rng = np.random.default_rng(11)
        dims = (4, 5, 6)
        x, y, z = nonuniform_mesh(rng, *dims)
        f = rng.standard_normal(dims)
        flat = f.reshape(-1)
        picks = rng.choice(flat.size, size=40, replace=False)
        flat[picks] = np.resize(SPECIALS, picks.size)
        f = f.astype(dtype)
        with np.errstate(all="ignore"):
            for axis, c in enumerate((x, y, z)):
                centers = cell_centers(c)
                assert same_bits(_axis_derivative(f, centers, axis),
                                 region_axis_derivative(f, centers, axis))

    def test_fortran_ordered_field(self):
        rng = np.random.default_rng(5)
        dims = (4, 3, 5)
        x, y, z = nonuniform_mesh(rng, *dims)
        f = np.asfortranarray(rng.standard_normal(dims))
        for axis, c in enumerate((x, y, z)):
            centers = cell_centers(c)
            assert same_bits(_axis_derivative(f, centers, axis),
                             region_axis_derivative(f, centers, axis))

    def test_strided_columns(self):
        """laplace3d hands div3d the strided ``g[:, c]`` columns of a
        gradient's ``(n, 4)`` array."""
        rng = np.random.default_rng(6)
        dims = (5, 4, 6)
        x, y, z = nonuniform_mesh(rng, *dims)
        g = grad3d_numpy(rng.standard_normal(120), dims, x, y, z)
        assert not g[:, 1].flags.c_contiguous
        want = sum(region_axis_derivative(g[:, axis].reshape(dims),
                                          cell_centers(c), axis)
                   for axis, c in enumerate((x, y, z))).ravel()
        assert same_bits(div3d_numpy(g[:, 0], g[:, 1], g[:, 2], dims,
                                     x, y, z), want)
        f = rng.standard_normal(120)
        rows = region_rows(f, dims, x, y, z)
        g = np.zeros((120, VECTOR_WIDTH))
        for axis in range(3):
            g[:, axis] = rows[axis]
        want = sum(region_axis_derivative(g[:, axis].reshape(dims),
                                          cell_centers(c), axis)
                   for axis, c in enumerate((x, y, z))).ravel()
        assert same_bits(laplace3d_numpy(f, dims, x, y, z), want)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_interpreter_primitive(self, dtype):
        rng = np.random.default_rng(8)
        dims = (3, 4, 5)
        x, y, z = nonuniform_mesh(rng, *dims)
        f = rng.standard_normal(60).astype(dtype)
        g = grad3d_numpy(f, dims, x, y, z)
        for axis, row in enumerate(region_rows(f, dims, x, y, z)):
            assert same_bits(np.ascontiguousarray(g[:, axis]), row)

    @pytest.mark.parametrize("dtypes", [
        (np.float64,), (np.float32, np.float32),
        (np.float64, np.float64, np.float64),
        (np.float32, np.float64, np.float32)])
    def test_grad3d_stack(self, dtypes):
        rng = np.random.default_rng(len(dtypes))
        dims = (4, 5, 6)
        x, y, z = nonuniform_mesh(rng, *dims)
        fields = [rng.standard_normal(120).astype(t) for t in dtypes]
        rows = grad3d_stack(fields, dims, x, y, z)
        want = [r for f in fields for r in region_rows(f, dims, x, y, z)]
        assert len(rows) == len(want)
        for got, ref in zip(rows, want):
            assert same_bits(got, ref)
        assert all(same_bits(a, b) for a, b in zip(
            grad3d_rows(fields[0], dims, x, y, z), want[:3]))
