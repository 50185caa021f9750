import numpy as np
import pytest

import crossdiff as cd
from crossdiff import fvops

# The scheme's face gradient and divergence are fvops.face_terms and
# fvops.implicit_residual.  With the pressure coefficients (1, 0, 0, 1) the
# pressure gradient of each component is its own gradient; with tau = 1 and
# prev = u the residual is minus the cell divergence of the face flux.
IDENTITY = (1.0, 0.0, 0.0, 1.0)


def require_nonnegative(state, tol: float = 0.0) -> None:
    m = state.min_value()
    if m < -tol:
        raise ValueError(f"state has negative component {m}")


def face_gradient(grid, v, axis=0):
    """Face gradient of the field ``v`` along grid ``axis``: the interior
    faces 1..n-1 on the last array axis."""
    u = np.stack([v, np.zeros_like(v)])
    grad, *_ = fvops.face_terms(u, IDENTITY, grid.dx, None, True, axis)
    return grad[0]


def padded_face_gradient(grid, v, axis=0):
    """The same on the faces 0..n, as the dissipation sums it."""
    return fvops.face_gradient(np.stack([v, np.zeros_like(v)]), grid.dx, axis)[0]


def flux_and_divergence(grid, u):
    """Upwind face fluxes of the stacked state ``u`` along every grid axis,
    and the cell divergence they produce in the implicit step."""
    r, terms = fvops.implicit_residual(u, u, IDENTITY, 1.0, grid.dx, None, True)
    return [t[-1] for t in terms], -r


class TestGrid1D:
    def test_geometry(self):
        grid = cd.Grid1D(4, 1.0)
        assert grid.dx == 0.25
        assert grid.shape == (4,)
        assert grid.num_points == 4
        assert grid.cell_volume == 0.25
        np.testing.assert_allclose(grid.centers(), [0.125, 0.375, 0.625, 0.875])
        assert grid.measure == 1.0

    def test_differs_from_2d_grid_of_same_size(self):
        assert cd.Grid1D(4, 1.0) != cd.Grid2D(4, 1.0)
        assert cd.Grid1D(4, 1.0) == cd.Grid1D(4, 1.0)
        assert repr(cd.Grid1D(4, 1.0)).startswith("Grid1D(")
        assert repr(cd.Grid2D(4, 1.0)).startswith("Grid2D(")

    def test_validation(self):
        with pytest.raises(ValueError):
            cd.Grid1D(1, 1.0)
        with pytest.raises(ValueError):
            cd.Grid1D(4, 0.0)
        for cls in (cd.Grid1D, cd.Grid2D):
            with pytest.raises(ValueError, match=r"^num_cells must be an integer, got 64\.0$"):
                cls(64.0, 1.0)
            assert cls(np.int64(4), 1.0).num_points == 4 ** cls.ndim

    @pytest.mark.parametrize("length", [np.inf, np.nan])
    def test_rejects_non_finite_length(self, length):
        with pytest.raises(ValueError, match="length must be positive and finite"):
            cd.Grid1D(4, length)
        with pytest.raises(ValueError, match="length must be positive and finite"):
            cd.Grid2D(4, length)

    def test_constant_field_has_zero_gradient(self):
        grid = cd.Grid1D(8, 2.0)
        np.testing.assert_array_equal(face_gradient(grid, np.full(8, 3.7)),
                                      np.zeros(7))

    def test_linear_field_gradient(self):
        grid = cd.Grid1D(4, 1.0)
        v = np.arange(4) * grid.dx
        grad = face_gradient(grid, v)
        np.testing.assert_allclose(grad, np.ones(3), rtol=1e-15)
        padded = padded_face_gradient(grid, v)
        assert padded[0] == 0.0 and padded[-1] == 0.0
        np.testing.assert_array_equal(padded[1:-1], grad)

    def test_gradient_antisymmetry(self):
        grid = cd.Grid1D(16, 3.0)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(16)
        np.testing.assert_array_equal(face_gradient(grid, -v), -face_gradient(grid, v))

    def test_divergence_of_zero_flux(self):
        grid = cd.Grid1D(6, 1.0)
        (flux,), div = flux_and_divergence(grid, np.full((2, 6), 1.3))
        np.testing.assert_array_equal(flux, np.zeros((2, 5)))
        np.testing.assert_array_equal(div, np.zeros((2, 6)))

    def test_divergence_telescopes_to_zero_mass(self):
        grid = cd.Grid1D(32, 2.0)
        rng = np.random.default_rng(1)
        (flux,), div = flux_and_divergence(grid, rng.uniform(0.0, 2.0, (2, 32)))
        assert flux.shape == (2, 31)    # the zero boundary faces are left out
        assert np.abs(flux).max() > 1.0
        for k in range(2):
            assert grid.integrate(div[k]) == pytest.approx(0.0, abs=1e-13)

    def test_unit_flux_at_single_face(self):
        # a single jump at face k: the only nonzero flux sits there, and it
        # leaves cell k - 1 and enters cell k
        grid = cd.Grid1D(5, 1.0)
        k = 2
        u = np.zeros((2, 5))
        u[0, k:] = 1.0
        (flux,), div = flux_and_divergence(grid, u)
        expected_flux = np.zeros((2, 4))
        expected_flux[0, k - 1] = 1.0 / grid.dx
        np.testing.assert_allclose(flux, expected_flux, rtol=1e-15)
        expected = np.zeros((2, 5))
        expected[0, k - 1] = flux[0, k - 1] / grid.dx
        expected[0, k] = -flux[0, k - 1] / grid.dx
        np.testing.assert_allclose(div, expected, rtol=1e-15)

    def test_integrate_constant(self):
        grid = cd.Grid1D(10, 2.0)
        assert grid.integrate(np.ones(10)) == pytest.approx(2.0, rel=1e-15)

    def test_integration_by_parts_is_exact(self):
        # sum_faces flux * grad(phi) * dx == -sum_cells div(flux) * phi * dx
        grid = cd.Grid1D(40, 1.5)
        rng = np.random.default_rng(2)
        phi = rng.standard_normal(40)
        (flux,), div = flux_and_divergence(grid, rng.uniform(0.0, 2.0, (2, 40)))
        for k in range(2):
            lhs = float(np.sum(flux[k] * face_gradient(grid, phi)) * grid.dx)
            rhs = -float(np.sum(div[k] * phi) * grid.dx)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_midpoint_quadrature_second_order(self):
        exact = 2.0 / np.pi  # integral of sin(pi x) on [0, 1]
        errs = []
        for n in (16, 32, 64):
            grid = cd.Grid1D(n, 1.0)
            errs.append(abs(grid.integrate(np.sin(np.pi * grid.centers())) - exact))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)


class TestGrid2D:
    def test_geometry(self):
        grid = cd.Grid2D(4, 2.0)
        assert grid.dx == 0.5
        assert grid.shape == (4, 4)
        assert grid.num_points == 16
        assert grid.cell_volume == 0.25
        assert grid.measure == 4.0
        x, y = grid.centers()
        assert x.shape == (4, 4)
        np.testing.assert_allclose(x[0], [0.25, 0.75, 1.25, 1.75])
        np.testing.assert_allclose(y[:, 0], [0.25, 0.75, 1.25, 1.75])

    def test_face_gradient_exact_for_linear(self):
        grid = cd.Grid2D(6, 1.0)
        x, y = grid.centers()
        v = 2.0 * x + 3.0 * y
        gx = face_gradient(grid, v, axis=1)
        gy = face_gradient(grid, v, axis=0)
        np.testing.assert_allclose(gx, 2.0, rtol=1e-12)
        np.testing.assert_allclose(gy, 3.0, rtol=1e-12)
        for axis, grad in ((1, gx), (0, gy)):
            padded = padded_face_gradient(grid, v, axis)
            assert np.all(padded[:, [0, -1]] == 0.0)
            np.testing.assert_array_equal(padded[:, 1:-1], grad)

    def test_divergence_telescopes(self):
        grid = cd.Grid2D(8, 1.0)
        rng = np.random.default_rng(3)
        fluxes, div = flux_and_divergence(grid, rng.uniform(0.0, 2.0, (2, 8, 8)))
        for flux in fluxes:
            assert flux.shape == (2, 8, 7)  # the zero boundary faces are left out
            assert np.abs(flux).max() > 1.0
        for k in range(2):
            assert grid.integrate(div[k]) == pytest.approx(0.0, abs=1e-12)

    def test_integrate_constant(self):
        grid = cd.Grid2D(5, 3.0)
        assert grid.integrate(np.ones((5, 5))) == pytest.approx(9.0, rel=1e-14)


class TestState:
    def test_shape_validation(self):
        grid = cd.Grid1D(4, 1.0)
        with pytest.raises(ValueError):
            cd.State(grid, np.ones(5), np.ones(4))

    def test_constant_factory_and_masses(self):
        grid = cd.Grid1D(10, 2.0)
        st = cd.State.constant(grid, 1.5, 0.5)
        assert st.masses() == (pytest.approx(3.0), pytest.approx(1.0))
        assert st.min_value() == 0.5
        assert st.max_value() == 1.5

    def test_require_nonnegative(self):
        grid = cd.Grid1D(4, 1.0)
        st = cd.State(grid, np.array([0.0, 1.0, 2.0, -0.1]), np.ones(4))
        with pytest.raises(ValueError, match="negative"):
            require_nonnegative(st)
        require_nonnegative(st, tol=0.2)  # within tolerance

    def test_copy_is_deep(self):
        grid = cd.Grid1D(4, 1.0)
        st = cd.State.constant(grid, 1.0, 1.0)
        other = st.copy()
        other.f[0] = 99.0
        assert st.f[0] == 1.0

    @pytest.mark.parametrize("grid", [cd.Grid1D(37, 1.3), cd.Grid2D(9, 0.7)],
                             ids=["1d", "2d"])
    def test_one_stacked_array_with_row_views(self, grid):
        rng = np.random.default_rng(5)
        f, g = rng.uniform(0.0, 2.0, grid.shape), rng.uniform(0.0, 2.0, grid.shape)
        st = cd.State(grid, f, g)
        assert st.u.shape == (2, *grid.shape)
        assert st.f.base is st.u and st.g.base is st.u
        np.testing.assert_array_equal(st.f, f)
        np.testing.assert_array_equal(st.g, g)
        f[0] = 99.0             # the constructor copies its fields into u
        assert st.f.flat[0] != 99.0

    def test_copy_is_independent_of_the_original(self):
        grid = cd.Grid2D(4, 1.0)
        st = cd.State(grid, np.ones(grid.shape), np.full(grid.shape, 2.0))
        other = st.copy()
        assert not np.shares_memory(other.u, st.u)
        other.g[1, 2] = -5.0
        st.f[0, 0] = 7.0
        assert st.g[1, 2] == 2.0 and other.f[0, 0] == 1.0
        assert other.min_value() == -5.0 and st.max_value() == 7.0

    @pytest.mark.parametrize("grid", [cd.Grid1D(n, 0.9) for n in (2, 3, 64, 129, 1000)]
                             + [cd.Grid2D(n, 1.1) for n in (2, 12, 33)])
    def test_masses_equal_integrate_bit_for_bit(self, grid):
        rng = np.random.default_rng(grid.num_cells)
        f, g = rng.uniform(0.0, 3.0, grid.shape), rng.uniform(0.0, 3.0, grid.shape)
        f[rng.random(grid.shape) < 0.3] = 0.0
        assert cd.State(grid, f, g).masses() == (grid.integrate(f), grid.integrate(g))
