import math
import os

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.sparse import linalg as sparse_linalg

from kernelbound.coefficients import (
    OperatorSpec,
    PolynomialFamily,
    SystemDims,
    diagonal_family,
)
from kernelbound import solver
from kernelbound.errors import AssemblyError, BudgetError, DomainError, SolveError
from kernelbound.solver import (
    DiscreteField,
    GridSpec,
    OperatorHandle,
    assemble_generator,
    field_from_bytes,
    field_to_bytes,
    field_to_csv,
    kernel_column,
    kernel_columns,
    load_field,
    mollified_source,
    save_field,
)

from oracles import (FieldJet, apply_kernel_to_function, discrete_inner, discrete_mass,
                     eval_operator, kernel_matrix, theta_steps)


def const_spec(d=1, m=1, q=1.0, b=0.0, V=None):
    """Constant-coefficient system for exact stencil checks."""
    dims = SystemDims(d, m)
    Vm = np.zeros((m, m)) if V is None else np.asarray(V, dtype=float)

    def npts(x):
        return np.atleast_2d(np.asarray(x, dtype=float)).shape[0]

    return OperatorSpec(
        dims=dims,
        Q=lambda h, x: np.tile(q * np.eye(d), (npts(x), 1, 1)),
        b=lambda h, x: np.full((npts(x), d), b),
        V=lambda x: np.tile(Vm, (npts(x), 1, 1)),
        R=lambda h, x: np.zeros((npts(x), d, d)),
        divb=lambda h, x: np.zeros(npts(x)),
    )


def gaussian(x, mean, var):
    return np.exp(-(x - mean) ** 2 / (2 * var)) / math.sqrt(2 * math.pi * var)


class TestGrid:
    def test_geometry(self):
        g = GridSpec(1, 4.0, 0.5)
        assert g.n_per_axis == 15 and g.n_nodes == 15
        ax = g.axis_coords()
        assert ax[0] == pytest.approx(-3.5) and ax[-1] == pytest.approx(3.5)
        assert 0.0 in ax

    def test_radius_spacing_ratio_enforced(self):
        with pytest.raises(DomainError):
            GridSpec(1, 4.0, 0.3)
        with pytest.raises(DomainError):
            GridSpec(1, 0.5, 0.5)
        with pytest.raises(DomainError):
            GridSpec(3, 4.0, 0.5)

    def test_points_2d_row_major(self):
        g = GridSpec(2, 1.0, 0.5)
        pts = g.points()
        assert pts.shape == (9, 2)
        assert pts[0] == pytest.approx([-0.5, -0.5])
        assert pts[1] == pytest.approx([-0.5, 0.0])
        assert pts[3] == pytest.approx([0.0, -0.5])

    def test_node_lookup(self):
        g = GridSpec(1, 4.0, 0.5)
        assert g.axis_coords()[g.node_of([0.0])] == pytest.approx(0.0)
        assert g.axis_coords()[g.node_of([-3.5])] == pytest.approx(-3.5)
        with pytest.raises(DomainError):
            g.node_of([0.3])
        g2 = GridSpec(2, 1.0, 0.5)
        assert g2.node_of([0.0, 0.5]) == 5

    def test_shared_nodes_across_radii(self):
        small, big = GridSpec(1, 4.0, 0.25), GridSpec(1, 8.0, 0.25)
        for x in small.axis_coords():
            assert big.axis_coords()[big.node_of([x])] == pytest.approx(x)


class TestAssembly:
    def test_heat_stencil_rows(self):
        g = GridSpec(1, 2.0, 0.5)
        A = assemble_generator(const_spec(), g, "P").toarray()
        i = g.node_of([0.0])
        assert A[i, i] == pytest.approx(-2 / 0.25)
        assert A[i, i - 1] == pytest.approx(1 / 0.25)
        assert A[i, i + 1] == pytest.approx(1 / 0.25)
        # Dirichlet: first row has no left neighbor
        assert A[0, 0] == pytest.approx(-2 / 0.25)
        assert np.count_nonzero(A[0]) == 2

    def test_variable_diffusion_rows_sum_to_zero(self):
        fam = diagonal_family("polynomial", 1, 1, alpha=1.0, eta=1.0, beta=0.0,
                              theta=[[1e-30]], gamma=[[0.0]])
        # drift and potential negligible; flux rows annihilate constants
        spec = const_spec()
        varspec = OperatorSpec(dims=spec.dims, Q=fam.Q, b=spec.b, V=spec.V,
                               R=fam.R, divb=spec.divb)
        g = GridSpec(1, 2.0, 0.125)
        A = assemble_generator(varspec, g, "P")
        ones = np.ones(A.shape[0])
        interior = (A @ ones)[2:-2]
        assert np.max(np.abs(interior)) < 1e-10

    def test_centered_drift_row(self):
        g = GridSpec(1, 2.0, 0.5)
        A = assemble_generator(const_spec(b=0.5), g, "P").toarray()
        i = g.node_of([0.0])
        # pe = 0.125: centered, so +-b/(2h) on the neighbors
        assert A[i, i + 1] == pytest.approx(4.0 + 0.5)
        assert A[i, i - 1] == pytest.approx(4.0 - 0.5)
        assert A[i, i] == pytest.approx(-8.0)

    def test_upwind_kicks_in_at_large_peclet(self):
        g = GridSpec(1, 2.0, 0.25)
        A = assemble_generator(const_spec(b=-50.0), g, "P").toarray()
        i = g.node_of([0.0])
        assert A[i, i - 1] == pytest.approx(16.0 + 200.0)
        assert A[i, i + 1] == pytest.approx(16.0)
        assert A[i, i] == pytest.approx(-32.0 - 200.0)

    def test_potential_blocks_and_cooperative_flip(self):
        V = [[2.0, 3.0], [-1.0, 4.0]]
        g = GridSpec(1, 2.0, 0.5)
        spec = const_spec(m=2, V=V)
        plain = assemble_generator(spec, g, "plain").toarray()
        coop = assemble_generator(spec, g, "P").toarray()
        i = g.node_of([0.0]) * 2
        assert plain[i, i + 1] == pytest.approx(-3.0)
        assert plain[i + 1, i] == pytest.approx(1.0)
        assert coop[i, i + 1] == pytest.approx(3.0)
        assert coop[i + 1, i] == pytest.approx(1.0)
        assert coop[i, i] == plain[i, i] == pytest.approx(-8.0 - 2.0)

    def test_adjoint_is_exact_transpose(self):
        fam = diagonal_family("polynomial", 1, 2, beta=1.0,
                              theta=[[1.0, 0.5], [0.5, 1.0]],
                              gamma=[[2.0, 1.0], [1.0, 2.0]])
        g = GridSpec(1, 4.0, 0.125)
        A = assemble_generator(fam, g, "P")
        B = assemble_generator(fam, g, "P_adjoint")
        assert (A.T - B).nnz == 0 or np.max(np.abs((A.T - B).toarray())) == 0.0

    def test_nonelliptic_diffusion_rejected(self):
        g = GridSpec(1, 2.0, 0.5)
        spec = const_spec(q=-1.0)
        with pytest.raises(AssemblyError):
            assemble_generator(spec, g, "P")

    def test_nonfinite_potential_rejected(self):
        g = GridSpec(1, 2.0, 0.5)
        spec = const_spec(m=1, V=[[math.nan]])
        with pytest.raises(AssemblyError):
            assemble_generator(spec, g, "P")

    def test_dimension_mismatch(self):
        with pytest.raises(AssemblyError):
            assemble_generator(const_spec(d=1), GridSpec(2, 2.0, 0.5), "P")

    @staticmethod
    def _variable_diffusion_spec(d):
        """q(x) = 1 + |x|^2 on the diagonal, no drift, no potential."""
        base = const_spec(d=d)

        def Q(h, x):
            x = np.atleast_2d(np.asarray(x, dtype=float))
            return (1.0 + np.sum(x * x, axis=-1))[:, None, None] * np.eye(d)

        return OperatorSpec(dims=base.dims, Q=Q, b=base.b, V=base.V, R=base.R,
                            divb=base.divb)

    def test_2d_diffusion_is_exactly_symmetric_on_a_non_dyadic_grid(self):
        # both nodes of a face read one coefficient, evaluated at the face
        A = assemble_generator(self._variable_diffusion_spec(2), GridSpec(2, 1.0, 0.1), "P")
        assert (A != A.T).nnz == 0

    def test_1d_stencil_reads_q_at_the_shared_faces(self):
        g = GridSpec(1, 1.0, 0.1)
        h, n = g.spacing, g.n_nodes
        faces = -g.radius + (np.arange(n + 1) + 0.5) * h
        q = 1.0 + faces * faces
        expected = np.diag(-(q[:-1] + q[1:]) / h ** 2) \
            + np.diag(q[1:-1] / h ** 2, 1) + np.diag(q[1:-1] / h ** 2, -1)
        A = assemble_generator(self._variable_diffusion_spec(1), g, "P").toarray()
        assert np.array_equal(A, expected)


class TestConsistency2D:
    def evaluate_errors(self, spacing):
        fam = PolynomialFamily(
            SystemDims(2, 1),
            zeta=[[[1.0, 0.2], [0.2, 1.0]]],
            alpha=np.zeros((1, 2, 2)),
            eta=np.ones((1, 2)),
            beta=np.zeros((1, 2)),
            theta=[[1.0]],
            gamma=[[1.0]],
        )
        g = GridSpec(2, 3.0, spacing)
        A = assemble_generator(fam, g, "P")
        pts = g.points()
        u = np.exp(-np.sum(pts ** 2, axis=-1))
        Au = np.asarray(A @ u)
        spec = fam.operator_spec()
        errs = []
        for i in range(g.n_nodes):
            x = pts[i]
            if np.max(np.abs(x)) > 1.0:
                continue
            val = math.exp(-float(x @ x))
            grad = (-2.0 * x * val)[None, :]
            hess = ((-2.0 * np.eye(2) + 4.0 * np.outer(x, x)) * val)[None, :, :]
            jet = FieldJet(np.array([val]), grad, hess)
            exact = eval_operator(spec, "P", jet, 0, x)
            errs.append(abs(Au[i] - exact))
        return max(errs)

    def test_second_order_in_space(self):
        e_coarse = self.evaluate_errors(0.125)
        e_fine = self.evaluate_errors(0.0625)
        assert e_fine < 0.05
        assert e_coarse / e_fine > 3.0


class TestEvolve:
    def test_heat_kernel_column(self):
        g = GridSpec(1, 8.0, 1 / 32)
        handle = OperatorHandle(const_spec(), g, "P")
        t, w, y = 0.25, 1 / 16, 0.5
        col = kernel_column(handle, t, [y], 0, width=w)
        x = g.axis_coords()
        oracle = gaussian(x, y, 2 * t + w ** 2)
        l1 = g.spacing * np.sum(np.abs(col.values[:, 0] - oracle))
        assert l1 < 0.02
        assert col.meta["variant"] == "P" and col.meta["source"] == (0.5,)

    def test_constant_potential_matches_matrix_exponential(self):
        V = np.array([[2.0, 3.0], [-1.0, 4.0]])
        g = GridSpec(1, 8.0, 1 / 16)
        handle = OperatorHandle(const_spec(m=2, V=V), g, "plain")
        x = g.axis_coords()
        s0sq = 0.25
        c = np.array([1.0, 0.5])
        u0 = np.outer(gaussian(x, 0.0, s0sq), c)
        t = 0.25
        out, _ = handle.evolve(u0, t)
        exact = np.outer(gaussian(x, 0.0, s0sq + 2 * t), expm(-t * V) @ c)
        err = np.max(np.abs(out - exact)) / np.max(np.abs(exact))
        assert err < 5e-3

    def test_linear_statistic_of_ou_flow(self):
        # b = -x, q = 1: the mean map is exactly x e^{-t}
        fam = diagonal_family("polynomial", 1, 1, eta=1.0, beta=0.0,
                              theta=[[1e-30]], gamma=[[0.0]])
        g = GridSpec(1, 8.0, 1 / 16)
        handle = OperatorHandle(fam, g, "P")
        x = g.axis_coords()
        out, _ = handle.evolve(x[:, None], 0.5)
        inner = np.abs(x) <= 2.0
        assert np.max(np.abs(out[inner, 0] - x[inner] * math.exp(-0.5))) < 1e-3

    def test_strong_drift_implicit_positivity(self):
        g = GridSpec(1, 4.0, 0.25)
        handle = OperatorHandle(const_spec(b=-50.0), g, "P")
        u0 = np.maximum(0.0, 1.0 - np.abs(g.axis_coords() - 1.0))[:, None]
        out, _ = handle.evolve(u0, 0.1, dt=0.01, theta=1.0)
        assert out.min() >= -1e-12

    def test_step_accounting_with_trailing_partial_step(self):
        g = GridSpec(1, 2.0, 0.5)
        handle = OperatorHandle(const_spec(), g, "P")
        u0 = np.ones((g.n_nodes, 1))
        _, meta = handle.evolve(u0, 0.3, dt=0.25)
        assert meta["steps"] == 2
        assert meta["final_step"] == pytest.approx(0.05)
        _, meta = handle.evolve(u0, 0.5, dt=0.25)
        assert meta["steps"] == 2 and meta["final_step"] == pytest.approx(0.25)

    def test_budget_enforced(self):
        g = GridSpec(1, 4.0, 0.125)
        with pytest.raises(BudgetError):
            OperatorHandle(const_spec(), g, "P", budget=10)

    def test_matrix_is_assembled_on_first_use(self, monkeypatch):
        calls = []
        real = solver.assemble_generator
        monkeypatch.setattr(solver, "assemble_generator",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        g = GridSpec(1, 2.0, 0.5)
        handle = OperatorHandle(const_spec(), g, "P")
        assert calls == []
        u0 = np.ones((g.n_nodes, 1))
        handle.evolve(u0, 0.5, dt=0.25)
        handle.evolve(u0, 0.5, dt=0.125)
        assert len(calls) == 1

    def test_one_factorization_is_kept(self, monkeypatch):
        real_splu = sparse_linalg.splu
        factored = []
        monkeypatch.setattr(sparse_linalg, "splu",
                            lambda *a, **kw: factored.append(1) or real_splu(*a, **kw))
        g = GridSpec(1, 2.0, 0.25)
        handle = OperatorHandle(coupled_family(1), g, "P")
        u0 = np.random.default_rng(5).uniform(-1.0, 1.0, size=(g.n_nodes, 2))
        first, _ = handle.evolve(u0, 0.5, dt=0.05)
        handle.evolve(u0, 0.5, dt=0.1)
        assert len(factored) == 2 and handle._lu[0] == (0.5, 0.1)
        handle.evolve(u0, 0.3, dt=0.1)
        assert len(factored) == 2
        again, _ = handle.evolve(u0, 0.5, dt=0.05)
        assert len(factored) == 3 and handle._lu[0] == (0.5, 0.05)
        np.testing.assert_array_equal(again, first)

    def test_argument_validation(self):
        g = GridSpec(1, 2.0, 0.5)
        handle = OperatorHandle(const_spec(), g, "P")
        u0 = np.ones((g.n_nodes, 1))
        with pytest.raises(DomainError):
            handle.evolve(u0, -1.0)
        with pytest.raises(DomainError):
            handle.evolve(u0, 1.0, theta=1.5)
        with pytest.raises(DomainError):
            handle.evolve(np.ones((3, 1)), 1.0)


def coupled_family(d):
    return diagonal_family("polynomial", d, 2, beta=1.0,
                           theta=[[1.0, 0.5], [0.5, 1.0]],
                           gamma=[[2.0, 1.0], [1.0, 2.0]])


class _PerturbLastColumn:
    """SuperLU stand-in that adds delta to the last column of every solve."""

    def __init__(self, lu, delta):
        self._lu = lu
        self._delta = delta

    def solve(self, rhs):
        out = self._lu.solve(rhs)
        if out.ndim == 2:
            out[:, -1] += self._delta
        else:
            out += self._delta
        return out


class TestBatchedEvolve:
    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_batch_matches_column_by_column(self, theta):
        g = GridSpec(2, 1.5, 0.125)
        handle = OperatorHandle(coupled_family(2), g, "P")
        rng = np.random.default_rng(11)
        batch = rng.uniform(-1.0, 1.0, size=(g.n_nodes, 2, 5))
        # 7 full steps of 0.04 and a trailing partial step of 0.02
        out, meta = handle.evolve(batch, 0.3, dt=0.04, theta=theta)
        assert out.shape == batch.shape
        assert meta["steps"] == 8 and meta["final_step"] == pytest.approx(0.02)
        for j in range(batch.shape[2]):
            single, _ = handle.evolve(batch[:, :, j], 0.3, dt=0.04, theta=theta)
            err = np.max(np.abs(out[:, :, j] - single))
            assert err <= 1e-12 * np.max(np.abs(single))

    def test_kernel_columns_match_single_columns(self):
        g = GridSpec(1, 4.0, 0.125)
        handle = OperatorHandle(coupled_family(1), g, "P")
        sources = [([0.5], 1), ([-1.0], 0)]
        cols = kernel_columns(handle, 0.25, sources, dt=0.01)
        for (center, k), col in zip(sources, cols):
            one = kernel_column(handle, 0.25, center, k, dt=0.01)
            assert col.meta == one.meta
            np.testing.assert_allclose(col.values, one.values, rtol=0,
                                       atol=1e-12 * np.max(np.abs(one.values)))

    def test_small_column_is_held_to_its_own_tolerance(self, monkeypatch):
        real_splu = sparse_linalg.splu
        monkeypatch.setattr(
            sparse_linalg, "splu",
            lambda *a, **kw: _PerturbLastColumn(real_splu(*a, **kw), 1e-7))
        g = GridSpec(1, 2.0, 0.125)
        handle = OperatorHandle(coupled_family(1), g, "P")
        big = np.full((g.n_nodes, 2), 1e6)
        small = np.ones((g.n_nodes, 2))
        # the 1e-7 error sits far below 1e-10 of the big column's scale, so
        # only a per-column tolerance sees it in the small one
        with pytest.raises(SolveError, match="column 1"):
            handle.evolve(np.stack([big, small], axis=-1), 0.1, dt=0.05, theta=1.0)
        out, _ = handle.evolve(np.stack([small, big], axis=-1), 0.1, dt=0.05,
                               theta=1.0)
        assert np.all(np.isfinite(out))

    def test_fill_reducing_ordering_on_2d_grid(self, monkeypatch):
        real_splu = sparse_linalg.splu
        factored = []

        def spy(matrix, **kw):
            lu = real_splu(matrix, **kw)
            factored.append((matrix, lu))
            return lu

        monkeypatch.setattr(sparse_linalg, "splu", spy)
        g = GridSpec(2, 3.0, 0.125)
        handle = OperatorHandle(coupled_family(2), g, "P")
        handle.evolve(np.ones((g.n_nodes, 2)), 0.01, dt=0.01)
        ((matrix, lu),) = factored
        colamd = real_splu(matrix, permc_spec="COLAMD")
        assert lu.L.nnz + lu.U.nnz <= 0.6 * (colamd.L.nnz + colamd.U.nnz)

    def test_bad_batch_shape_rejected(self):
        g = GridSpec(1, 2.0, 0.5)
        handle = OperatorHandle(const_spec(), g, "P")
        with pytest.raises(DomainError):
            handle.evolve(np.ones((g.n_nodes, 2, 3)), 0.1)
        with pytest.raises(DomainError):
            handle.evolve(np.ones((g.n_nodes, 1, 2, 2)), 0.1)


class _NanInColumn:
    """SuperLU stand-in that writes NaN into one column of every solve, or
    into the whole vector of a single-column solve; it counts its calls."""

    def __init__(self, lu, column, calls):
        self._lu = lu
        self._column = column
        self._calls = calls

    def solve(self, rhs):
        self._calls.append(rhs.shape)
        out = self._lu.solve(rhs)
        if self._column is not None:
            out[..., self._column] = np.nan
        return out


class TestThetaSteps:
    @staticmethod
    def patch_solve(monkeypatch, column=None):
        real_splu = sparse_linalg.splu
        calls = []
        monkeypatch.setattr(sparse_linalg, "splu",
                            lambda *a, **kw: _NanInColumn(real_splu(*a, **kw), column, calls))
        return calls

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("theta", [1.0, 0.5])
    @pytest.mark.parametrize("columns", [1, 3])
    def test_evolve_has_the_bits_of_the_plain_theta_loop(self, d, theta, columns):
        g = GridSpec(d, 1.5, 0.125)
        handle = OperatorHandle(coupled_family(d), g, "P")
        shape = (g.n_nodes, 2) + ((columns,) if columns > 1 else ())
        u0 = np.random.default_rng(3).uniform(-1.0, 1.0, size=shape)
        t, dt = 0.3, 0.04
        out, meta = handle.evolve(u0, t, dt=dt, theta=theta)
        # 7 full steps and a trailing partial step
        assert meta["steps"] == 8
        expected = theta_steps(handle, u0, theta, [dt] * 7 + [t - 7 * dt])
        assert out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("theta", [1.0, 0.5])
    def test_one_solve_per_step_for_all_columns(self, monkeypatch, theta):
        calls = self.patch_solve(monkeypatch)
        g = GridSpec(1, 2.0, 0.125)
        handle = OperatorHandle(coupled_family(1), g, "P")
        _, meta = handle.evolve(np.ones((g.n_nodes, 2, 3)), 0.3, dt=0.04, theta=theta)
        assert meta["steps"] == 8 and meta["final_step"] == pytest.approx(0.02)
        assert calls == [(2 * g.n_nodes, 3)] * 8

    def test_nan_in_a_column_names_the_column(self, monkeypatch):
        self.patch_solve(monkeypatch, column=1)
        g = GridSpec(1, 2.0, 0.125)
        handle = OperatorHandle(coupled_family(1), g, "P")
        with pytest.raises(SolveError,
                           match="^step residual nan exceeds tolerance in column 1$"):
            handle.evolve(np.ones((g.n_nodes, 2, 3)), 0.1, dt=0.05, theta=1.0)

    def test_nan_in_a_single_evolve_names_no_column(self, monkeypatch):
        self.patch_solve(monkeypatch, column=slice(None))
        g = GridSpec(1, 2.0, 0.125)
        handle = OperatorHandle(coupled_family(1), g, "P")
        with pytest.raises(SolveError, match="^step residual nan exceeds tolerance$"):
            handle.evolve(np.ones((g.n_nodes, 2)), 0.1, dt=0.05, theta=1.0)


# The kernel store keys every field by SOLVER_VERSION.  A change that moves a
# bit of an evolved field must bump solver.SOLVER_VERSION, and the pin below,
# in the same diff, so fields stored before it are recomputed rather than read
# back; the theta-loop oracle above sees such a move on its grids.
def test_solver_version_is_pinned():
    assert solver.SOLVER_VERSION == 2


class TestDuality:
    def make_handles(self):
        fam = diagonal_family("polynomial", 1, 2, beta=1.0,
                              theta=[[1.0, 0.5], [0.5, 1.0]],
                              gamma=[[2.0, 1.0], [1.0, 2.0]])
        g = GridSpec(1, 4.0, 0.125)
        return (OperatorHandle(fam, g, "P"),
                OperatorHandle(fam, g, "P_adjoint"), g)

    def test_evolved_inner_products_agree(self):
        fwd, adj, g = self.make_handles()
        rng = np.random.default_rng(7)
        f = rng.uniform(0.0, 1.0, size=(g.n_nodes, 2))
        w = rng.uniform(0.0, 1.0, size=(g.n_nodes, 2))
        t = 0.4
        Ef, _ = fwd.evolve(f, t, dt=0.01)
        Ew, _ = adj.evolve(w, t, dt=0.01)
        lhs = discrete_inner(g, Ef, w)
        rhs = discrete_inner(g, f, Ew)
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_mollified_kernel_reciprocity(self):
        fwd, adj, g = self.make_handles()
        t = 0.3
        xi, yj = [0.5], [-1.0]
        for h, k in [(0, 0), (0, 1), (1, 0)]:
            col_f = kernel_column(fwd, t, yj, k, dt=0.01)
            col_a = kernel_column(adj, t, xi, h, dt=0.01)
            moll_x = mollified_source(g, 2, xi, h)
            moll_y = mollified_source(g, 2, yj, k)
            lhs = discrete_inner(g, moll_x, col_f.values)
            rhs = discrete_inner(g, moll_y, col_a.values)
            assert lhs == pytest.approx(rhs, rel=1e-9)


class TestEnsemble:
    def test_matrix_against_evolve(self):
        g = GridSpec(1, 2.0, 0.25)
        spec = const_spec(m=2, V=[[1.0, 0.5], [0.5, 1.0]])
        handle = OperatorHandle(spec, g, "P")
        t = 0.3
        K = kernel_matrix(handle, t, width=g.spacing, dt=0.01)
        x = g.axis_coords()
        f = np.stack([np.exp(-x ** 2), np.cos(x / 2)], axis=-1)
        quad = (K @ f.reshape(-1)) * g.spacing
        direct, _ = handle.evolve(f, t, dt=0.01)
        err = np.max(np.abs(quad.reshape(-1, 2) - direct))
        assert err < 0.05 * np.max(np.abs(direct))

    def test_column_cap(self):
        g = GridSpec(1, 8.0, 1 / 64)
        handle = OperatorHandle(const_spec(), g, "P")
        with pytest.raises(BudgetError):
            kernel_matrix(handle, 0.1, max_columns=16)

    def test_apply_kernel_to_function_wrapper(self):
        g = GridSpec(1, 2.0, 0.25)
        handle = OperatorHandle(const_spec(), g, "P")
        f = np.ones((g.n_nodes, 1))
        out = apply_kernel_to_function(handle, 0.2, f)
        direct, _ = handle.evolve(f, 0.2)
        assert np.allclose(out.values, direct)


class TestMollifier:
    def test_unit_discrete_mass(self):
        g = GridSpec(1, 4.0, 0.125)
        src = mollified_source(g, 2, [0.5], 1)
        assert discrete_mass(g, src)[1] == pytest.approx(1.0, abs=1e-12)
        assert discrete_mass(g, src)[0] == 0.0

    def test_off_grid_center_allowed(self):
        g = GridSpec(1, 4.0, 0.5)
        src = mollified_source(g, 1, [0.3], 0, width=0.5)
        assert discrete_mass(g, src)[0] == pytest.approx(1.0, abs=1e-12)

    def test_out_of_box_center_rejected(self):
        g = GridSpec(1, 4.0, 0.5)
        with pytest.raises(DomainError):
            mollified_source(g, 1, [4.5], 0)
        with pytest.raises(DomainError):
            mollified_source(g, 1, [0.0], 2)


class TestSerialization:
    def make_field(self):
        g = GridSpec(1, 2.0, 0.5)
        vals = np.arange(g.n_nodes * 2, dtype=float).reshape(-1, 2) / 3.0
        meta = {"variant": "P", "source": (0.5,), "source_component": 1,
                "mollifier_width": 0.25}
        return DiscreteField(g, vals, time=0.75, meta=meta)

    def test_binary_roundtrip(self):
        field = self.make_field()
        blob = field_to_bytes(field)
        back = field_from_bytes(blob)
        assert back.grid == field.grid
        assert back.time == field.time
        assert np.array_equal(back.values, field.values)
        assert back.meta == field.meta

    def test_bytes_deterministic(self):
        assert field_to_bytes(self.make_field()) == field_to_bytes(self.make_field())

    def test_file_roundtrip(self, tmp_path):
        field = self.make_field()
        p = tmp_path / "field.kbf"
        save_field(p, field)
        back = load_field(p)
        assert np.array_equal(back.values, field.values)

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        real_fdopen = os.fdopen

        class HalfWrite:
            def __init__(self, fh):
                self._fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._fh.close()
                return False

            def write(self, data):
                self._fh.write(data[: len(data) // 2])
                self._fh.flush()
                raise OSError("no space left on device")

        monkeypatch.setattr(os, "fdopen",
                            lambda fd, mode: HalfWrite(real_fdopen(fd, mode)))
        with pytest.raises(OSError, match="no space"):
            save_field(tmp_path / "field.kbf", self.make_field())
        assert list(tmp_path.iterdir()) == []

    def test_write_replaces_an_existing_file(self, tmp_path):
        p = tmp_path / "field.kbf"
        p.write_bytes(b"stale")
        save_field(p, self.make_field())
        assert p.read_bytes() == field_to_bytes(self.make_field())
        assert list(tmp_path.iterdir()) == [p]

    def test_missing_metadata_roundtrips_as_absent(self):
        g = GridSpec(2, 1.0, 0.5)
        field = DiscreteField(g, np.zeros((9, 1)))
        back = field_from_bytes(field_to_bytes(field))
        assert back.meta == {}

    def test_bad_magic_rejected(self):
        with pytest.raises(DomainError):
            field_from_bytes(b"nope" + b"\x00" * 64)

    def test_csv_layout(self):
        field = self.make_field()
        text = field_to_csv(field)
        lines = text.strip().splitlines()
        assert lines[0] == "x0,u0,u1"
        assert len(lines) == 1 + field.grid.n_nodes
        assert text == field_to_csv(field)

    @pytest.mark.parametrize("d", [1, 2])
    def test_csv_matches_per_row_formatting(self, d):
        g = GridSpec(d, 1.0, 0.25)
        special = [-0.0, 0.0, math.inf, -math.inf, math.nan, -math.nan,
                   5e-324, -2.2250738585072e-309, 1.7976931348623157e308,
                   0.1, -1.0 / 3.0, 1e16, 123456789.0]
        vals = np.resize(np.array(special), (g.n_nodes, 3))
        vals[:, 1] = vals[::-1, 0]
        field = DiscreteField(g, vals)
        pts = g.points()
        lines = [",".join([f"x{a}" for a in range(d)] + ["u0", "u1", "u2"])]
        for i in range(g.n_nodes):
            row = [f"{pts[i, a]:.17g}" for a in range(d)]
            row += [f"{vals[i, k]:.17g}" for k in range(3)]
            lines.append(",".join(row))
        assert field_to_csv(field) == "\n".join(lines) + "\n"


def test_adjoint_handle_transposes_its_forward_matrix(monkeypatch):
    fam = diagonal_family("polynomial", 2, 2, theta=[[1.0, 0.5], [0.5, 1.0]],
                          gamma=[[2.0, 1.0], [1.0, 2.0]])
    g = GridSpec(2, 1.0, 0.125)
    expected = assemble_generator(fam, g, "P_adjoint")
    calls = []
    original = solver.assemble_generator
    monkeypatch.setattr(solver, "assemble_generator",
                        lambda *args: calls.append(args[2]) or original(*args))
    forward = OperatorHandle(fam, g, "P")
    adjoint = OperatorHandle(fam, g, "P_adjoint", forward=forward)
    got = adjoint.matrix
    assert calls == ["P"] and (forward.assemblies, adjoint.assemblies) == (1, 0)
    assert np.array_equal(got.indptr, expected.indptr)
    assert np.array_equal(got.indices, expected.indices)
    assert got.data.tobytes() == expected.data.tobytes()
    with pytest.raises(DomainError):
        OperatorHandle(fam, g, "plain", forward=forward)


def test_handle_counts_its_work_and_releases_its_factorization():
    fam = diagonal_family("polynomial", 1, 1)
    handle = OperatorHandle(fam, GridSpec(1, 2.0, 0.25), "P")
    u = np.ones((handle.grid.n_nodes, 1))
    handle.evolve(u, 0.1, dt=0.05)
    handle.evolve(u, 0.2, dt=0.05)
    handle.evolve(u, 0.1, dt=0.02)
    assert (handle.assemblies, handle.factorizations, handle.evolutions) == (1, 2, 3)
    handle.release()
    handle.evolve(u, 0.1, dt=0.02)
    assert (handle.assemblies, handle.factorizations) == (1, 3)
