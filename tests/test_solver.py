import contextlib
import hashlib
import io
import math
import os
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.sparse import identity
from scipy.sparse import linalg as sparse_linalg
from scipy.sparse.csgraph import connected_components

from kernelbound.coefficients import SystemDims, diagonal_family
from kernelbound import cli, solver
from kernelbound.errors import AssemblyError, BudgetError, DomainError, SolveError
from kernelbound.solver import (
    GridSpec,
    OperatorHandle,
    assemble_generator,
    field_to_csv,
    mollified_source,
)
from kernelbound.verify import load_field, save_field

from oracles import (FieldJet, OperatorSpec, apply_kernel_to_function, discrete_inner,
                     discrete_mass, eval_operator, folded_theta_steps, kernel_column,
                     kernel_columns, kernel_matrix, theta_steps)


def const_spec(d=1, m=1, q=1.0, b=0.0, V=None):
    """Constant-coefficient system for exact stencil checks."""
    dims = SystemDims(d, m)
    Vm = np.zeros((m, m)) if V is None else np.asarray(V, dtype=float)

    def npts(x):
        return np.atleast_2d(np.asarray(x, dtype=float)).shape[0]

    return OperatorSpec(
        dims=dims,
        q=lambda h, x: np.full(npts(x), q),
        b=lambda h, x: np.full((npts(x), d), b),
        V=lambda x: np.tile(Vm, (npts(x), 1, 1)),
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
        varspec = OperatorSpec(dims=spec.dims, q=fam.q, b=spec.b, V=spec.V)
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

        def q(h, x):
            x = np.atleast_2d(np.asarray(x, dtype=float))
            return 1.0 + np.sum(x * x, axis=-1)

        return OperatorSpec(dims=base.dims, q=q, b=base.b, V=base.V)

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
        # variable diffusion q = 1 + |x|^2 and a drift that is not odd, so no
        # reflection maps the operator to itself
        def r(x):
            return 1.0 + np.sum(np.atleast_2d(np.asarray(x, dtype=float)) ** 2, axis=-1)

        spec = OperatorSpec(
            dims=SystemDims(2, 1), q=lambda h, x: r(x),
            b=lambda h, x: -(np.atleast_2d(np.asarray(x, dtype=float)) - np.array([0.25, -0.5])),
            V=lambda x: r(x)[:, None, None])
        g = GridSpec(2, 3.0, spacing)
        A = assemble_generator(spec, g, "P")
        pts = g.points()
        u = np.exp(-np.sum(pts ** 2, axis=-1))
        Au = np.asarray(A @ u)
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
        l1 = g.spacing * np.sum(np.abs(col[:, 0] - oracle))
        assert l1 < 0.02
        assert col.shape == (g.n_nodes, 1)

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
        assert handle.steps == 4

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
        assert len(factored) == 2 and handle._lu[0] == ((), 0.5, 0.1)
        handle.evolve(u0, 0.3, dt=0.1)
        assert len(factored) == 2
        again, _ = handle.evolve(u0, 0.5, dt=0.05)
        assert len(factored) == 3 and handle._lu[0] == ((), 0.5, 0.05)
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
            np.testing.assert_allclose(col, one, rtol=0, atol=1e-12 * np.max(np.abs(one)))

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

    @staticmethod
    def fill_share(matrix) -> float:
        """L+U fill of a matrix under the handle's ordering over its fill
        under COLAMD."""
        mmd, colamd = (sparse_linalg.splu(matrix.tocsc(), permc_spec=order)
                       for order in ("MMD_AT_PLUS_A", "COLAMD"))
        return (mmd.L.nnz + mmd.U.nnz) / (colamd.L.nnz + colamd.U.nnz)

    def factored(self, monkeypatch, grid: GridSpec, u0: np.ndarray) -> tuple:
        """The fold and the matrix of the one factorization of a step from u0
        on a 2-D grid."""
        real_splu = sparse_linalg.splu
        factored = []
        monkeypatch.setattr(sparse_linalg, "splu",
                            lambda matrix, **kw: factored.append(matrix)
                            or real_splu(matrix, **kw))
        handle = OperatorHandle(coupled_family(2), grid, "P")
        handle.evolve(u0, 0.01, dt=0.01)
        (matrix,), ((fold, _, _),) = factored, handle.factored
        return fold, matrix

    def test_fill_reducing_ordering_on_2d_grid(self):
        # the whole grid's I - dt/2 A: 0.52 of COLAMD's fill
        handle = OperatorHandle(coupled_family(2), GridSpec(2, 3.0, 0.125), "P")
        M1 = identity(handle.matrix.shape[0], format="csr") - 0.005 * handle.matrix
        assert self.fill_share(M1) <= 0.6

    def test_fill_reducing_ordering_on_the_folded_2d_grid(self, monkeypatch):
        # 1 + x0^2 is even along both axes but not its own transpose, so it
        # folds onto the quarter grid, where the saving is smaller: 0.62
        g = GridSpec(2, 3.0, 0.125)
        quarter = np.repeat(1.0 + g.points()[:, :1] ** 2, 2, axis=1)
        fold, matrix = self.factored(monkeypatch, g, quarter)
        assert fold == (0, 1) and self.fill_share(matrix) <= 0.65
        # ones fold onto the wedge at or below the quarter's diagonal, with
        # 0.66 of COLAMD's fill there and 0.36 of the quarter's L+U
        fold, wedge = self.factored(monkeypatch, g, np.ones((g.n_nodes, 2)))
        assert fold == (0, 1, solver.DIAGONAL) and self.fill_share(wedge) <= 0.67
        lu_nnz = [sum(x.nnz for x in (lu.L, lu.U)) for lu in (
            sparse_linalg.splu(mat.tocsc(), permc_spec="MMD_AT_PLUS_A") for mat in (wedge, matrix))]
        assert lu_nnz[0] <= 0.4 * lu_nnz[1]

    def test_fill_reducing_ordering_on_the_parity_blocks(self, monkeypatch):
        # uneven data factor the block-diagonal of the four parity blocks;
        # on poly2d's R = 4 grid that takes 0.571 of COLAMD's fill
        g = GridSpec(2, 4.0, 0.125)
        fold, matrix = self.factored(monkeypatch, g, np.random.default_rng(2).uniform(
            0.5, 1.0, size=(g.n_nodes, 2)))
        assert fold == () and matrix.shape[0] == 2 * g.n_nodes
        assert connected_components(matrix)[0] == 4
        assert self.fill_share(matrix) <= 0.58

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
        # spacing 0.1 gives no exact mirrors, so the evolution is one whole
        # block; TestParityBlocks holds the mirrored grids to this loop
        g = GridSpec(d, 1.5, 0.1)
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
        # ones are even, so they evolve on the half grid, center included
        assert calls == [(2 * (g.n_nodes // 2 + 1), 3)] * 8

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


# default_dt's budget, on the 1-D bench system: coupled_family(1) on radius
# 16 at spacing 1/16, the m kernel columns of source 0.5 and width 1/16.
# Errors are relative to the column's max.  The time error of a step is
# measured against dt = t / 1024 on the same grid; the space error is
# (4/3) |u_h - u_{h/2}| on the shared nodes at dt = t / 1024, the
# Richardson estimate of a second-order scheme.
BUDGET_GRID = GridSpec(1, 16.0, 1 / 16)
BUDGET_TIMES = (0.1, 0.25, 0.5)


def budget_columns(grid, t, dt):
    handle = OperatorHandle(coupled_family(1), grid, "P")
    return np.stack(kernel_columns(handle, t, [(0.5, 0), (0.5, 1)], 1 / 16, dt), axis=-1)


@pytest.fixture(scope="module")
def step_errors():
    """Per time: the space error, and the time error at the default step
    and at t / n for n in 16, 32 and 64."""
    fine = GridSpec(1, 16.0, 1 / 32)
    errors = {}
    for t in BUDGET_TIMES:
        ref = budget_columns(BUDGET_GRID, t, t / 1024)
        scale = float(np.abs(ref).max())
        halved = budget_columns(fine, t, t / 1024)[1::2]
        errors[t] = {"space": 4 / 3 * float(np.abs(ref - halved).max()) / scale}
        for n in (None, 16, 32, 64):
            dt = None if n is None else t / n
            errors[t][n] = float(np.abs(budget_columns(BUDGET_GRID, t, dt) - ref).max()) / scale
    return errors


class TestStepBudget:
    def test_default_step_is_the_one_rule(self):
        assert solver.default_dt(1.0, 1.0) == 1.0 / solver.STEPS
        assert solver.default_dt(1.0, 1e-3) == 1e-3

    @pytest.mark.parametrize("t", BUDGET_TIMES)
    def test_time_error_is_within_the_space_error(self, step_errors, t):
        assert step_errors[t][None] <= step_errors[t]["space"]

    @pytest.mark.parametrize("t", BUDGET_TIMES)
    def test_crank_nicolson_is_second_order_in_time(self, step_errors, t):
        assert math.log2(step_errors[t][32] / step_errors[t][64]) >= 1.8

    def test_a_step_twice_as_long_breaks_the_budget(self, step_errors):
        # negative control: the budget test can fail
        assert step_errors[0.5][16] > step_errors[0.5]["space"]


def signed_minima(d, radius, spacing, center, t, dt=None):
    """Each theta = 1/2 kernel column's min over its max, P and P_adjoint,
    for the m sources at center with width 1/16."""
    g = GridSpec(d, radius, spacing)
    forward = OperatorHandle(coupled_family(d), g, "P")
    adjoint = OperatorHandle(coupled_family(d), g, "P_adjoint", forward=forward)
    return [col.min() / col.max() for handle in (forward, adjoint)
            for col in kernel_columns(handle, t, [(center, 0), (center, 1)], 1 / 16, dt)]


@pytest.mark.parametrize("d, radius, spacing, center, t", [
    (1, 16.0, 1 / 16, 0.5, 0.1), (1, 16.0, 1 / 16, 0.5, 0.25),
    (1, 16.0, 1 / 16, 0.5, 0.5), (1, 16.0, 1 / 16, 0.5, 1.0),
    (2, 6.0, 1 / 8, (0.5, 0.0), 1.0)])
def test_default_step_keeps_crank_nicolson_columns_nonnegative(d, radius, spacing,
                                                              center, t):
    # theta = 1/2 keeps sign by measurement only: I + (dt/2) A has negative
    # diagonal entries on these grids.  Each column's min is held to the
    # domination tolerance, 1e-9 of its max, on the bench grids.
    assert min(signed_minima(d, radius, spacing, center, t)) >= -1e-9


def test_long_crank_nicolson_steps_turn_columns_negative():
    # negative control: at t / 8 (dt / h^2 = 16) every column dips to about
    # -0.25 of its max
    assert max(signed_minima(1, 16.0, 1 / 16, 0.5, 0.5, 0.5 / 8)) < -0.1


# The kernel store keys every field by SOLVER_VERSION.  A change that moves a
# bit of an evolved field must bump solver.SOLVER_VERSION, and the pin below,
# in the same diff, so fields stored before it are recomputed rather than read
# back; the theta-loop oracle above sees such a move in the steps, and the
# stencil pin below one in the assembled generator.
def test_solver_version_is_pinned():
    assert solver.SOLVER_VERSION == 6


def test_per_equation_diffusion_stencil_bits_are_pinned():
    # spacing 0.1 puts the faces off binary fractions, and zeta differs from
    # equation to equation; exponents 0 and 1 keep every coefficient exact,
    # so only the stencil's own arithmetic moves the digest
    fam = diagonal_family("polynomial", 2, 2, zeta_diag=[1.0, 0.8], alpha=1.0, eta=1.0,
                          beta=0.0, theta=[[1.0, 0.5], [0.5, 1.0]], gamma=np.ones((2, 2)))
    A = assemble_generator(fam, GridSpec(2, 2.0, 0.1), "P")
    digest = hashlib.sha1()
    for arr, dtype in ((A.indptr, "<i8"), (A.indices, "<i8"), (A.data, "<f8")):
        digest.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    assert A.nnz == 17940
    assert digest.hexdigest() == "c95c9f581c73c8c9ec19d5e2899b6fc20535cb06"


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
            # kernel_column's width, two cells
            moll_x = mollified_source(g, 2, xi, h, 2.0 * g.spacing)
            moll_y = mollified_source(g, 2, yj, k, 2.0 * g.spacing)
            lhs = discrete_inner(g, moll_x, col_f)
            rhs = discrete_inner(g, moll_y, col_a)
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
        assert np.allclose(out, direct)


class TestMollifier:
    def test_unit_discrete_mass(self):
        g = GridSpec(1, 4.0, 0.125)
        src = mollified_source(g, 2, [0.5], 1, 0.25)
        assert discrete_mass(g, src)[1] == pytest.approx(1.0, abs=1e-12)
        assert discrete_mass(g, src)[0] == 0.0

    def test_off_grid_center_allowed(self):
        g = GridSpec(1, 4.0, 0.5)
        src = mollified_source(g, 1, [0.3], 0, width=0.5)
        assert discrete_mass(g, src)[0] == pytest.approx(1.0, abs=1e-12)

    def test_out_of_box_center_rejected(self):
        g = GridSpec(1, 4.0, 0.5)
        with pytest.raises(DomainError):
            mollified_source(g, 1, [4.5], 0, 1.0)
        with pytest.raises(DomainError):
            mollified_source(g, 1, [0.0], 2, 1.0)


class TestSerialization:
    """The store's file format, and the CSV that solve writes."""

    # infinities, a negative zero and a subnormal, which must keep their bits
    SPECIAL = [math.inf, -math.inf, -0.0, 5e-324, 1.0 / 3.0]

    def make_field(self):
        g = GridSpec(1, 2.0, 0.5)
        vals = np.resize(np.array(self.SPECIAL), (g.n_nodes, 2))
        vals[:, 1] = np.arange(g.n_nodes) / 3.0
        return g, vals

    def test_binary_roundtrip(self, tmp_path):
        # the magic, the shape and the little-endian float64 payload, nothing else
        _, field = self.make_field()
        p = tmp_path / "field.kbf"
        save_field(p, field)
        assert p.read_bytes() == (b"KBS\x00" + (2).to_bytes(4, "little")
                                  + b"".join(n.to_bytes(8, "little") for n in field.shape)
                                  + field.astype("<f8").tobytes())
        assert load_field(p).tobytes() == field.tobytes()

    def test_bytes_deterministic(self, tmp_path):
        for name in ("a.kbf", "b.kbf"):
            save_field(tmp_path / name, self.make_field()[1])
        assert (tmp_path / "a.kbf").read_bytes() == (tmp_path / "b.kbf").read_bytes()

    def test_file_roundtrip(self, tmp_path):
        _, field = self.make_field()
        p = tmp_path / "field.kbf"
        save_field(p, field)
        back = load_field(p)
        assert back.shape == field.shape and back.tobytes() == field.tobytes()

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
            save_field(tmp_path / "field.kbf", self.make_field()[1])
        assert list(tmp_path.iterdir()) == []

    def test_write_replaces_an_existing_file(self, tmp_path):
        p, fresh = tmp_path / "field.kbf", tmp_path / "fresh.kbf"
        p.write_bytes(b"stale")
        save_field(p, self.make_field()[1])
        save_field(fresh, self.make_field()[1])
        assert p.read_bytes() == fresh.read_bytes()
        assert sorted(tmp_path.iterdir()) == [p, fresh]

    def test_record_numbers_roundtrip_on_one_axis(self, tmp_path):
        p = tmp_path / "record.kbf"
        save_field(p, tuple(self.SPECIAL))
        back = load_field(p)
        assert back.shape == (len(self.SPECIAL),)
        assert [v.hex() for v in back.tolist()] == [v.hex() for v in self.SPECIAL]

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "field.kbf"
        p.write_bytes(b"nope" + b"\x00" * 64)
        with pytest.raises(DomainError):
            load_field(p)

    def test_csv_layout(self):
        g, field = self.make_field()
        text = field_to_csv(g, field)
        lines = text.strip().splitlines()
        assert lines[0] == "x0,u0,u1"
        assert len(lines) == 1 + g.n_nodes
        assert text == field_to_csv(g, field)

    @pytest.mark.parametrize("d", [1, 2])
    def test_csv_matches_per_row_formatting(self, d):
        g = GridSpec(d, 1.0, 0.25)
        special = [-0.0, 0.0, math.inf, -math.inf, math.nan, -math.nan,
                   5e-324, -2.2250738585072e-309, 1.7976931348623157e308,
                   0.1, -1.0 / 3.0, 1e16, 123456789.0]
        vals = np.resize(np.array(special), (g.n_nodes, 3))
        vals[:, 1] = vals[::-1, 0]
        assert field_to_csv(g, vals) == per_row_csv(g, vals)


def per_row_csv(grid, vals):
    """field_to_csv's text, formatting every float of every row on its own."""
    pts = grid.points()
    lines = [",".join([f"x{a}" for a in range(grid.d)]
                      + [f"u{k}" for k in range(vals.shape[1])])]
    for i in range(grid.n_nodes):
        lines.append(",".join([f"{pts[i, a]:.17g}" for a in range(grid.d)]
                              + [f"{vals[i, k]:.17g}" for k in range(vals.shape[1])]))
    return "\n".join(lines) + "\n"


class TestCsvMirrorRows:
    """field_to_csv formats a value row shared bit for bit by mirror nodes
    once; every case must read as if each float were formatted alone."""

    grid = GridSpec(2, 1.0, 0.25)

    def uneven(self):
        n1 = self.grid.n_per_axis
        return np.random.default_rng(17).uniform(-1.0, 1.0, size=(n1, n1, 3))

    def check(self, v, grid=None):
        grid = self.grid if grid is None else grid
        vals = v.reshape(grid.n_nodes, -1)
        text = field_to_csv(grid, vals)
        assert text == per_row_csv(grid, vals)
        return text

    def test_even_along_axis_1(self):
        v = self.uneven()
        self.check(v + np.flip(v, axis=1))

    def test_even_along_both_axes(self):
        v = self.uneven()
        v = v + np.flip(v, axis=1)
        self.check(v + np.flip(v, axis=0))

    def test_even_along_neither_axis(self):
        self.check(self.uneven())

    def test_a_negative_zero_keeps_its_sign_at_its_own_node(self):
        v = self.uneven()
        v = v + np.flip(v, axis=1)
        v[1, 2, 0], v[1, 4, 0] = -0.0, 0.0
        # np.array_equal calls this even along axis 1; %.17g does not
        assert solver.even_axes(self.grid, v.reshape(self.grid.n_nodes, -1)) == (1,)
        lines = self.check(v).splitlines()
        n1 = self.grid.n_per_axis
        assert lines[1 + n1 + 2].split(",")[2] == "-0"
        assert lines[1 + n1 + 4].split(",")[2] == "0"

    def test_a_one_ulp_asymmetry(self):
        v = self.uneven()
        v = v + np.flip(v, axis=1)
        v[5, 0, 2] = np.nextafter(v[5, 0, 2], math.inf)
        assert v[5, 0, 2] != v[5, -1, 2]
        self.check(v)

    def test_a_mirror_pair_of_nans_with_equal_bits(self):
        v = self.uneven()
        v = v + np.flip(v, axis=1)
        v[2, 1, 1] = v[2, 5, 1] = -math.nan
        assert v[2, 1:2, 1].tobytes() == v[2, 5:6, 1].tobytes()
        assert "nan" in self.check(v)

    def test_a_1d_even_field(self):
        g = GridSpec(1, 2.0, 0.25)
        v = np.random.default_rng(19).uniform(-1.0, 1.0, size=(g.n_nodes, 2))
        self.check(v + v[::-1], g)


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
    assert (handle.assemblies, handle.factorizations) == (1, 2)
    handle.release()
    handle.evolve(u, 0.1, dt=0.02)
    assert (handle.assemblies, handle.factorizations) == (1, 3)


def even_data(grid: GridSpec, axes: tuple, odd: tuple = (), seed: int = 4) -> np.ndarray:
    """Random (n_nodes, 2, 2) values, mirror-even bit for bit along axes and
    odd along odd: u + its reflection has the same sums at a node and at
    its mirror, and u - its reflection the negated differences."""
    u = np.random.default_rng(seed).uniform(0.5, 1.0, size=(grid.n_per_axis,) * grid.d + (2, 2))
    for a in axes:
        u = u + np.flip(u, axis=a)
    for a in odd:
        u = u - np.flip(u, axis=a)
    return u.reshape(grid.n_nodes, 2, 2)


class TestParityBlocks:
    """Every start evolves on the block-diagonal of its parity blocks: even
    only along the axes where it is even, and in 2-D even and odd along
    every other axis the matrix commutes with."""

    T, DT = 0.1, 0.04  # two full steps and a trailing one of 0.02
    STEPS = [DT, DT, T - 2 * DT]

    @staticmethod
    def grid(d: int) -> GridSpec:
        # the 1-D grid is poly1d's
        return GridSpec(1, 16.0, 1 / 16) if d == 1 else GridSpec(2, 1.5, 0.125)

    @staticmethod
    def blocks(monkeypatch) -> list:
        """Patches splu to record the unknowns of each factored matrix's
        blocks, its connected components, largest first."""
        real_splu = sparse_linalg.splu
        sizes = []

        def spy(matrix, **kw):
            labels = connected_components(matrix)[1]
            sizes.append(sorted(np.bincount(labels), reverse=True))
            return real_splu(matrix, **kw)

        monkeypatch.setattr(sparse_linalg, "splu", spy)
        return sizes

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    @pytest.mark.parametrize("variant", ["P", "plain", "P_adjoint"])
    @pytest.mark.parametrize("d", [1, 2])
    def test_uneven_data_evolve_as_on_the_whole_grid(self, monkeypatch, d, variant, theta):
        g = self.grid(d)
        sizes = self.blocks(monkeypatch)
        handle = OperatorHandle(coupled_family(d), g, variant)
        u0 = np.random.default_rng(7).uniform(-1.0, 1.0, size=(g.n_nodes, 2, 3))
        out, _ = handle.evolve(u0, self.T, dt=self.DT, theta=theta)
        assert handle.factored == [((), theta, self.DT), ((), theta, self.T - 2 * self.DT)]
        # in 2-D an even and an odd block per axis, the odd ones without the
        # center; a 1-D operator is banded, so it keeps its one whole block
        half = g.n_per_axis // 2
        blocks = [2 * math.prod(n) for n in product((half + 1, half), repeat=d)]
        assert sizes[0] == (blocks if d > 1 else [2 * g.n_nodes])
        whole = theta_steps(handle, u0, theta, self.STEPS)
        assert np.abs(out - whole).max() <= 1e-13 * np.abs(whole).max()

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    @pytest.mark.parametrize("variant", ["P", "plain", "P_adjoint"])
    def test_data_even_along_one_axis_and_odd_along_the_other(self, variant, theta):
        g = self.grid(2)
        handle = OperatorHandle(coupled_family(2), g, variant)
        u0 = even_data(g, (0,), odd=(1,))
        out, _ = handle.evolve(u0, self.T, dt=self.DT, theta=theta)
        # folded along the first axis, split along the second
        assert [fold for fold, _, _ in handle.factored] == [(0,), (0,)]
        whole = theta_steps(handle, u0, theta, self.STEPS)
        assert np.abs(out - whole).max() <= 1e-13 * np.abs(whole).max()
        nodes = out.reshape((g.n_per_axis,) * 2 + (-1,))
        assert np.array_equal(nodes, np.flip(nodes, axis=0))
        assert np.array_equal(nodes, -np.flip(nodes, axis=1))

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    @pytest.mark.parametrize("variant", ["P", "plain", "P_adjoint"])
    @pytest.mark.parametrize("d", [1, 2])
    def test_an_even_start_keeps_the_bits_of_the_fold(self, d, variant, theta):
        # even along every mirror axis: one block, S A E, as before parity
        # blocks, and the whole-grid loop to roundoff
        g = self.grid(d)
        axes = tuple(range(d))
        handle = OperatorHandle(coupled_family(d), g, variant)
        u0 = even_data(g, axes)
        out, _ = handle.evolve(u0, self.T, dt=self.DT, theta=theta)
        assert [fold for fold, _, _ in handle.factored] == [axes, axes]
        folded = folded_theta_steps(handle, u0, theta, self.STEPS, axes)
        assert out.tobytes() == folded.tobytes()
        whole = theta_steps(handle, u0, theta, self.STEPS)
        assert np.abs(out - whole).max() <= 1e-13 * np.abs(whole).max()

    def test_one_ulp_off_even_takes_the_whole_grid(self, monkeypatch):
        g = GridSpec(2, 1.5, 0.125)
        u0 = even_data(g, (0, 1))
        u0[3, 1, 0] = np.nextafter(u0[3, 1, 0], np.inf)
        sizes = self.blocks(monkeypatch)
        handle = OperatorHandle(coupled_family(2), g, "P")
        out, _ = handle.evolve(u0, self.T, dt=self.DT, theta=1.0)
        assert solver.even_axes(g, u0) == ()
        # the fold of no axis: all four parity blocks, the whole grid's unknowns
        assert [fold for fold, _, _ in handle.factored] == [(), ()]
        assert [len(s) for s in sizes] == [4, 4] and sum(sizes[0]) == 2 * g.n_nodes
        whole = theta_steps(handle, u0, 1.0, self.STEPS)
        assert np.abs(out - whole).max() <= 1e-13 * np.abs(whole).max()

    @staticmethod
    def ones_and_uneven(grid: GridSpec) -> list:
        return [np.ones((grid.n_nodes, 1)),
                np.random.default_rng(8).uniform(0.5, 1.0, size=(grid.n_nodes, 1))]

    @pytest.mark.parametrize("d", [1, 2])
    def test_a_grid_of_inexact_mirrors_takes_one_whole_block(self, monkeypatch, d):
        # -2 + 0.1 k is not the negative of -2 + 0.1 (40 - k) for every k.
        # Constant coefficients give a matrix that commutes with the index
        # reflection all the same, so only the grid's coordinates refuse
        g = GridSpec(d, 2.0, 0.1)
        assert not g.mirrored
        sizes = self.blocks(monkeypatch)
        handle = OperatorHandle(const_spec(d), g, "P")
        for u0 in self.ones_and_uneven(g):
            handle.evolve(u0, self.T, dt=self.DT)
        assert handle.mirror_axes() == ()
        assert [fold for fold, _, _ in handle.factored] == [()] * 4
        assert sizes == [[g.n_nodes]] * 4

    @pytest.mark.parametrize("d", [1, 2])
    def test_a_drift_that_is_not_odd_takes_one_whole_block(self, monkeypatch, d):
        base = const_spec(d)
        spec = OperatorSpec(dims=base.dims, q=base.q, V=base.V,
                            b=lambda h, x: -(np.atleast_2d(np.asarray(x, dtype=float)) - 0.25))
        g = GridSpec(d, 2.0, 0.125)
        sizes = self.blocks(monkeypatch)
        handle = OperatorHandle(spec, g, "P")
        for u0 in self.ones_and_uneven(g):
            handle.evolve(u0, self.T, dt=self.DT)
        assert g.mirrored and handle.mirror_axes() == ()
        assert [fold for fold, _, _ in handle.factored] == [()] * 4
        assert sizes == [[g.n_nodes]] * 4
        # on the odd drift -x, ones fold and, in 2-D, uneven data split; the
        # 2-D operator commutes with the swap of the axes too, so there ones
        # fold onto the wedge at or below the quarter's diagonal
        odd = OperatorSpec(dims=base.dims, q=base.q, V=base.V,
                           b=lambda h, x: -np.atleast_2d(np.asarray(x, dtype=float)))
        handle = OperatorHandle(odd, g, "P")
        for u0 in self.ones_and_uneven(g):
            handle.evolve(u0, self.T, dt=self.DT)
        axes = (0,) if d == 1 else (0, 1, solver.DIAGONAL)
        assert [fold for fold, _, _ in handle.factored] == [axes, axes, (), ()]
        half = g.n_per_axis // 2
        assert sizes[4] == [half + 1 if d == 1 else (half + 1) * (half + 2) // 2]
        assert sizes[6] == ([g.n_nodes] if d == 1 else
                            [math.prod(n) for n in product((half + 1, half), repeat=d)])


class TestWedge:
    """A start that every symmetry of the square leaves unchanged evolves on
    the wedge 0 <= a1 <= a0 of offsets from the center, when the operator
    commutes bit for bit with the swap of the axes as well as with both
    reflections."""

    GRID = GridSpec(2, 4.0, 0.125)  # poly2d's R = 4 grid
    WEDGE = (0, 1, solver.DIAGONAL)
    T, DT = 0.1, 0.04
    STEPS = [DT, DT, T - 2 * DT]

    @staticmethod
    def gathers(monkeypatch) -> list:
        """Patches the solver's gather to record each call's blocks."""
        calls, real = [], solver._gather
        monkeypatch.setattr(solver, "_gather", lambda A, blocks: calls.append(blocks)
                            or real(A, blocks))
        return calls

    def start(self, name: str) -> np.ndarray:
        pts = self.GRID.points()
        r2 = np.sum(pts ** 2, axis=-1)
        if name == "sources":  # the two point sources at the origin, as verify builds them
            return np.stack([mollified_source(self.GRID, 2, (0.0, 0.0), h, 0.25)
                             for h in range(2)], axis=-1)
        if name == "radial":
            return np.stack([1.0 / (1.0 + r2), np.exp(-r2 / 4)], axis=-1)
        # even along both axes, but not its own transpose
        return np.stack([pts[:, 0] ** 2 * np.exp(-r2 / 2)] * 2, axis=-1)

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    @pytest.mark.parametrize("variant", ["P", "P_adjoint"])
    @pytest.mark.parametrize("name", ["sources", "radial"])
    def test_a_start_every_symmetry_keeps_evolves_on_the_wedge(self, monkeypatch, name,
                                                                variant, theta):
        g, u0 = self.GRID, self.start(name)
        sizes = TestParityBlocks.blocks(monkeypatch)
        handle = OperatorHandle(coupled_family(2), g, variant)
        out, _ = handle.evolve(u0, self.T, dt=self.DT, theta=theta)
        assert solver.symmetries(g, u0) == self.WEDGE
        assert [fold for fold, _, _ in handle.factored] == [self.WEDGE] * 2
        # 528 of the quarter's 1,024 nodes, two unknowns each
        assert sizes == [[1056]] * 2
        nodes = out.reshape((g.n_per_axis,) * 2 + (-1,))
        for image in (nodes.transpose(1, 0, 2), np.flip(nodes, 0), np.flip(nodes, 1)):
            assert image.tobytes() == nodes.tobytes()
        quarter = folded_theta_steps(handle, u0, theta, self.STEPS, (0, 1))
        assert np.abs(out - quarter).max() <= 1e-13 * np.abs(quarter).max()

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_an_even_start_the_swap_moves_keeps_the_quarter_and_its_bits(self, monkeypatch,
                                                                         theta):
        g, u0 = self.GRID, self.start("x0^2 gaussian")
        calls = self.gathers(monkeypatch)
        handle = OperatorHandle(coupled_family(2), g, "P")
        out, _ = handle.evolve(u0, self.T, dt=self.DT, theta=theta)
        assert solver.symmetries(g, u0) == (0, 1)
        assert [fold for fold, _, _ in handle.factored] == [(0, 1)] * 2
        assert out.tobytes() == folded_theta_steps(handle, u0, theta, self.STEPS,
                                                   (0, 1)).tobytes()
        # the two reflection tests and the quarter's S A E, and no swap test
        assert len(calls) == 3

    def test_an_operator_the_swap_moves_never_takes_the_wedge(self, monkeypatch):
        # q = 1 + x0^2 commutes with both reflections, not with the swap
        g, base = GridSpec(2, 2.0, 0.125), const_spec(2)
        spec = OperatorSpec(dims=base.dims, b=base.b, V=base.V,
                            q=lambda h, x: 1.0 + np.atleast_2d(x)[:, 0] ** 2)
        sizes = TestParityBlocks.blocks(monkeypatch)
        handle = OperatorHandle(spec, g, "P")
        handle.evolve(np.ones((g.n_nodes, 1)), self.T, dt=self.DT)
        assert handle.mirror_axes() == (0, 1) and not handle.commutes(solver.DIAGONAL)
        assert [fold for fold, _, _ in handle.factored] == [(0, 1)] * 2
        assert sizes == [[(g.n_per_axis // 2 + 1) ** 2]] * 2

    def test_an_adjoint_handle_takes_the_swap_test_of_its_forward_handle(self, monkeypatch):
        g, u0 = self.GRID, self.start("radial")
        forward = OperatorHandle(coupled_family(2), g, "P")
        forward.evolve(u0, self.T, dt=self.DT)
        calls = self.gathers(monkeypatch)
        adjoint = OperatorHandle(coupled_family(2), g, "P_adjoint", forward=forward)
        adjoint.evolve(u0, self.T, dt=self.DT)
        assert [fold for fold, _, _ in adjoint.factored] == [self.WEDGE] * 2
        # the wedge's S A E alone: no reflection test and no swap test
        assert len(calls) == 1

    def test_solve_on_poly2d_runs_no_swap_test(self, tmp_path, monkeypatch):
        # its sources sit at (0.5, 0), so no start is even along both axes
        asked, real = [], OperatorHandle.commutes
        monkeypatch.setattr(OperatorHandle, "commutes",
                            lambda handle, symmetry: asked.append(symmetry)
                            or real(handle, symmetry))
        config = Path(__file__).resolve().parents[1] / "bench" / "configs" / "poly2d.cfg"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["solve", "--config", str(config), "--out", str(tmp_path)]) == 0
        assert asked and solver.DIAGONAL not in asked
