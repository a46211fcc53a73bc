"""Reference implementations that only the tests compare against.

eval_operator applies the system operator pointwise to a smooth field given
by its jet, an independent route to the values the assembled generators and
the Lyapunov certificates compute.  kernel_matrix evolves the whole kernel
ensemble of a small validation grid, and apply_kernel_to_function applies
the semigroup to sampled initial data.  theta_steps is the plain theta loop
whose bits OperatorHandle.evolve must reproduce, and discrete_inner and
discrete_mass are the h^d-weighted sums the duality and mollifier tests
compare.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from kernelbound.coefficients import VARIANTS, OperatorSpec, eval_VP
from kernelbound.errors import (BudgetError, DimensionMismatchError,
                                NonFiniteError)
from kernelbound.solver import DiscreteField, GridSpec, OperatorHandle, mollified_source


@dataclass(frozen=True)
class FieldJet:
    """Values, gradients and Hessians of an m-vector field at one point."""

    values: np.ndarray     # (m,)
    gradients: np.ndarray  # (m, d)
    hessians: np.ndarray   # (m, d, d)

    @classmethod
    def from_callables(cls, funcs: Sequence[Callable[[np.ndarray], float]],
                       x: np.ndarray, step: float | None = None) -> "FieldJet":
        """Build a jet by central finite differences of scalar callables.

        Used by tests as an independent route to operator values; step
        defaults to cbrt(eps) * (1 + |x|).
        """
        x = np.asarray(x, dtype=float)
        d = x.size
        h = step if step is not None else (np.finfo(float).eps ** (1 / 3)) * (1.0 + float(np.linalg.norm(x)))
        m = len(funcs)
        vals = np.array([f(x) for f in funcs], dtype=float)
        grads = np.zeros((m, d))
        hesses = np.zeros((m, d, d))
        for a, f in enumerate(funcs):
            for i in range(d):
                ei = np.zeros(d)
                ei[i] = h
                fp, fm = f(x + ei), f(x - ei)
                grads[a, i] = (fp - fm) / (2 * h)
                hesses[a, i, i] = (fp - 2 * vals[a] + fm) / h ** 2
            for i in range(d):
                for j in range(i + 1, d):
                    ei = np.zeros(d); ei[i] = h
                    ej = np.zeros(d); ej[j] = h
                    val = (f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)) / (4 * h ** 2)
                    hesses[a, i, j] = hesses[a, j, i] = val
        return cls(vals, grads, hesses)


def eval_operator(spec: OperatorSpec, variant: str, jet: FieldJet, h: int, x: np.ndarray) -> float:
    """Pointwise action of the system operator on a smooth vector field.

    variant selects between the original potential ("plain"), its
    cooperative modification ("P"), and the formal adjoint of the latter
    ("P_adjoint"), which flips the drift sign, subtracts div(b^h) u_h, and
    transposes the potential.  The divergence-form diffusion is expanded as
    tr(Q D^2 u_h) + <g, grad u_h> with g_j = sum_i D_i q_ij.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    m, d = spec.dims.m, spec.dims.d
    if not (0 <= h < m):
        raise DimensionMismatchError(f"component index {h} outside 0..{m - 1}")
    x = np.asarray(x, dtype=float)
    if jet.values.shape != (m,) or jet.gradients.shape != (m, d) or jet.hessians.shape != (m, d, d):
        raise DimensionMismatchError(
            f"jet shapes {jet.values.shape}/{jet.gradients.shape}/{jet.hessians.shape} "
            f"do not match dims (m={m}, d={d})")

    Q = np.asarray(spec.Q(h, x), dtype=float).reshape(d, d)
    R = np.asarray(spec.R(h, x), dtype=float).reshape(d, d)
    g = R.sum(axis=0)  # g_j = sum_i D_i q_ij
    grad = jet.gradients[h]
    diffusion = float(np.tensordot(Q, jet.hessians[h]) + g @ grad)

    bvec = np.asarray(spec.b(h, x), dtype=float).reshape(d)
    Vmat = np.asarray(spec.V(x), dtype=float).reshape(m, m)
    if variant == "plain":
        value = diffusion + bvec @ grad - Vmat[h] @ jet.values
    elif variant == "P":
        value = diffusion + bvec @ grad - eval_VP(Vmat)[h] @ jet.values
    else:
        db = float(np.asarray(spec.divb(h, x), dtype=float).reshape(()))
        value = diffusion - bvec @ grad - db * jet.values[h] - eval_VP(Vmat)[:, h] @ jet.values
    value = float(value)
    if not np.isfinite(value):
        raise NonFiniteError(f"operator value not finite at x={x!r}, component {h}")
    return value


def kernel_matrix(handle: OperatorHandle, t: float, width: Optional[float] = None,
                  dt: Optional[float] = None, theta: float = 0.5,
                  max_columns: int = 8192) -> np.ndarray:
    """Full kernel ensemble K[i*m+h, j*m+k] ~ p_hk(t, x_i, y_j).

    All columns evolve as one batch; intended for small validation grids,
    hence the column cap.
    """
    n, m = handle.grid.n_nodes, handle.m
    if n * m > max_columns:
        raise BudgetError(f"ensemble kernel needs {n * m} columns, cap is {max_columns}")
    pts = handle.grid.points()
    srcs = np.stack([mollified_source(handle.grid, m, pts[j], k, width)
                     for j in range(n) for k in range(m)], axis=-1)
    vals, _ = handle.evolve(srcs, t, dt=dt, theta=theta)
    return vals.reshape(n * m, n * m)


def apply_kernel_to_function(handle: OperatorHandle, t: float, values: np.ndarray,
                             dt: Optional[float] = None, theta: float = 0.5) -> DiscreteField:
    """Semigroup applied to sampled initial data (the kernel-quadrature limit)."""
    vals, meta = handle.evolve(values, t, dt=dt, theta=theta)
    return DiscreteField(handle.grid, vals, time=t, meta=meta)


def theta_steps(handle: OperatorHandle, values: np.ndarray, theta: float,
                steps: Sequence[float]) -> np.ndarray:
    """The values after theta steps of the given sizes: per step a
    multi-vector product with I + (1 - theta) dt A and one SuperLU solve with
    I - theta dt A, factored as the handle factors it, with no checks."""
    from scipy import sparse
    from scipy.sparse import linalg as sparse_linalg

    A = handle.matrix
    eye = sparse.identity(A.shape[0], format="csr")
    u = np.asarray(values, dtype=float)
    u = u.reshape((A.shape[0],) + u.shape[2:])
    for dt in steps:
        lu = sparse_linalg.splu((eye - theta * dt * A).tocsc(), permc_spec="MMD_AT_PLUS_A")
        u = lu.solve(u if theta == 1.0 else (eye + (1.0 - theta) * dt * A).tocsr() @ u)
    return u.reshape(np.shape(values))


def discrete_inner(grid: GridSpec, a: np.ndarray, b: np.ndarray) -> float:
    """h^d-weighted inner product summed over nodes and components."""
    return float(grid.spacing ** grid.d * np.sum(np.asarray(a) * np.asarray(b)))


def discrete_mass(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """h^d-weighted integral of each component, shape (m,)."""
    return grid.spacing ** grid.d * np.asarray(values).sum(axis=0)
