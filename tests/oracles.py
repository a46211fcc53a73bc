"""Reference implementations that only the tests compare against.

eval_operator applies the system operator pointwise to a smooth field given
by its jet, an independent route to the values the assembled generators and
the Lyapunov certificates compute.  kernel_matrix evolves the whole kernel
ensemble of a small validation grid, and apply_kernel_to_function applies
the semigroup to sampled initial data.  kernel_columns and kernel_column
evolve mollified point sources on a handle directly, outside verify's plan
and store.  theta_steps is the plain theta loop on the whole grid, whose
bits OperatorHandle.evolve reproduces where it takes one whole block and
which its parity blocks match to roundoff; folded_theta_steps is the same
loop on the fold S A E, whose bits a start even along every mirror axis
keeps.  discrete_inner and discrete_mass
are the h^d-weighted sums the duality and mollifier tests compare.
heat_weight_image is the closed-form heat image of a time-dependent weight.
OperatorSpec holds a system as bare coefficient callables, which the solver
takes and the evaluations in r alone refuse; only tests build one.
FieldSpec holds the general form's coefficient callables, a diffusion
tensor per equation with its derivatives, which eval_operator and the box
reference read; reference_spec gives the FieldSpec of any system, an
OperatorSpec's scalar q as q I with R and div b by central differences.
tensor_spec is the general form with per-entry tensors (zeta and alpha
d x d per equation, eta and beta one per axis), and tensors_of spells a
family's per-equation values so.
certificate_sup, ledger_window_sups and box_row_sum_bound evaluate the
certificates, the ledger and the row sums on d-dimensional points of the
whole sample box, one time at a time: the reference that the package's
evaluation in r alone must match.  evolve_all runs requests as a plan of their own, and run_alone
runs one check so: its requests through verify.run_plan, then its measure,
the path the verify command takes for all checks at once.  watch_record_keys and record_files tell a store's records from
its fields, which a file's name does not.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from kernelbound.bounds import LEDGER_ITEMS
from kernelbound.coefficients import VARIANTS, SystemDims, _FamilyBase, _radial, eval_VP
from kernelbound.errors import (BudgetError, CertificateError, DimensionMismatchError,
                                DomainError, NonFiniteError)
from kernelbound.hypotheses import LEDGER_TIMES, _log_norm_from_entries
from kernelbound.lyapunov import (_LOG_MAX, SAMPLE_RADIUS, RadialPoints, SpaceTimeWeight,
                                  TimeLyapunovSpec, _grid_points, _signed_log_sum)
from kernelbound import verify
from kernelbound.solver import GridSpec, OperatorHandle, mollified_source


@dataclass(frozen=True)
class OperatorSpec:
    """Coefficient callables of one coupled system, as the solver reads them.

    Each callable is vectorized over a leading batch of points: for x of
    shape (n, d), q(h, x) returns the scalar diffusion of equation h, (n,),
    b(h, x) returns (n, d) and V(x) returns (n, m, m).
    """

    dims: SystemDims
    q: Callable[[int, np.ndarray], np.ndarray]
    b: Callable[[int, np.ndarray], np.ndarray]
    V: Callable[[np.ndarray], np.ndarray]


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


def eval_operator(system, variant: str, jet: FieldJet, h: int, x: np.ndarray) -> float:
    """Pointwise action of the system operator on a smooth vector field,
    read from reference_spec(system).

    variant selects between the original potential ("plain"), its
    cooperative modification ("P"), and the formal adjoint of the latter
    ("P_adjoint"), which flips the drift sign, subtracts div(b^h) u_h, and
    transposes the potential.  The divergence-form diffusion is expanded as
    tr(Q D^2 u_h) + <g, grad u_h> with g_j = sum_i D_i q_ij.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    spec = reference_spec(system)
    m, d = spec.dims.m, spec.dims.d
    if not (0 <= h < m):
        raise DimensionMismatchError(f"component index {h} outside 0..{m - 1}")
    x = np.asarray(x, dtype=float)
    at = x[None]  # the callables read a batch of points
    if jet.values.shape != (m,) or jet.gradients.shape != (m, d) or jet.hessians.shape != (m, d, d):
        raise DimensionMismatchError(
            f"jet shapes {jet.values.shape}/{jet.gradients.shape}/{jet.hessians.shape} "
            f"do not match dims (m={m}, d={d})")

    Q = np.asarray(spec.Q(h, at), dtype=float).reshape(d, d)
    R = np.asarray(spec.R(h, at), dtype=float).reshape(d, d)
    g = R.sum(axis=0)  # g_j = sum_i D_i q_ij
    grad = jet.gradients[h]
    diffusion = float(np.tensordot(Q, jet.hessians[h]) + g @ grad)

    bvec = np.asarray(spec.b(h, at), dtype=float).reshape(d)
    Vmat = np.asarray(spec.V(at), dtype=float).reshape(m, m)
    if variant == "plain":
        value = diffusion + bvec @ grad - Vmat[h] @ jet.values
    elif variant == "P":
        value = diffusion + bvec @ grad - eval_VP(Vmat)[h] @ jet.values
    else:
        db = float(np.asarray(spec.divb(h, at), dtype=float).reshape(()))
        value = diffusion - bvec @ grad - db * jet.values[h] - eval_VP(Vmat)[:, h] @ jet.values
    value = float(value)
    if not np.isfinite(value):
        raise NonFiniteError(f"operator value not finite at x={x!r}, component {h}")
    return value


def _fd_jacobian_of_Q(Q: Callable[[int, np.ndarray], np.ndarray], d: int):
    """R^h by central differences of Q."""

    def R(h: int, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        n = x.shape[0]
        out = np.zeros((n, d, d))
        for p in range(n):
            xp = x[p]
            step = (np.finfo(float).eps ** (1 / 3)) * (1.0 + float(np.linalg.norm(xp)))
            for i in range(d):
                ei = np.zeros(d)
                ei[i] = step
                dQ = (np.asarray(Q(h, (xp + ei)[None]), dtype=float)
                      - np.asarray(Q(h, (xp - ei)[None]), dtype=float)) / (2 * step)
                out[p, i, :] = dQ.reshape(d, d)[i, :]
        return out

    return R


def _fd_div_of_b(b: Callable[[int, np.ndarray], np.ndarray], d: int):
    def divb(h: int, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.zeros(x.shape[0])
        for p in range(x.shape[0]):
            xp = x[p]
            step = (np.finfo(float).eps ** (1 / 3)) * (1.0 + float(np.linalg.norm(xp)))
            acc = 0.0
            for i in range(d):
                ei = np.zeros(d)
                ei[i] = step
                acc += (np.asarray(b(h, (xp + ei)[None]), dtype=float).reshape(d)[i]
                        - np.asarray(b(h, (xp - ei)[None]), dtype=float).reshape(d)[i]) / (2 * step)
            out[p] = acc
        return out

    return divb


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient callables of the general form, vectorized over a leading
    batch of points: for x of shape (n, d), Q(h, x) returns (n, d, d), b(h, x)
    (n, d), V(x) (n, m, m), R(h, x) the diffusion derivatives
    (R^h)_ij = D_i q^h_ij, (n, d, d), and divb(h, x) (n,)."""

    dims: SystemDims
    Q: Callable[[int, np.ndarray], np.ndarray]
    b: Callable[[int, np.ndarray], np.ndarray]
    V: Callable[[np.ndarray], np.ndarray]
    R: Callable[[int, np.ndarray], np.ndarray]
    divb: Callable[[int, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Tensors:
    """Per-entry coefficients of the general form: zeta and alpha of shape
    (m, d, d), eta and beta (m, d), theta and gamma (m, m)."""

    zeta: np.ndarray
    alpha: np.ndarray
    eta: np.ndarray
    beta: np.ndarray
    theta: np.ndarray
    gamma: np.ndarray


def tensors_of(fam) -> Tensors:
    """A family's per-equation values spelt entry by entry: zeta_k I, alpha_k
    on every entry, eta_k and beta_k on every axis."""
    d = fam.dims.d
    return Tensors(zeta=fam.zeta[:, None, None] * np.eye(d),
                   alpha=fam.alpha[:, None, None] * np.ones((d, d)),
                   eta=fam.eta[:, None] * np.ones(d), beta=fam.beta[:, None] * np.ones(d),
                   theta=fam.theta, gamma=fam.gamma)


def _divb_factors(law, beta: np.ndarray, pts: np.ndarray, r: np.ndarray) -> np.ndarray:
    """1 + 2 x_i^2 (d/dr log g)(r, beta_i), the factor of D_i b_i, shape (n, d)."""
    return 1.0 + law._chain(2.0 * beta * pts * pts, r[:, None], beta)


@dataclass(frozen=True)
class TensorSpec(FieldSpec):
    """A FieldSpec that keeps its growth law (a family class) and its
    Tensors, so the box reference can take the log-magnitudes of its
    entries, as it does for a family."""

    law: type
    tensors: Tensors

    def log_V(self, h: int, k: int, r: np.ndarray) -> np.ndarray:
        """log |v_hk| at r = 1 + |x|^2."""
        t = self.tensors
        return np.log(np.abs(t.theta[h, k])) + self.law._log_grow(r, t.gamma[h, k])

    def log_V_row(self, h: int, r: np.ndarray) -> np.ndarray:
        """log of the Euclidean norm of row h of V."""
        rows = np.full((self.dims.m, len(r)), -np.inf)
        for k in range(self.dims.m):
            if self.tensors.theta[h, k] != 0.0:
                rows[k] = self.log_V(h, k, r)
        return _log_norm_from_entries(rows, axis=0)


def tensor_spec(law, dims: SystemDims, t: Tensors) -> TensorSpec:
    """The coefficient callables of the general form, entry by entry, with the
    growth law g of the family class law:

        q^k_ij = zeta^k_ij g(r, alpha^k_ij),   b^k_i = -eta^k_i x_i g(r, beta^k_i),
        v_hk = theta_hk g(r, gamma_hk),

    R^k_ij = D_i q^k_ij and div b^k = sum_i D_i b^k_i by the chain rule."""

    def at(x, field):
        return field(*_radial(x, dims.d))

    def R(k, x):
        def field(pts, r):
            r3, a = r[:, None, None], t.alpha[k]
            return law._chain(2.0 * t.zeta[k] * a * law._grow(r3, a), r3, a) * pts[:, :, None]
        return at(x, field)

    def divb(k, x):
        return at(x, lambda pts, r: (-t.eta[k] * law._grow(r[:, None], t.beta[k])
                                     * _divb_factors(law, t.beta[k], pts, r)).sum(axis=-1))

    return TensorSpec(
        dims=dims,
        Q=lambda k, x: at(x, lambda pts, r: t.zeta[k] * law._grow(r[:, None, None], t.alpha[k])),
        b=lambda k, x: at(x, lambda pts, r: -t.eta[k] * pts * law._grow(r[:, None], t.beta[k])),
        V=lambda x: at(x, lambda pts, r: t.theta * law._grow(r[:, None, None], t.gamma)),
        R=R, divb=divb, law=law, tensors=t)


def reference_spec(system) -> FieldSpec:
    """The coefficient callables the reference reads: a family's
    tensor_spec, an OperatorSpec's scalar q times the identity with R and
    div b differenced, a FieldSpec itself."""
    if isinstance(system, _FamilyBase):
        return tensor_spec(type(system), system.dims, tensors_of(system))
    if isinstance(system, OperatorSpec):
        d = system.dims.d

        def Q(h, x):
            return np.multiply.outer(system.q(h, x), np.eye(d))

        return FieldSpec(system.dims, Q, system.b, system.V, _fd_jacobian_of_Q(Q, d),
                         _fd_div_of_b(system.b, d))
    return system


def kernel_matrix(handle: OperatorHandle, t: float, width: Optional[float] = None,
                  dt: Optional[float] = None, theta: float = 0.5,
                  max_columns: int = 8192) -> np.ndarray:
    """Full kernel ensemble K[i*m+h, j*m+k] ~ p_hk(t, x_i, y_j).

    All columns evolve as one batch; intended for small validation grids,
    hence the column cap.  An unset width is two cells.
    """
    n, m = handle.grid.n_nodes, handle.m
    if n * m > max_columns:
        raise BudgetError(f"ensemble kernel needs {n * m} columns, cap is {max_columns}")
    pts = handle.grid.points()
    w = 2.0 * handle.grid.spacing if width is None else float(width)
    srcs = np.stack([mollified_source(handle.grid, m, pts[j], k, w)
                     for j in range(n) for k in range(m)], axis=-1)
    vals, _ = handle.evolve(srcs, t, dt=dt, theta=theta)
    return vals.reshape(n * m, n * m)


def kernel_columns(handle: OperatorHandle, t: float, sources,
                   width: Optional[float] = None, dt: Optional[float] = None,
                   theta: float = 0.5) -> list:
    """Kernel columns for several (center, component) sources, one batched evolve.

    Each column, an (n_nodes, m) array, holds all components at time t
    sourced at (center, component); the result lists them in the order of
    sources.
    """
    g = handle.grid
    w = 2.0 * g.spacing if width is None else float(width)
    srcs = np.stack([mollified_source(g, handle.m, center, k, w)
                     for center, k in sources], axis=-1)
    vals, _ = handle.evolve(srcs, t, dt=dt, theta=theta)
    return [np.ascontiguousarray(vals[:, :, j]) for j in range(len(sources))]


def kernel_column(handle: OperatorHandle, t: float, center, component: int,
                  width: Optional[float] = None, dt: Optional[float] = None,
                  theta: float = 0.5) -> np.ndarray:
    """Column of the kernel: all components at time t sourced at (center, component)."""
    return kernel_columns(handle, t, [(center, component)], width, dt, theta)[0]


def apply_kernel_to_function(handle: OperatorHandle, t: float, values: np.ndarray,
                             dt: Optional[float] = None, theta: float = 0.5) -> np.ndarray:
    """Semigroup applied to sampled initial data (the kernel-quadrature limit)."""
    return handle.evolve(values, t, dt=dt, theta=theta)[0]


def theta_steps(handle: OperatorHandle, values: np.ndarray, theta: float,
                steps: Sequence[float]) -> np.ndarray:
    """The values after theta steps of the given sizes: per step a
    multi-vector product with I + (1 - theta) dt A and one SuperLU solve with
    I - theta dt A, factored as the handle factors it, with no checks."""
    u = np.asarray(values, dtype=float)
    return _theta_loop(handle.matrix, u.reshape((-1,) + u.shape[2:]), theta,
                       steps).reshape(np.shape(values))


def folded_theta_steps(handle: OperatorHandle, values: np.ndarray, theta: float,
                       steps: Sequence[float], axes: tuple) -> np.ndarray:
    """theta_steps on the fold S A E along axes, the path of values even
    along those axes: S keeps the nodes at or past the center index along
    each axis, E copies each kept node to its mirror images, S A E is one
    gather of A's kept rows with its columns moved through E and summed,
    and the result is copied back through E."""
    from scipy import sparse

    g, m = handle.grid, handle.m
    center, whole = g.n_per_axis // 2, np.arange(g.n_per_axis)
    keep = image = np.zeros(1, dtype=np.intp)
    for a in range(g.d):
        kept = whole[center:] if a in axes else whole
        keep = (keep[:, None] * g.n_per_axis + kept).ravel()
        image = (image[:, None] * len(kept)
                 + (np.abs(whole - center) if a in axes else whole)).ravel()
    keep, image = ((nodes[:, None] * m + np.arange(m)).ravel() for nodes in (keep, image))
    rows = handle.matrix[keep]
    folded = sparse.csr_matrix((rows.data, image[rows.indices], rows.indptr),
                               shape=(len(keep),) * 2)
    folded.sum_duplicates()
    u = np.asarray(values, dtype=float)
    u = u.reshape((-1,) + u.shape[2:])[keep]
    return _theta_loop(folded, u, theta, steps)[image].reshape(np.shape(values))


def _theta_loop(A, u: np.ndarray, theta: float, steps: Sequence[float]) -> np.ndarray:
    from scipy import sparse
    from scipy.sparse import linalg as sparse_linalg

    eye = sparse.identity(A.shape[0], format="csr")
    for dt in steps:
        lu = sparse_linalg.splu((eye - theta * dt * A).tocsc(), permc_spec="MMD_AT_PLUS_A")
        u = lu.solve(u if theta == 1.0 else (eye + (1.0 - theta) * dt * A).tocsr() @ u)
    return u


def discrete_inner(grid: GridSpec, a: np.ndarray, b: np.ndarray) -> float:
    """h^d-weighted inner product summed over nodes and components."""
    return float(grid.spacing ** grid.d * np.sum(np.asarray(a) * np.asarray(b)))


def discrete_mass(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """h^d-weighted integral of each component, shape (m,)."""
    return grid.spacing ** grid.d * np.asarray(values).sum(axis=0)


def heat_weight_image(eps: float, t: float, x) -> np.ndarray:
    """Heat semigroup applied to exp(eps t (1 + y^2)) in one dimension.

    Closed form (1 - 4 a t)^(-1/2) exp(eps t + a x^2 / (1 - 4 a t)) with
    a = eps t, finite exactly while 4 eps t^2 < 1.
    """
    a = eps * t
    denom = 1.0 - 4.0 * a * t
    if denom <= 0.0:
        raise DomainError(f"need 4 eps t^2 < 1, got eps={eps}, t={t}")
    x = np.asarray(x, dtype=float)
    return np.exp(eps * t + a * x * x / denom) / math.sqrt(denom)


# ---------------------------------------------------------------------------
# the box reference of the certificates, the ledger and the row sums
# ---------------------------------------------------------------------------
#
# The package evaluates every certificate, ledger and row-sum ratio of a
# radial family in r = 1 + |x|^2 alone, on the distinct radii of its sample
# box.  The functions below take them the way they were taken before that:
# on d-dimensional points, from the (n, d, d) fields of reference_spec, which
# spells a family's per-equation values entry by entry (a family's ledger and
# row sums from the log-magnitudes of those entries), with the weight's
# gradient and Hessian, one time at a time.  pts defaults
# to the whole sample box of the given radius.


def box(d: int, radius: float) -> np.ndarray:
    """The whole sample box."""
    return _grid_points(d, radius)


def grad_log(w: SpaceTimeWeight, t: float, x: np.ndarray, d: int) -> np.ndarray:
    """grad log w at one time on points x of shape (n, d)."""
    at = RadialPoints(x, d)
    return 2.0 * w.eps * t ** w.sigma * at.shape(1, w.form, w.rho)[:, None] * at.pts


def hess_log(w: SpaceTimeWeight, t: float, x: np.ndarray, d: int) -> np.ndarray:
    """D^2 log w at one time on points x of shape (n, d)."""
    at = RadialPoints(x, d)
    c = w.eps * t ** w.sigma
    dS, d2S = at.shape(1, w.form, w.rho), at.shape(2, w.form, w.rho)
    return 2.0 * c * dS[:, None, None] * np.eye(d) \
        + 4.0 * c * d2S[:, None, None] * at.pts[:, :, None] * at.pts[:, None, :]


def box_row_sums(system, pts: np.ndarray, adjoint: bool, with_divb: bool = False) -> np.ndarray:
    """Row sums of the cooperative potential on points, shape (m, n), summed
    in log space: a family's or a TensorSpec's from log|v_hl| and the
    per-axis log|D_i b_i|, any other spec's from its V and div b."""
    spec = reference_spec(system)
    m, n = spec.dims.m, len(pts)
    tensor = isinstance(spec, TensorSpec)
    r = 1.0 + np.sum(pts * pts, axis=-1)
    V = None if tensor else np.asarray(spec.V(pts), dtype=float)
    out = np.empty((m, n))
    with np.errstate(over="ignore", divide="ignore"):
        for k in range(m):
            logs, signs = [], []
            for l in [k] + [l for l in range(m) if l != k]:
                h, c = (l, k) if adjoint else (k, l)
                if not tensor:
                    logs.append(np.log(np.abs(V[:, h, c])))
                    signs.append(np.sign(V[:, h, c]) if l == k else np.full(n, -1.0))
                elif spec.tensors.theta[h, c] != 0.0:
                    logs.append(spec.log_V(h, c, r))
                    signs.append(np.full(n, 1.0 if l == k else -1.0))
            if with_divb and not tensor:
                db = np.asarray(spec.divb(k, pts), dtype=float)
                logs.append(np.log(np.abs(db)))
                signs.append(np.sign(db))
            elif with_divb:
                eta, beta = spec.tensors.eta[k], spec.tensors.beta[k]
                terms = (np.log(eta)[None, :] + spec.law._log_grow(r[:, None], beta)
                         + np.log(_divb_factors(spec.law, beta, pts, r))).T
                logs.extend(terms)
                signs.extend(np.full(terms.shape, -1.0))
            mag, sign = _signed_log_sum(np.array(logs), np.array(signs), axis=0)
            vals = sign * np.exp(np.minimum(mag, _LOG_MAX))
            vals[mag > _LOG_MAX] = np.inf * sign[mag > _LOG_MAX]
            out[k] = vals
    return out


def box_row_sum_bound(system, adjoint: bool, radius: float,
                      pts: Optional[np.ndarray] = None) -> tuple:
    """The infimum M of the worst row sum on the points and the tail verdict,
    probed along each signed axis (and the in-plane diagonals in d >= 2) at
    radius * {1, 1.25, 1.5, 2}."""
    d = system.dims.d
    pts = box(d, radius) if pts is None else pts
    M = float(np.min(box_row_sums(system, pts, adjoint, with_divb=adjoint)))
    dirs = [sign * e for e in np.eye(d) for sign in (1.0, -1.0)]
    if d >= 2:
        dirs += [np.r_[si, sj, np.zeros(d - 2)] / math.sqrt(2.0)
                 for si in (1.0, -1.0) for sj in (1.0, -1.0)]
    certified = True
    for v in dirs:
        ray = np.stack([rr * v for rr in radius * np.array([1.0, 1.25, 1.5, 2.0])])
        vals = box_row_sums(system, ray, adjoint, with_divb=adjoint).min(axis=0)
        for lo, hi in zip(vals[:-1], vals[1:]):
            tol = 1e-12 * max(1.0, abs(lo)) if math.isfinite(lo) else 0.0
            certified &= bool(hi >= lo - tol)
    return M, certified


def box_generator_ratio(system, lyap, t: Optional[float], pts: np.ndarray) -> np.ndarray:
    """(D_t +) generator applied to the (time-)Lyapunov function lyap, over
    its value, at one time (none for a static function), shape (m, n):
    tr(Q_k (grad S grad S^T + D^2 S)) + <g_k + s b_k, grad S> - (V^P row
    sums)_k, with s = -1, less div b_k, for the adjoint."""
    spec = reference_spec(system)
    d, m = spec.dims.d, spec.dims.m
    timed = isinstance(lyap, TimeLyapunovSpec)
    base = lyap.base if timed else lyap
    adjoint = base.target == "P_adjoint"
    w = lyap.weight()
    tt = float(t) if timed else 1.0
    grad, hess = grad_log(w, tt, pts, d), hess_log(w, tt, pts, d)
    vp = box_row_sums(system, pts, adjoint)
    out = np.empty((m, len(pts)))
    with np.errstate(over="ignore", invalid="ignore"):
        curv = grad[:, :, None] * grad[:, None, :] + hess
        for k in range(m):
            Q = np.asarray(spec.Q(k, pts), dtype=float)
            drift = np.asarray(spec.R(k, pts), dtype=float).sum(axis=-2)
            bvec = np.asarray(spec.b(k, pts), dtype=float)
            drift = drift + (-bvec if adjoint else bvec)
            val = np.einsum("nij,nij->n", Q, curv) + np.einsum("nj,nj->n", drift, grad) - vp[k]
            if adjoint:
                val = val - np.asarray(spec.divb(k, pts), dtype=float)
            if timed:
                val = val + w.dt_log(tt, RadialPoints(pts, d))
            out[k] = val
    if np.any(np.isnan(out)) or np.any(np.isposinf(out)):
        raise CertificateError("generator ratio produced NaN/+inf on the certificate grid")
    return out


def certificate_sup(system, lyap, radius: float, pts: Optional[np.ndarray] = None) -> float:
    """The certificate's grid sup on the points: of the generator ratio for
    a static function, and for a timed one of the g-free residual over the
    11-time ladder T 2^-j, one time at a time."""
    pts = box(system.dims.d, radius) if pts is None else pts
    if not isinstance(lyap, TimeLyapunovSpec):
        return float(np.max(box_generator_ratio(system, lyap, None, pts)))
    p = lyap.sigma * (lyap.delta - 1.0) / lyap.delta
    return max(float(np.max(box_generator_ratio(system, lyap, t, pts)
                            - lyap.eps_T * lyap.delta * t ** p))
               for t in [lyap.T * 2.0 ** (-j) for j in range(0, 11)])


def box_ledger_fields(system, pts: np.ndarray, adjoint: bool) -> list:
    """Per component k, log|entries| and signs of Q_k and R_k on the points,
    and the log-norms of items 5-8 before their weight factors: a family's
    or a TensorSpec's from the log-magnitudes of its entries, any other
    spec's from its fields."""
    spec = reference_spec(system)
    n = len(pts)
    r = 1.0 + np.sum(pts * pts, axis=-1)
    tensor = isinstance(spec, TensorSpec)
    V = None if tensor else np.asarray(spec.V(pts), dtype=float)
    logx = np.log(np.maximum(np.abs(pts), 1e-300))
    fields = []
    for k in range(spec.dims.m):
        with np.errstate(divide="ignore"):
            if tensor:
                t, law = spec.tensors, spec.law
                r3, a = r[:, None, None], t.alpha[k]
                grow = law._log_grow(r3, a)
                logQ = np.log(np.abs(t.zeta[k]))[None, :, :] + grow
                signQ = np.broadcast_to(np.sign(t.zeta[k]), logQ.shape)
                # R_ij = 2 zeta_ij x_i g'(r, alpha_ij)
                logR = np.log(np.abs(t.zeta[k]) * (2.0 * a))[None, :, :] + grow \
                    + np.log(law._chain(1.0, r3, a)) + logx[:, :, None]
                signR = np.sign(t.zeta[k])[None, :, :] * np.sign(pts)[:, :, None]
                logb = np.log(t.eta[k])[None, :] + logx + law._log_grow(r[:, None], t.beta[k])
                logVrow = spec.log_V_row(k, r)
            else:
                Q = np.asarray(spec.Q(k, pts), dtype=float)
                R = np.asarray(spec.R(k, pts), dtype=float)
                logQ, signQ = np.log(np.maximum(np.abs(Q), 1e-300)), np.sign(Q)
                logR, signR = np.log(np.maximum(np.abs(R), 1e-300)), np.sign(R)
                logb = np.log(np.maximum(np.abs(np.asarray(spec.b(k, pts), dtype=float)), 1e-300))
                logVrow = _log_norm_from_entries(
                    np.log(np.maximum(np.abs(V[:, k, :]), 1e-300)).T, axis=0)
        pot = logVrow
        if adjoint:
            db = np.asarray(spec.divb(k, pts), dtype=float)
            pot = np.logaddexp(logVrow, np.log(np.maximum(np.abs(db), 1e-300)))
        fields.append((logQ, signQ, logR, signR, pot,
                       _log_norm_from_entries(logb.T, axis=0),
                       _log_norm_from_entries(logQ.reshape(n, -1).T, axis=0),
                       _log_norm_from_entries(logR.reshape(n, -1).T, axis=0)))
    return fields


def ledger_window_sups(system, w: SpaceTimeWeight, nu1: SpaceTimeWeight,
                       nu2: SpaceTimeWeight, s: float, window: tuple,
                       adjoint: bool = False, pts: Optional[np.ndarray] = None) -> tuple:
    """The eight ledger sups and their edge flags over LEDGER_TIMES equally
    spaced times of [a0, b0], of the window (a0, a, b, b0), x the points
    (the box of radius SAMPLE_RADIUS by default), one time at a time;
    raises NonFiniteError at the first time, item and point whose ratio is
    not finite."""
    d = system.dims.d
    pts = box(d, SAMPLE_RADIUS) if pts is None else pts
    n = len(pts)
    sups = np.zeros(8)
    arg_edge = [False] * 8
    edge = np.max(np.abs(pts), axis=-1) >= 0.95 * SAMPLE_RADIUS
    fields = box_ledger_fields(system, pts, adjoint)
    at = RadialPoints(pts, d)
    for t in np.linspace(window[0], window[3], LEDGER_TIMES):
        gw = grad_log(w, t, pts, d)
        curv = gw[:, :, None] * gw[:, None, :] + hess_log(w, t, pts, d)
        Sw = w.log_value(t, at)
        d1 = (Sw - nu1.log_value(t, at)) / s
        d2 = (Sw - nu2.log_value(t, at)) / s
        log_ratios = np.full((8, n), -np.inf)
        log_ratios[0] = 2.0 * d1
        log_ratios[3] = np.log(np.maximum(np.abs(w.dt_log(t, at)), 1e-300)) + 2.0 * d1
        log_gw, sign_gw = np.log(np.maximum(np.abs(gw), 1e-300)), np.sign(gw)
        log_curv, sign_curv = np.log(np.maximum(np.abs(curv), 1e-300)), np.sign(curv)
        for logQ, signQ, logR, signR, pot, norm_b, norm_Q, norm_R in fields:
            # item 2: |Q grad w| e^(d1); item 3: |div(Q grad w)|/w e^(2 d1)
            comp_log, _ = _signed_log_sum(logQ + log_gw[:, None, :],
                                          signQ * sign_gw[:, None, :], axis=2)
            log_ratios[1] = np.maximum(log_ratios[1],
                                       _log_norm_from_entries(comp_log.T, axis=0) + d1)
            terms = np.concatenate([(logQ + log_curv).reshape(n, -1),
                                    (logR + log_gw[:, None, :]).reshape(n, -1)], axis=1)
            signs = np.concatenate([(signQ * sign_curv).reshape(n, -1),
                                    (signR * sign_gw[:, None, :]).reshape(n, -1)], axis=1)
            div_log, _ = _signed_log_sum(terms.T, signs.T, axis=0)
            log_ratios[2] = np.maximum(log_ratios[2], div_log + 2.0 * d1)
            log_ratios[4] = np.maximum(log_ratios[4], pot + 2.0 * d2)
            log_ratios[5] = np.maximum(log_ratios[5], norm_b + d2)
            log_ratios[6] = np.maximum(log_ratios[6], norm_Q + d1)
            log_ratios[7] = np.maximum(log_ratios[7], norm_R + 2.0 * d1)
        with np.errstate(over="ignore"):
            ratios = np.exp(log_ratios)
        if not np.all(np.isfinite(ratios)):
            item, pt = (int(v) for v in np.argwhere(~np.isfinite(ratios))[0])
            raise NonFiniteError(
                f"ledger item '{LEDGER_ITEMS[item]}' non-finite at t={t:.6g}, "
                f"x={pts[pt]!r}")
        for i in range(8):
            if ratios[i].max() > sups[i]:
                sups[i] = ratios[i].max()
                arg_edge[i] = bool(edge[ratios[i].argmax()])
    return list(sups), arg_edge


def watch_record_keys(monkeypatch) -> list:
    """The record keys verify makes from now on, in the order it makes them."""
    keys = []
    make = verify._record_key

    def caught(*args):
        keys.append(make(*args))
        return keys[-1]

    monkeypatch.setattr(verify, "_record_key", caught)
    return keys


def record_files(folder, keys) -> set:
    """The names of the files of the record keys in a store folder."""
    return {os.path.basename(verify.KernelStore(folder)._path(key)) for key in keys}


def evolve_all(system, requests: Sequence[verify.Evolution],
               store: Optional[verify.KernelStore] = None) -> list:
    """Outputs of the requests in their order, through verify.run_plan on
    store, a fresh KernelStore in memory when none is given."""
    store = verify.KernelStore() if store is None else store
    return verify.run_plan(system, requests, store)[0]


def run_alone(check, store: Optional[verify.KernelStore] = None) -> verify.CheckResult:
    """A check declaration run alone: its requests planned on store, a fresh
    KernelStore in memory when none is given, then measured there."""
    store = verify.KernelStore() if store is None else store
    return check.measure(evolve_all(check.system, check.requests, store), store)
