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
operator_spec_from_callables wraps bare coefficient callables into an
OperatorSpec, differencing Q and b where no derivatives are given.
certificate_ladder_sups and ledger_window_sups evaluate the timed
certificate's ladder and the ledger's window one time at a time, the loops
whose bits the blocked passes of verify_certificate and estimate_ledger must
reproduce.  evolve_all runs requests as a plan of their own, and run_alone
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
from kernelbound.coefficients import VARIANTS, OperatorSpec, SystemDims, eval_VP
from kernelbound.errors import (BudgetError, DimensionMismatchError, DomainError,
                                NonFiniteError)
from kernelbound.hypotheses import SamplePlan, _log_norm_from_entries, ledger_fields
from kernelbound.lyapunov import (RadialPoints, SpaceTimeWeight, TimeLyapunovSpec,
                                  _generator_ratio, _grid_points, _signed_log_sum,
                                  grid_fields)
from kernelbound import verify
from kernelbound.solver import GridSpec, OperatorHandle, mollified_source


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


def _fd_jacobian_of_Q(Q: Callable[[int, np.ndarray], np.ndarray], d: int):
    """Finite-difference fallback for R^h when no analytic derivative is given."""

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
                dQ = (np.asarray(Q(h, xp + ei), dtype=float) - np.asarray(Q(h, xp - ei), dtype=float)) / (2 * step)
                out[p, i, :] = dQ[i, :] if dQ.ndim == 2 else dQ.reshape(d, d)[i, :]
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
                acc += (np.asarray(b(h, xp + ei), dtype=float)[i] - np.asarray(b(h, xp - ei), dtype=float)[i]) / (2 * step)
            out[p] = acc
        return out

    return divb


def operator_spec_from_callables(dims: SystemDims, Q, b, V, R=None, divb=None) -> OperatorSpec:
    """Wrap plain callables into an OperatorSpec.

    Missing derivative data (R, divb) is filled with central finite
    differences; families provide analytic versions.
    """
    return OperatorSpec(
        dims=dims,
        Q=Q,
        b=b,
        V=V,
        R=R if R is not None else _fd_jacobian_of_Q(Q, dims.d),
        divb=divb if divb is not None else _fd_div_of_b(b, dims.d),
    )


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


def certificate_ladder_sups(system, timed: TimeLyapunovSpec, radius: float,
                            per_axis: Optional[int] = None) -> list:
    """Per time of the 11-time ladder T 2^-j, taken one time at a time, the
    timed certificate's sup of the g-free residual on the grid of one radius;
    the certificate's grid sup is the first largest of them."""
    pts = _grid_points(system.dims.d, radius, per_axis)
    fields = grid_fields(system, pts, adjoint=timed.base.target == "P_adjoint")
    p = timed.sigma * (timed.delta - 1.0) / timed.delta
    sups = []
    for t in [timed.T * 2.0 ** (-j) for j in range(0, 11)]:
        ratio = _generator_ratio(system, timed.base, timed, t, pts, fields)
        resid = ratio - timed.eps_T * timed.delta * t ** p
        sups.append(float(np.max(resid)))
    return sups


def ledger_window_sups(system, w: SpaceTimeWeight, nu1: SpaceTimeWeight,
                       nu2: SpaceTimeWeight, s: float, window: tuple, plan: SamplePlan,
                       adjoint: bool = False) -> tuple:
    """The eight ledger sups and their edge flags over plan.times(*window)
    x the whole box of the plan, one time at a time; raises NonFiniteError
    at the first time, item and point whose ratio is not finite."""
    d = system.dims.d
    pts = _grid_points(d, plan.radius, plan.per_axis)
    at = RadialPoints(pts, d)
    n = len(pts)
    sups = np.zeros(8)
    arg_edge = [False] * 8
    edge = np.max(np.abs(pts), axis=-1) >= 0.95 * plan.radius
    fields = ledger_fields(system, at, adjoint)
    for t in plan.times(*window):
        Sw = w.log_value(t, at, d)
        S1 = nu1.log_value(t, at, d)
        S2 = nu2.log_value(t, at, d)
        gw = w.grad_log(t, at, d)
        hw = w.hess_log(t, at, d)
        dtw = w.dt_log(t, at, d)
        curv = gw[:, :, None] * gw[:, None, :] + hw
        d1 = (Sw - S1) / s
        d2 = (Sw - S2) / s
        log_ratios = np.full((8, n), -np.inf)
        log_ratios[0] = 2.0 * d1
        log_ratios[3] = np.log(np.maximum(np.abs(dtw), 1e-300)) + 2.0 * d1
        log_gw = np.log(np.maximum(np.abs(gw), 1e-300))
        sign_gw = np.sign(gw)
        log_curv = np.log(np.maximum(np.abs(curv), 1e-300))
        sign_curv = np.sign(curv)
        for logQ, signQ, logR, signR, pot, norm_b, norm_Q, norm_R in fields:
            comp_log, _ = _signed_log_sum(logQ + log_gw[:, None, :],
                                          signQ * sign_gw[:, None, :], axis=2)
            log_ratios[1] = np.maximum(log_ratios[1],
                                       _log_norm_from_entries(comp_log.T, axis=0) + d1)
            t1 = (logQ + log_curv).reshape(n, -1)
            s1 = (signQ * sign_curv).reshape(n, -1)
            t2 = (logR + log_gw[:, None, :]).reshape(n, -1)
            s2 = (signR * sign_gw[:, None, :]).reshape(n, -1)
            div_log, _ = _signed_log_sum(np.concatenate([t1, t2], axis=1).T,
                                         np.concatenate([s1, s2], axis=1).T, axis=0)
            log_ratios[2] = np.maximum(log_ratios[2], div_log + 2.0 * d1)
            log_ratios[4] = np.maximum(log_ratios[4], pot + 2.0 * d2)
            log_ratios[5] = np.maximum(log_ratios[5], norm_b + d2)
            log_ratios[6] = np.maximum(log_ratios[6], norm_Q + d1)
            log_ratios[7] = np.maximum(log_ratios[7], norm_R + 2.0 * d1)
        with np.errstate(over="ignore"):
            ratios = np.exp(log_ratios)
        if not np.all(np.isfinite(ratios)):
            bad = np.argwhere(~np.isfinite(ratios))
            item, pt = int(bad[0][0]), int(bad[0][1])
            raise NonFiniteError(
                f"ledger item '{LEDGER_ITEMS[item]}' non-finite at t={t:.6g}, "
                f"x={pts[pt]!r}")
        t_sup = ratios.max(axis=1)
        t_arg = ratios.argmax(axis=1)
        for i in range(8):
            if t_sup[i] > sups[i]:
                sups[i] = t_sup[i]
                arg_edge[i] = bool(edge[t_arg[i]])
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
