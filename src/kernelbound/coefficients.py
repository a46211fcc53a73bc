"""Coefficient fields of weakly coupled second-order parabolic systems.

The systems treated here have the form

    D_t f_h = div(Q^h grad f_h) + <b^h, grad f_h> - (V f)_h,   h = 1..m,

on R^d: each scalar equation carries its own diffusion matrix Q^h and drift
b^h (both allowed to be unbounded in x), and the coupling between equations
happens only through the zero-order matrix potential V.  Two derived objects
drive everything downstream:

* the cooperative modification V^P, which keeps the diagonal of V and flips
  every off-diagonal entry to -|v_hk|.  The semigroup generated with V^P has
  a nonnegative kernel that dominates the original kernel entrywise, so all
  kernel estimates are proved for the P-variant and inherited by the plain
  one;
* the formal adjoint of the P-variant, whose kernel evaluates the P-kernel
  with swapped spatial arguments and transposed component indices.

Besides generic coefficient containers the module ships the two concrete
families used throughout the artifact, with polynomially and exponentially
growing coefficients:

    q^k_ij = zeta^k_ij (1+|x|^2)^alpha^k_ij      q^k_ij = zeta^k_ij e^{(1+|x|^2)^alpha^k_ij}
    b^k_i  = -eta^k_i x_i (1+|x|^2)^beta^k_i     b^k_i  = -eta^k_i x_i e^{(1+|x|^2)^beta^k_i}
    v_hk   = theta_hk (1+|x|^2)^gamma_hk         v_hk   = theta_hk e^{(1+|x|^2)^gamma_hk}

All family evaluators are vectorized over trailing point batches: x may be a
single point of shape (d,) or a batch of shape (n, d).

Both families are even in x, bit for bit: q, v and div b read x only through
r = 1+|x|^2 and the squares x_i^2, and R and b are x_i times such a factor,
so they are odd, and negating a float is exact.  A family is radial
(_FamilyBase.radial) when, for each equation, zeta is a multiple of the
identity, the diagonal of alpha is constant, and eta and beta are constant
across axes, as diagonal_family builds it: Q = zeta g(r, alpha) I,
b = -eta x g(r, beta) and V = theta g(r, gamma).  Every ratio the
certificates, the constants ledger and the row sums take a sup or inf of is
then a function of r alone, which they evaluate on the sample box's
distinct radii (lyapunov._sample_points) from radial_coefficients and
radial_divb.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatchError,
    HypothesisViolationError,
    NonFiniteError,
)

VARIANTS = ("plain", "P", "P_adjoint")


@dataclass(frozen=True)
class SystemDims:
    """Space dimension d and number of coupled equations m."""

    d: int
    m: int

    def __post_init__(self):
        if self.d < 1 or self.m < 1:
            raise DimensionMismatchError(f"need d >= 1 and m >= 1, got d={self.d}, m={self.m}")


def eval_VP(V: np.ndarray) -> np.ndarray:
    """Cooperative modification of a potential matrix.

    Keeps the diagonal and replaces each off-diagonal entry by minus its
    absolute value.  Idempotent, and equal to V whenever the off-diagonal
    part of V is already nonpositive.
    """
    V = np.asarray(V, dtype=float)
    if V.ndim < 2 or V.shape[-1] != V.shape[-2]:
        raise DimensionMismatchError(f"potential must be square, got shape {V.shape}")
    out = -np.abs(V)
    diag = np.arange(V.shape[-1])
    out[..., diag, diag] = V[..., diag, diag]
    return out


@dataclass(frozen=True)
class OperatorSpec:
    """Bundle of coefficient callables defining one coupled system.

    Each callable is vectorized over a leading batch of points: for x of
    shape (n, d), Q(h, x) returns (n, d, d), b(h, x) returns (n, d), V(x)
    returns (n, m, m), R(h, x) returns the matrix of diffusion derivatives
    (R^h)_ij = D_i q^h_ij with shape (n, d, d), and divb(h, x) returns (n,).
    Scalar points of shape (d,) are accepted too.
    """

    dims: SystemDims
    Q: Callable[[int, np.ndarray], np.ndarray]
    b: Callable[[int, np.ndarray], np.ndarray]
    V: Callable[[np.ndarray], np.ndarray]
    R: Callable[[int, np.ndarray], np.ndarray]
    divb: Callable[[int, np.ndarray], np.ndarray]


# ---------------------------------------------------------------------------
# coupling reachability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CouplingSupport:
    """Which kernel entries of column k can be nontrivial.

    levels[0] holds the components fed directly by component k through the
    potential, levels[i] the fresh components reachable in one more step,
    and reachable is {k} plus the union of all levels.  An entry p_hk of the
    cooperative kernel is not identically zero exactly when h is reachable.
    """

    k: int
    levels: tuple[frozenset[int], ...]
    reachable: frozenset[int]


def coupling_support(m: int, k: int, nonzero: Callable[[int, int], bool]) -> CouplingSupport:
    """Breadth-first reachability of component k through the coupling graph.

    nonzero(h, l) must say whether the potential entry v_hl is not
    identically zero for h != l; diagonal queries are never made.  Level 0
    is {h != k : v_hk nontrivial}; level i+1 collects fresh h with v_hl
    nontrivial for some l in level i.
    """
    if not (0 <= k < m):
        raise DimensionMismatchError(f"component index {k} outside 0..{m - 1}")
    seen = {k}
    levels: list[frozenset[int]] = []
    frontier = frozenset(h for h in range(m) if h != k and nonzero(h, k))
    while frontier:
        levels.append(frontier)
        seen |= frontier
        nxt = set()
        for l in frontier:
            for h in range(m):
                if h not in seen and h != l and nonzero(h, l):
                    nxt.add(h)
        frontier = frozenset(nxt)
    return CouplingSupport(k=k, levels=tuple(levels), reachable=frozenset(seen))


# ---------------------------------------------------------------------------
# concrete coefficient families
# ---------------------------------------------------------------------------

def _as_array(name: str, value, shape: tuple[int, ...]) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.shape != shape:
        raise DimensionMismatchError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{name} contains non-finite entries")
    return arr


def _radial(x: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray, bool]:
    """Return (points (n,d), r = 1+|x|^2 (n,), scalar_input)."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 1
    pts = np.atleast_2d(x)
    if pts.shape[-1] != d:
        raise DimensionMismatchError(f"points must have last axis {d}, got shape {x.shape}")
    r = 1.0 + np.sum(pts * pts, axis=-1)
    return pts, r, scalar


class _FamilyBase:
    """Validation, coefficient fields and derived quantities of both families.

    Subclasses define only the growth law: _grow, _log_grow and _chain.
    """

    def __init__(self, dims: SystemDims, zeta, alpha, eta, beta, theta, gamma):
        d, m = dims.d, dims.m
        self.dims = dims
        self.zeta = _as_array("zeta", zeta, (m, d, d))
        self.alpha = _as_array("alpha", alpha, (m, d, d))
        self.eta = _as_array("eta", eta, (m, d))
        self.beta = _as_array("beta", beta, (m, d))
        self.theta = _as_array("theta", theta, (m, m))
        self.gamma = _as_array("gamma", gamma, (m, m))
        if not np.allclose(self.alpha, np.swapaxes(self.alpha, 1, 2)):
            raise DimensionMismatchError("alpha exponents must be symmetric in i, j")
        if not np.allclose(self.zeta, np.swapaxes(self.zeta, 1, 2)):
            raise DimensionMismatchError("zeta coefficients must be symmetric in i, j")
        if np.any(self.alpha < 0) or np.any(self.beta < 0) or np.any(self.gamma < 0):
            raise HypothesisViolationError("exponents alpha, beta, gamma must be nonnegative")
        if np.any(self.eta <= 0):
            raise HypothesisViolationError("drift coefficients eta must be positive")
        if np.any(np.diag(self.theta) <= 0):
            raise HypothesisViolationError("diagonal potential coefficients theta_kk must be positive")

    # -- structural matrices ------------------------------------------------

    def Z(self, k: int) -> np.ndarray:
        """Sign-adjusted diffusion coefficient matrix: diagonal unchanged, off-diagonal -|zeta|."""
        Zk = -np.abs(self.zeta[k])
        idx = np.arange(self.dims.d)
        Zk[idx, idx] = self.zeta[k, idx, idx]
        return Zk

    def vp_nonzero(self, h: int, l: int) -> bool:
        return self.theta[h, l] != 0.0

    def support(self, k: int) -> CouplingSupport:
        return coupling_support(self.dims.m, k, self.vp_nonzero)

    # -- per-equation exponent summaries ------------------------------------

    def alpha_max(self, k: int) -> float:
        return float(self.alpha[k].max())

    def alpha_min(self, k: int) -> float:
        # smallest diagonal growth exponent of Q^k
        return float(self.alpha[k].diagonal().min())

    def beta_min(self, k: int) -> float:
        return float(self.beta[k].min())

    def beta_max(self, k: int) -> float:
        return float(self.beta[k].max())

    def abar(self) -> float:
        return float(self.alpha.max())

    def bbar(self) -> float:
        return float(self.beta.max())

    def gamma_diag_min(self) -> float:
        return float(np.diag(self.gamma).min())

    @property
    def radial(self) -> bool:
        """Whether every equation's diffusion is zeta_k g(r, alpha_k) I and its
        drift -eta_k x g(r, beta_k): zeta a multiple of the identity, the
        diagonal of alpha constant, and eta and beta constant across axes."""
        alpha_diag = np.diagonal(self.alpha, axis1=1, axis2=2)
        return bool(np.array_equal(self.zeta, self.zeta[:, :1, :1] * np.eye(self.dims.d))
                    and np.all(alpha_diag == alpha_diag[:, :1])
                    and np.all(self.eta == self.eta[:, :1])
                    and np.all(self.beta == self.beta[:, :1]))

    def operator_spec(self) -> OperatorSpec:
        return OperatorSpec(dims=self.dims, Q=self.Q, b=self.b, V=self.V,
                            R=self.R, divb=self.divb)

    # -- coefficient fields ---------------------------------------------------
    #
    # Written once against the growth law g(r, p) of the family, r = 1+|x|^2:
    # each subclass supplies _grow (g), _log_grow (log g) and _chain, which
    # multiplies u by the chain-rule factor (d/dr log g) / p.

    def Q(self, k: int, x: np.ndarray) -> np.ndarray:
        pts, r, scalar = _radial(x, self.dims.d)
        out = self.zeta[k] * self._grow(r[:, None, None], self.alpha[k])
        return out[0] if scalar else out

    def R(self, k: int, x: np.ndarray) -> np.ndarray:
        # (R^k)_ij = D_i q^k_ij = 2 x_i zeta_ij g'(r, alpha_ij)
        pts, r, scalar = _radial(x, self.dims.d)
        r3, a = r[:, None, None], self.alpha[k]
        out = self._chain(2.0 * self.zeta[k] * a * self._grow(r3, a), r3, a) * pts[:, :, None]
        return out[0] if scalar else out

    def b(self, k: int, x: np.ndarray) -> np.ndarray:
        pts, r, scalar = _radial(x, self.dims.d)
        out = -self.eta[k] * pts * self._grow(r[:, None], self.beta[k])
        return out[0] if scalar else out

    def _divb_factor(self, k: int, pts: np.ndarray, r: np.ndarray) -> np.ndarray:
        """The factor 1 + 2 x_i^2 (d/dr log g)(r, beta_i) of D_i b^k_i, shape (n, d)."""
        return 1.0 + self._chain(2.0 * self.beta[k] * pts * pts, r[:, None], self.beta[k])

    def radial_coefficients(self, k: int) -> tuple:
        """(zeta, alpha, eta, beta) of equation k of a radial family, whose
        diffusion is zeta g(r, alpha) I and drift -eta x g(r, beta)."""
        return self.zeta[k, 0, 0], self.alpha[k, 0, 0], self.eta[k, 0], self.beta[k, 0]

    def radial_divb(self, k: int, r: np.ndarray, log: bool = False) -> np.ndarray:
        """div b^k of a radial family at r = 1+|x|^2, or log |div b^k| when log:
        -eta g(r, beta) (d + 2 (r - 1) (d/dr log g)(r, beta)), never positive."""
        _, _, eta, beta = self.radial_coefficients(k)
        factor = self.dims.d + self._chain(2.0 * beta * (r - 1.0), r, beta)
        if log:
            return np.log(eta) + self._log_grow(r, beta) + np.log(factor)
        return -eta * self._grow(r, beta) * factor

    def divb(self, k: int, x: np.ndarray) -> np.ndarray:
        pts, r, scalar = _radial(x, self.dims.d)
        terms = -self.eta[k] * self._grow(r[:, None], self.beta[k]) * self._divb_factor(k, pts, r)
        out = terms.sum(axis=-1)
        return out[0] if scalar else out

    def V(self, x: np.ndarray) -> np.ndarray:
        pts, r, scalar = _radial(x, self.dims.d)
        out = self.theta * self._grow(r[:, None, None], self.gamma)
        return out[0] if scalar else out

    def log_growth_V(self, h: int, k: int, r: np.ndarray) -> np.ndarray:
        """log |v_hk| at radius variable r = 1+|x|^2 (for overflow-safe work)."""
        return np.log(np.abs(self.theta[h, k])) + self._log_grow(r, self.gamma[h, k])


def operator_spec_of(system) -> OperatorSpec:
    """The coefficient callables of a family or of an opaque OperatorSpec."""
    return system.operator_spec() if isinstance(system, _FamilyBase) else system


def min_ellipticity(family: "_FamilyBase", k: int) -> float:
    """Smallest eigenvalue of the sign-adjusted coefficient matrix Z^k.

    For both families the diffusion satisfies <Q^k(x) xi, xi> >=
    lambda_min(Z^k) * growth(alpha^k_min at x) * |xi|^2 whenever the
    diagonal growth exponents dominate the off-diagonal ones, so positive
    definiteness of Z^k is the ellipticity witness.  Raises when Z^k is not
    positive definite.
    """
    Zk = family.Z(k)
    lam = float(np.linalg.eigvalsh(0.5 * (Zk + Zk.T)).min())
    if lam <= 0:
        raise HypothesisViolationError(
            f"equation {k}: sign-adjusted diffusion matrix is not positive definite "
            f"(min eigenvalue {lam:.6g})")
    return lam


class PolynomialFamily(_FamilyBase):
    """Coefficients with power-law growth in 1+|x|^2."""

    kind = "polynomial"

    @staticmethod
    def _grow(r, p):
        return r ** p

    @staticmethod
    def _log_grow(r, p):
        return p * np.log(r)

    @staticmethod
    def _chain(u, r, p):
        return u / r


class ExponentialFamily(_FamilyBase):
    """Coefficients with exponential growth e^{(1+|x|^2)^exponent}."""

    kind = "exponential"

    @staticmethod
    def _grow(r, p):
        return np.exp(r ** p)

    @staticmethod
    def _log_grow(r, p):
        return r ** p

    @staticmethod
    def _chain(u, r, p):
        return u * r ** (p - 1.0)


def diagonal_family(kind: str, d: int, m: int, *, zeta_diag=1.0, alpha=0.0,
                    eta=1.0, beta=0.0, theta=None, gamma=None):
    """Convenience constructor: scalar-per-equation diffusion, shared exponents.

    theta and gamma must be (m, m) arrays (or None for the identity-like
    defaults theta = I, gamma = 0).
    """
    dims = SystemDims(d, m)
    zeta = np.tile(np.eye(d) * zeta_diag, (m, 1, 1))
    alpha_arr = np.full((m, d, d), float(alpha))
    eta_arr = np.full((m, d), float(eta))
    beta_arr = np.full((m, d), float(beta))
    theta_arr = np.eye(m) if theta is None else np.asarray(theta, dtype=float)
    gamma_arr = np.zeros((m, m)) if gamma is None else np.asarray(gamma, dtype=float)
    cls = PolynomialFamily if kind == "polynomial" else ExponentialFamily
    return cls(dims, zeta, alpha_arr, eta_arr, beta_arr, theta_arr, gamma_arr)
