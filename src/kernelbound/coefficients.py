"""Coefficient fields of weakly coupled second-order parabolic systems.

The systems treated here have the form

    D_t f_h = div(Q^h grad f_h) + <b^h, grad f_h> - (V f)_h,   h = 1..m,

on R^d: each scalar equation carries its own diffusion Q^h = q_h I, a
scalar field q_h times the identity, and its own drift b^h (both allowed to
be unbounded in x), and the coupling between equations happens only
through the zero-order matrix potential V.  Two derived objects
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
growing coefficients.  Each equation k carries one diffusion scale zeta_k
and exponent alpha_k and one drift scale eta_k and exponent beta_k, which
may differ from equation to equation:

    Q^k = zeta_k (1+|x|^2)^alpha_k I          Q^k = zeta_k e^{(1+|x|^2)^alpha_k} I
    b^k = -eta_k x (1+|x|^2)^beta_k           b^k = -eta_k x e^{(1+|x|^2)^beta_k}
    v_hk = theta_hk (1+|x|^2)^gamma_hk        v_hk = theta_hk e^{(1+|x|^2)^gamma_hk}

A family is therefore radial by construction: it reads x only through
r = 1+|x|^2, apart from the factor x of b, so q and v are even in x bit
for bit and b odd (negating a float is exact).  Every ratio the
certificates, the constants ledger and the row sums take a sup or inf of
is a function of r alone, which they evaluate on the sample box's
distinct radii (lyapunov._sample_points) from the per-equation values and
radial_divb.  Any other system, such as one of bare coefficient
callables, is refused there.  The solver takes any object with dims and
the callables q, b and V, vectorized over a batch of points: for x of
shape (n, d), q(h, x) is the scalar diffusion of equation h, (n,),
b(h, x) is (n, d) and V(x) is (n, m, m).  A family's evaluators take such
a batch only; a single point is a batch of one.
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


# ---------------------------------------------------------------------------
# coupling reachability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CouplingSupport:
    """Which kernel entries of column k can be nontrivial.

    reachable holds k and every component that k feeds through the
    potential, directly or along a chain of couplings.  An entry p_hk of
    the cooperative kernel is not identically zero exactly when h is
    reachable.
    """

    k: int
    reachable: frozenset[int]


def coupling_support(m: int, k: int, nonzero: Callable[[int, int], bool]) -> CouplingSupport:
    """Breadth-first reachability of component k through the coupling graph.

    nonzero(h, l) must say whether the potential entry v_hl is not
    identically zero for h != l; diagonal queries are never made.  The
    first frontier is {h != k : v_hk nontrivial}; the next collects fresh h
    with v_hl nontrivial for some l in the last.
    """
    if not (0 <= k < m):
        raise DimensionMismatchError(f"component index {k} outside 0..{m - 1}")
    seen = {k}
    frontier = {h for h in range(m) if h != k and nonzero(h, k)}
    while frontier:
        seen |= frontier
        frontier = {h for l in frontier for h in range(m) if h not in seen and nonzero(h, l)}
    return CouplingSupport(k=k, reachable=frozenset(seen))


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


def _radial(x: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Return (points (n, d), r = 1+|x|^2 (n,)) of a batch of points."""
    pts = np.asarray(x, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != d:
        raise DimensionMismatchError(f"points must have shape (n, {d}), got {pts.shape}")
    return pts, 1.0 + np.sum(pts * pts, axis=-1)


class _FamilyBase:
    """Validation, coefficient fields and derived quantities of both families.

    zeta, alpha, eta and beta hold one value per equation, shape (m,), a
    scalar standing for every equation; theta and gamma are (m, m).
    Subclasses define only the growth law: _grow, _log_grow and _chain.
    """

    def __init__(self, dims: SystemDims, zeta, alpha, eta, beta, theta, gamma):
        m = dims.m
        self.dims = dims
        self.zeta, self.alpha, self.eta, self.beta = (
            _as_array(name, np.full(m, value) if np.ndim(value) == 0 else value, (m,))
            for name, value in (("zeta", zeta), ("alpha", alpha), ("eta", eta), ("beta", beta)))
        self.theta = _as_array("theta", theta, (m, m))
        self.gamma = _as_array("gamma", gamma, (m, m))
        if np.any(self.alpha < 0) or np.any(self.beta < 0) or np.any(self.gamma < 0):
            raise HypothesisViolationError("exponents alpha, beta, gamma must be nonnegative")
        if np.any(self.eta <= 0):
            raise HypothesisViolationError("drift coefficients eta must be positive")
        if np.any(np.diag(self.theta) <= 0):
            raise HypothesisViolationError("diagonal potential coefficients theta_kk must be positive")

    def vp_nonzero(self, h: int, l: int) -> bool:
        return self.theta[h, l] != 0.0

    def support(self, k: int) -> CouplingSupport:
        return coupling_support(self.dims.m, k, self.vp_nonzero)

    # -- coefficient fields ---------------------------------------------------
    #
    # Written once against the growth law g(r, p) of the family, r = 1+|x|^2:
    # each subclass supplies _grow (g), _log_grow (log g) and _chain, which
    # multiplies u by the chain-rule factor (d/dr log g) / p.

    def q(self, k: int, x: np.ndarray) -> np.ndarray:
        """The scalar diffusion of equation k: Q^k = q_k I, q_k = zeta_k g(r, alpha_k)."""
        _, r = _radial(x, self.dims.d)
        return self.zeta[k] * self._grow(r, self.alpha[k])

    def b(self, k: int, x: np.ndarray) -> np.ndarray:
        pts, r = _radial(x, self.dims.d)
        return -self.eta[k] * pts * self._grow(r, self.beta[k])[:, None]

    def radial_divb(self, k: int, r: np.ndarray, log: bool = False) -> np.ndarray:
        """div b^k at r = 1+|x|^2, or log |div b^k| when log:
        -eta g(r, beta) (d + 2 (r - 1) (d/dr log g)(r, beta)), never positive."""
        eta, beta = self.eta[k], self.beta[k]
        factor = self.dims.d + self._chain(2.0 * beta * (r - 1.0), r, beta)
        if log:
            return np.log(eta) + self._log_grow(r, beta) + np.log(factor)
        return -eta * self._grow(r, beta) * factor

    def V(self, x: np.ndarray) -> np.ndarray:
        _, r = _radial(x, self.dims.d)
        return self.theta * self._grow(r[:, None, None], self.gamma)

    def log_growth_V(self, h: int, k: int, r: np.ndarray) -> np.ndarray:
        """log |v_hk| at radius variable r = 1+|x|^2 (for overflow-safe work)."""
        return np.log(np.abs(self.theta[h, k])) + self._log_grow(r, self.gamma[h, k])


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
    """The family of the given kind: zeta_diag, alpha, eta and beta one value
    per equation or a scalar for all; theta and gamma (m, m) arrays, or None
    for the identity-like defaults theta = I, gamma = 0."""
    theta_arr = np.eye(m) if theta is None else theta
    gamma_arr = np.zeros((m, m)) if gamma is None else gamma
    cls = PolynomialFamily if kind == "polynomial" else ExponentialFamily
    return cls(SystemDims(d, m), zeta_diag, alpha, eta, beta, theta_arr, gamma_arr)
