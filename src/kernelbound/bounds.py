"""Kernel-bound majorant, the constants ledger, and the decay profile's exponents.

The weighted kernel estimate has the shape

    w(t, y) * sum_k |p_hk(t, x, y)| <= C * H(x)       for t in (a, b),

where H collects everything the proof machinery extracts from the eight
weight-compatibility constants c_1..c_8, the inner/outer time window
(a0, a, b, b0), and the time integrals of the two Lyapunov growth rates:

    H(x) = [c1^(s/2) + c1^(s/2)/((a-a0) ^ (b0-b))^(s/2) + c2^s + c3^(s/2)
            + c4^(s/2) + c1^(s/4) c2^(s/2) + c1^(s/4) c7^(s/2) + c7^s
            + c8^(s/2)] * nu1(0, x) * int_a0^b0 e^{G1}
         + [c1^(s/4) c6^(s/2) + c2^(s/2) c6^(s/2) + c5^(s/2) + c6^s]
            * nu2(0, x) * int_a0^b0 e^{G2},

with ^ denoting min.  The time-dependent weights equal 1 at t = 0, so
nu1(0, x) = nu2(0, x) = 1 and H is one number, which eval_H returns.
Specializing the weights to the concrete coefficient families turns C * H
into explicit decay profiles: a power of t times a stretched-exponential
factor in the second spatial argument (and, for the two-sided form, in
both arguments).  eval_lambda_poly gives the polynomial family's t-power,
checked_c_hat the exponential family's singular-prefactor constant.

The reduction from the iterated kernel estimates to H passes through one
piece of scalar algebra, exposed as solve_X0: any X >= 0 satisfying

    X^s <= alpha X^(s/2) + beta X^(s-1) + gamma X^(s-2)

also satisfies X <= X0 = (4/3) beta + sqrt((4/3) gamma) + ((4/3) alpha^2)^(1/s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .coefficients import PolynomialFamily
from .errors import DomainError, NonFiniteError
from .lyapunov import _quad

LEDGER_ITEMS = (
    "weight-vs-nu1",
    "diffusion-gradient",
    "diffusion-divergence",
    "time-derivative",
    "potential-row",
    "drift",
    "diffusion-size",
    "diffusion-derivative",
)


@dataclass(frozen=True)
class ConstantsLedger:
    """Numeric suprema of the eight weight-compatibility ratios.

    window = (a0, a, b, b0) is the nested time window: constants are
    suprema over [a0, b0] x R^d, the bound itself lives on (a, b).
    boundary_flags marks items whose numeric argmax sat on the sample-box
    boundary, i.e. whose supremum may not be converged in the radius.
    """

    d: int
    s: float
    window: tuple[float, float, float, float]
    c: tuple[float, ...]
    M: float
    boundary_flags: tuple[bool, ...]

    def __post_init__(self):
        if self.s <= self.d + 2:
            raise DomainError(f"need s > d + 2 = {self.d + 2}, got s = {self.s}")
        a0, a, b, b0 = self.window
        if not (0 < a0 < a < b < b0):
            raise DomainError(f"window must satisfy 0 < a0 < a < b < b0, got {self.window}")
        if len(self.c) != 8:
            raise DomainError(f"c must have 8 entries, got {len(self.c)}")
        arr = np.asarray(self.c, dtype=float)
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise NonFiniteError(f"c entries must be finite and >= 0: {self.c}")
        if not math.isfinite(self.M):
            raise NonFiniteError(f"row-sum bound M must be finite, got {self.M}")


def eval_H(ledger: ConstantsLedger, G1: Callable[[np.ndarray], np.ndarray],
           G2: Callable[[np.ndarray], np.ndarray]) -> float:
    """The majorant H, one number, from a ledger and two growth integrals.

    The weights nu1 and nu2 equal 1 at t = 0, so H is constant in x.  G1
    and G2 are the cumulated growth rates of the two comparison Lyapunov
    functions, called with an array of times (a G returning one scalar is a
    constant).  The constants are the ledger's c, so an adjoint ledger gives
    H*.  The time integrals of e^{G1} and e^{G2} over [a0, b0] come from the
    adaptive Gauss-Legendre quadrature lyapunov._quad, bisected until its
    panel-halving error estimate is at most 1e-9 relative.  Raises
    NonFiniteError when e^G overflows on the window, when that estimate
    misses 1e-9 after 200 bisections, or when H is not finite.
    """
    c1, c2, c3, c4, c5, c6, c7, c8 = ledger.c
    s = ledger.s
    a0, a, b, b0 = ledger.window
    gap = min(a - a0, b0 - b)
    try:
        bracket1 = (c1 ** (s / 2) + c1 ** (s / 2) / gap ** (s / 2) + c2 ** s
                    + c3 ** (s / 2) + c4 ** (s / 2) + c1 ** (s / 4) * c2 ** (s / 2)
                    + c1 ** (s / 4) * c7 ** (s / 2) + c7 ** s + c8 ** (s / 2))
        bracket2 = (c1 ** (s / 4) * c6 ** (s / 2) + c2 ** (s / 2) * c6 ** (s / 2)
                    + c5 ** (s / 2) + c6 ** s)
    except OverflowError as exc:
        raise NonFiniteError(f"majorant brackets overflow: {exc}") from None
    if not (math.isfinite(bracket1) and math.isfinite(bracket2)):
        raise NonFiniteError(f"majorant brackets overflow: {bracket1}, {bracket2}")
    I1 = _quad(lambda t: np.exp(G1(t)), a0, b0, epsrel=1e-9)
    I2 = _quad(lambda t: np.exp(G2(t)), a0, b0, epsrel=1e-9)
    H = float(bracket1 * I1 + bracket2 * I2)
    if not math.isfinite(H):
        raise NonFiniteError("majorant evaluated non-finite")
    return H


def solve_X0(alpha: float, beta: float, gamma: float, s: float) -> float:
    """Closed-form ceiling for X^s <= alpha X^(s/2) + beta X^(s-1) + gamma X^(s-2).

    Young's inequality absorbs the middle power: alpha X^(s/2) <= X^s/4 +
    alpha^2, after which the ceiling (4/3)beta + sqrt((4/3)gamma) +
    ((4/3)alpha^2)^(1/s) dominates every nonnegative solution.
    """
    if s <= 2:
        raise DomainError(f"need s > 2, got {s}")
    if alpha < 0 or beta < 0 or gamma < 0:
        raise DomainError("coefficients must be nonnegative")
    return (4.0 / 3.0) * beta + math.sqrt((4.0 / 3.0) * gamma) \
        + ((4.0 / 3.0) * alpha ** 2) ** (1.0 / s)


def eval_lambda_poly(family: PolynomialFamily, sigma: float, rho: float) -> float:
    """Exponent controlling the t-power of the polynomial-family bound.

    lambda = max{1/2, (sigma/rho) abar, (sigma/2rho) gamma_max,
    (sigma/2rho)(2 bbar + 1)}, with the extra competitor
    (sigma/2rho)(abar + bbar) when abar > 1/2; the final kernel bound decays
    (or blows up) like t^(1 - lambda s).
    """
    abar = float(family.alpha.max())
    bbar = float(family.beta.max())
    gmax = float(family.gamma.max())
    lam = max(0.5, (sigma / rho) * abar, (sigma / (2 * rho)) * gmax,
              (sigma / (2 * rho)) * (2 * bbar + 1.0))
    if abar > 0.5:
        lam = max(lam, (sigma / (2 * rho)) * (abar + bbar))
    return lam


def checked_c_hat(d: int, c_hat: Optional[float] = None) -> float:
    """The singular-prefactor constant of the exponential-family bound: c_hat,
    by default (d + 3)/4; DomainError unless it exceeds (d + 2)/4."""
    ch = (d + 3) / 4.0 if c_hat is None else c_hat
    if ch <= (d + 2) / 4.0:
        raise DomainError(f"c_hat must exceed (d+2)/4 = {(d + 2) / 4.0}, got {ch}")
    return ch
