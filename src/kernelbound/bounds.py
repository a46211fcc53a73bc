"""Kernel-bound majorant, calibrated constants, and decay evaluators.

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
both arguments).  BoundCertificate holds that factor as the forward
synthesis's SpaceTimeWeight, and the two-sided one's as the adjoint's; its
profile reads their log values, and its kind is the forward weight's form.

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
from .lyapunov import SpaceTimeWeight, _quad

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
    Starred fields repeat the story for the adjoint problem.
    """

    d: int
    s: float
    window: tuple[float, float, float, float]
    c: tuple[float, ...]
    M: float
    c_star: Optional[tuple[float, ...]] = None
    M_star: Optional[float] = None
    boundary_flags: Optional[tuple[bool, ...]] = None

    def __post_init__(self):
        if self.s <= self.d + 2:
            raise DomainError(f"need s > d + 2 = {self.d + 2}, got s = {self.s}")
        a0, a, b, b0 = self.window
        if not (0 < a0 < a < b < b0):
            raise DomainError(f"window must satisfy 0 < a0 < a < b < b0, got {self.window}")
        for name, vals in (("c", self.c), ("c_star", self.c_star)):
            if vals is None:
                continue
            if len(vals) != 8:
                raise DomainError(f"{name} must have 8 entries, got {len(vals)}")
            arr = np.asarray(vals, dtype=float)
            if not np.all(np.isfinite(arr)) or np.any(arr < 0):
                raise NonFiniteError(f"{name} entries must be finite and >= 0: {vals}")
        if not math.isfinite(self.M):
            raise NonFiniteError(f"row-sum bound M must be finite, got {self.M}")

    def with_adjoint(self, star: "ConstantsLedger") -> "ConstantsLedger":
        """Merge a forward ledger with the ledger of the adjoint problem."""
        if star.window != self.window or star.s != self.s:
            raise DomainError("adjoint ledger must share the window and s")
        return ConstantsLedger(
            d=self.d, s=self.s, window=self.window, c=self.c, M=self.M,
            c_star=star.c, M_star=star.M, boundary_flags=self.boundary_flags)


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


@dataclass(frozen=True)
class BoundCertificate:
    """Everything needed to evaluate the certified decay profile.

    weight is the decay in the second spatial argument, and its form names
    the family shape (kind); weight_star, when present, is the two-sided
    decay in the first argument.  lam (and lam_star) fix the t-power; C_cal
    is the measured calibration constant (None until a verification run
    sets it).
    """

    d: int
    s: float
    ledger: ConstantsLedger
    weight: SpaceTimeWeight
    lam: Optional[float] = None          # polynomial kind only
    c_hat: Optional[float] = None        # exponential kind only
    weight_star: Optional[SpaceTimeWeight] = None
    lam_star: Optional[float] = None
    C_cal: Optional[float] = None

    def __post_init__(self):
        if self.kind == "polynomial" and self.lam is None:
            raise DomainError("polynomial certificate needs lam")
        if self.kind == "exponential":
            object.__setattr__(self, "c_hat", checked_c_hat(self.d, self.c_hat))

    @property
    def kind(self) -> str:
        """The family shape: polynomial for a power-form weight, else exponential."""
        return "polynomial" if self.weight.form == "power" else "exponential"

    def log_decay(self, t: float, y: np.ndarray, x: Optional[np.ndarray] = None) -> np.ndarray:
        """log of the decay profile (excluding C_cal) at time t.

        One-sided: evaluated at y, uniform in the unseen first argument.
        Passing x switches to the two-sided profile; requires weight_star.
        """
        if t <= 0:
            raise DomainError(f"decay profile needs t > 0, got {t}")
        if x is not None and self.weight_star is None:
            raise DomainError("two-sided profile requested but no starred weight present")
        w, d = self.weight, self.d
        if self.kind == "polynomial":
            if x is None:
                return (1.0 - self.lam * self.s) * math.log(t) - w.log_value(t, y, d)
            power = 1.0 - (self.lam + self.lam_star) * self.s / 2.0
            return power * math.log(t) - 0.5 * w.log_value(t, y, d) \
                - 0.5 * self.weight_star.log_value(t, x, d)
        head = math.log(t) + self.c_hat * t ** (-w.sigma)
        if x is None:
            return head - w.log_value(t, y, d)
        return head - 0.5 * (w.log_value(t, y, d) + w.log_value(t, x, d))

    def eval(self, t: float, y: np.ndarray, x: Optional[np.ndarray] = None) -> np.ndarray:
        """Certified bound value C_cal * decay(t, x, y); may overflow to inf."""
        if self.C_cal is None:
            raise DomainError("certificate not calibrated: C_cal unset")
        with np.errstate(over="ignore"):
            return np.exp(np.log(self.C_cal) + self.log_decay(t, y, x))
