"""Lyapunov functions for the coupled systems: synthesis and certificates.

Two shapes are used, both radial in r = 1 + |x|^2 and handled in log space
throughout to survive the growth:

* power form        phi(x) = exp(eps_hat * r^rho)
* integrated-exp    phi(x) = exp(eps_hat * int_0^r e^{tau^rho/2} dtau)

A static function phi certifies sup_k (A phi)_k / phi = lam < infinity,
which is what makes the whole-space semigroup well defined despite the
unbounded coefficients.  The time-dependent variant

    nu(t, x) = exp(eps_T * t^sigma * S(r)),    eps_T = eps_hat * T^(-sigma)

vanishes into the constant 1 at t = 0 and satisfies

    D_t nu + (A nu)_k <= g(t) nu,    g(t) = c0 + eps_T * delta * t^(sigma*(delta-1)/delta),

with g integrable at 0 because delta > sigma/(sigma+1).  Its running
integral G(t) = int_0^t g closes the loop: the Dirichlet semigroups obey
T(t) nu(t, .) <= e^{G(t)} nu(0, .), which is the integrability input of the
kernel bounds.

Every such function is one SpaceTimeWeight exp(eps t^sigma S(r)), reached
through its spec and spelled nowhere else: LyapunovSpec.weight() is phi,
with sigma = 1 and read at t = 1, and TimeLyapunovSpec.weight() is nu, of
amplitude eps_T.  TimeLyapunovSpec.scaled(f) is the spec of amplitude
f eps_hat, its c0 left to calibrate, so the weight of f eps_T that a check
or the ledger reads and the certificate that calibrates its growth come
from one spec.  A weight's value guards float range (SaturationError).

Synthesis picks (rho, eps_hat, sigma, delta) deterministically as midpoints
of the feasible intervals dictated by the growth exponents of the chosen
coefficient family (sigma, whose interval is one-sided, is set to its lower
endpoint plus one).  Certificates are validated numerically: grid suprema
of the generator ratio, stability under radius doubling, and calibration of
the constant part c0 of g.  For a radial family the generator ratio is a
function of r alone, evaluated on the distinct radii of the sample box
(_sample_points), with a whole ladder of times in one pass.  A family
keeps its certificate grids for as long as it lives, so a command, which
makes its family once, evaluates each grid once.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .coefficients import ExponentialFamily, PolynomialFamily, _FamilyBase, _radial
from .errors import (
    CertificateError,
    DomainError,
    NonFiniteError,
    SaturationError,
    SynthesisError,
)

FORMS = ("power", "integrated-exp")
TARGETS = ("P", "P_adjoint")

_LOG_MAX = math.log(np.finfo(float).max)  # ~709.78


# ---------------------------------------------------------------------------
# adaptive quadrature
# ---------------------------------------------------------------------------

# Gauss-Legendre rule of one panel, nodes and weights on [-1, 1]
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(21)


def _panel_rules(f, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Gauss-Legendre value of int f over each panel [lo_i, hi_i], from one call of f."""
    half = 0.5 * (hi - lo)
    nodes = (lo + half)[:, None] + half[:, None] * _GL_NODES
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.broadcast_to(np.asarray(f(nodes.ravel()), dtype=float), (nodes.size,))
    if not np.all(np.isfinite(vals)):
        raise NonFiniteError(
            f"integrand not finite on [{lo.min():.6g}, {hi.max():.6g}]")
    return half * (vals.reshape(nodes.shape) @ _GL_WEIGHTS)


def _quad(f, a: float, b: float, epsrel: float, limit: int = 200) -> float:
    """int_a^b f by adaptive Gauss-Legendre quadrature, for a vectorized f.

    f maps an array of nodes to one value per node (or to one scalar).  Each
    panel's value is the 21-point rule summed over its two halves, and its
    error estimate is the distance to the rule over the whole panel, the
    local estimate of QUADPACK (Piessens et al., 1983).  The panel with the
    largest estimate is bisected until the estimates sum to at most
    epsrel * |I|.  Raises NonFiniteError when an integrand value or the
    result is not finite, or when the estimate still misses epsrel after
    limit bisections.
    """
    if a == b:
        return 0.0
    mid = 0.5 * (a + b)
    whole, left, right = _panel_rules(f, np.array([a, a, mid]), np.array([b, mid, b]))
    # per panel: its ends, the rule over it, and the rules over its halves
    panels = [(a, b, whole, left, right)]
    while True:
        value = math.fsum(l + r for _, _, _, l, r in panels)
        errs = [abs(w - (l + r)) for _, _, w, l, r in panels]
        if not math.isfinite(value):
            raise NonFiniteError(f"integral over [{a:.6g}, {b:.6g}] is not finite")
        if math.fsum(errs) <= epsrel * abs(value):
            return value
        if len(panels) > limit:
            raise NonFiniteError(
                f"quadrature over [{a:.6g}, {b:.6g}] missed relative tolerance {epsrel:g} "
                f"after {limit} bisections (error estimate {math.fsum(errs):.3g}, "
                f"value {value:.6g})")
        worst = errs.index(max(errs))
        lo, hi, _, left, right = panels[worst]
        mid = 0.5 * (lo + hi)
        q1, q3 = 0.5 * (lo + mid), 0.5 * (mid + hi)
        ll, lr, rl, rr = _panel_rules(f, np.array([lo, q1, mid, q3]),
                                      np.array([q1, mid, q3, hi]))
        panels[worst] = (lo, mid, left, ll, lr)
        panels.append((mid, hi, right, rl, rr))


# ---------------------------------------------------------------------------
# radial shapes, in log space
# ---------------------------------------------------------------------------

def integrated_exp(r, rho: float):
    """int_0^r e^{tau^rho/2} dtau, vectorized.

    Closed forms for rho = 1 and rho = 1/2 (the synthesis defaults).  Other
    rho go through the adaptive Gauss-Legendre quadrature _quad, once per
    entry over [0, r_i], until its panel-halving error estimate is at most
    1e-10 relative.  Raises NonFiniteError when e^{tau^rho/2} overflows on
    [0, r_i] or an estimate misses 1e-10 after 200 bisections.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise DomainError("integrated-exp shape needs r >= 0")
    if rho == 1.0:
        return 2.0 * (np.exp(r / 2.0) - 1.0)
    if rho == 0.5:
        s = np.sqrt(r)
        return (4.0 * s - 8.0) * np.exp(s / 2.0) + 8.0
    flat = np.atleast_1d(r).ravel()
    out = np.array([_quad(lambda tau: np.exp(tau ** rho / 2.0), 0.0, float(ri), epsrel=1e-10)
                    for ri in flat])
    return out.reshape(np.shape(r)) if np.ndim(r) else float(out[0])


def _shape_S(form: str, r: np.ndarray, rho: float) -> np.ndarray:
    if form == "power":
        return r ** rho
    return integrated_exp(r, rho)


def _shape_dS(form: str, r: np.ndarray, rho: float) -> np.ndarray:
    if form == "power":
        return rho * r ** (rho - 1.0)
    return np.exp(r ** rho / 2.0)


def _shape_d2S(form: str, r: np.ndarray, rho: float) -> np.ndarray:
    if form == "power":
        return rho * (rho - 1.0) * r ** (rho - 2.0)
    return 0.5 * rho * r ** (rho - 1.0) * np.exp(r ** rho / 2.0)


_SHAPES = (_shape_S, _shape_dS, _shape_d2S)


class RadialPoints:
    """A batch of points (n, d) in R^d, its d, r = 1 + |x|^2 and the radial
    shapes evaluated on it.

    S(r), S'(r) and S''(r) are computed on first use and cached, per form and
    rho, so weights of one shape evaluated at many times on the same points
    compute them once.  Every weight method reads its points and d from one.
    """

    def __init__(self, x: np.ndarray, d: int):
        self.pts, self.r = _radial(x, d)
        self.d = d
        self._shapes: dict = {}

    def shape(self, order: int, form: str, rho: float) -> np.ndarray:
        """S (order 0), S' (1) or S'' (2) of the form on r."""
        key = (order, form, rho)
        if key not in self._shapes:
            self._shapes[key] = _SHAPES[order](form, self.r, rho)
        return self._shapes[key]


def _power(t, exponent: float):
    """t ** exponent for one time; for a block of times, the powers of its
    entries as a column, to broadcast over the radii.

    Each power is the scalar one (numpy's array power may differ from it in
    the last bit), so a time has the same bits in a block as alone.
    """
    if np.ndim(t) == 0:
        return t ** exponent
    return np.array([ti ** exponent for ti in t])[:, None]


@dataclass(frozen=True)
class SpaceTimeWeight:
    """Weight exp(eps * t^sigma * S(1+|x|^2)) exposed through log-derivatives.

    All downstream consumers (constants ledger, majorant, decay profiles)
    work with log w and its derivatives, never with w itself, so the class
    stays finite wherever the exponent is representable.  Each method reads
    the points at a RadialPoints, which keeps their shapes for the next
    call, and returns one value per point.  t is one time, or a block of
    times (a sequence) evaluated in one pass, whose axis then leads the
    result.
    """

    form: str
    eps: float
    sigma: float
    rho: float

    def __post_init__(self):
        if self.form not in FORMS:
            raise DomainError(f"unknown weight form {self.form!r}")
        if self.eps <= 0 or self.sigma <= 0 or self.rho <= 0:
            raise DomainError("weight needs eps, sigma, rho > 0")

    def log_value(self, t, at: RadialPoints) -> np.ndarray:
        return self.eps * _power(t, self.sigma) * at.shape(0, self.form, self.rho)

    def dt_log(self, t, at: RadialPoints) -> np.ndarray:
        if np.any(np.asarray(t) <= 0):
            raise DomainError("time derivative needs t > 0")
        return self.eps * self.sigma * _power(t, self.sigma - 1.0) \
            * at.shape(0, self.form, self.rho)

    def value(self, t, at: RadialPoints) -> np.ndarray:
        """w itself; SaturationError, carrying log w, where it leaves float range."""
        if np.any(np.asarray(t) < 0):
            raise DomainError("weight needs t >= 0")
        lv = self.log_value(t, at)
        top = float(np.max(lv))
        if top > _LOG_MAX:
            raise SaturationError(top)
        return np.exp(lv)

    def r_log(self, t, at: RadialPoints) -> tuple:
        """The first and second derivatives of log w in r, eps t^sigma S'(r)
        and eps t^sigma S''(r).  With u and u2 these, grad log w = 2 u x and
        D^2 log w = 2 u I + 4 u2 x x^T."""
        c = self.eps * _power(t, self.sigma)
        return tuple(c * at.shape(order, self.form, self.rho) for order in (1, 2))


def log_curvature(u: np.ndarray, u2: np.ndarray, rm1: np.ndarray, d: int) -> np.ndarray:
    """|grad log w|^2 + Lap log w = 4 (r - 1) u^2 + 2 d u + 4 (r - 1) u2 of a
    radial weight, from the r-derivatives u, u2 of log w (r_log) at r - 1 = rm1."""
    return 4.0 * rm1 * u * u + 2.0 * d * u + 4.0 * rm1 * u2


# ---------------------------------------------------------------------------
# specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LyapunovSpec:
    """Static radial Lyapunov function exp(eps_hat * S(1+|x|^2))."""

    form: str
    rho: float
    eps_hat: float
    target: str = "P"
    lam: Optional[float] = None  # certified growth bound, set by verify_certificate

    def __post_init__(self):
        if self.form not in FORMS:
            raise DomainError(f"unknown form {self.form!r}")
        if self.target not in TARGETS:
            raise DomainError(f"unknown target {self.target!r}")
        if self.rho <= 0 or self.eps_hat <= 0:
            raise DomainError("need rho > 0 and eps_hat > 0")
        if self.lam is not None and self.lam < 0:
            raise DomainError("certified growth bound must be >= 0")

    def weight(self) -> SpaceTimeWeight:
        """The function as a weight with t^sigma frozen at 1: sigma = 1, read at t = 1."""
        return SpaceTimeWeight(form=self.form, eps=self.eps_hat, sigma=1.0, rho=self.rho)


@dataclass(frozen=True)
class TimeLyapunovSpec:
    """Time-dependent companion exp(eps_T t^sigma S(1+|x|^2)) on [0, T]."""

    base: LyapunovSpec
    T: float
    sigma: float
    delta: float
    c0: Optional[float] = None  # calibrated constant part of g, set by verify_certificate

    def __post_init__(self):
        if self.T <= 0 or self.sigma <= 0:
            raise DomainError("need T > 0 and sigma > 0")
        lo = self.sigma / (self.sigma + 1.0)
        if not (lo < self.delta < self.sigma):
            raise DomainError(
                f"delta must lie in (sigma/(sigma+1), sigma) = ({lo:.6g}, {self.sigma:.6g}), "
                f"got {self.delta:.6g}")

    @property
    def eps_T(self) -> float:
        return self.base.eps_hat * self.T ** (-self.sigma)

    def weight(self) -> SpaceTimeWeight:
        """The function as a space-time weight, of amplitude eps_T."""
        return SpaceTimeWeight(form=self.base.form, eps=self.eps_T, sigma=self.sigma,
                               rho=self.base.rho)

    def scaled(self, f: float) -> TimeLyapunovSpec:
        """The spec of amplitude f eps_hat, its growth constant c0 still to calibrate."""
        return replace(self, base=replace(self.base, eps_hat=self.base.eps_hat * float(f)),
                       c0=None)

    def rate(self, t):
        """The t-dependent part of g, eps_T delta t^p (growth_exponent); a float
        t gives a float."""
        return self.eps_T * self.delta * t ** growth_exponent(self.sigma, self.delta)

    def g(self, t) -> np.ndarray:
        if self.c0 is None:
            raise CertificateError("g requested before the certificate calibrated c0")
        return self.c0 + self.rate(np.asarray(t, dtype=float))

    def G(self, t) -> np.ndarray:
        if self.c0 is None:
            raise CertificateError("G requested before the certificate calibrated c0")
        return growth_integral(self.c0, self.eps_T, self.sigma, self.delta, t)


def growth_exponent(sigma: float, delta: float) -> float:
    """The power p = sigma(delta-1)/delta of t in the growth rate g."""
    return sigma * (delta - 1.0) / delta


def growth_integral(c0: float, eps_T: float, sigma: float, delta: float, t) -> np.ndarray:
    """Closed form of int_0^t (c0 + eps_T delta s^p) ds, p = growth_exponent.

    p > -1 exactly when delta > sigma/(sigma+1), so the integral is finite;
    delta = sigma is accepted here to cover limit cases.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise DomainError("growth integral needs t >= 0")
    p = growth_exponent(sigma, delta)
    if p <= -1.0:
        raise DomainError(f"exponent p = {p:.6g} <= -1, integral diverges")
    return c0 * t + eps_T * delta * t ** (p + 1.0) / (p + 1.0)


# ---------------------------------------------------------------------------
# deterministic synthesis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SynthesisResult:
    static: LyapunovSpec
    timed: TimeLyapunovSpec


def _midpoint(lo: float, hi: float) -> float:
    return 0.5 * (lo + hi)


def _poly_rho_upper(fam: PolynomialFamily, k: int) -> float:
    """Root of max{gamma_kk, beta_k + rho} + 1 - 2 rho - alpha_k in rho.

    The left side is piecewise linear and strictly decreasing, so the root
    is unique; which branch holds it depends on the sign of
    gamma_kk - (2 beta_k + 1 - alpha_k).
    """
    g, beta, alpha = float(fam.gamma[k, k]), float(fam.beta[k]), float(fam.alpha[k])
    if g <= 2.0 * beta + 1.0 - alpha:
        return beta + 1.0 - alpha
    return 0.5 * (g + 1.0 - alpha)


def _poly_eps_cap(fam: PolynomialFamily, rho: float, equality: list[int]) -> float:
    """Admissible eps_hat ceiling from the leading-term balance.

    Only components where the growth constraint is tight contribute; at a
    tight index the quadratic gradient term of the candidate function ties
    with the damping terms, and the ceiling depends on whether the potential
    (first case), the drift (second), or both (third) absorb it.
    """
    cap = 1.0
    for k in equality:
        zmax, emin = float(fam.zeta[k]), float(fam.eta[k])
        th = float(fam.theta[k, k])
        diff = float(fam.gamma[k, k]) - (2.0 * float(fam.beta[k]) + 1.0 - float(fam.alpha[k]))
        if diff > 0:
            cap_k = math.sqrt(th / (4.0 * rho ** 2 * zmax))
        elif diff < 0:
            cap_k = emin / (2.0 * rho * zmax)
        else:
            cap_k = (emin + math.sqrt(emin ** 2 + 4.0 * zmax * th)) / (4.0 * rho * zmax)
        cap = min(cap, cap_k)
    return cap


def _poly_eps_cap_adjoint(fam: PolynomialFamily, rho: float, equality: list[int]) -> float:
    cap = 1.0
    for k in equality:
        zmax, emax = float(fam.zeta[k]), float(fam.eta[k])
        th = float(fam.theta[k, k])
        diff = float(fam.gamma[k, k]) - (2.0 * float(fam.beta[k]) - float(fam.alpha[k]) + 1.0)
        if diff > 0:
            cap_k = math.sqrt(th / (4.0 * rho ** 2 * zmax))
        elif diff < 0:
            cap_k = th / (2.0 * rho * emax)
        else:
            cap_k = (-emax + math.sqrt(emax ** 2 + 4.0 * zmax * th)) / (4.0 * rho * zmax)
        cap = min(cap, cap_k)
    return cap


def _sigma_above(rho: float, damping: float) -> float:
    # sigma sits one above its lower endpoint rho/(damping - rho)
    return rho / (damping - rho) + 1.0


def _delta_midpoint(sigma: float, cap_ratio: float) -> float:
    # feasible delta interval is (sigma/(sigma+1), sigma * cap_ratio)
    lo = sigma / (sigma + 1.0)
    hi = sigma * cap_ratio
    if hi <= lo:
        raise SynthesisError(
            f"empty delta interval ({lo:.6g}, {hi:.6g}); sigma too close to its lower bound")
    return _midpoint(lo, hi)


def synth_poly(fam: PolynomialFamily, T: float, target: str = "P") -> SynthesisResult:
    """Deterministic Lyapunov synthesis for the polynomial family.

    Forward target: rho must satisfy, for every equation k,
    max{gamma_kk, beta_k + rho} + 1 >= 2 rho + alpha_k (growth balance)
    and max{gamma_kk, beta_k + rho} > rho (damping wins); the interval is
    (0, U) and rho = U/2.  sigma sits above rho/(m* - rho) with
    m* = min_k max{gamma_kk, beta_k + rho}; delta inside
    (sigma/(sigma+1), sigma (m*-rho)/m*).  The adjoint target replaces the
    balance by gamma_kk >= max{alpha_k + 2 rho - 1, beta_k + rho} with
    gamma_kk > rho, and its sigma constraint uses min_k gamma_kk alone
    because the flipped drift no longer damps.
    """
    if target not in TARGETS:
        raise DomainError(f"unknown target {target!r}")
    if T <= 0:
        raise DomainError("need horizon T > 0")
    m = fam.dims.m

    if target == "P":
        uppers = []
        for k in range(m):
            u = _poly_rho_upper(fam, k)
            if fam.beta[k] == 0.0:
                u = min(u, float(fam.gamma[k, k]))
            uppers.append(u)
        U = min(uppers)
        if U <= 0:
            k_bad = int(np.argmin(uppers))
            raise SynthesisError(
                f"equation {k_bad}: no admissible rho, growth balance "
                f"max{{gamma_kk, beta_k}} + 1 > alpha_k fails "
                f"(upper endpoint {U:.6g} <= 0)")
        rho = U / 2.0
        equality = [k for k in range(m)
                    if abs(max(fam.gamma[k, k], fam.beta[k] + rho)
                           + 1.0 - 2.0 * rho - fam.alpha[k]) < 1e-12]
        cap = _poly_eps_cap(fam, rho, equality)
        eps_hat = cap / 2.0
        mstar = min(max(float(fam.gamma[k, k]), float(fam.beta[k]) + rho) for k in range(m))
        if mstar <= rho:
            raise SynthesisError(f"damping max{{gamma_kk, beta_k + rho}} = {mstar:.6g} "
                                 f"does not exceed rho = {rho:.6g}")
        sigma = _sigma_above(rho, mstar)
        delta = _delta_midpoint(sigma, (mstar - rho) / mstar)
    else:
        uppers = []
        for k in range(m):
            g = float(fam.gamma[k, k])
            u = min(0.5 * (g + 1.0 - float(fam.alpha[k])), g - float(fam.beta[k]), g)
            uppers.append(u)
        U = min(uppers)
        if U <= 0:
            k_bad = int(np.argmin(uppers))
            raise SynthesisError(
                f"equation {k_bad}: no admissible adjoint rho, need gamma_kk above "
                f"max{{alpha_k + 2 rho - 1, beta_k + rho, rho}} (upper endpoint {U:.6g} <= 0)")
        rho = U / 2.0
        equality = [k for k in range(m)
                    if abs(float(fam.gamma[k, k])
                           - max(fam.alpha[k] + 2.0 * rho - 1.0,
                                 fam.beta[k] + rho)) < 1e-12]
        cap = _poly_eps_cap_adjoint(fam, rho, equality)
        eps_hat = cap / 2.0
        gmin = float(np.diag(fam.gamma).min())
        if gmin <= rho:
            raise SynthesisError(f"adjoint damping gamma_min = {gmin:.6g} "
                                 f"does not exceed rho = {rho:.6g}")
        sigma = _sigma_above(rho, gmin)
        delta = _delta_midpoint(sigma, (gmin - rho) / gmin)

    static = LyapunovSpec(form="power", rho=rho, eps_hat=eps_hat, target=target)
    timed = TimeLyapunovSpec(base=static, T=T, sigma=sigma, delta=delta)
    return SynthesisResult(static=static, timed=timed)


def synth_exp(fam: ExponentialFamily, T: float, target: str = "P") -> SynthesisResult:
    """Deterministic Lyapunov synthesis for the exponential family.

    Forward target: the integrated-exp shape works for every
    rho < max{beta_k, gamma_kk} per equation (midpoint chosen), any
    eps_hat > 0 (0.5 chosen), and any sigma > 0; the artifact fixes
    sigma = 1 and the usual delta midpoint.  The adjoint target needs
    rho < min_k gamma_kk and sigma above rho/(gamma_min - rho).
    """
    if target not in TARGETS:
        raise DomainError(f"unknown target {target!r}")
    if T <= 0:
        raise DomainError("need horizon T > 0")
    m = fam.dims.m

    if target == "P":
        caps = [max(float(fam.beta[k]), float(fam.gamma[k, k])) for k in range(m)]
        U = min(caps)
        if U <= 0:
            k_bad = int(np.argmin(caps))
            raise SynthesisError(
                f"equation {k_bad}: no admissible rho, need max{{beta_k, gamma_kk}} > 0")
        rho = U / 2.0
        sigma = 1.0  # free choice for the forward target, fixed for determinism
    else:
        gmin = float(np.diag(fam.gamma).min())
        if gmin <= 0:
            raise SynthesisError("adjoint synthesis needs gamma_kk > 0 for every k")
        rho = gmin / 2.0
        sigma = _sigma_above(rho, gmin)

    delta = _delta_midpoint(sigma, 1.0)
    static = LyapunovSpec(form="integrated-exp", rho=rho, eps_hat=0.5, target=target)
    timed = TimeLyapunovSpec(base=static, T=T, sigma=sigma, delta=delta)
    return SynthesisResult(static=static, timed=timed)


# ---------------------------------------------------------------------------
# numeric certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertificateReport:
    certified: LyapunovSpec | TimeLyapunovSpec
    sup_coarse: float
    sup_fine: float
    radius: float
    passed: bool


# radius of the ledger's sample box, and the default one of the certificates
# and row sums; a box of dimension d has _points_per_axis(d) points per axis
SAMPLE_RADIUS = 20.0
# a certificate is stable when its two grid sups agree within this share of
# max(1, |sup|)
STABLE_TOLERANCE = 0.01
_GRID_POINTS = {1: 513, 2: 65}


def _points_per_axis(d: int) -> int:
    return _GRID_POINTS.get(d, 33)


def _grid_points(d: int, radius: float) -> np.ndarray:
    n = _points_per_axis(d)
    axes = [np.linspace(-radius, radius, n) for _ in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([mm.ravel() for mm in mesh], axis=-1)


@functools.cache
def _radius_classes(d: int, radius: float) -> np.ndarray:
    """The first point, in row-major order, of each distinct sum of squares
    of the sample box, listed in row-major order.

    The table depends only on its arguments, so a process builds it once per
    key and every caller reads the one array, which is read-only.
    """
    pts = _grid_points(d, radius)
    _, first = np.unique(np.sum(pts * pts, axis=-1), return_index=True)
    classes = pts[np.sort(first)]
    classes.flags.writeable = False
    return classes


def _sample_points(system, radius: float) -> RadialPoints:
    """The sample radii of system's certificates, ledger and row sums in the
    box of the given radius: r = 1 + |x|^2 at the first box point, in
    row-major order, of each distinct sum of squares (_radius_classes).

    Every ratio they take a sup or inf of is a function of r alone for a
    family, which is radial by construction (see coefficients.py), so they
    evaluate it on this one array of radii; the points stay for the edge
    flags and for the x of a non-finite error.  In 1-D the radii are those
    of the box's leading half; a 2-D box of 65^2 points holds 457 radii, and
    a 3-D box of 33^3 points 464.  Any other system raises DomainError.
    """
    if not isinstance(system, _FamilyBase):
        raise DomainError(
            f"{type(system).__name__} (d={system.dims.d}, m={system.dims.m}) is not a radial "
            "family: certificates, ledger and row sums evaluate in r = 1 + |x|^2 alone")
    return RadialPoints(_radius_classes(system.dims.d, float(radius)), system.dims.d)


def _signed_log_sum(logabs: np.ndarray, sign: np.ndarray, axis: int = 0):
    """Stable signed sum of terms given by (log|term|, sign); returns (log|sum|, sign)."""
    M = np.max(logabs, axis=axis, keepdims=True)
    M = np.where(np.isfinite(M), M, 0.0)
    acc = np.sum(sign * np.exp(logabs - M), axis=axis)
    out_sign = np.sign(acc)
    out = np.squeeze(M, axis=axis) + np.log(np.maximum(np.abs(acc), 1e-300))
    return out, out_sign


def _cooperative_row_sums(fam, r: np.ndarray, adjoint: bool,
                          with_divb: bool = False) -> np.ndarray:
    """Row sums of the cooperative potential V^P of a radial family at the
    radii r, shape (m, len(r)).

    The adjoint takes column sums instead, and with_divb adds div b to them.
    The terms, diagonal first, are summed in log space after factoring out
    the largest, so whichever entry dominates, a huge sum degrades to +/- inf
    rather than NaN.  They are log|v_hl| and log|div b|, formed without the
    entries.
    """
    m, n = fam.dims.m, len(r)
    out = np.empty((m, n))
    with np.errstate(over="ignore", divide="ignore"):
        for k in range(m):
            logs, signs = [], []
            for l in [k] + [l for l in range(m) if l != k]:
                h, c = (l, k) if adjoint else (k, l)
                if fam.theta[h, c] != 0.0:
                    # off-diagonal cooperative entries always subtract
                    logs.append(fam.log_growth_V(h, c, r))
                    signs.append(np.full(n, 1.0 if l == k else -1.0))
            if with_divb:
                logs.append(fam.radial_divb(k, r, log=True))
                signs.append(np.full(n, -1.0))
            mag, sign = _signed_log_sum(np.array(logs), np.array(signs), axis=0)
            vals = sign * np.exp(np.minimum(mag, _LOG_MAX))
            vals[mag > _LOG_MAX] = np.inf * sign[mag > _LOG_MAX]
            out[k] = vals
    return out


@dataclass(frozen=True)
class GridFields:
    """Coefficient fields of a radial family on the radii of one sample grid,
    for one target, each of shape (m, n).

    The coefficients depend on x only, so a certificate evaluates these once
    per grid and reuses them at every time.  Per component k, with Q_k =
    q_k(r) I, b_k = -x p_k(r) and g_k = 2 x q_k'(r) the column sums of the
    diffusion derivatives: q[k] is q_k, drift[k] is 2 <g_k + b_k, x> (with
    -b_k for the adjoint), divb[k] is div b_k (adjoint only, else None), and
    vp_sums[k] the cooperative potential's row sums (column sums for the
    adjoint).  points keeps the radial shapes of the weights on the radii.
    """

    q: np.ndarray
    drift: np.ndarray
    divb: Optional[np.ndarray]
    vp_sums: np.ndarray
    points: RadialPoints


def grid_fields(fam, at: RadialPoints, adjoint: bool) -> GridFields:
    """Evaluate the time-invariant fields of _generator_ratio on at's radii."""
    r = at.r
    q, drift = np.empty((2, fam.dims.m, len(r)))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(fam.dims.m):
            zeta, alpha, eta, beta = fam.zeta[k], fam.alpha[k], fam.eta[k], fam.beta[k]
            q[k] = zeta * fam._grow(r, alpha)
            dq = fam._chain(alpha * q[k], r, alpha)
            p = eta * fam._grow(r, beta)
            drift[k] = (4.0 * dq + (2.0 if adjoint else -2.0) * p) * (r - 1.0)
        divb = np.array([fam.radial_divb(k, r) for k in range(fam.dims.m)]) if adjoint else None
    return GridFields(q=q, drift=drift, divb=divb,
                      vp_sums=_cooperative_row_sums(fam, r, adjoint), points=at)


# each family's GridFields by (radius, adjoint); an entry dies with its family
_FAMILY_FIELDS = weakref.WeakKeyDictionary()


def _family_fields(system, radius: float, adjoint: bool) -> GridFields:
    """The GridFields of system's certificate grid of the given radius,
    evaluated on first use and kept while the family lives."""
    at = _sample_points(system, radius)
    fields = _FAMILY_FIELDS.setdefault(system, {})
    if (radius, adjoint) not in fields:
        fields[radius, adjoint] = grid_fields(system, at, adjoint)
    return fields[radius, adjoint]


def _generator_ratio(fields: GridFields, lyap: LyapunovSpec | TimeLyapunovSpec,
                     t=None) -> np.ndarray:
    """(D_t +) generator applied to the (time-)Lyapunov function, over its
    value, on the radii of fields.

    Works with log of the function, a function of r whose first and second
    derivatives in r are u and u2: its gradient is 2 u x, so |grad|^2 =
    4 (r - 1) u^2, and its Laplacian is 2 d u + 4 (r - 1) u2.  The ratio
    for component k is q_k (|grad|^2 + Laplacian) + drift_k u - vp_k, less
    div b_k for the adjoint, plus D_t log for a timed function, in linear
    space.  t is one time, giving a ratio of shape (m, n), or a block of
    times, giving shape (len(t), m, n); the static function takes no t, as
    the one time at which t^sigma is frozen at 1.
    """
    at = fields.points
    timed = isinstance(lyap, TimeLyapunovSpec)
    w = lyap.weight()
    if not timed:
        t = 1.0  # the static function is read at t = 1
    tt = t if np.ndim(t) else float(t)
    u, u2 = w.r_log(tt, at)
    with np.errstate(over="ignore", invalid="ignore"):
        trace = log_curvature(u, u2, at.r - 1.0, at.d)
        out = fields.q * trace[..., None, :] + fields.drift * u[..., None, :] - fields.vp_sums
        if fields.divb is not None:
            out = out - fields.divb
        if timed:
            out = out + w.dt_log(tt, at)[..., None, :]
    # -inf is fine (deep damping); +inf or NaN is not
    if np.any(np.isnan(out)) or np.any(np.isposinf(out)):
        raise CertificateError("generator ratio produced NaN/+inf on the certificate grid")
    return out


def verify_certificate(system, lyap: LyapunovSpec | TimeLyapunovSpec,
                       radius: float = SAMPLE_RADIUS) -> CertificateReport:
    """Validate a Lyapunov certificate on a grid and its radius-doubled version.

    Static specs: certifies lam = max(0, sup_k,x (A psi)_k / psi).  Timed
    specs: calibrates c0 = max(0, sup of the g-free residual) over a
    geometric time ladder.  Fails with a certificate error when the sup
    grows by 10% or more under radius doubling (the function is then no
    Lyapunov function for this operator); passes when the two suprema agree
    within STABLE_TOLERANCE * max(1, |sup|).  Each grid is the sample radii
    of its box (_sample_points), on which the generator ratio of a radial
    family is evaluated in r alone.  The coefficient fields depend on x
    only, so they are evaluated once per grid and reused at every ladder
    time, and the family keeps them for its next certificate.  The ladder
    takes one (times, radii) pass.
    """
    timed = isinstance(lyap, TimeLyapunovSpec)
    target = lyap.base.target if timed else lyap.target

    def grid_sup(R: float) -> float:
        fields = _family_fields(system, R, adjoint=target == "P_adjoint")
        if not timed:
            return float(np.max(_generator_ratio(fields, lyap)))
        tgrid = [lyap.T * 2.0 ** (-j) for j in range(0, 11)]
        shift = np.array([lyap.rate(t) for t in tgrid])
        return float(np.max(_generator_ratio(fields, lyap, tgrid) - shift[:, None, None]))

    return certificate_report(lyap, grid_sup(radius), grid_sup(2.0 * radius), radius)


def certificate_report(lyap: LyapunovSpec | TimeLyapunovSpec, sup_c: float, sup_f: float,
                       radius: float) -> CertificateReport:
    """The report of verify_certificate, from its grid sups at radius and 2 radius.

    A store that keeps only the two sups rebuilds the report here.
    """
    timed = isinstance(lyap, TimeLyapunovSpec)
    scale = max(1.0, abs(sup_c))
    if sup_f >= sup_c + 0.10 * scale and sup_f > sup_c:
        raise CertificateError(
            f"unbounded growth: certificate sup rose from {sup_c:.6g} (R={radius:g}) "
            f"to {sup_f:.6g} (R={2 * radius:g})")
    passed = abs(sup_f - sup_c) <= STABLE_TOLERANCE * scale
    # the doubled grid halves core resolution, so certify against both sups
    if timed:
        certified = replace(lyap, c0=max(0.0, sup_c, sup_f))
    else:
        certified = replace(lyap, lam=max(0.0, sup_c, sup_f))
    return CertificateReport(certified=certified, sup_coarse=sup_c, sup_fine=sup_f,
                             radius=radius, passed=passed)
