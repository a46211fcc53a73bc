"""Structural hypothesis checks and the numeric constants ledger.

Three layers of scrutiny, in increasing numeric weight:

1. closed-form exponent comparisons on the coefficient families (diagonal
   growth of the potential dominating the couplings, diffusion diagonal
   dominating off-diagonal growth, and the growth balance that makes
   Lyapunov synthesis feasible);
2. the row-sum lower bound M of the cooperative potential, measured as an
   infimum over the sample radii plus a tail probe, which feeds the mass
   decay e^{-Mt} of the semigroup;
3. the eight weight-compatibility ratios tying a decaying space-time weight
   w to a pair of growing comparison functions nu1, nu2: c_i is the
   supremum of ratio_i over LEDGER_TIMES times of a window and the sample
   box, e.g.

       c_2 = sup |Q^h grad w| / (w^{(s-1)/s} nu1^{1/s}),
       c_5 = sup |V_(h,.)| / (w^{-2/s} nu2^{2/s}),    and so on.

The sample box is the one of the dimension (lyapunov._sample_points):
radius SAMPLE_RADIUS, which the row sums may change, and
lyapunov._points_per_axis(d) points per axis.  All ratio work happens in
log space: coefficients and weights may overflow float64 individually,
their combinations never should.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .bounds import LEDGER_ITEMS, ConstantsLedger
from .coefficients import ExponentialFamily, PolynomialFamily, _FamilyBase
from .errors import DomainError, NonFiniteError
from .lyapunov import (
    SAMPLE_RADIUS,
    RadialPoints,
    SpaceTimeWeight,
    _cooperative_row_sums,
    _points_per_axis,
    _sample_points,
    _signed_log_sum,
    log_curvature,
)


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of one structural check.

    status is "holds", "fails", or "numeric-only" (true on the sampled set,
    no closed-form certificate).  witness names the offending indices or
    point for failures; margins maps labelled quantities to their slack
    (positive = satisfied strictly).
    """

    hypothesis_id: str
    status: str
    witness: Optional[tuple] = None
    margins: dict = field(default_factory=dict)
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.status != "fails"


@dataclass(frozen=True)
class RowSumBound:
    """Lower bound M for the row sums of the cooperative potential."""

    M: float
    method: str
    certified_tail: bool


# the ledger's sups run over this many equally spaced times of its window
LEDGER_TIMES = 9


# ---------------------------------------------------------------------------
# closed-form family checks
# ---------------------------------------------------------------------------

def _offdiag_dominance(fam: _FamilyBase) -> HypothesisReport:
    """Diagonal potential growth must strictly dominate row couplings."""
    m = fam.dims.m
    margins = {}
    worst = (math.inf, None)
    for h in range(m):
        for k in range(m):
            if h == k or fam.theta[h, k] == 0.0:
                continue
            slack = float(fam.gamma[h, h] - fam.gamma[h, k])
            margins[f"gamma[{h}][{h}]-gamma[{h}][{k}]"] = slack
            if slack < worst[0]:
                worst = (slack, (h, k))
    status = "holds" if (worst[1] is None or worst[0] > 0) else "fails"
    return HypothesisReport("potential-row-dominance", status,
                            witness=None if status == "holds" else worst[1],
                            margins=margins)


def _slack_report(hypothesis_id: str, label: str, slacks: Sequence[float]) -> HypothesisReport:
    """Holds when every per-equation slack is positive; the witness is the worst k."""
    margins = {f"{label}[{k}]": slack for k, slack in enumerate(slacks)}
    k = int(np.argmin(slacks))
    ok = slacks[k] > 0
    return HypothesisReport(hypothesis_id, "holds" if ok else "fails",
                            witness=None if ok else (k,), margins=margins)


def _exponent_table(fam: _FamilyBase, lag: float) -> list[HypothesisReport]:
    """Exponent hypotheses shared by both families.

    Covers sign conventions (enforced at construction), row and diffusion
    dominance, the growth balance max{gamma_kk, beta_k} > alpha_k - lag
    needed for forward synthesis, the stronger diagonal dominance needed
    for the adjoint, and the two-sided combination.  The
    diffusion lag is 1 for power growth, whose derivative loses one power
    of r, and 0 when growth is compared inside exp.
    """
    m = fam.dims.m
    reports = [
        HypothesisReport("family-signs", "holds",
                         margins={"eta_min": float(fam.eta.min()),
                                  "theta_diag_min": float(np.diag(fam.theta).min())},
                         note="nonnegative exponents, positive eta_k and theta_kk "
                              "enforced by the constructor"),
        _offdiag_dominance(fam),
        # Q^k = zeta_k g(r, alpha_k) I is positive definite exactly when zeta_k > 0
        _slack_report("diffusion-diagonal-dominance", "zeta", fam.zeta.tolist()),
    ]
    balance, adjoint, two_sided = [], [], []
    for k in range(m):
        g = fam.gamma[k, k]
        col = [float(fam.gamma[h, k]) for h in range(m) if h != k and fam.theta[h, k] != 0.0]
        row = [float(fam.gamma[k, h]) for h in range(m) if h != k and fam.theta[k, h] != 0.0]
        rivals = [float(fam.beta[k]), float(fam.alpha[k]) - lag] + col
        balance.append(float(max(g, fam.beta[k]) - (fam.alpha[k] - lag)))
        adjoint.append(float(g - max(rivals)))
        two_sided.append(float(g - max(rivals + row)))
    reports.append(_slack_report("growth-balance", "balance", balance))
    reports.append(_slack_report("adjoint-dominance", "adjoint", adjoint))
    reports.append(_slack_report("two-sided-dominance", "two-sided", two_sided))
    return reports


def check_polynomial(fam: PolynomialFamily) -> list[HypothesisReport]:
    """Exponent hypotheses of the polynomial family (diffusion lag 1)."""
    return _exponent_table(fam, lag=1.0)


def check_exponential(fam: ExponentialFamily) -> list[HypothesisReport]:
    """Exponent hypotheses of the exponential family (growth compared inside exp)."""
    return _exponent_table(fam, lag=0.0)


# ---------------------------------------------------------------------------
# row-sum lower bound
# ---------------------------------------------------------------------------

def compute_row_sum_bound(system, adjoint: bool = False,
                          radius: float = SAMPLE_RADIUS) -> RowSumBound:
    """Infimum of the worst cooperative row sum over a sample box, with a
    tail probe.

    A radial family's row sums are functions of r = 1 + |x|^2 alone, so the
    infimum is taken over the box's distinct radii (lyapunov._sample_points),
    and the tail is probed on one ray, at radii radius * {1, 1.25, 1.5, 2}.
    The row sums there must be nondecreasing for the tail to count as
    certified, otherwise the result is marked numeric-only.
    """
    at = _sample_points(system, radius)
    M = float(np.min(_cooperative_row_sums(system, at.r, adjoint, with_divb=adjoint)))
    ray = radius * np.array([1.0, 1.25, 1.5, 2.0])
    vals = _cooperative_row_sums(system, 1.0 + ray * ray, adjoint, with_divb=adjoint).min(axis=0)
    certified = all(hi >= lo - (1e-12 * max(1.0, abs(lo)) if math.isfinite(lo) else 0.0)
                    for lo, hi in zip(vals[:-1], vals[1:]))
    return row_sum_bound_of(M, certified, radius, system.dims.d)


def row_sum_bound_of(M: float, certified: bool, radius: float, d: int) -> RowSumBound:
    """The bound compute_row_sum_bound returns for its radius in dimension d,
    from the infimum M and the tail verdict it measured.

    A store that keeps only those two numbers rebuilds the bound here.
    """
    method = f"grid-infimum(radius={radius:g}, per_axis={_points_per_axis(d)})" \
        + (", tail certified nondecreasing" if certified else ", tail NOT certified")
    return RowSumBound(M=M, method=method, certified_tail=certified)


def check_base(system, radius: float = SAMPLE_RADIUS) -> tuple[list[HypothesisReport], RowSumBound]:
    """Every hypothesis report of a radial family, and its row-sum bound.

    The reports open with its exponent table (check_polynomial or
    check_exponential).  Its ellipticity then takes the verdict of
    diffusion-diagonal-dominance, whose margin zeta[k] is zeta_k, and the
    row-sum status takes potential-row-dominance from the table, so each is
    computed once and reported under one id.  Regularity is assumed (reported as a note),
    the Lyapunov existence requirement is deferred to the synthesis and
    certificate machinery, and the row-sum lower bound of the cooperative
    potential is measured; a system that is not a family raises
    DomainError there.
    """
    row = compute_row_sum_bound(system, radius=radius)
    table = (check_polynomial if isinstance(system, PolynomialFamily)
             else check_exponential)(system)
    by_id = {rep.hypothesis_id: rep for rep in table}
    diffusion = by_id["diffusion-diagonal-dominance"]
    ellipticity = HypothesisReport(
        "ellipticity", diffusion.status, witness=diffusion.witness,
        note="Q^k = zeta_k g I positive definite, by zeta of diffusion-diagonal-dominance")
    dom = by_id["potential-row-dominance"]
    status = "fails" if not dom.ok else "holds" if row.certified_tail else "numeric-only"
    return table + [
        HypothesisReport("regularity", "holds",
                         note="families are smooth by construction; any other system "
                              "is refused"),
        ellipticity,
        HypothesisReport("lyapunov-existence", "numeric-only",
                         note="certified separately by synthesis and grid certificates"),
        HypothesisReport("row-sum-lower-bound", status, witness=dom.witness,
                         margins={"M": row.M}, note=row.method),
    ], row


# ---------------------------------------------------------------------------
# constants ledger
# ---------------------------------------------------------------------------

def _log_norm_from_entries(logabs: np.ndarray, axis: int = 0) -> np.ndarray:
    """log of the Euclidean/Frobenius norm from log|entries|; -inf where
    every entry is -inf, so a norm of entries that all vanish is 0."""
    M = np.max(logabs, axis=axis, keepdims=True)
    M = np.where(np.isfinite(M), M, 0.0)
    ssq = np.sum(np.exp(2.0 * (logabs - M)), axis=axis)
    with np.errstate(divide="ignore"):
        return np.squeeze(M, axis=axis) + 0.5 * np.log(ssq)


def _family_log_V_row(fam: _FamilyBase, h: int, r: np.ndarray) -> np.ndarray:
    """log of the Euclidean norm of row h of V."""
    m = fam.dims.m
    rows = np.full((m, len(r)), -np.inf)
    for k in range(m):
        if fam.theta[h, k] != 0.0:
            rows[k] = fam.log_growth_V(h, k, r)
    return _log_norm_from_entries(rows, axis=0)


def _log_abs(v: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(np.abs(v), 1e-300))


def ledger_fields(fam, at: RadialPoints, adjoint: bool) -> list:
    """The time-invariant part of the ledger ratios on the radii of at, per
    component k of a radial family, with Q_k = q I, R_k = 2 q' diag(x) and
    b_k = -x p: log|q|, the sign of q, log|2 q'|, and the log-norms of items
    5-8 before their weight factors: |V row| (with |div b| for the adjoint),
    |b| = p |x|, |Q|_F = sqrt(d) |q| and |R|_F = 2 |q'| |x|.  A norm of
    entries that all vanish is 0: with alpha = 0, log|2 q'| is -inf and
    so is item 8's log-norm."""
    r, d = at.r, fam.dims.d
    log_x = _log_abs(np.sqrt(r - 1.0))
    fields = []
    for k in range(fam.dims.m):
        zeta, alpha, eta, beta = fam.zeta[k], fam.alpha[k], fam.eta[k], fam.beta[k]
        with np.errstate(divide="ignore"):
            logq = np.log(abs(zeta)) + fam._log_grow(r, alpha)
            # |zeta| (2 alpha): with alpha = 0 a zeta near the float max gives log 0, not log(inf * 0)
            logdq = np.log(abs(zeta) * (2.0 * alpha)) + fam._log_grow(r, alpha) \
                + np.log(fam._chain(1.0, r, alpha))
        pot = _family_log_V_row(fam, k, r)  # item 5: |V row| (+ |div b| in the starred variant)
        if adjoint:
            pot = np.logaddexp(pot, fam.radial_divb(k, r, log=True))
        log_b = np.log(eta) + fam._log_grow(r, beta) + log_x
        # items 6-8: |b|, |Q|_F and |R|_F
        fields.append((logq, np.sign(zeta), logdq, pot, _log_norm_from_entries(log_b[None]),
                       logq + 0.5 * np.log(d), _log_norm_from_entries((logdq + log_x)[None])))
    return fields


def estimate_ledger(system, w: SpaceTimeWeight, nu1: SpaceTimeWeight, nu2: SpaceTimeWeight,
                    s: float, window: tuple[float, float, float, float],
                    adjoint: bool = False) -> ConstantsLedger:
    """Numeric suprema of the eight weight-compatibility ratios.

    w must decay relative to nu1 and nu2 (eps strictly increasing along
    w, nu1, nu2 and shared sigma, rho), otherwise the ratios blow up.  The
    window is the ledger's nested (a0, a, b, b0), and the supremum runs
    over LEDGER_TIMES equally spaced times of [a0, b0] x the sample box of
    radius SAMPLE_RADIUS; every evaluation is a log-space combination, so
    family coefficients far beyond float64 range still produce finite
    ratios.  adjoint=True computes the starred variant: the potential item
    additionally absorbs |div b|, and the resulting constants land in c
    with M from the adjoint row sums.  A radial family's ratios are
    functions of r = 1 + |x|^2 alone, so they are evaluated on the box's
    distinct radii (lyapunov._sample_points), the whole window in one
    (times, radii) pass, and M is the infimum of the row sums on the same
    radii.  Each radius stands at the first box point of its class in
    row-major order, which gives the edge flags and the x of the first
    non-finite ratio, taken in time, item and radius order.
    """
    if len(window) != 4 or not 0 < window[0] < window[1] < window[2] < window[3]:
        raise DomainError(f"window must be (a0, a, b, b0) with 0 < a0 < a < b < b0, "
                          f"got {window}")
    if not (w.sigma == nu1.sigma == nu2.sigma and w.rho == nu1.rho == nu2.rho
            and w.form == nu1.form == nu2.form):
        raise DomainError("w, nu1, nu2 must share form, sigma, and rho")
    if not (w.eps < nu1.eps < nu2.eps):
        raise DomainError(
            f"need eps(w) < eps(nu1) < eps(nu2), got {w.eps}, {nu1.eps}, {nu2.eps}")
    d = system.dims.d
    at = _sample_points(system, SAMPLE_RADIUS)  # the weights share form and rho
    pts, rm1 = at.pts, at.r - 1.0
    edge = np.max(np.abs(pts), axis=-1) >= 0.95 * SAMPLE_RADIUS
    fields = ledger_fields(system, at, adjoint)

    ts = np.linspace(window[0], window[3], LEDGER_TIMES)
    Sw = w.log_value(ts, at)                # (times, radii)
    d1 = (Sw - nu1.log_value(ts, at)) / s
    d2 = (Sw - nu2.log_value(ts, at)) / s
    u, u2 = w.r_log(ts, at)                 # grad log w = 2 u x
    with np.errstate(over="ignore", invalid="ignore"):
        grad = 2.0 * np.abs(u) * np.sqrt(rm1)                   # |grad log w|
        xgrad = 2.0 * u * rm1                                   # <x, grad log w>
        curv = log_curvature(u, u2, rm1, d)                     # |grad log w|^2 + Lap log w
    log_grad, log_xgrad, log_curv = _log_abs(grad), _log_abs(xgrad), _log_abs(curv)
    log_ratios = np.full((len(ts), 8, len(rm1)), -np.inf)
    log_ratios[:, 0] = 2.0 * d1  # (w/nu1)^(2/s)
    log_ratios[:, 3] = _log_abs(w.dt_log(ts, at)) + 2.0 * d1  # item 4

    for logq, sign_q, logdq, pot, norm_b, norm_Q, norm_R in fields:
        # item 2: |Q grad w| / (w^((s-1)/s) nu1^(1/s)) = |q| |grad log w| e^(d1)
        log_ratios[:, 1] = np.maximum(log_ratios[:, 1], logq + log_grad + d1)
        # item 3: |div(Q grad w)|/w e^(2 d1)
        #       = |q (|grad log w|^2 + Lap log w) + 2 q' <x, grad log w>| e^(2 d1)
        div_log, _ = _signed_log_sum(
            np.stack([logq + log_curv, logdq + log_xgrad]),
            np.stack([sign_q * np.sign(curv), sign_q * np.sign(xgrad)]), axis=0)
        log_ratios[:, 2] = np.maximum(log_ratios[:, 2], div_log + 2.0 * d1)
        # items 5-8: the time-invariant norms against nu2 and nu1
        log_ratios[:, 4] = np.maximum(log_ratios[:, 4], pot + 2.0 * d2)
        log_ratios[:, 5] = np.maximum(log_ratios[:, 5], norm_b + d2)
        log_ratios[:, 6] = np.maximum(log_ratios[:, 6], norm_Q + d1)
        log_ratios[:, 7] = np.maximum(log_ratios[:, 7], norm_R + 2.0 * d1)

    with np.errstate(over="ignore"):
        ratios = np.exp(log_ratios, out=log_ratios)
    if not np.all(np.isfinite(ratios)):
        # the first time, item and radius, in that order
        b, item, pt = (int(v) for v in np.argwhere(~np.isfinite(ratios))[0])
        raise NonFiniteError(
            f"ledger item '{LEDGER_ITEMS[item]}' non-finite at t={ts[b]:.6g}, "
            f"x={pts[pt]!r}")
    sups = np.zeros(8)
    arg_edge = [False] * 8
    for t_sup, t_arg in zip(ratios.max(axis=-1), ratios.argmax(axis=-1)):
        for i in range(8):
            if t_sup[i] > sups[i]:
                sups[i] = t_sup[i]
                arg_edge[i] = bool(edge[t_arg[i]])

    row = compute_row_sum_bound(system, adjoint)
    return ledger_of(d, s, window, sups, arg_edge, row.M)


def ledger_of(d: int, s: float, window: tuple[float, float, float, float],
              sups: Sequence[float], edge: Sequence[bool], M: float) -> ConstantsLedger:
    """The ledger estimate_ledger returns for its window, from the eight
    sups, their edge flags and the row-sum bound M it measured.

    A store that keeps only those numbers rebuilds the ledger here.
    """
    return ConstantsLedger(d=d, s=s, window=tuple(window),
                           c=tuple(np.asarray(sups, dtype=float)), M=M,
                           boundary_flags=tuple(bool(e) for e in edge))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def report_text(reports: Sequence[HypothesisReport]) -> str:
    """Human-readable structured report, stable across runs."""
    buf = io.StringIO()
    buf.write("hypothesis report\n=================\n")
    for rep in reports:
        buf.write(f"\n[{rep.hypothesis_id}]\nstatus = {rep.status}\n")
        if rep.witness is not None:
            buf.write(f"witness = {rep.witness!r}\n")
        if rep.note:
            buf.write(f"note = {rep.note}\n")
        for key in sorted(rep.margins):
            buf.write(f"margin {key} = {rep.margins[key]!r}\n")
    return buf.getvalue()


def margins_csv(reports: Sequence[HypothesisReport]) -> str:
    lines = ["hypothesis,margin,value,status"]
    for rep in reports:
        if not rep.margins:
            lines.append(f"{rep.hypothesis_id},,,{rep.status}")
        for key in sorted(rep.margins):
            lines.append(f"{rep.hypothesis_id},{key},{rep.margins[key]!r},{rep.status}")
    return "\n".join(lines) + "\n"
