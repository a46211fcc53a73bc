"""Structural hypothesis checks and the numeric constants ledger.

Three layers of scrutiny, in increasing numeric weight:

1. closed-form exponent comparisons on the coefficient families (diagonal
   growth of the potential dominating the couplings, diffusion diagonal
   dominating off-diagonal growth, and the growth balance that makes
   Lyapunov synthesis feasible);
2. the row-sum lower bound M of the cooperative potential, measured as a
   grid infimum plus a directional tail probe, which feeds the mass decay
   e^{-Mt} of the semigroup;
3. the eight weight-compatibility ratios tying a decaying space-time weight
   w to a pair of growing comparison functions nu1, nu2: c_i is the
   supremum over a time window and a spatial sample box of ratio_i, e.g.

       c_2 = sup |Q^h grad w| / (w^{(s-1)/s} nu1^{1/s}),
       c_5 = sup |V_(h,.)| / (w^{-2/s} nu2^{2/s}),    and so on.

All ratio work happens in log space: coefficients and weights may overflow
float64 individually, their combinations never should.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .bounds import LEDGER_ITEMS, ConstantsLedger
from .coefficients import (
    ExponentialFamily,
    PolynomialFamily,
    _FamilyBase,
    min_ellipticity,
    operator_spec_of,
)
from .errors import DomainError, HypothesisViolationError, NonFiniteError
from .lyapunov import (
    SAMPLE_RADIUS,
    RadialPoints,
    SpaceTimeWeight,
    _cooperative_row_sums,
    _grid_points,
    _points_per_axis,
    _signed_log_sum,
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


@dataclass(frozen=True)
class SamplePlan:
    """Sampling layout for numeric suprema: time count, box radius, axis points."""

    t_count: int = 9
    radius: float = SAMPLE_RADIUS
    per_axis: Optional[int] = None

    def points(self, d: int) -> np.ndarray:
        return _grid_points(d, self.radius, self.per_axis)

    def times(self, a0: float, b0: float) -> np.ndarray:
        return np.linspace(a0, b0, self.t_count)


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


def _diffusion_dominance(fam: _FamilyBase) -> HypothesisReport:
    """Diagonal diffusion growth above off-diagonal growth, Z^k positive definite."""
    m, d = fam.dims.m, fam.dims.d
    margins = {}
    witness = None
    status = "holds"
    for k in range(m):
        amin = fam.alpha_min(k)
        for i in range(d):
            for j in range(d):
                if i == j or fam.zeta[k, i, j] == 0.0:
                    continue
                slack = float(amin - fam.alpha[k, i, j])
                margins[f"alpha_min[{k}]-alpha[{k}][{i}][{j}]"] = slack
                if slack <= 0 and witness is None:
                    status, witness = "fails", (k, i, j)
        try:
            margins[f"min_eig_Z[{k}]"] = min_ellipticity(fam, k)
        except HypothesisViolationError:
            status, witness = "fails", (k,)
            margins[f"min_eig_Z[{k}]"] = float(np.linalg.eigvalsh(fam.Z(k)).min())
    return HypothesisReport("diffusion-diagonal-dominance", status, witness=witness,
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

    Covers sign/symmetry conventions (enforced at construction), row and
    diffusion dominance, the growth balance max{gamma_kk, beta_min} >
    alpha_max - lag needed for forward synthesis, the stronger diagonal
    dominance needed for the adjoint, and the two-sided combination.  The
    diffusion lag is 1 for power growth, whose derivative loses one power
    of r, and 0 when growth is compared inside exp.
    """
    m = fam.dims.m
    reports = [
        HypothesisReport("family-signs", "holds",
                         margins={"eta_min": float(fam.eta.min()),
                                  "theta_diag_min": float(np.diag(fam.theta).min())},
                         note="sign and symmetry constraints enforced by the constructor"),
        _offdiag_dominance(fam),
        _diffusion_dominance(fam),
    ]
    balance, adjoint, two_sided = [], [], []
    for k in range(m):
        g = fam.gamma[k, k]
        col = [float(fam.gamma[h, k]) for h in range(m) if h != k and fam.theta[h, k] != 0.0]
        row = [float(fam.gamma[k, h]) for h in range(m) if h != k and fam.theta[k, h] != 0.0]
        rivals = [fam.beta_max(k), fam.alpha_max(k) - lag] + col
        balance.append(float(max(g, fam.beta_min(k)) - (fam.alpha_max(k) - lag)))
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

def compute_row_sum_bound(system, adjoint: bool = False, radius: float = SAMPLE_RADIUS,
                          per_axis: Optional[int] = None) -> RowSumBound:
    """Grid infimum of the worst cooperative row sum, with a tail probe.

    The infimum is taken over a box of the given radius; along each signed
    axis (and in-plane diagonals for d = 2) the row sums are probed at
    radii radius * {1, 1.25, 1.5, 2} and must be nondecreasing for the tail
    to count as certified, otherwise the result is marked numeric-only.
    """
    d = system.dims.d
    n = _points_per_axis(d, per_axis)
    pts = _grid_points(d, radius, n)
    sums = _cooperative_row_sums(system, pts, adjoint, with_divb=adjoint)
    M = float(np.min(sums))

    dirs = []
    for i in range(d):
        e = np.zeros(d)
        e[i] = 1.0
        dirs += [e, -e]
    if d >= 2:
        for si in (1.0, -1.0):
            for sj in (1.0, -1.0):
                v = np.zeros(d)
                v[0], v[1] = si, sj
                dirs.append(v / math.sqrt(2.0))
    certified = True
    for v in dirs:
        radii = radius * np.array([1.0, 1.25, 1.5, 2.0])
        probe = np.stack([rr * v for rr in radii])
        vals = _cooperative_row_sums(system, probe, adjoint, with_divb=adjoint).min(axis=0)
        for lo, hi in zip(vals[:-1], vals[1:]):
            if hi >= lo:
                continue
            tol = 1e-12 * max(1.0, abs(lo)) if math.isfinite(lo) else 0.0
            if not (hi >= lo - tol):
                certified = False
    return row_sum_bound_of(M, certified, radius, n)


def row_sum_bound_of(M: float, certified: bool, radius: float, per_axis: int) -> RowSumBound:
    """The bound compute_row_sum_bound returns for its radius and points per
    axis, from the infimum M and the tail verdict it measured.

    A store that keeps only those two numbers rebuilds the bound here.
    """
    method = f"grid-infimum(radius={radius:g}, per_axis={per_axis})" \
        + (", tail certified nondecreasing" if certified else ", tail NOT certified")
    return RowSumBound(M=M, method=method, certified_tail=certified)


def check_base(system, radius: float = SAMPLE_RADIUS) -> tuple[list[HypothesisReport], RowSumBound]:
    """Baseline well-posedness checks for any coefficient system.

    Regularity is assumed (reported as a note), ellipticity is certified
    via the sign-adjusted matrices for families and sampled for generic
    specs, the Lyapunov existence requirement is deferred to the synthesis
    and certificate machinery, and the row-sum lower bound of the
    cooperative potential is measured.
    """
    reports: list[HypothesisReport] = []
    is_family = isinstance(system, _FamilyBase)
    reports.append(HypothesisReport(
        "regularity", "holds" if is_family else "numeric-only",
        note="families are smooth by construction; generic coefficients are "
             "assumed locally Hoelder continuous"))

    spec = operator_spec_of(system)
    m, d = spec.dims.m, spec.dims.d
    if is_family:
        margins = {}
        status, witness = "holds", None
        for k in range(m):
            try:
                margins[f"min_eig_Z[{k}]"] = min_ellipticity(system, k)
            except HypothesisViolationError:
                status, witness = "fails", (k,)
                margins[f"min_eig_Z[{k}]"] = float(np.linalg.eigvalsh(system.Z(k)).min())
        reports.append(HypothesisReport("ellipticity", status, witness=witness, margins=margins))
    else:
        pts = _grid_points(d, radius)
        worst = math.inf
        arg = None
        for k in range(m):
            Q = np.asarray(spec.Q(k, pts), dtype=float)
            eigs = np.linalg.eigvalsh(0.5 * (Q + np.swapaxes(Q, -1, -2)))
            lo = float(eigs[:, 0].min())
            if lo < worst:
                worst, arg = lo, (k, tuple(pts[int(np.argmin(eigs[:, 0]))]))
        reports.append(HypothesisReport(
            "ellipticity", "numeric-only" if worst > 0 else "fails",
            witness=None if worst > 0 else arg, margins={"min_eig_Q_sampled": worst}))

    reports.append(HypothesisReport(
        "lyapunov-existence", "numeric-only",
        note="certified separately by synthesis and grid certificates"))

    if is_family:
        dom = _offdiag_dominance(system)
        reports.append(dom)
        row = compute_row_sum_bound(system, radius=radius)
        status = "holds" if (dom.ok and row.certified_tail) else \
            ("fails" if not dom.ok else "numeric-only")
        witness = dom.witness
    else:
        row = compute_row_sum_bound(system, radius=radius)
        status = "numeric-only"
        witness = None
    reports.append(HypothesisReport(
        "row-sum-lower-bound", status, witness=witness,
        margins={"M": row.M}, note=row.method))
    return reports, row


# ---------------------------------------------------------------------------
# constants ledger
# ---------------------------------------------------------------------------

def _log_norm_from_entries(logabs: np.ndarray, axis: int = 0) -> np.ndarray:
    """log of the Euclidean/Frobenius norm from log|entries|."""
    M = np.max(logabs, axis=axis, keepdims=True)
    M = np.where(np.isfinite(M), M, 0.0)
    ssq = np.sum(np.exp(2.0 * (logabs - M)), axis=axis)
    return np.squeeze(M, axis=axis) + 0.5 * np.log(np.maximum(ssq, 1e-300))


def _family_log_entries(fam: _FamilyBase, k: int, pts: np.ndarray):
    """Log-magnitudes and signs of the Q, R and b entries of a family."""
    r = 1.0 + np.sum(pts * pts, axis=-1)
    r3, a = r[:, None, None], fam.alpha[k]
    logx = np.log(np.maximum(np.abs(pts), 1e-300))
    with np.errstate(divide="ignore"):
        grow = fam._log_grow(r3, a)
        logQ = np.log(np.abs(fam.zeta[k]))[None, :, :] + grow
        signQ = np.broadcast_to(np.sign(fam.zeta[k]), logQ.shape)
        # R_ij = 2 zeta_ij x_i g'(r, alpha_ij), as in the family's R
        logR = np.log(2.0 * np.abs(fam.zeta[k]) * a)[None, :, :] + grow \
            + np.log(fam._chain(1.0, r3, a)) + logx[:, :, None]
        signR = np.sign(fam.zeta[k])[None, :, :] * np.sign(pts)[:, :, None]
        logb = np.log(fam.eta[k])[None, :] + logx + fam._log_grow(r[:, None], fam.beta[k])
        signb = -np.sign(pts)
    return logQ, signQ, logR, signR, logb, signb


def _family_log_V_row(fam: _FamilyBase, h: int, r: np.ndarray) -> np.ndarray:
    """log of the Euclidean norm of row h of V."""
    m = fam.dims.m
    rows = np.full((m, len(r)), -np.inf)
    for k in range(m):
        if fam.theta[h, k] != 0.0:
            rows[k] = fam.log_growth_V(h, k, r)
    return _log_norm_from_entries(rows, axis=0)


def estimate_ledger(system, w: SpaceTimeWeight, nu1: SpaceTimeWeight, nu2: SpaceTimeWeight,
                    s: float, window: tuple[float, float],
                    plan: Optional[SamplePlan] = None,
                    adjoint: bool = False,
                    inner: Optional[tuple[float, float]] = None) -> ConstantsLedger:
    """Numeric suprema of the eight weight-compatibility ratios.

    w must decay relative to nu1 and nu2 (eps strictly increasing along
    w, nu1, nu2 and shared sigma, rho), otherwise the ratios blow up.  The
    supremum runs over plan.times(a0, b0) x plan.points; every evaluation
    is a log-space combination, so family coefficients far beyond float64
    range still produce finite ratios.  adjoint=True computes the starred
    variant: the potential item additionally absorbs |div b|, and the
    resulting constants land in c with M from the adjoint row sums (use
    ConstantsLedger.with_adjoint to merge).  inner overrides the inner
    window pair (a, b); the default sits at even quarters.  The
    coefficients depend on x only, so their log-entries and the norms of
    items 5-8 are evaluated once per grid, before the loop over times.
    """
    a0, b0 = window
    if not (0 < a0 < b0):
        raise DomainError(f"window must satisfy 0 < a0 < b0, got {window}")
    if not (w.sigma == nu1.sigma == nu2.sigma and w.rho == nu1.rho == nu2.rho
            and w.form == nu1.form == nu2.form):
        raise DomainError("w, nu1, nu2 must share form, sigma, and rho")
    if not (w.eps < nu1.eps < nu2.eps):
        raise DomainError(
            f"need eps(w) < eps(nu1) < eps(nu2), got {w.eps}, {nu1.eps}, {nu2.eps}")
    plan = plan or SamplePlan()
    spec = operator_spec_of(system)
    d, m = spec.dims.d, spec.dims.m
    is_family = isinstance(system, _FamilyBase)

    pts = plan.points(d)
    at = RadialPoints(pts, d)  # the three weights share form and rho
    r = at.r
    ts = plan.times(a0, b0)
    sups = np.zeros(8)
    arg_edge = [False] * 8
    edge = np.max(np.abs(pts), axis=-1) >= 0.95 * plan.radius

    # the coefficients depend on x only: per component, the log-entries of
    # Q and R, and the log-norms of items 5-8 before their weight factors
    fields = []
    if not is_family:
        V = np.asarray(spec.V(pts), dtype=float)
    for k in range(m):
        if is_family:
            logQ, signQ, logR, signR, logb, _ = _family_log_entries(system, k, pts)
            logVrow = _family_log_V_row(system, k, r)
        else:
            Q = np.asarray(spec.Q(k, pts), dtype=float)
            R = np.asarray(spec.R(k, pts), dtype=float)
            bv = np.asarray(spec.b(k, pts), dtype=float)
            logQ = np.log(np.maximum(np.abs(Q), 1e-300))
            signQ = np.sign(Q)
            logR = np.log(np.maximum(np.abs(R), 1e-300))
            signR = np.sign(R)
            logb = np.log(np.maximum(np.abs(bv), 1e-300))
            logVrow = _log_norm_from_entries(
                np.log(np.maximum(np.abs(V[:, k, :]), 1e-300)).T, axis=0)
        # item 5: |V row| (+ |div b| in the starred variant)
        if adjoint:
            db = np.asarray(spec.divb(k, pts), dtype=float)
            pot = np.logaddexp(logVrow, np.log(np.maximum(np.abs(db), 1e-300)))
        else:
            pot = logVrow
        fields.append((
            logQ, signQ, logR, signR, pot,
            _log_norm_from_entries(logb.T, axis=0),                      # item 6: |b|
            _log_norm_from_entries(logQ.reshape(len(r), -1).T, axis=0),  # item 7: |Q|_F
            _log_norm_from_entries(logR.reshape(len(r), -1).T, axis=0),  # item 8: |R|_F
        ))

    for t in ts:
        Sw = w.log_value(t, at, d)
        S1 = nu1.log_value(t, at, d)
        S2 = nu2.log_value(t, at, d)
        gw = w.grad_log(t, at, d)
        hw = w.hess_log(t, at, d)
        dtw = w.dt_log(t, at, d)
        outer = gw[:, :, None] * gw[:, None, :]
        curv = outer + hw
        d1 = (Sw - S1) / s
        d2 = (Sw - S2) / s
        log_ratios = np.full((8, len(r)), -np.inf)
        log_ratios[0] = 2.0 * d1  # (w/nu1)^(2/s)
        log_ratios[3] = np.log(np.maximum(np.abs(dtw), 1e-300)) + 2.0 * d1  # item 4

        log_gw = np.log(np.maximum(np.abs(gw), 1e-300))
        sign_gw = np.sign(gw)
        log_curv = np.log(np.maximum(np.abs(curv), 1e-300))
        sign_curv = np.sign(curv)

        for logQ, signQ, logR, signR, pot, norm_b, norm_Q, norm_R in fields:
            # item 2: |Q grad w| / (w^((s-1)/s) nu1^(1/s)) = |Q grad Sw| e^(d1)
            terms = logQ + log_gw[:, None, :]
            signs = signQ * sign_gw[:, None, :]
            comp_log, _ = _signed_log_sum(terms, signs, axis=2)   # (n, d)
            log_ratios[1] = np.maximum(log_ratios[1],
                                       _log_norm_from_entries(comp_log.T, axis=0) + d1)

            # item 3: |div(Q grad w)|/w * e^(2 d1)
            #       = |sum_ij q_ij (gSg + hess)_ij + sum_ij R_ij gS_j| e^(2 d1)
            t1 = (logQ + log_curv).reshape(len(r), -1)
            s1 = (signQ * sign_curv).reshape(len(r), -1)
            t2 = (logR + log_gw[:, None, :]).reshape(len(r), -1)
            s2 = (signR * sign_gw[:, None, :]).reshape(len(r), -1)
            div_log, _ = _signed_log_sum(np.concatenate([t1, t2], axis=1).T,
                                         np.concatenate([s1, s2], axis=1).T, axis=0)
            log_ratios[2] = np.maximum(log_ratios[2], div_log + 2.0 * d1)

            # items 5-8: the time-invariant norms against nu2 and nu1
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

    row = compute_row_sum_bound(system, adjoint=adjoint, radius=plan.radius)
    return ledger_of(d, s, window, inner, sups, arg_edge, row.M)


def ledger_of(d: int, s: float, window: tuple[float, float],
              inner: Optional[tuple[float, float]], sups: Sequence[float],
              edge: Sequence[bool], M: float) -> ConstantsLedger:
    """The ledger estimate_ledger returns for its window and inner pair, from
    the eight sups, their edge flags and the row-sum bound M it measured.

    A store that keeps only those numbers rebuilds the ledger here.
    """
    a0, b0 = window
    if inner is None:
        quarter = (b0 - a0) / 4.0
        a, b = a0 + quarter, b0 - quarter
    else:
        a, b = inner
    return ConstantsLedger(d=d, s=s, window=(a0, a, b, b0),
                           c=tuple(np.asarray(sups, dtype=float)), M=M,
                           boundary_flags=tuple(bool(e) for e in edge))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def report_text(reports: Sequence[HypothesisReport], row: Optional[RowSumBound] = None) -> str:
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
    if row is not None:
        buf.write(f"\n[row-sum-bound]\nM = {row.M!r}\nmethod = {row.method}\n"
                  f"certified_tail = {row.certified_tail}\n")
    return buf.getvalue()


def margins_csv(reports: Sequence[HypothesisReport]) -> str:
    lines = ["hypothesis,margin,value,status"]
    for rep in reports:
        if not rep.margins:
            lines.append(f"{rep.hypothesis_id},,,{rep.status}")
        for key in sorted(rep.margins):
            lines.append(f"{rep.hypothesis_id},{key},{rep.margins[key]!r},{rep.status}")
    return "\n".join(lines) + "\n"
