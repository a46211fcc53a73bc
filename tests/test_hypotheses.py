import math
import tracemalloc

import numpy as np
import pytest

from kernelbound import hypotheses
from kernelbound.coefficients import (
    ExponentialFamily,
    PolynomialFamily,
    SystemDims,
    diagonal_family,
    eval_VP,
)
from kernelbound.errors import DomainError
from kernelbound.hypotheses import (
    check_base,
    check_exponential,
    check_polynomial,
    compute_row_sum_bound,
    estimate_ledger,
    ledger_fields,
    margins_csv,
    report_text,
)
from kernelbound.lyapunov import RadialPoints, SpaceTimeWeight, _cooperative_row_sums

from oracles import OperatorSpec, reference_spec


def headline_family():
    return diagonal_family("polynomial", 1, 2, beta=1.0,
                           theta=[[1.0, 0.5], [0.5, 1.0]],
                           gamma=[[2.0, 1.0], [1.0, 2.0]])


def smoke_exp_family():
    return diagonal_family("exponential", 1, 2,
                           theta=[[1.0, 0.5], [0.5, 1.0]],
                           gamma=[[1.0, 0.5], [0.5, 1.0]])


def quiet_family(d=1, m=1):
    """Identity diffusion and potential, with the unit restoring drift -x."""
    return diagonal_family("polynomial", d, m)


def bare_callables(fam):
    """A family's coefficients as an OperatorSpec of bare callables."""
    return OperatorSpec(fam.dims, fam.q, fam.b, fam.V)


def report_by_id(reports, hid):
    matches = [r for r in reports if r.hypothesis_id == hid]
    assert len(matches) == 1, f"expected one report {hid}, got {len(matches)}"
    return matches[0]


class TestFamilyChecks:
    def test_headline_polynomial_all_hold(self):
        reports = check_polynomial(headline_family())
        assert all(r.ok for r in reports)
        assert {r.status for r in reports} == {"holds"}

    def test_diffusion_dominance_reports_each_zeta(self):
        # Q^k = zeta_k g(r, alpha_k) I, positive definite exactly when zeta_k > 0
        fam = diagonal_family("polynomial", 2, 2, zeta_diag=[2.0, 0.5], alpha=[0.0, 0.5])
        rep = report_by_id(check_polynomial(fam), "diffusion-diagonal-dominance")
        assert rep.status == "holds" and rep.witness is None
        assert rep.margins == {"zeta[0]": 2.0, "zeta[1]": 0.5}
        assert {type(v) for v in rep.margins.values()} == {float}

    def test_diffusion_dominance_fails_where_zeta_is_not_positive(self):
        fam = diagonal_family("polynomial", 2, 3, zeta_diag=[1.0, -1.0, 0.0])
        reports, _ = check_base(fam)
        rep = report_by_id(reports, "diffusion-diagonal-dominance")
        # the witness is the worst equation, zeta = -1, not the last failing one
        assert rep.status == "fails" and rep.witness == (1,)
        assert rep.margins == {"zeta[0]": 1.0, "zeta[1]": -1.0, "zeta[2]": 0.0}
        ellipticity = report_by_id(reports, "ellipticity")
        assert ellipticity.status == "fails" and ellipticity.witness == (1,)

    def test_headline_growth_balance_margin(self):
        rep = report_by_id(check_polynomial(headline_family()), "growth-balance")
        assert rep.margins["balance[0]"] == pytest.approx(3.0)
        assert rep.margins["balance[1]"] == pytest.approx(3.0)

    def test_weak_diagonal_potential_fails_with_witness(self):
        fam = diagonal_family("polynomial", 1, 2,
                              theta=[[1.0, 0.5], [0.5, 1.0]],
                              gamma=[[1.0, 2.0], [1.0, 2.0]])
        rep = report_by_id(check_polynomial(fam), "potential-row-dominance")
        assert rep.status == "fails"
        assert rep.witness == (0, 1)

    def test_decoupled_entries_do_not_constrain(self):
        # zero theta off-diagonal: the large gamma_01 exponent is inert
        fam = diagonal_family("polynomial", 1, 2, theta=np.eye(2),
                              gamma=[[1.0, 5.0], [5.0, 1.0]])
        rep = report_by_id(check_polynomial(fam), "potential-row-dominance")
        assert rep.status == "holds"
        assert rep.margins == {}

    def test_smoke_exponential_margins(self):
        reports = check_exponential(smoke_exp_family())
        assert all(r.ok for r in reports)
        assert report_by_id(reports, "growth-balance").margins["balance[0]"] == pytest.approx(1.0)
        assert report_by_id(reports, "adjoint-dominance").margins["adjoint[0]"] == pytest.approx(0.5)
        assert report_by_id(reports, "two-sided-dominance").margins["two-sided[1]"] == pytest.approx(0.5)

    def test_exponential_balance_needs_strict_excess(self):
        fam = diagonal_family("exponential", 1, 1, alpha=1.0, gamma=[[1.0]])
        rep = report_by_id(check_exponential(fam), "growth-balance")
        assert rep.status == "fails"
        assert rep.witness == (0,)


class TestRowSumBound:
    def test_headline_forward_value(self):
        # min over x of theta_kk r^2 - 0.5 r sits at x = 0: 1 - 0.5
        row = compute_row_sum_bound(headline_family())
        assert row.M == pytest.approx(0.5, abs=1e-12)
        assert row.certified_tail

    def test_headline_adjoint_value(self):
        # column sums minus div b minimize at |x|^2 = 3/4 with value -17/16
        row = compute_row_sum_bound(headline_family(), adjoint=True)
        assert row.M == pytest.approx(-1.0625, abs=2e-3)
        assert row.certified_tail

    def test_exponential_forward_and_adjoint(self):
        fam = smoke_exp_family()
        row = compute_row_sum_bound(fam)
        assert row.M == pytest.approx(0.5 * math.e, rel=1e-9)
        adj = compute_row_sum_bound(fam, adjoint=True)
        # constant div b = -e joins the column sums
        assert adj.M == pytest.approx(-0.5 * math.e, rel=1e-9)
        assert row.certified_tail and adj.certified_tail

    def test_unit_potential_family(self):
        row = compute_row_sum_bound(quiet_family(m=2))
        assert row.M == 1.0
        assert row.certified_tail

    def test_an_opaque_spec_is_refused(self):
        with pytest.raises(DomainError, match="OperatorSpec .* is not a radial family"):
            compute_row_sum_bound(bare_callables(quiet_family(m=2)))

    @pytest.mark.parametrize("kind, gamma", [
        ("polynomial", [[2.0, 1.0], [1.0, 2.0]]),
        ("exponential", [[1.0, 0.5], [0.5, 1.0]]),
    ])
    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("d", [1, 2])
    def test_row_sums_where_an_offdiagonal_entry_dominates(self, kind, gamma, adjoint, d):
        # |theta_hk| > theta_kk: near the origin every cooperative row and
        # column sum is negative, led by an off-diagonal entry
        fam = diagonal_family(kind, d, 2, beta=1.0, theta=[[1.0, -3.0], [2.0, 1.0]],
                              gamma=gamma)
        ax = np.linspace(-0.5, 0.5, 5)
        pts = np.stack([a.ravel() for a in np.meshgrid(*[ax] * d, indexing="ij")], axis=-1)
        VP = eval_VP(fam.V(pts))
        expected = VP.sum(axis=-2).T if adjoint else VP.sum(axis=-1).T
        if adjoint:
            ref = reference_spec(fam)
            expected = expected + np.stack([ref.divb(k, pts) for k in range(2)])
        assert np.all(expected < 0)
        got = _cooperative_row_sums(fam, RadialPoints(pts, d).r, adjoint, with_divb=adjoint)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)


class TestBaseChecks:
    def test_headline_base_holds(self):
        reports, row = check_base(headline_family())
        assert all(r.ok for r in reports)
        assert report_by_id(reports, "row-sum-lower-bound").status == "holds"
        assert row.M == pytest.approx(0.5, abs=1e-12)

    def test_a_generic_spec_is_refused(self):
        with pytest.raises(DomainError, match="OperatorSpec .* is not a radial family"):
            check_base(bare_callables(quiet_family(m=2)))

    @pytest.mark.parametrize("d", [1, 2])
    def test_indefinite_diffusion_fails(self, d):
        # Z = -I has the eigenvalue -1
        bad = diagonal_family("polynomial", d, 1, zeta_diag=-1.0)
        reports, _ = check_base(bad)
        rep = report_by_id(reports, "ellipticity")
        assert rep.status == "fails"
        assert rep.witness is not None


def power_weights(eps_scale=(0.5, 0.75, 1.0), eps_T=1.0, sigma=1.0, rho=1.0):
    return tuple(SpaceTimeWeight("power", e * eps_T, sigma, rho) for e in eps_scale)


# a ledger window (a0, a, b, b0), its inner pair at the quarters of [a0, b0]
WINDOW = (0.5, 0.75, 1.25, 1.5)


class TestLedger:
    def test_trivial_coefficients_pin_the_constants(self):
        w, nu1, nu2 = power_weights()
        led = estimate_ledger(quiet_family(m=2), w, nu1, nu2, s=4.0,
                              window=WINDOW)
        # no diffusion derivative: |R|_F is the norm of zeros, 0
        assert led.c[7] == 0.0
        # weight-vs-nu1, |Q|_F and the unit potential against nu2 peak at
        # t = a0, x = 0 where S(r) = 1
        assert led.c[0] == pytest.approx(math.exp(2 * (0.5 - 0.75) * 0.5 / 4.0), rel=1e-12)
        assert led.c[6] == pytest.approx(math.exp((0.5 - 0.75) * 0.5 / 4.0), rel=1e-12)
        assert led.c[4] == pytest.approx(math.exp(2 * (0.5 - 1.0) * 0.5 / 4.0), rel=1e-12)
        assert led.c[1] > 1e-6 and led.c[2] > 1e-6 and led.c[3] > 1e-6 and led.c[5] > 1e-6
        assert led.M == 1.0

    def test_frobenius_scaling_with_dimension(self):
        w, nu1, nu2 = power_weights()
        led = estimate_ledger(quiet_family(d=2, m=1), w, nu1, nu2, s=5.0,
                              window=WINDOW)
        expected = math.sqrt(2.0) * math.exp((0.5 - 0.75) * 0.5 / 5.0)
        assert led.c[6] == pytest.approx(expected, rel=1e-12)

    def test_time_derivative_against_calculus_maximum(self):
        # ratio_4 = A u e^{-B u} in u = S(r) with A = eps_w and
        # B = 2 (eps_1 - eps_w) t / s; its max A/(eB) is largest at t = a0
        w, nu1, nu2 = power_weights()
        led = estimate_ledger(quiet_family(), w, nu1, nu2, s=4.0,
                              window=WINDOW)
        assert led.c[3] == pytest.approx(8.0 / math.e, rel=1e-3)

    def test_window_quarters_and_invariants(self):
        fam = headline_family()
        w, nu1, nu2 = power_weights(eps_T=0.5, sigma=2.0)
        led = estimate_ledger(fam, w, nu1, nu2, s=4.0, window=WINDOW)
        assert led.window == (0.5, 0.75, 1.25, 1.5)
        assert led.M == pytest.approx(0.5, abs=1e-12)
        assert len(led.boundary_flags) == 8 and not any(led.boundary_flags)
        assert all(np.isfinite(led.c))

    def test_adjoint_potential_item_absorbs_divergence(self):
        fam = headline_family()
        w, nu1, nu2 = power_weights(eps_T=0.5, sigma=2.0)
        fwd = estimate_ledger(fam, w, nu1, nu2, s=4.0, window=WINDOW)
        adj = estimate_ledger(fam, w, nu1, nu2, s=4.0, window=WINDOW, adjoint=True)
        assert adj.c[4] > fwd.c[4]
        assert adj.M == pytest.approx(-1.0625, abs=2e-3)

    def test_a_blocked_ledger_drops_its_temporaries(self):
        # the nine window times take one (times, radii) pass on the 257
        # radii of the 1-D box, and the ledger peaks near 0.6 MB
        fam = headline_family()
        w, nu1, nu2 = power_weights(eps_T=0.5, sigma=2.0)
        estimate_ledger(fam, w, nu1, nu2, s=4.0, window=WINDOW)
        tracemalloc.start()
        try:
            estimate_ledger(fam, w, nu1, nu2, s=4.0, window=WINDOW, adjoint=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2e6

    def test_exponential_family_stays_finite(self):
        fam = smoke_exp_family()
        w, nu1, nu2 = tuple(SpaceTimeWeight("integrated-exp", e * 0.5, 1.0, 0.5)
                            for e in (0.5, 0.75, 1.0))
        led = estimate_ledger(fam, w, nu1, nu2, s=4.0, window=WINDOW)
        assert all(np.isfinite(led.c))
        assert led.c[4] > 1.0  # exponential potential dominates the weight gap
        assert led.M == pytest.approx(0.5 * math.e, rel=1e-9)

    @pytest.mark.parametrize("cls", [PolynomialFamily, ExponentialFamily])
    @pytest.mark.parametrize("adjoint", [False, True])
    def test_the_ledger_fields_in_r_match_the_fields(self, cls, adjoint):
        # nonzero exponents and a coupled potential, off the coordinate axes
        d, m = 2, 2
        fam = cls(SystemDims(d, m), zeta=[2.0, 1.5], alpha=[0.5, 0.25], eta=[1.0, 0.5],
                  beta=[1.0, 0.25], theta=[[1.0, 0.5], [0.5, 1.0]], gamma=[[2.0, 1.0], [1.0, 2.0]])
        pts = np.array([[0.3, -1.2], [2.0, 0.7], [-1.5, -0.4]])
        fields = ledger_fields(fam, RadialPoints(pts, d), adjoint)
        ref = reference_spec(fam)
        for k, (logq, sign_q, logdq, pot, norm_b, norm_Q, norm_R) in enumerate(fields):
            Q, R, b = ref.Q(k, pts), ref.R(k, pts), fam.b(k, pts)
            np.testing.assert_allclose(sign_q * np.exp(logq), Q[:, 0, 0], rtol=1e-12)
            np.testing.assert_allclose(np.exp(logdq)[:, None] * pts, np.diagonal(R, axis1=1, axis2=2),
                                       rtol=1e-12)
            row = np.linalg.norm(fam.V(pts)[:, k], axis=-1)
            if adjoint:
                row = row + np.abs(ref.divb(k, pts))
            np.testing.assert_allclose(np.exp(pot), row, rtol=1e-12)
            for norm, field in ((norm_b, b), (norm_Q, Q), (norm_R, R)):
                np.testing.assert_allclose(
                    np.exp(norm), np.linalg.norm(field.reshape(len(pts), -1), axis=-1),
                    rtol=1e-12)

    def test_inner_window_override(self):
        w, nu1, nu2 = power_weights()
        led = estimate_ledger(quiet_family(), w, nu1, nu2, s=4.0,
                              window=(0.5, 0.6, 1.4, 1.5))
        assert led.window == (0.5, 0.6, 1.4, 1.5)

    def test_degenerate_windows_rejected(self):
        w, nu1, nu2 = power_weights()
        with pytest.raises(DomainError):
            estimate_ledger(quiet_family(), w, nu1, nu2, s=4.0, window=(0.0, 0.25, 0.75, 1.0))
        with pytest.raises(DomainError):
            estimate_ledger(quiet_family(), w, nu1, nu2, s=4.0, window=(2.0, 1.75, 1.25, 1.0))

    @pytest.mark.parametrize("window", [(0.5, 1.5), (0.5, 1.4, 0.6, 1.5), (0.5, 0.75, 0.75, 1.5),
                                        (0.5, 0.75, 1.25, 1.5, 2.0)])
    def test_a_window_is_four_increasing_times(self, window, monkeypatch):
        # the outer pair alone, an inner pair out of order or a tie: refused
        # before the ledger samples its box
        def sample(*args):
            raise AssertionError("the ledger sampled a bad window")

        monkeypatch.setattr(hypotheses, "_sample_points", sample)
        w, nu1, nu2 = power_weights()
        with pytest.raises(DomainError, match="0 < a0 < a < b < b0"):
            estimate_ledger(quiet_family(), w, nu1, nu2, s=4.0, window=window)

    def test_weight_ordering_enforced(self):
        w, nu1, nu2 = power_weights()
        with pytest.raises(DomainError):
            estimate_ledger(quiet_family(), nu2, nu1, w, s=4.0, window=WINDOW)
        mixed = SpaceTimeWeight("power", 0.75, 2.0, 1.0)  # sigma mismatch
        with pytest.raises(DomainError):
            estimate_ledger(quiet_family(), w, mixed, nu2, s=4.0, window=WINDOW)


class TestReporting:
    def test_report_text_layout(self):
        reports, row = check_base(headline_family())
        text = report_text(reports)
        assert text.splitlines()[0] == "hypothesis report"
        assert "[ellipticity]" in text and "status = holds" in text
        assert "tail certified nondecreasing" in text
        assert text == report_text(reports)

    @pytest.mark.parametrize("system", [headline_family(), smoke_exp_family(),
                                        quiet_family(d=2, m=2)],
                             ids=["polynomial", "exponential", "2-D"])
    def test_each_hypothesis_and_margin_is_reported_once(self, system):
        # a family's table holds row dominance and the zeta_k of Q^k, which
        # its ellipticity and row-sum verdicts read instead of repeating
        reports, row = check_base(system)
        text = report_text(reports)
        ids = [rep.hypothesis_id for rep in reports]
        assert len(ids) == len(set(ids)) and "[row-sum-bound]" not in text
        margins = [key for rep in reports for key in rep.margins]
        assert len(margins) == len(set(margins))
        assert [line for line in text.splitlines() if "M =" in line] \
            == [f"margin M = {row.M!r}"]

    def test_margins_csv_shape(self):
        reports = check_polynomial(headline_family())
        csv = margins_csv(reports)
        lines = csv.strip().splitlines()
        assert lines[0] == "hypothesis,margin,value,status"
        assert any(line.startswith("growth-balance,balance[0],3.0,") for line in lines)
        assert all(line.count(",") == 3 for line in lines)
