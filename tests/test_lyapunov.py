"""Lyapunov synthesis, evaluation, growth integrals, certificates."""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from kernelbound import coefficients as co
from kernelbound import lyapunov as ly
from kernelbound.errors import (
    CertificateError,
    DimensionMismatchError,
    DomainError,
    NonFiniteError,
    SaturationError,
    SynthesisError,
)
from kernelbound.hypotheses import estimate_ledger

from oracles import FieldJet, eval_operator, grad_log, hess_log


def poly_headline():
    """d=1, m=2 polynomial family used throughout: quadratic diagonal potential."""
    return co.diagonal_family("polynomial", 1, 2, beta=1.0,
                              theta=[[1.0, 0.5], [0.5, 1.0]],
                              gamma=[[2.0, 1.0], [1.0, 2.0]])


# ---------------------------------------------------------------------------
# synthesis: polynomial family
# ---------------------------------------------------------------------------

def test_synth_poly_single_equation_wide_interval():
    # gamma=2, beta=1, alpha=0: balance holds up to rho=2, no damping cap,
    # so rho = 1; damping level max{2, 1+rho} = 2 makes sigma_min = 1, and
    # sigma is sigma_min + 1
    fam = co.diagonal_family("polynomial", 1, 1, beta=1.0, theta=[[1.0]], gamma=[[2.0]])
    res = ly.synth_poly(fam, T=1.0)
    assert res.static.rho == pytest.approx(1.0)
    assert res.timed.sigma == pytest.approx(2.0)
    # delta midpoint of (2/3, 2*(2-1)/2 = 1)
    assert res.timed.delta == pytest.approx((2.0 / 3.0 + 1.0) / 2.0)
    assert res.static.eps_hat == pytest.approx(0.5)


def test_synth_poly_damping_cap_binds():
    # gamma=0.5, beta=0, alpha=0: the strict damping condition rho < gamma
    # binds before the growth balance, midpoint 0.25
    fam = co.diagonal_family("polynomial", 1, 1, beta=0.0, theta=[[1.0]], gamma=[[0.5]])
    res = ly.synth_poly(fam, T=1.0)
    assert res.static.rho == pytest.approx(0.25)


def test_synth_poly_headline_values():
    res = ly.synth_poly(poly_headline(), T=1.0)
    assert res.static.rho == pytest.approx(1.0)
    assert res.static.eps_hat == pytest.approx(0.5)
    assert res.timed.sigma == pytest.approx(2.0)
    assert res.timed.eps_T == pytest.approx(0.5)  # eps_hat * T^-sigma


def test_synth_poly_infeasible_growth():
    # alpha_k = 3 makes max{gamma, beta_k} + 1 = 2 < alpha_k + ... infeasible
    fam = co.diagonal_family("polynomial", 1, 1, alpha=3.0, beta=0.0,
                             theta=[[1.0]], gamma=[[1.0]])
    with pytest.raises(SynthesisError, match="rho"):
        ly.synth_poly(fam, T=1.0)


def test_synth_poly_adjoint_requires_strong_diagonal():
    # forward feasible but adjoint needs gamma_kk > beta_k + rho
    fam = co.diagonal_family("polynomial", 1, 1, beta=2.0, theta=[[1.0]], gamma=[[1.0]])
    res = ly.synth_poly(fam, T=1.0)  # forward fine
    assert res.static.rho > 0
    with pytest.raises(SynthesisError, match="adjoint"):
        ly.synth_poly(fam, T=1.0, target="P_adjoint")


def test_synth_poly_adjoint_headline():
    # gamma_kk=2, beta_k=1, alpha_k=0: upper = min(1.5, 1, 2) = 1, rho*=0.5
    res = ly.synth_poly(poly_headline(), T=1.0, target="P_adjoint")
    assert res.static.rho == pytest.approx(0.5)
    assert res.static.target == "P_adjoint"
    # sigma* = rho*/(gamma_min - rho*) + 1 = 0.5/1.5 + 1
    assert res.timed.sigma == pytest.approx(0.5 / 1.5 + 1.0)


def test_synth_determinism_bit_for_bit():
    a = ly.synth_poly(poly_headline(), T=1.0)
    b = ly.synth_poly(poly_headline(), T=1.0)
    assert a.static == b.static and a.timed == b.timed


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.6, max_value=4.0), st.floats(min_value=0.1, max_value=2.0))
def test_synth_poly_interval_monotone_in_gamma(gamma, bump):
    # enlarging the diagonal potential exponent never shrinks the rho interval
    fam1 = co.diagonal_family("polynomial", 1, 1, beta=0.0, theta=[[1.0]], gamma=[[gamma]])
    fam2 = co.diagonal_family("polynomial", 1, 1, beta=0.0, theta=[[1.0]], gamma=[[gamma + bump]])
    # rho is the midpoint of the interval (0, U)
    u1 = 2.0 * ly.synth_poly(fam1, T=1.0).static.rho
    u2 = 2.0 * ly.synth_poly(fam2, T=1.0).static.rho
    assert u2 >= u1 - 1e-12


# ---------------------------------------------------------------------------
# synthesis: exponential family
# ---------------------------------------------------------------------------

def exp_smoke():
    return co.diagonal_family("exponential", 1, 2,
                              theta=[[1.0, 0.5], [0.5, 1.0]],
                              gamma=[[1.0, 0.5], [0.5, 1.0]])


def test_synth_exp_forward():
    # beta_k=0, gamma_kk=1 -> rho interval (0,1), midpoint 0.5; sigma fixed at 1
    res = ly.synth_exp(exp_smoke(), T=1.0)
    assert res.static.form == "integrated-exp"
    assert res.static.rho == pytest.approx(0.5)
    assert res.timed.sigma == pytest.approx(1.0)
    assert res.timed.delta == pytest.approx((0.5 + 1.0) / 2.0)


def test_synth_exp_strong_drift_uses_beta():
    fam = co.diagonal_family("exponential", 1, 1, beta=2.0, theta=[[1.0]], gamma=[[1.0]])
    res = ly.synth_exp(fam, T=1.0)
    assert res.static.rho == pytest.approx(1.0)  # midpoint of (0, max{2,1}=2)


def test_synth_exp_adjoint_sigma_rule():
    # gamma_min = 1 -> rho* = 0.5, sigma*_min = 1, sigma* = 2
    res = ly.synth_exp(exp_smoke(), T=1.0, target="P_adjoint")
    assert res.static.rho == pytest.approx(0.5)
    assert res.timed.sigma == pytest.approx(2.0)


def test_synth_exp_infeasible():
    fam = co.diagonal_family("exponential", 1, 1, beta=0.0, theta=[[1.0]], gamma=[[0.0]])
    with pytest.raises(SynthesisError):
        ly.synth_exp(fam, T=1.0)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def points_1d(*xs):
    """Points of R^1 as one batch."""
    return ly.RadialPoints(np.array(xs, dtype=float)[:, None], 1)


def test_eval_power_form():
    spec = ly.LyapunovSpec(form="power", rho=1.0, eps_hat=1.0)
    assert spec.weight().value(1.0, points_1d(0.0, 1.0)).tolist() == \
        pytest.approx([math.e, math.exp(2.0)])


def test_eval_timed_at_zero_is_one():
    spec = ly.LyapunovSpec(form="power", rho=1.0, eps_hat=0.5)
    timed = ly.TimeLyapunovSpec(base=spec, T=1.0, sigma=2.0, delta=5.0 / 6.0)
    assert timed.weight().value(0.0, points_1d(3.0)).tolist() == pytest.approx([1.0])
    assert timed.weight().value(1.0, points_1d(0.0)).tolist() == pytest.approx([math.exp(0.5)])


def test_a_weight_before_time_zero_is_rejected():
    spec = ly.LyapunovSpec(form="power", rho=1.0, eps_hat=0.5)
    timed = ly.TimeLyapunovSpec(base=spec, T=1.0, sigma=2.0, delta=5.0 / 6.0)
    with pytest.raises(DomainError):
        timed.weight().value(-0.5, points_1d(0.0))


@pytest.mark.parametrize("form", ly.FORMS)
def test_a_weight_reads_its_d_from_its_points(form):
    # one weight on points of R^1 and of R^2: log w = eps t^sigma S(r) at
    # r = 1 + |x|^2, in closed form for rho = 1/2
    w = ly.SpaceTimeWeight(form, eps=0.3, sigma=2.0, rho=0.5)
    for pts, r in (([[0.0], [2.0]], [1.0, 5.0]), ([[0.0, 0.0], [2.0, 1.0]], [1.0, 6.0])):
        at = ly.RadialPoints(pts, len(pts[0]))
        assert at.d == len(pts[0]) and at.r.tolist() == r
        s = np.sqrt(r)
        S = s if form == "power" else (4.0 * s - 8.0) * np.exp(s / 2.0) + 8.0
        np.testing.assert_allclose(w.log_value(0.7, at), 0.3 * 0.7 ** 2 * S, rtol=1e-15)


def test_radial_points_are_a_batch_of_points_of_their_d():
    # a single point is a batch of one; a (d,) vector or another d is refused
    assert ly.RadialPoints(np.array([[0.5, 1.0]]), 2).r.tolist() == [2.25]
    for x, d in ((np.array([0.5, 1.0]), 2), (np.array([[0.5, 1.0]]), 1)):
        with pytest.raises(DimensionMismatchError, match=r"shape \(n, %d\)" % d):
            ly.RadialPoints(x, d)


def test_a_scaled_spec_has_the_amplitude_and_no_growth_constant():
    spec = ly.LyapunovSpec(form="power", rho=1.0, eps_hat=0.3)
    timed = replace(ly.TimeLyapunovSpec(base=spec, T=0.7, sigma=2.0, delta=5.0 / 6.0), c0=1.5)
    half = timed.scaled(0.5)
    assert half.base == replace(spec, eps_hat=0.15) and half.c0 is None
    assert half.weight() == replace(timed.weight(), eps=0.15 * 0.7 ** -2.0)


def test_eval_saturation_error_carries_log_value():
    spec = ly.LyapunovSpec(form="power", rho=2.0, eps_hat=1.0)
    with pytest.raises(SaturationError) as exc:
        spec.weight().value(1.0, points_1d(100.0))
    assert exc.value.log_value == pytest.approx((1 + 100.0 ** 2) ** 2)


def test_integrated_exp_closed_forms_match_quadrature():
    # the closed forms for rho in {1, 1/2} are fast paths of the quadrature contract
    for rho in (1.0, 0.5):
        for r in (0.0, 0.7, 3.0, 20.0):
            direct, _ = integrate.quad(lambda tau: math.exp(tau ** rho / 2.0), 0.0, r,
                                       epsrel=1e-12, limit=200)
            assert ly.integrated_exp(r, rho) == pytest.approx(direct, rel=1e-10, abs=1e-12)
            generic = ly._quad(lambda tau: np.exp(tau ** rho / 2.0), 0.0, r, epsrel=1e-12)
            assert ly.integrated_exp(r, rho) == pytest.approx(generic, rel=1e-12, abs=1e-15)
    # generic-rho path agrees with its own quadrature contract
    assert ly.integrated_exp(2.0, 0.8) == pytest.approx(
        integrate.quad(lambda tau: math.exp(tau ** 0.8 / 2.0), 0, 2.0, epsrel=1e-12)[0],
        rel=1e-9)


# ---------------------------------------------------------------------------
# adaptive quadrature, against scipy's QUADPACK as the oracle
# ---------------------------------------------------------------------------

def quadpack(f, a, b):
    """scipy.integrate.quad, asked for three more digits than the rule under test."""
    return integrate.quad(f, a, b, epsrel=1e-13, limit=400)[0]


# (eps_T, sigma, delta) of the majorant weights of the bench configs:
# poly1d forward and adjoint, exp1d forward and adjoint
GROWTH_SHAPES = [(0.5, 2.0, 0.8333333333333333), (0.5, 1.3333333333333333, 0.7857142857142858),
                 (0.5, 1.0, 0.75), (0.5, 2.0, 1.3333333333333333)]


@pytest.mark.parametrize("eps_T,sigma,delta", GROWTH_SHAPES)
@pytest.mark.parametrize("c0", [0.5, 2.08, 5.55, 50.0, 120.0, 126.21564244396549])
def test_quad_matches_quadpack_on_majorant_integrands(c0, eps_T, sigma, delta):
    # eval_H's integrands e^{G(t)} on the bench window; the last c0 with the
    # exp1d adjoint shape is exp1d's steep case, I ~ 1.55e8
    G = lambda t: ly.growth_integral(c0, eps_T, sigma, delta, t)
    got = ly._quad(lambda t: np.exp(G(t)), 0.03125, 0.1875, epsrel=1e-9)
    want = quadpack(lambda t: math.exp(G(t)), 0.03125, 0.1875)
    assert abs(got - want) <= 1e-9 * want
    if c0 == 126.21564244396549 and delta > 1.0:
        assert got == pytest.approx(1.55365e8, rel=1e-5)


@pytest.mark.parametrize("rho", [0.3, 0.75, 1.5, 2.0])
def test_integrated_exp_generic_rho_matches_quadpack(rho):
    r = np.array([0.5, 3.0, 10.0, 20.0])
    batch = ly.integrated_exp(r, rho)
    for ri, got in zip(r, batch):
        want = quadpack(lambda tau: math.exp(tau ** rho / 2.0), 0.0, ri)
        assert abs(got - want) <= 1e-10 * want
        assert abs(ly.integrated_exp(ri, rho) - want) <= 1e-10 * want


def test_quad_overflow_is_a_non_finite_error():
    # e^{tau^2/2} passes float64's range at tau ~ 37.7
    with pytest.raises(NonFiniteError, match="not finite"):
        ly.integrated_exp(40.0, 2.0)


def test_quad_that_misses_its_tolerance_is_a_non_finite_error():
    # a narrow bump the rule cannot resolve in three bisections
    bump = lambda t: np.exp(-((t - 0.3) / 1e-3) ** 2)
    with pytest.raises(NonFiniteError, match="after 3 bisections"):
        ly._quad(bump, 0.0, 1.0, epsrel=1e-9, limit=3)
    assert ly._quad(bump, 0.0, 1.0, epsrel=1e-9) == pytest.approx(
        math.sqrt(math.pi) * 1e-3, rel=1e-9)


def test_integrated_exp_generic_rho_takes_repeated_and_zero_radii():
    # each entry is integrated on its own, so it does not depend on the
    # other entries of its array
    r = np.array([3.0, 0.0, 3.0, 0.5])
    got = ly.integrated_exp(r, 0.3)
    assert got[1] == 0.0 and got[0] == got[2]
    assert got[0] == ly.integrated_exp(3.0, 0.3)
    assert got[3] == ly.integrated_exp(0.5, 0.3)


def test_weight_log_derivatives_match_fd():
    for form, rho in (("power", 1.5), ("integrated-exp", 0.5)):
        w = ly.SpaceTimeWeight(form=form, eps=0.3, sigma=2.0, rho=rho)
        t, x = 0.7, np.array([0.8, -0.4])
        at = ly.RadialPoints(x[None], 2)
        step = 1e-6
        lv = lambda tt, xx: w.log_value(tt, ly.RadialPoints(xx[None], 2))[0]
        dt_fd = (lv(t + step, x) - lv(t - step, x)) / (2 * step)
        assert w.dt_log(t, at)[0] == pytest.approx(dt_fd, rel=1e-6)
        grad = grad_log(w, t, x[None], 2)[0]
        hess = hess_log(w, t, x[None], 2)[0]
        # and in r: grad log w = 2 u x, D^2 log w = 2 u I + 4 u2 x x^T
        (u,), (u2,) = w.r_log(t, at)
        np.testing.assert_allclose(grad, 2.0 * u * x, rtol=1e-15)
        np.testing.assert_allclose(hess, 2.0 * u * np.eye(2) + 4.0 * u2 * np.outer(x, x),
                                   rtol=1e-15)
        for i in range(2):
            ei = np.zeros(2)
            ei[i] = step
            assert grad[i] == pytest.approx((lv(t, x + ei) - lv(t, x - ei)) / (2 * step), rel=1e-6)
            for j in range(2):
                ej = np.zeros(2)
                ej[j] = step
                h_fd = (lv(t, x + ei + ej) - lv(t, x + ei - ej)
                        - lv(t, x - ei + ej) + lv(t, x - ei - ej)) / (4 * step ** 2)
                assert hess[i, j] == pytest.approx(h_fd, rel=1e-4, abs=1e-4)


def test_each_radial_shape_is_computed_once_per_grid(monkeypatch):
    calls = Counter()

    def counted(order, shape):
        def call(form, r, rho):
            calls[order] += 1
            return shape(form, r, rho)
        return call

    monkeypatch.setattr(ly, "_SHAPES", tuple(counted(i, f) for i, f in enumerate(ly._SHAPES)))
    fam = poly_headline()
    # two radii, eleven ladder times each
    timed = ly.verify_certificate(fam, ly.synth_poly(fam, T=1.0).timed).certified
    assert calls == {0: 2, 1: 2, 2: 2}
    calls.clear()
    # three weights of one shape, nine sample times
    estimate_ledger(fam, *[timed.scaled(f).weight() for f in (0.5, 0.75, 1.0)],
                    s=5.0, window=(0.0625, 0.140625, 0.296875, 0.375))
    assert calls == {0: 1, 1: 1, 2: 1}


# ---------------------------------------------------------------------------
# growth integral
# ---------------------------------------------------------------------------

def test_growth_integral_zero_rate():
    assert ly.growth_integral(0.0, 1.0, 1.0, 1.0, 1.0) == pytest.approx(1.0)  # G(t) = t
    assert ly.growth_integral(0.0, 0.0, 1.0, 0.75, 5.0) == pytest.approx(0.0)


def test_growth_integral_against_quadrature():
    c0, eps_T, sigma, delta = 1.0, 2.0, 1.0, 0.75
    p = sigma * (delta - 1.0) / delta
    g = lambda s: c0 + eps_T * delta * s ** p
    for t in (0.25, 1.0, 2.0):
        quad, _ = integrate.quad(g, 0.0, t, epsrel=1e-12, points=[0.0] if t > 0 else None)
        assert ly.growth_integral(c0, eps_T, sigma, delta, t) == pytest.approx(quad, rel=1e-10)
    assert ly.growth_integral(c0, eps_T, sigma, delta, 1.0) == pytest.approx(3.25)


def test_growth_integral_rejects_divergent():
    with pytest.raises(DomainError):
        ly.growth_integral(0.0, 1.0, 2.0, 0.5, 1.0)  # p = -1.5


def test_timed_g_and_G_consistency():
    res = ly.synth_poly(poly_headline(), T=1.0)
    timed = ly.TimeLyapunovSpec(base=res.static, T=1.0, sigma=res.timed.sigma,
                                delta=res.timed.delta, c0=0.3)
    quad, _ = integrate.quad(lambda s: float(timed.g(s)), 0.0, 0.8, epsrel=1e-12)
    assert float(timed.G(0.8)) == pytest.approx(quad, rel=1e-9)


def test_delta_validation():
    spec = ly.LyapunovSpec(form="power", rho=1.0, eps_hat=0.5)
    with pytest.raises(DomainError):
        ly.TimeLyapunovSpec(base=spec, T=1.0, sigma=2.0, delta=0.5)  # below sigma/(sigma+1)
    with pytest.raises(DomainError):
        ly.TimeLyapunovSpec(base=spec, T=1.0, sigma=2.0, delta=2.5)  # above sigma


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def test_certificate_static_headline():
    fam = poly_headline()
    res = ly.synth_poly(fam, T=1.0)
    rep = ly.verify_certificate(fam, res.static, radius=20.0)
    assert rep.passed, (rep.sup_coarse, rep.sup_fine)
    assert rep.certified.lam is not None and rep.certified.lam >= 0
    # hand computation: ratio_k(0) = a1 + a3 = (2 rho eps zeta) - (theta_kk - theta_off)
    # = 2*1*0.5*1 - (1 - 0.5) = 0.5 at x = 0, and the ratio decreases away from 0
    assert rep.sup_coarse == pytest.approx(0.5, abs=1e-6)


def test_certificate_static_matches_fd_operator_route():
    # independent route: evaluate (A phi)_k / phi through eval_operator with
    # a finite-difference jet of phi itself
    fam = poly_headline()
    res = ly.synth_poly(fam, T=1.0)
    static = res.static
    for xv in (0.0, 0.9, -1.7):
        phi = lambda x: float(static.weight().value(1.0, points_1d(*np.atleast_1d(x)))[0])
        jet = FieldJet.from_callables([phi, phi], np.array([xv]), step=1e-5)
        for k in range(2):
            direct = eval_operator(fam, "P", jet, k, np.array([xv])) / phi(xv)
            fields = ly.grid_fields(fam, ly.RadialPoints(np.array([[xv]]), 1), adjoint=False)
            analytic = ly._generator_ratio(fields, static)[k, 0]
            assert direct == pytest.approx(analytic, rel=1e-5, abs=1e-5)


def test_certificate_rejects_heat_equation_blowup():
    # V and b near 0: exp(eps (1+x^2)^rho) grows under the Laplacian, sup explodes with R
    fam = co.diagonal_family("polynomial", 1, 1, eta=1e-9, theta=[[1e-9]])
    lyap = ly.LyapunovSpec(form="power", rho=1.0, eps_hat=0.5)
    with pytest.raises(CertificateError, match="growth"):
        ly.verify_certificate(fam, lyap, radius=10.0)


def test_certificate_timed_calibrates_c0():
    fam = poly_headline()
    res = ly.synth_poly(fam, T=1.0)
    rep = ly.verify_certificate(fam, res.timed, radius=20.0)
    assert rep.passed, (rep.sup_coarse, rep.sup_fine)
    timed = rep.certified
    assert timed.c0 is not None and timed.c0 >= 0.0
    # calibrated residual inequality holds on a fresh sample grid
    fields = ly.grid_fields(fam, ly.RadialPoints(np.linspace(-15.0, 15.0, 401)[:, None], 1),
                            adjoint=False)
    for t in (0.05, 0.3, 0.9):
        ratio = ly._generator_ratio(fields, timed, t)
        lhs = np.max(ratio)
        assert lhs <= float(timed.g(t)) + 1e-9


def test_certificate_timed_exponential_family():
    fam = exp_smoke()
    res = ly.synth_exp(fam, T=1.0)
    rep = ly.verify_certificate(fam, res.timed, radius=20.0)
    assert rep.passed, (rep.sup_coarse, rep.sup_fine)
    assert rep.certified.c0 >= 0.0


def test_certificate_adjoint_target():
    fam = poly_headline()
    res = ly.synth_poly(fam, T=1.0, target="P_adjoint")
    rep = ly.verify_certificate(fam, res.static, radius=20.0)
    assert rep.passed, (rep.sup_coarse, rep.sup_fine)
    assert rep.certified.lam is not None
