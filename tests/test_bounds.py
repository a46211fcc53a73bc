import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelbound.bounds import (
    ConstantsLedger,
    checked_c_hat,
    eval_H,
    eval_lambda_poly,
    solve_X0,
)
from kernelbound.coefficients import diagonal_family
from kernelbound.errors import DomainError, NonFiniteError


def make_ledger(c, s=4.0, d=1, window=(1.0, 2.0, 3.0, 4.0), M=0.0):
    return ConstantsLedger(d=d, s=s, window=window, c=tuple(c), M=M,
                           boundary_flags=(False,) * 8)


class TestMajorant:
    def test_single_constant_window_example(self):
        # c1 = 1, everything else 0, unit gaps, flat growth: bracket1 = 2,
        # bracket2 = 0, time integral = 3, so H = 6 everywhere
        led = make_ledger([1, 0, 0, 0, 0, 0, 0, 0])
        H = eval_H(led, lambda t: 0.0, lambda t: 0.0)
        assert H == pytest.approx(6.0, rel=1e-9)

    def test_scalar_point_returns_scalar(self):
        # the weights equal 1 at t = 0, so H is one number
        led = make_ledger([1, 0, 0, 0, 0, 0, 0, 0])
        assert isinstance(eval_H(led, lambda t: 0.0, lambda t: 0.0), float)

    def test_second_bracket_routes_through_nu2(self):
        # only c5 nonzero: H = c5^(s/2) * integral of e^G2, with G2 = log 5
        led = make_ledger([0, 0, 0, 0, 2.0, 0, 0, 0])
        H = eval_H(led, lambda t: 0.0, lambda t: math.log(5.0))
        assert H == pytest.approx(2.0 ** 2 * 5.0 * 3.0, rel=1e-9)

    def test_growth_integral_feeds_exponential(self):
        led = make_ledger([1, 0, 0, 0, 0, 0, 0, 0])
        H = eval_H(led, lambda t: t, lambda t: 0.0)
        assert H == pytest.approx(2.0 * (math.e ** 4 - math.e), rel=1e-7)

    def test_asymmetric_gap_uses_smaller_side(self):
        led = make_ledger([1, 0, 0, 0, 0, 0, 0, 0], window=(1.0, 1.5, 3.0, 4.0))
        # gap = min(0.5, 1.0) = 0.5, bracket1 = 1 + 0.5^-2 = 5
        H = eval_H(led, lambda t: 0.0, lambda t: 0.0)
        assert H == pytest.approx(5.0 * 3.0, rel=1e-9)

    def test_overflowing_constants_rejected(self):
        led = make_ledger([0, 1e300, 0, 0, 0, 0, 0, 0])
        with pytest.raises(NonFiniteError):
            eval_H(led, lambda t: 0.0, lambda t: 0.0)

    def test_growth_overflow_is_a_non_finite_error(self):
        # e^G passes float64's range inside the window: exit 1, not a crash
        led = make_ledger([1] * 8, window=(0.03125, 0.0625, 0.125, 0.1875))
        H = eval_H(led, lambda t: 1000 * t, lambda t: 0.0)
        assert math.isfinite(H)
        with pytest.raises(NonFiniteError, match="not finite"):
            eval_H(led, lambda t: 5000 * t, lambda t: 0.0)


class TestLedgerValidation:
    def test_s_must_exceed_d_plus_2(self):
        with pytest.raises(DomainError):
            make_ledger([0] * 8, s=3.0, d=1)

    def test_window_ordering_enforced(self):
        with pytest.raises(DomainError):
            make_ledger([0] * 8, window=(1.0, 3.0, 2.0, 4.0))
        with pytest.raises(DomainError):
            make_ledger([0] * 8, window=(0.0, 1.0, 2.0, 3.0))

    def test_eight_entries_required(self):
        with pytest.raises(DomainError):
            make_ledger([0] * 7)

    def test_negative_constant_rejected(self):
        with pytest.raises(NonFiniteError):
            make_ledger([0, 0, -1, 0, 0, 0, 0, 0])


class TestRootCeiling:
    def test_three_quarters_example(self):
        # beta = gamma = alpha^2 = 3/4 at s = 4: each summand is exactly 1
        assert solve_X0(math.sqrt(0.75), 0.75, 0.75, 4.0) == pytest.approx(3.0, rel=1e-12)

    def test_pure_beta(self):
        assert solve_X0(0.0, 3.0, 0.0, 6.0) == pytest.approx(4.0, rel=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            solve_X0(1.0, 1.0, 1.0, 2.0)
        with pytest.raises(DomainError):
            solve_X0(-1.0, 0.0, 0.0, 4.0)

    @settings(max_examples=200, deadline=None)
    @given(alpha=st.floats(0.0, 10.0), beta=st.floats(0.0, 10.0),
           gamma=st.floats(0.0, 10.0), s=st.sampled_from([4, 6, 8]))
    def test_dominates_every_root(self, alpha, beta, gamma, s):
        # largest real root of X^s - beta X^(s-1) - gamma X^(s-2) - alpha X^(s/2)
        coeffs = np.zeros(s + 1)
        coeffs[0] = 1.0
        coeffs[1] = -beta
        coeffs[2] = -gamma
        coeffs[s - s // 2] -= alpha
        roots = np.roots(coeffs)
        real = roots[np.abs(roots.imag) < 1e-9].real
        if len(real) == 0:
            return
        assert real.max() <= solve_X0(alpha, beta, gamma, float(s)) + 1e-8


class TestDecayExponent:
    def test_flat_family_gives_half(self):
        fam = diagonal_family("polynomial", 1, 2, alpha=0.0, beta=0.0,
                              theta=np.eye(2), gamma=np.zeros((2, 2)))
        assert eval_lambda_poly(fam, sigma=1.0, rho=1.0) == pytest.approx(0.5)

    def test_headline_family(self):
        fam = diagonal_family("polynomial", 1, 2, alpha=0.0, beta=1.0,
                              theta=[[1.0, 0.5], [0.5, 1.0]],
                              gamma=[[2.0, 1.0], [1.0, 2.0]])
        # sigma/rho = 2: competitors are 1/2, 0, 2, 3
        assert eval_lambda_poly(fam, sigma=2.0, rho=1.0) == pytest.approx(3.0)

    def test_large_alpha_competitor_activates(self):
        fam = diagonal_family("polynomial", 1, 1, alpha=2.0, beta=0.0,
                              theta=np.eye(1), gamma=np.full((1, 1), 4.0))
        # with abar = 2 > 1/2 the mixed term (abar + bbar)/2 * sigma/rho joins
        lam = eval_lambda_poly(fam, sigma=1.0, rho=1.0)
        assert lam == pytest.approx(max(0.5, 2.0, 2.0, 0.5, 1.0))


class TestCertificate:
    def test_exponential_prefactor_floor_enforced(self):
        # certificate.txt's c_hat must exceed (d + 2)/4; the default (d + 3)/4 does
        with pytest.raises(DomainError):
            checked_c_hat(1, (1 + 2) / 4.0)
        assert checked_c_hat(1) == pytest.approx(1.0)
