"""Coefficient containers, cooperative potential, coupling reachability."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kernelbound import coefficients as co
from kernelbound.errors import DimensionMismatchError, HypothesisViolationError

from oracles import FieldJet, OperatorSpec, eval_operator, reference_spec


# ---------------------------------------------------------------------------
# cooperative potential
# ---------------------------------------------------------------------------

def test_vp_flips_offdiagonal_signs():
    V = np.array([[2.0, 3.0], [-1.0, 4.0]])
    VP = co.eval_VP(V)
    assert np.array_equal(VP, np.array([[2.0, -3.0], [-1.0, 4.0]]))


def test_vp_identity_on_nonpositive_offdiagonal():
    V = np.array([[1.0, -0.5], [-0.25, 3.0]])
    assert np.array_equal(co.eval_VP(V), V)


def test_vp_scalar_case_unchanged():
    V = np.array([[7.0]])
    assert np.array_equal(co.eval_VP(V), V)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_vp_idempotent_and_dominates(m, seed):
    rng = np.random.default_rng(seed)
    V = rng.normal(size=(m, m)) * 10
    VP = co.eval_VP(V)
    assert np.array_equal(co.eval_VP(VP), VP), "cooperative modification must be idempotent"
    assert np.array_equal(np.diag(VP), np.diag(V)), "diagonal must be preserved"
    off = ~np.eye(m, dtype=bool)
    assert np.all(VP[off] <= 0), "off-diagonal entries must be nonpositive"
    assert np.allclose(np.abs(VP[off]), np.abs(V[off])), "magnitudes must be preserved"


def test_vp_rejects_nonsquare():
    with pytest.raises(DimensionMismatchError):
        co.eval_VP(np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# operator evaluation
# ---------------------------------------------------------------------------

def _laplacian_spec():
    return OperatorSpec(co.SystemDims(d=1, m=1), q=lambda h, x: 1.0,
                           b=lambda h, x: np.zeros(1), V=lambda x: np.zeros((1, 1)))


def test_finite_difference_derivatives_match_a_family():
    # the reference differentiates an OperatorSpec's q I and b numerically,
    # and a family's by the chain rule; radial_divb is the package's div b
    fam = co.diagonal_family("polynomial", 2, 2, alpha=0.5, beta=0.5,
                             theta=[[1.0, 0.5], [0.5, 1.0]], gamma=[[2.0, 1.0], [1.0, 2.0]])
    exact = reference_spec(fam)
    spec = reference_spec(OperatorSpec(fam.dims, fam.q, fam.b, fam.V))
    x = np.array([[0.3, -1.2], [2.0, 0.5], [0.0, 0.0]])
    r = 1.0 + np.sum(x * x, axis=-1)
    for h in range(2):
        assert np.allclose(spec.R(h, x), exact.R(h, x), rtol=1e-6, atol=1e-8)
        assert np.allclose(spec.divb(h, x), exact.divb(h, x), rtol=1e-6, atol=1e-8)
        assert np.allclose(spec.divb(h, x), fam.radial_divb(h, r), rtol=1e-6, atol=1e-8)


def test_operator_on_square_is_second_derivative():
    # A u = u'' for Q=1, b=0, V=0; u(x)=x^2 gives 2 everywhere
    spec = _laplacian_spec()
    jet = FieldJet(values=np.array([4.0]), gradients=np.array([[4.0]]),
                   hessians=np.array([[[2.0]]]))
    assert eval_operator(spec, "plain", jet, 0, np.array([2.0])) == pytest.approx(2.0)


def test_operator_constant_potential_coupling():
    # d=1, m=2, Q=I, b=0, V=[[2,3],[-1,4]]: (A u)_0 = u0'' - 2 u0 - 3 u1
    V = np.array([[2.0, 3.0], [-1.0, 4.0]])
    spec = OperatorSpec(co.SystemDims(d=1, m=2), q=lambda h, x: 1.0,
                           b=lambda h, x: np.zeros(1), V=lambda x: V)
    jet = FieldJet(values=np.array([1.0, 2.0]),
                   gradients=np.zeros((2, 1)),
                   hessians=np.array([[[5.0]], [[7.0]]]))
    x = np.array([0.3])
    assert eval_operator(spec, "plain", jet, 0, x) == pytest.approx(5.0 - 2.0 - 3.0 * 2.0)
    # P variant flips v_01 = 3 to -3: 5 - 2*1 + 3*2
    assert eval_operator(spec, "P", jet, 0, x) == pytest.approx(5.0 - 2.0 + 3.0 * 2.0)
    # adjoint transposes: column 0 of VP is (2, -1): 5 - 2*1 + 1*2
    assert eval_operator(spec, "P_adjoint", jet, 0, x) == pytest.approx(5.0 - 2.0 + 1.0 * 2.0)


def test_operator_variable_diffusion_expansion():
    # Q = 1+x^2, u = sin x: div(Q u') = 2x cos x - (1+x^2) sin x
    fam = co.diagonal_family("polynomial", 1, 1, alpha=1.0, theta=[[1.0]], gamma=[[0.0]])
    xv = 0.7
    jet = FieldJet(values=np.array([np.sin(xv)]),
                   gradients=np.array([[np.cos(xv)]]),
                   hessians=np.array([[[-np.sin(xv)]]]))
    got = eval_operator(fam, "plain", jet, 0, np.array([xv]))
    # family also has drift -x(1+x^2)^0 = -x and potential 1: subtract x cos x + sin x
    expected = 2 * xv * np.cos(xv) - (1 + xv ** 2) * np.sin(xv) - xv * np.cos(xv) - np.sin(xv)
    assert got == pytest.approx(expected, rel=1e-12)


def test_operator_matches_finite_difference_jet():
    # independent route: analytic jet vs FieldJet.from_callables on smooth funcs
    fam = co.diagonal_family("polynomial", 2, 2, alpha=0.5, beta=1.0,
                             theta=[[1.0, 0.5], [0.5, 1.0]], gamma=[[2.0, 1.0], [1.0, 2.0]])
    funcs = [lambda x: float(np.exp(-x @ x)), lambda x: float(np.cos(x[0]) * np.sin(x[1]))]
    x = np.array([0.4, -0.3])
    jet_fd = FieldJet.from_callables(funcs, x, step=1e-5)

    g0 = -2 * x * np.exp(-x @ x)
    h0 = (4 * np.outer(x, x) - 2 * np.eye(2)) * np.exp(-x @ x)
    g1 = np.array([-np.sin(x[0]) * np.sin(x[1]), np.cos(x[0]) * np.cos(x[1])])
    h1 = np.array([[-np.cos(x[0]) * np.sin(x[1]), -np.sin(x[0]) * np.cos(x[1])],
                   [-np.sin(x[0]) * np.cos(x[1]), -np.cos(x[0]) * np.sin(x[1])]])
    jet_exact = FieldJet(values=np.array([funcs[0](x), funcs[1](x)]),
                         gradients=np.stack([g0, g1]),
                         hessians=np.stack([h0, h1]))
    for variant in co.VARIANTS:
        for h in range(2):
            a = eval_operator(fam, variant, jet_fd, h, x)
            b = eval_operator(fam, variant, jet_exact, h, x)
            assert a == pytest.approx(b, rel=1e-6, abs=1e-6)


def test_operator_rejects_bad_component():
    spec = _laplacian_spec()
    jet = FieldJet(np.zeros(1), np.zeros((1, 1)), np.zeros((1, 1, 1)))
    with pytest.raises(DimensionMismatchError):
        eval_operator(spec, "plain", jet, 3, np.array([0.0]))


def test_operator_rejects_bad_variant():
    spec = _laplacian_spec()
    jet = FieldJet(np.zeros(1), np.zeros((1, 1)), np.zeros((1, 1, 1)))
    with pytest.raises(ValueError):
        eval_operator(spec, "Q", jet, 0, np.array([0.0]))


# ---------------------------------------------------------------------------
# coupling reachability
# ---------------------------------------------------------------------------

def test_support_chain():
    # entries flow 1 -> 2 -> 3 (0-based: 0 -> 1 -> 2): v_10 and v_21 nontrivial
    nz = {(1, 0), (2, 1)}
    sup = co.coupling_support(3, 0, lambda h, l: (h, l) in nz)
    assert sup.reachable == frozenset({0, 1, 2})
    sup_end = co.coupling_support(3, 2, lambda h, l: (h, l) in nz)
    assert sup_end.reachable == frozenset({2})


def test_support_full_coupling():
    sup = co.coupling_support(3, 1, lambda h, l: True)
    assert sup.reachable == frozenset({0, 1, 2})


def test_support_decoupled():
    sup = co.coupling_support(4, 2, lambda h, l: False)
    assert sup.reachable == frozenset({2})


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_support_monotone_under_added_edges(m, seed):
    # adding a coupling entry can only enlarge every reachable set
    rng = np.random.default_rng(seed)
    base = {(h, l) for h in range(m) for l in range(m) if h != l and rng.random() < 0.3}
    candidates = [(h, l) for h in range(m) for l in range(m) if h != l and (h, l) not in base]
    extra = set(base)
    if candidates:
        idx = rng.integers(len(candidates))
        extra.add(candidates[idx])
    for k in range(m):
        r1 = co.coupling_support(m, k, lambda h, l: (h, l) in base).reachable
        r2 = co.coupling_support(m, k, lambda h, l: (h, l) in extra).reachable
        assert r1 <= r2, f"adding an edge shrank the reachable set of {k}"


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

def test_family_field_validation():
    with pytest.raises(HypothesisViolationError):
        co.diagonal_family("polynomial", 1, 1, eta=-1.0)
    with pytest.raises(HypothesisViolationError):
        co.diagonal_family("polynomial", 1, 2, theta=[[0.0, 0.0], [0.0, 1.0]])
    with pytest.raises(DimensionMismatchError, match=r"zeta must have shape \(1,\)"):
        # one value per equation, not a d x d matrix
        co.PolynomialFamily(co.SystemDims(2, 1), np.eye(2)[None], 0.0, 1.0, 0.0,
                            np.array([[1.0]]), np.zeros((1, 1)))
    with pytest.raises(DimensionMismatchError, match=r"eta must have shape \(2,\)"):
        co.diagonal_family("polynomial", 1, 2, eta=[1.0, 1.0, 1.0])


def test_a_scalar_stands_for_every_equation():
    fam = co.diagonal_family("exponential", 2, 3, zeta_diag=2.0, alpha=[0.0, 0.5, 1.0])
    assert fam.zeta.tolist() == [2.0] * 3 and fam.alpha.tolist() == [0.0, 0.5, 1.0]
    assert fam.eta.tolist() == [1.0] * 3 and fam.beta.tolist() == [0.0] * 3


def test_polynomial_growth_values():
    fam = co.diagonal_family("polynomial", 1, 2, zeta_diag=2.0, alpha=1.5, eta=3.0, beta=0.5,
                             theta=[[1.0, 0.5], [0.5, 1.0]], gamma=[[2.0, 1.0], [1.0, 2.0]])
    x = np.array([[2.0]])
    r = 5.0
    assert fam.q(0, x)[0] == pytest.approx(2.0 * r ** 1.5)
    assert fam.b(1, x)[0, 0] == pytest.approx(-3.0 * 2.0 * r ** 0.5)
    V = fam.V(x)[0]
    assert V[0, 0] == pytest.approx(r ** 2)
    assert V[0, 1] == pytest.approx(0.5 * r)


def test_polynomial_derivative_fields_match_fd():
    fam = co.diagonal_family("polynomial", 2, 1, zeta_diag=1.5, alpha=1.0, eta=2.0, beta=1.0,
                             theta=[[1.0]], gamma=[[1.0]])
    _assert_derivatives_match_fd(fam, np.array([0.6, -1.1]))


def test_exponential_derivative_fields_match_fd():
    fam = co.diagonal_family("exponential", 2, 1, zeta_diag=0.8, alpha=0.5, eta=1.2, beta=0.5,
                             theta=[[1.0]], gamma=[[1.0]])
    _assert_derivatives_match_fd(fam, np.array([0.9, 0.2]))


def _assert_derivatives_match_fd(fam, x, step=1e-6):
    # the reference's R entries vs central differences of q I, and
    # radial_divb vs central differences of b
    R = reference_spec(fam).R(0, x[None])[0]
    for i in range(2):
        ei = np.zeros(2)
        ei[i] = step
        dq = (fam.q(0, (x + ei)[None])[0] - fam.q(0, (x - ei)[None])[0]) / (2 * step)
        for j in range(2):
            assert R[i, j] == pytest.approx(dq * (i == j), rel=1e-6, abs=1e-8)
    acc = 0.0
    for i in range(2):
        ei = np.zeros(2)
        ei[i] = step
        acc += (fam.b(0, (x + ei)[None])[0, i] - fam.b(0, (x - ei)[None])[0, i]) / (2 * step)
    assert fam.radial_divb(0, 1.0 + x @ x) == pytest.approx(acc, rel=1e-6)


def test_a_family_reads_a_batch_of_points():
    # a single point is a batch of one; a (d,) vector or points of another
    # d are refused
    fam = co.diagonal_family("exponential", 2, 2, alpha=0.3, beta=0.7,
                             theta=[[1.0, 0.2], [0.2, 1.0]], gamma=[[1.0, 0.5], [0.5, 1.0]])
    one = np.array([[1.0, -2.0]])
    assert fam.q(1, one).shape == (1,) and fam.b(1, one).shape == (1, 2)
    assert fam.V(one).shape == (1, 2, 2)
    for x in (np.array([1.0, -2.0]), np.array([[1.0, -2.0, 0.0]]), np.zeros((1, 1, 2))):
        for evaluate in (lambda p: fam.q(1, p), lambda p: fam.b(1, p), fam.V):
            with pytest.raises(DimensionMismatchError, match=r"shape \(n, 2\)"):
                evaluate(x)


def test_ellipticity_lower_bound_on_samples():
    # <Q^k(x) xi, xi> = zeta_k (1+|x|^2)^alpha_k |xi|^2, equation by equation
    fam = co.diagonal_family("polynomial", 2, 2, zeta_diag=[2.0, 1.5], alpha=[1.0, 0.25])
    rng = np.random.default_rng(0)
    for _ in range(200):
        x = rng.normal(size=2) * 3
        xi = rng.normal(size=2)
        r = 1 + x @ x
        for k in range(2):
            quad = fam.q(k, x[None])[0] * (xi @ xi)
            assert quad == pytest.approx(fam.zeta[k] * r ** fam.alpha[k] * (xi @ xi), rel=1e-12)
