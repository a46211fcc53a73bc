"""Acceptance gate: twelve headline guarantees, one verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
PASS/FAIL lines even when everything is green.  Each criterion computes its
verdict first and prints before asserting, so a red run still reports every
line it reached.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm
from scipy.optimize import brentq

from kernelbound.bounds import solve_X0
from kernelbound.coefficients import SystemDims, diagonal_family
from kernelbound.hypotheses import check_base
from kernelbound.lyapunov import synth_exp, synth_poly, verify_certificate
from kernelbound.solver import GridSpec, OperatorHandle
from kernelbound.verify import (
    DecayShape,
    Duality,
    LyapunovIntegrability,
    MassAndPositivity,
    MonotoneInR,
    Support,
    WeightedBound,
)

from oracles import OperatorSpec, heat_weight_image, kernel_column, run_alone


def conclude(num: int, title: str, ok: bool, detail: str):
    print("criterion %02d %-34s %s (%s)"
          % (num, title, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %02d %s: %s" % (num, title, detail)


def headline_family():
    return diagonal_family("polynomial", 1, 2, beta=1.0,
                           theta=[[1.0, 0.5], [0.5, 1.0]],
                           gamma=[[2.0, 1.0], [1.0, 2.0]])


def smoke_family():
    return diagonal_family("exponential", 1, 2,
                           theta=[[1.0, 0.5], [0.5, 1.0]],
                           gamma=[[1.0, 0.5], [0.5, 1.0]])


def heat_family():
    # drift and potential amplitudes far below roundoff: pure heat equation
    return diagonal_family("polynomial", 1, 1, eta=1e-30,
                           theta=[[1e-30]], gamma=[[0.0]])


def ou_family():
    # unit restoring drift b = -x with negligible potential
    return diagonal_family("polynomial", 1, 1,
                           theta=[[1e-30]], gamma=[[0.0]])


def gaussian(x, mean, var):
    return np.exp(-(x - mean) ** 2 / (2 * var)) / math.sqrt(2 * math.pi * var)


def const_coupled_spec(V):
    dims = SystemDims(1, len(V))
    Vm = np.asarray(V, dtype=float)

    def npts(x):
        return np.atleast_2d(np.asarray(x, dtype=float)).shape[0]

    return OperatorSpec(
        dims=dims,
        q=lambda h, x: np.ones(npts(x)),
        b=lambda h, x: np.zeros((npts(x), 1)),
        V=lambda x: np.tile(Vm, (npts(x), 1, 1)),
    )


@pytest.fixture(scope="module")
def headline_synthesis():
    fam = headline_family()
    return {"family": fam,
            "forward": synth_poly(fam, 1.0, target="P"),
            "adjoint": synth_poly(fam, 1.0, target="P_adjoint")}


@pytest.fixture(scope="module")
def smoke_synthesis():
    fam = smoke_family()
    return {"family": fam,
            "forward": synth_exp(fam, 1.0, target="P"),
            "adjoint": synth_exp(fam, 1.0, target="P_adjoint")}


def test_criterion_01_constant_coefficient_oracle():
    start = time.perf_counter()

    def l1_error(h, width, dt):
        g = GridSpec(1, 12.0, h)
        handle = OperatorHandle(heat_family(), g, variant="P")
        col = kernel_column(handle, 0.5, 0.0, 0, width=width, dt=dt,
                            theta=0.5)
        x = g.points()[:, 0]
        return h * float(np.sum(np.abs(col[:, 0]
                                       - gaussian(x, 0.0, 1.0 + width ** 2))))

    main = l1_error(1.0 / 64, 2.0 / 64, 1.0 / 128)
    # fixed mollifier and dt proportional to h isolate the h-convergence
    errs = [l1_error(h, 1.0 / 16, h / 2.0) for h in (1 / 32, 1 / 64, 1 / 128)]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    elapsed = time.perf_counter() - start
    ok = main <= 0.02 and min(orders) >= 1.8 and elapsed <= 10.0
    conclude(1, "constant-coefficient oracle", ok,
             "L1 %.3e, orders %.2f/%.2f, %.1fs"
             % (main, orders[0], orders[1], elapsed))


def test_criterion_02_coupled_constant_potential():
    V = [[2.0, 3.0], [-1.0, 4.0]]
    VP = [[2.0, -3.0], [-1.0, 4.0]]
    spec = const_coupled_spec(V)
    g = GridSpec(1, 8.0, 1.0 / 32)
    t, w, dt = 0.5, 1.0 / 16, 1.0 / 128
    x = g.points()[:, 0]
    dens = gaussian(x, 0.0, 2 * t + w * w)

    worst = 0.0
    for variant, pot in (("plain", V), ("P", VP)):
        handle = OperatorHandle(spec, g, variant=variant)
        E = expm(-t * np.asarray(pot))
        for k in range(2):
            col = kernel_column(handle, t, 0.0, k, width=w, dt=dt, theta=0.5)
            scale = float(np.max(np.abs(E[:, k])))
            for h in range(2):
                err = g.spacing * float(np.sum(np.abs(col[:, h]
                                                      - E[h, k] * dens)))
                worst = max(worst, err / scale)

    plain = OperatorHandle(spec, g, variant="plain")
    coop = OperatorHandle(spec, g, variant="P")
    dom = 0.0
    for k in range(2):
        pk = kernel_column(plain, t, 0.0, k, width=w, dt=dt, theta=1.0)
        ck = kernel_column(coop, t, 0.0, k, width=w, dt=dt, theta=1.0)
        dom = max(dom, float(np.max(np.abs(pk) - ck)))

    ok = worst <= 0.02 and dom <= 1e-9
    conclude(2, "coupled constant potential", ok,
             "oracle gap %.3e, domination excess %.2e" % (worst, dom))


def test_criterion_03_mehler_oracle():
    fam = ou_family()
    g = GridSpec(1, 8.0, 1.0 / 32)
    t, x0 = 0.5, 0.5
    handle = OperatorHandle(fam, g, variant="P_adjoint")
    col = kernel_column(handle, t, x0, 0, width=1.0 / 16, dt=1.0 / 128)
    y = g.points()[:, 0]
    oracle = gaussian(y, x0 * math.exp(-t), 1.0 - math.exp(-2.0 * t))
    err = g.spacing * float(np.sum(np.abs(col[:, 0] - oracle)))
    dual = run_alone(Duality(fam, g, t, pairs=[(0.5, 0, -0.3125, 0),
                                               (-1.0, 0, 0.25, 0)],
                             dt=1.0 / 128, width=1.0 / 16))
    ok = err <= 0.02 and dual.passed
    conclude(3, "drifted-kernel oracle", ok,
             "L1 %.3e, duality worst %.3e" % (err, dual.worst))


def test_criterion_04_monotone_in_domain():
    res = run_alone(MonotoneInR(headline_family(), (4.0, 8.0, 16.0), 1.0 / 8,
                                t=0.3, source=(0.25, 0)))
    inc = res.details["increments"]
    ok = res.passed and inc[1] <= inc[0] / 4.0
    conclude(4, "domain monotonicity", ok,
             "worst %.2e, increments %.2e -> %.2e"
             % (res.worst, inc[0], inc[1]))


def test_criterion_05_coupling_support():
    chain = diagonal_family("polynomial", 1, 3,
                            theta=[[1.0, 0.5, 0.0],
                                   [0.0, 1.0, 0.5],
                                   [0.0, 0.0, 1.0]],
                            gamma=2.0 * np.eye(3) + 1.0)
    g = GridSpec(1, 2.0, 1.0 / 8)
    worst = 0.0
    for k in range(3):
        res = run_alone(Support(chain, k, g, t=0.2))
        worst = max(worst, res.worst)
        if not res.passed:
            conclude(5, "coupling support", False, res.line())

    rng = np.random.default_rng(2026)
    random_ok = True
    for trial in range(20):
        m = int(rng.integers(2, 5))
        mask = rng.random((m, m)) < 0.4
        np.fill_diagonal(mask, True)
        theta = np.where(mask, 0.5, 0.0)
        np.fill_diagonal(theta, 1.0)
        fam = diagonal_family("polynomial", 1, m, theta=theta,
                              gamma=2.0 * np.eye(m) + mask)
        res = run_alone(Support(fam, int(rng.integers(m)), g, t=0.2))
        random_ok = random_ok and res.passed
        worst = max(worst, res.worst)
    ok = random_ok and worst <= 1e-10
    conclude(5, "coupling support", ok,
             "chain + 20 random patterns, worst %.2e" % worst)


def test_criterion_06_mass_bound():
    configs = [
        ("headline", headline_family(), GridSpec(1, 8.0, 1.0 / 16)),
        ("plane", diagonal_family("polynomial", 2, 2, beta=1.0,
                                  theta=[[1.0, 0.5], [0.5, 1.0]],
                                  gamma=[[2.0, 1.0], [1.0, 2.0]]),
         GridSpec(2, 3.0, 1.0 / 4)),
        ("smoke", smoke_family(), GridSpec(1, 4.0, 1.0 / 8)),
    ]
    worst = -math.inf
    for name, fam, grid in configs:
        reports, _ = check_base(fam)
        assert all(r.ok for r in reports), "%s fails its hypotheses" % name
        res = run_alone(MassAndPositivity(fam, grid, (0.1, 0.5, 1.0)))
        worst = max(worst, res.worst)
        if not res.passed:
            conclude(6, "mass decay bound", False,
                     "%s: %s" % (name, res.line()))
    conclude(6, "mass decay bound", True,
             "3 configurations, worst excess %.2e" % worst)


def test_criterion_07_lyapunov_certificates(headline_synthesis):
    fam = headline_synthesis["family"]
    syn = headline_synthesis["forward"]
    static_rep = verify_certificate(fam, syn.static, radius=20.0)
    timed_rep = verify_certificate(fam, syn.timed, radius=20.0)
    timed = timed_rep.certified
    gap = 0.0
    for t in (0.3, 1.0):
        num, _ = quad(lambda u: float(timed.g(u)), 0.0, t, epsabs=1e-12,
                      limit=200)
        gap = max(gap, abs(num - float(timed.G(t))))
    ok = (static_rep.passed and timed_rep.passed
          and math.isfinite(static_rep.sup_fine) and gap <= 1e-8)
    conclude(7, "generator certificates", ok,
             "static sup %.4g, c0 %.4g, quadrature gap %.1e"
             % (static_rep.sup_fine, timed.c0, gap))


def test_criterion_08_lyapunov_integrability(headline_synthesis):
    # closed-form case first: unit diffusion maps the quadratic-exponent
    # weight to another one, evaluated exactly
    g = GridSpec(1, 8.0, 1.0 / 32)
    handle = OperatorHandle(heat_family(), g, variant="P")
    eps, t = 0.1, 0.5
    y = g.points()[:, 0]
    init = np.exp(eps * t * (1.0 + y * y)).reshape(-1, 1)
    out, _ = handle.evolve(init, t, dt=1.0 / 128, theta=0.5)
    closed = 0.0
    for x in (0.0, 2.0, -2.0):
        exact = float(heat_weight_image(eps, t, x))
        closed = max(closed, abs(out[g.node_of([x]), 0] / exact - 1.0))

    res = run_alone(LyapunovIntegrability(
        headline_synthesis["family"], headline_synthesis["forward"].timed,
        GridSpec(1, 8.0, 1.0 / 16), t_values=(0.05, 0.1, 0.5),
        x_points=(0.0, 2.0, -2.0), tol=0.05))
    ok = closed <= 0.02 and res.passed
    conclude(8, "weighted integrability", ok,
             "closed-form gap %.3e, envelope worst %.3e" % (closed, res.worst))


def test_criterion_09_root_ceiling_contract():
    start = time.perf_counter()
    rng = np.random.default_rng(12345)
    coeffs = rng.uniform(0.0, 10.0, size=(1000, 3))
    worst_ratio = 0.0
    for s in (4.0, 6.0, 8.0):
        for alpha, beta, gamma_c in coeffs:
            X0 = solve_X0(alpha, beta, gamma_c, s)
            xs = np.linspace(4.0 * X0 / 384, 4.0 * X0, 384)
            f = (xs ** s - alpha * xs ** (s / 2) - beta * xs ** (s - 1)
                 - gamma_c * xs ** (s - 2))
            neg = np.signbit(f)
            for i in np.nonzero(neg[:-1] != neg[1:])[0]:
                root = brentq(
                    lambda X, a=alpha, b=beta, c=gamma_c, p=s:
                    X ** p - a * X ** (p / 2) - b * X ** (p - 1)
                    - c * X ** (p - 2),
                    xs[i], xs[i + 1])
                worst_ratio = max(worst_ratio, root / X0)
    elapsed = time.perf_counter() - start
    ok = worst_ratio <= 1.0 + 1e-9 and elapsed <= 1.0
    conclude(9, "root ceiling contract", ok,
             "3000 scans, max root/ceiling %.6f, %.2fs"
             % (worst_ratio, elapsed))


def test_criterion_10_weighted_kernel_bound(headline_synthesis):
    start = time.perf_counter()
    res = run_alone(WeightedBound(
        headline_synthesis["family"], headline_synthesis["forward"], s=4.0,
        t_values=(0.25,), sources=(0.0, 0.5),
        coarse=(1.0 / 32, 8.0), fine=(1.0 / 64, 16.0),
        width=1.0 / 32, tol=0.10,
        adjoint_synthesis=headline_synthesis["adjoint"]))
    elapsed = time.perf_counter() - start
    d = res.details
    stable = d["sup_fine"] <= 1.10 * d["C_cal"]
    stable2 = d["sup2_fine"] <= 1.10 * d["sup2_coarse"]
    finite = math.isfinite(d["sup_fine"]) and math.isfinite(d["sup2_fine"])
    ok = res.passed and stable and stable2 and finite and elapsed <= 300.0
    conclude(10, "weighted bound calibration", ok,
             "one-sided %.3e vs cal %.3e, two-sided %.3e vs %.3e, %.1fs"
             % (d["sup_fine"], d["C_cal"], d["sup2_fine"], d["sup2_coarse"],
                elapsed))


def test_criterion_11_decay_shape(headline_synthesis):
    timed = headline_synthesis["forward"].timed
    worsts = []
    res = run_alone(DecayShape(headline_synthesis["family"],
                               GridSpec(1, 6.0, 1.0 / 16),
                               t_values=(0.25, 0.5), x0=0.0, component=0,
                               weight=timed.scaled(0.5).weight()))
    worsts.append(res.worst)
    ok = res.passed
    conclude(11, "tail decay shape", ok,
             "compensated rise %.3e at both times" % max(worsts))


def test_criterion_12_exponential_smoke(smoke_synthesis):
    fam = smoke_synthesis["family"]
    fwd, adj = smoke_synthesis["forward"], smoke_synthesis["adjoint"]
    reports, row = check_base(fam)  # the exponential table included
    hypo_ok = all(r.ok for r in reports)
    synth_ok = (fwd.static.rho == pytest.approx(0.5)
                and fwd.timed.sigma == pytest.approx(1.0)
                and fwd.timed.delta == pytest.approx(0.75)
                and adj.timed.sigma == pytest.approx(2.0))

    mono = run_alone(MonotoneInR(fam, (2.0, 4.0, 8.0), 1.0 / 8, t=0.3,
                                 source=(0.25, 0)))
    supp = [run_alone(Support(fam, k, GridSpec(1, 2.0, 1.0 / 8), t=0.2))
            for k in range(2)]
    mass = run_alone(MassAndPositivity(fam, GridSpec(1, 4.0, 1.0 / 8),
                                       (0.1, 0.5, 1.0), row=row))
    static_rep = verify_certificate(fam, fwd.static, radius=20.0)
    timed_rep = verify_certificate(fam, fwd.timed, radius=20.0)
    timed = timed_rep.certified
    num, _ = quad(lambda u: float(timed.g(u)), 0.0, 0.5, epsabs=1e-12,
                  limit=200)
    quad_ok = abs(num - float(timed.G(0.5))) <= 1e-8
    integ = run_alone(LyapunovIntegrability(fam, timed, GridSpec(1, 3.0, 1.0 / 16),
                                            t_values=(0.05, 0.1, 0.5),
                                            x_points=(0.0, 2.0, -2.0), tol=0.05))

    checks_ok = (mono.passed and all(r.passed for r in supp) and mass.passed
                 and static_rep.passed and timed_rep.passed and quad_ok
                 and integ.passed)
    ok = hypo_ok and synth_ok and checks_ok
    conclude(12, "exponential-family smoke", ok,
             "hypotheses %s, synthesis %s, analogue checks %s"
             % (hypo_ok, synth_ok, checks_ok))
