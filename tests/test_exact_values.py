"""Certificate and ledger values pinned bit for bit, evaluation counts, and
the radial core against the box reference.

The coefficients depend on x only, so certificates and the ledger evaluate
them once per grid and reuse them at every time.  The pinned values below
(float.hex) are those of the evaluation in r alone; a change that moves
one of their bits re-pins it.  The certificates, the ledger and the row
sums of a radial family must match, to 1e-13 relative, the box reference of
oracles.py, which takes them on d-dimensional points one time at a time.
synth's artifacts on the bench configs are pinned by their sha256.
"""

import contextlib
import gc
import hashlib
import io
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from kernelbound import cli, hypotheses
from kernelbound import coefficients as co
from kernelbound import lyapunov as ly
from kernelbound import verify
from kernelbound.errors import CertificateError, DomainError, NonFiniteError
from kernelbound.hypotheses import compute_row_sum_bound, estimate_ledger
from kernelbound.solver import GridSpec, assemble_generator

from oracles import (OperatorSpec, box, box_generator_ratio, box_row_sum_bound,
                     certificate_sup, ledger_window_sups, tensor_spec, tensors_of)


def family(kind, d):
    """The bench configs' two-component systems, in d = 1 or 2."""
    if kind == "polynomial":
        beta, gamma = 1.0, [[2.0, 1.0], [1.0, 2.0]]
    else:
        beta, gamma = 0.5, [[1.0, 0.5], [0.5, 1.0]]
    return co.diagonal_family(kind, d, 2, beta=beta, theta=[[1.0, 0.5], [0.5, 1.0]],
                              gamma=gamma)


def synthesize(fam, target):
    synth = ly.synth_poly if fam.kind == "polynomial" else ly.synth_exp
    return synth(fam, T=1.0, target=target)


def ledger_weights(timed):
    return [timed.scaled(f).weight() for f in (0.5, 0.75, 1.0)]


# the pinned ledgers' window (a0, a, b, b0), its inner pair at even quarters
WINDOW = (0.0625, 0.140625, 0.296875, 0.375)


# The verify command keeps these numbers in its kernel store as records, keyed
# by RECORD_VERSION among other things.  A change that moves a pinned value
# must bump verify.RECORD_VERSION, and the pin below, in the same diff, so
# records written before it are recomputed rather than read back.
RECORD_VERSION = 4


def test_record_version_is_pinned():
    assert verify.RECORD_VERSION == RECORD_VERSION


# static sup_coarse, sup_fine; timed c0, sup_coarse, sup_fine; ledger c_1..c_8, M
PINNED = {
    ('polynomial', 1, 'P'): [
        '0x1.0000000000000p-1',
        '0x1.0000000000000p-1',
        '0x1.1555555555556p+0',
        '0x1.1555555555556p+0',
        '0x1.1555555555556p+0',
        '0x1.ffe6670a3ab5ap-1',
        '0x1.037bcbc435625p-1',
        '0x1.22ada8667e6a8p-2',
        '0x1.2f759c45f0c4bp+4',
        '0x1.0c876327274c4p+17',
        '0x1.cf7d6c46943e1p+12',
        '0x1.fff3335c289e6p-1',
        '0x0.0p+0',
        '0x1.0000000000000p-1',
    ],
    ('polynomial', 1, 'P_adjoint'): [
        '0x1.051030d63d37ep+1',
        '0x1.051030d63d37ep+1',
        '0x1.52de5c82deca5p+1',
        '0x1.52de5c82deca5p+1',
        '0x1.513d930cc82cep+1',
        '0x1.ff5d8d06c109cp-1',
        '0x1.065e39445fc2bp-4',
        '0x1.1131662e7f444p-4',
        '0x1.d61c0e7296419p+1',
        '0x1.2d1428e11f4abp+17',
        '0x1.e8f487703c49dp+12',
        '0x1.ffaec010ff376p-1',
        '0x0.0p+0',
        '-0x1.0ff75effffffep+0',
    ],
    ('polynomial', 2, 'P'): [
        '0x1.8000000000000p+0',
        '0x1.8000000000000p+0',
        '0x1.0aaaaaaaaaaabp+1',
        '0x1.0aaaaaaaaaaabp+1',
        '0x1.0aaaaaaaaaaabp+1',
        '0x1.ffe6670a3ab5ap-1',
        '0x1.037c0b140bcabp-1',
        '0x1.413fdcb9efe98p-2',
        '0x1.ae91ba9c22b80p+4',
        '0x1.ca39856f51940p+18',
        '0x1.2ebaa7a9dd692p+14',
        '0x1.6a00d978c10cap+0',
        '0x0.0p+0',
        '0x1.0000000000000p-1',
    ],
    ('polynomial', 2, 'P_adjoint'): [
        '0x1.3356225e2fb36p+2',
        '0x1.3356225e2fb36p+2',
        '0x1.637362fd6bbf6p+2',
        '0x1.637362fd6bbf6p+2',
        '0x1.5e7e5c596073bp+2',
        '0x1.ff5d8d06c109cp-1',
        '0x1.065e07205cee8p-4',
        '0x1.1131662e7f445p-3',
        '0x1.30a650f2311e6p+2',
        '0x1.25807309ba507p+19',
        '0x1.55c938afbb409p+14',
        '0x1.69d072a1c8440p+0',
        '0x0.0p+0',
        '-0x1.7b80000000004p+1',
    ],
    ('exponential', 1, 'P'): [
        '0x1.458969c1eab17p+2',
        '0x1.458969c1eab17p+2',
        '0x1.8db15ab9feb0ap+2',
        '0x1.8db15ab9feb0ap+2',
        '0x1.8db15ab9feb0ap+2',
        '0x1.fdc1ba06ba61ap-1',
        '0x1.03b12c748a9e9p+3',
        '0x1.ab873f3ad5da6p+4',
        '0x1.d6d9e7cce9e5bp+4',
        '0x1.71c40fac13336p+101',
        '0x1.ec5886c278756p+9',
        '0x1.5b2d50ae0f9e0p+1',
        '0x0.0p+0',
        '0x1.5bf0a8b145769p+0',
    ],
    ('exponential', 1, 'P_adjoint'): [
        '0x1.d23832a1091f7p+6',
        '0x1.ca28f8eb5eac2p+6',
        '0x1.f8dcd15f71d88p+6',
        '0x1.f8dcd15f71d88p+6',
        '0x1.ed47d3a90c1e1p+6',
        '0x1.ffdc08b3ccee1p-1',
        '0x1.d539966dba1cap+2',
        '0x1.5cedf2e4f3f20p+4',
        '0x1.d6e08cf06d7b1p+5',
        '0x1.46c5bde093b26p+276',
        '0x1.ca6b8bbe070bfp+16',
        '0x1.5be46ff95d98ap+1',
        '0x0.0p+0',
        '-0x1.056a264d13a54p+1',
    ],
    ('exponential', 2, 'P'): [
        '0x1.4c8708281b3d5p+3',
        '0x1.0c14d00ee37adp+3',
        '0x1.6d884ad4198f6p+3',
        '0x1.6d884ad4198f6p+3',
        '0x1.47324d3b7113dp+3',
        '0x1.fdc1ba06ba61ap-1',
        '0x1.033680ead30dfp+3',
        '0x1.b913722464200p+4',
        '0x1.d6d5f25f85095p+4',
        '0x1.72b47fc9c0e07p+101',
        '0x1.ebf3f6cfc0bfdp+9',
        '0x1.eafb8125a877dp+1',
        '0x0.0p+0',
        '0x1.5bf0a8b145769p+0',
    ],
    ('exponential', 2, 'P_adjoint'): [
        '0x1.0a7990e5e05eep+7',
        '0x1.e0c8ff9c701d2p+6',
        '0x1.1e590628800d5p+7',
        '0x1.1e590628800d5p+7',
        '0x1.ff7cfd7f59b65p+6',
        '0x1.ffdc08b3ccee1p-1',
        '0x1.d56251dcab111p+2',
        '0x1.64a1708210009p+4',
        '0x1.d6e0af4a6df1fp+5',
        '0x1.4a92a054a2e21p+276',
        '0x1.ca2ed94816d70p+16',
        '0x1.ebfe7a7b0edbap+1',
        '0x0.0p+0',
        '-0x1.7219cadb6e0b3p+2',
    ],
}


@pytest.mark.parametrize("kind,d,target", sorted(PINNED))
def test_certificates_and_ledger_are_bit_identical(kind, d, target):
    fam = family(kind, d)
    res = synthesize(fam, target)
    static = ly.verify_certificate(fam, res.static)
    timed = ly.verify_certificate(fam, res.timed)
    led = estimate_ledger(fam, *ledger_weights(timed.certified), s=5.0,
                          window=WINDOW, adjoint=target == "P_adjoint")
    got = [static.sup_coarse, static.sup_fine, timed.certified.c0,
           timed.sup_coarse, timed.sup_fine, *led.c, led.M]
    assert [float(v).hex() for v in got] == PINNED[(kind, d, target)]


def count_calls(monkeypatch, module, name) -> list:
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **kw: calls.append(a) or real(*a, **kw))
    return calls


@pytest.mark.parametrize("target", ["P", "P_adjoint"])
def test_timed_certificate_evaluates_coefficients_once_per_grid(target, monkeypatch):
    fam = family("polynomial", 1)
    calls = count_calls(monkeypatch, ly, "grid_fields")
    ly.verify_certificate(fam, synthesize(fam, target).timed)
    # two radii, however many ladder times
    assert len(calls) == 2


def test_a_family_shares_its_certificate_grids_until_it_is_freed(monkeypatch):
    evaluated = []
    real = ly.grid_fields
    monkeypatch.setattr(ly, "grid_fields",
                        lambda fam, at, adjoint: evaluated.append(adjoint) or real(fam, at, adjoint))
    fam = family("polynomial", 1)
    res = synthesize(fam, "P")
    ly.verify_certificate(fam, res.static)
    # the timed certificate, computed in two stores, reads the static one's grids
    for store in (verify.KernelStore(), verify.KernelStore()):
        verify.stored_certificate(fam, res.timed, store=store)
    assert len(evaluated) == 2
    # a family of equal values evaluates its own
    twin = family("polynomial", 1)
    ly.verify_certificate(twin, res.static)
    assert len(evaluated) == 4
    gc.collect()
    held, before = weakref.ref(fam), len(ly._FAMILY_FIELDS)
    del fam
    gc.collect()
    assert held() is None and len(ly._FAMILY_FIELDS) == before - 1
    assert twin in ly._FAMILY_FIELDS


@pytest.mark.parametrize("adjoint", [False, True])
def test_ledger_evaluates_coefficients_once_per_component(adjoint, monkeypatch):
    fam = family("polynomial", 1)
    timed = ly.verify_certificate(fam, synthesize(fam, "P").timed).certified
    calls = count_calls(monkeypatch, hypotheses, "ledger_fields")
    read = Counter()
    real = fam.radial_divb
    monkeypatch.setattr(fam, "radial_divb", lambda k, r, log=False: read.update([k]) or real(k, r, log))
    estimate_ledger(fam, *ledger_weights(timed), s=5.0, window=WINDOW,
                    adjoint=adjoint)
    # one evaluation of the fields for the nine window times; the adjoint
    # reads each div b once for the ledger and once for each of the row
    # sums' sample radii and tail ray
    assert len(calls) == 1
    assert read == Counter({k: 3 for k in range(fam.dims.m)} if adjoint else {})


# ---------------------------------------------------------------------------
# the radial core against the box reference
# ---------------------------------------------------------------------------

# d with the radius of the sample box, None for SAMPLE_RADIUS: the default
# boxes, and a 1-D box of radius 20.1, whose step 40.2/512 is inexact, so
# that mirror points differ in their squares.  The ledger samples the
# default box alone.
BOXES = [(1, None), (1, 20.1), (2, None), (3, None)]
CORE_CASES = [(kind, d, target, radius) for kind in ("polynomial", "exponential")
              for target in ly.TARGETS for d, radius in BOXES]
LEDGER_CASES = [case for case in CORE_CASES if case[3] is None]


def ledger_s(d):
    return 5.0 if d < 3 else 6.0


def core_certificates(fam, target, radius=None):
    """The static and the timed certificate's two grid sups."""
    res = synthesize(fam, target)
    return [sup for spec in (res.static, res.timed)
            for rep in [ly.verify_certificate(fam, spec, radius or ly.SAMPLE_RADIUS)]
            for sup in (rep.sup_coarse, rep.sup_fine)]


def reference_certificates(fam, target, radius=None, sample=box, system=None):
    """The box reference of fam's certificates, on system when one is given."""
    res = synthesize(fam, target)
    radius = radius or ly.SAMPLE_RADIUS
    return [certificate_sup(system or fam, spec, R, pts=sample(fam.dims.d, R))
            for spec in (res.static, res.timed) for R in (radius, 2.0 * radius)]


def ledger_args(fam, target):
    """A ledger's weights: the timed function's scales, which calibration
    does not change."""
    return ledger_weights(synthesize(fam, target).timed)


def core_ledger(fam, target):
    """The eight sups, their edge flags and M."""
    led = estimate_ledger(fam, *ledger_args(fam, target), s=ledger_s(fam.dims.d),
                          window=WINDOW, adjoint=target == "P_adjoint")
    return list(led.c), list(led.boundary_flags), led.M


def reference_ledger(fam, target, sample=box, system=None):
    """The box reference of fam's ledger, on system when one is given."""
    adjoint = target == "P_adjoint"
    pts = sample(fam.dims.d, ly.SAMPLE_RADIUS)
    system = system or fam
    sups, edge = ledger_window_sups(system, *ledger_args(fam, target), ledger_s(fam.dims.d),
                                    WINDOW, adjoint=adjoint, pts=pts)
    return sups, edge, box_row_sum_bound(system, adjoint, ly.SAMPLE_RADIUS, pts=pts)[0]


@pytest.mark.parametrize("kind,d,target,radius", CORE_CASES)
def test_certificates_in_r_match_the_box_reference(kind, d, target, radius):
    fam = family(kind, d)
    assert core_certificates(fam, target, radius) == pytest.approx(
        reference_certificates(fam, target, radius), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("kind,d,target,radius", LEDGER_CASES)
def test_the_ledger_in_r_matches_the_box_reference(kind, d, target, radius):
    fam = family(kind, d)
    sups, edge, M = core_ledger(fam, target)
    ref_sups, ref_edge, ref_M = reference_ledger(fam, target)
    assert sups == pytest.approx(ref_sups, rel=1e-13, abs=0.0)
    assert edge == ref_edge
    assert M == pytest.approx(ref_M, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("kind,d,target,radius", CORE_CASES)
def test_row_sums_in_r_match_the_box_reference(kind, d, target, radius):
    fam = family(kind, d)
    adjoint = target == "P_adjoint"
    radius = radius or ly.SAMPLE_RADIUS
    row = compute_row_sum_bound(fam, adjoint, radius)
    M, certified = box_row_sum_bound(fam, adjoint, radius)
    assert row.M == pytest.approx(M, rel=1e-13, abs=0.0)
    assert row.certified_tail == certified


def per_equation_family(kind, d):
    """A two-component family whose zeta, alpha, eta and beta all differ
    between its equations."""
    if kind == "polynomial":
        alpha, beta, gamma = [0.0, 0.5], [1.0, 0.5], [[2.0, 1.0], [1.0, 2.0]]
    else:
        alpha, beta, gamma = [0.0, 0.25], [0.5, 0.25], [[1.0, 0.5], [0.5, 1.0]]
    return co.diagonal_family(kind, d, 2, zeta_diag=[1.0, 2.0], alpha=alpha, eta=[1.0, 0.5],
                              beta=beta, theta=[[1.0, 0.5], [0.5, 1.0]], gamma=gamma)


@pytest.mark.parametrize("kind", ["polynomial", "exponential"])
@pytest.mark.parametrize("target", ly.TARGETS)
@pytest.mark.parametrize("d", [1, 2])
def test_per_equation_values_are_not_collapsed(kind, target, d):
    fam = per_equation_family(kind, d)
    adjoint = target == "P_adjoint"
    assert core_certificates(fam, target) == pytest.approx(
        reference_certificates(fam, target), rel=1e-13, abs=0.0)
    sups, edge, M = core_ledger(fam, target)
    ref_sups, ref_edge, ref_M = reference_ledger(fam, target)
    assert sups == pytest.approx(ref_sups, rel=1e-13, abs=0.0) and edge == ref_edge
    assert M == pytest.approx(ref_M, rel=1e-13, abs=0.0)
    row = compute_row_sum_bound(fam, adjoint)
    assert (row.M, row.certified_tail) == pytest.approx(
        box_row_sum_bound(fam, adjoint, ly.SAMPLE_RADIUS), rel=1e-13, abs=0.0)
    # negative control: the second equation's values are not the first's
    first = co.diagonal_family(kind, d, 2, zeta_diag=fam.zeta[0], alpha=fam.alpha[0],
                               eta=fam.eta[0], beta=fam.beta[0], theta=fam.theta,
                               gamma=fam.gamma)
    assert core_ledger(first, target)[0] != sups
    # the family's generator is that of its values spelt entry by entry,
    # whose diffusion tensors are q_k I
    grid = GridSpec(d, 2.0, 0.25)
    spelt = tensor_spec(type(fam), fam.dims, tensors_of(fam))
    for k in range(2):
        Q = spelt.Q(k, grid.points())
        assert np.array_equal(Q, Q[:, :1, :1] * np.eye(d))
    scalar = OperatorSpec(fam.dims, lambda k, x: spelt.Q(k, x)[..., 0, 0], spelt.b, spelt.V)
    A, B = (assemble_generator(system, grid, target) for system in (fam, scalar))
    assert A.shape == B.shape and (A != B).nnz == 0


@pytest.mark.parametrize("d,radius,radii", [(1, None, 257), (2, None, 457), (3, None, 464),
                                            (1, 20.1, 357)])
def test_the_sample_radii_of_a_box(d, radius, radii):
    # 1-D keeps the leading half of its 513 points, unless mirror points
    # differ in their squares; 65^2 and 33^3 points hold 457 and 464 radii
    radius = radius or ly.SAMPLE_RADIUS
    at = ly._sample_points(family("polynomial", d), radius)
    assert len(at.r) == radii
    pts = box(d, radius)
    assert len(np.unique(np.sum(pts * pts, axis=-1))) == radii


@pytest.mark.parametrize("form", ly.FORMS)
def test_a_block_of_times_has_the_bits_of_each_time(form):
    w = ly.SpaceTimeWeight(form, eps=0.37, sigma=1.3, rho=0.5)
    at = ly._sample_points(family("polynomial", 2), 20.0)
    ts = np.linspace(0.013, 0.97, 37)
    methods = {"log_value": w.log_value, "dt_log": w.dt_log,
               "r_log[0]": lambda t, at: w.r_log(t, at)[0],
               "r_log[1]": lambda t, at: w.r_log(t, at)[1]}
    for name, method in methods.items():
        assert method(ts, at).tobytes() == \
            np.stack([method(t, at) for t in ts]).tobytes(), name


def test_an_overflowing_certificate_raises_the_reference_error():
    # Q (grad S)^2 overflows at the ladder's larger times
    fam = co.diagonal_family("polynomial", 1, 1, zeta_diag=1e306)
    static = ly.LyapunovSpec(form="power", rho=1.0, eps_hat=1.0)
    timed = ly.TimeLyapunovSpec(base=static, T=1.0, sigma=1.0, delta=0.75)
    with pytest.raises(CertificateError) as core:
        ly.verify_certificate(fam, timed)
    with pytest.raises(CertificateError) as reference:
        certificate_sup(fam, timed, ly.SAMPLE_RADIUS)
    assert str(core.value) == str(reference.value)


def test_the_ledger_names_the_reference_first_non_finite_ratio():
    # |Q grad w| crosses float range inside the window, at a time that is
    # not its first; with alpha = 0, |2 q'| is 0 although 2 zeta overflows
    fam = co.diagonal_family("polynomial", 1, 1, zeta_diag=1e308)
    w, nu1, nu2 = (ly.SpaceTimeWeight("power", eps, 1.0, 1.0)
                   for eps in (1.0, 1.0 + 1e-9, 1.0 + 2e-9))
    args = (fam, w, nu1, nu2, 4.0, (0.01, 0.1, 0.4, 0.5))
    with pytest.raises(NonFiniteError) as core:
        estimate_ledger(*args)
    with pytest.raises(NonFiniteError) as reference:
        ledger_window_sups(*args)
    assert str(core.value) == str(reference.value)
    assert "t=0.01," not in str(core.value)


def test_the_ledger_names_the_first_non_finite_ratio_of_the_whole_box():
    # e^{r^3} potentials leave float range inside the box
    fam = co.diagonal_family("exponential", 2, 2, theta=[[1.0, 0.5], [0.5, 1.0]],
                             gamma=[[3.0, 1.0], [1.0, 3.0]])
    w, nu1, nu2 = (ly.SpaceTimeWeight("power", eps, 1.0, 1.0) for eps in (1.0, 1.5, 2.0))
    with pytest.raises(NonFiniteError) as core:
        estimate_ledger(fam, w, nu1, nu2, 4.0, (0.1, 0.125, 0.175, 0.2))
    with pytest.raises(NonFiniteError) as reference:
        ledger_window_sups(fam, w, nu1, nu2, 4.0, (0.1, 0.125, 0.175, 0.2))
    assert str(core.value) == str(reference.value)


# ---------------------------------------------------------------------------
# systems that are not radial
# ---------------------------------------------------------------------------

def skewed(kind):
    """family(kind, 2) with off-diagonal diffusion and a drift that differs
    from axis to axis, as coefficient callables: even in x, but not radial."""
    fam = family(kind, 2)
    zeta = np.array([[[1.0, 0.3], [0.3, 1.0]], [[0.8, -0.2], [-0.2, 1.0]]])
    eta = np.array([[1.0, 2.0], [1.5, 1.0]])
    return tensor_spec(type(fam), fam.dims, replace(tensors_of(fam), zeta=zeta, eta=eta))


def radius_classes(d, radius):
    """The first box point of each distinct |x|^2, the points whose radii
    the package samples."""
    return ly._radius_classes(d, float(radius))


def refusals(system, target="P"):
    """The DomainError messages of the certificates, the ledger and the row sums."""
    fam = family("polynomial", system.dims.d)
    res = synthesize(fam, target)
    calls = [lambda: ly.verify_certificate(system, res.timed),
             lambda: estimate_ledger(system, *ledger_weights(res.timed), s=5.0,
                                     window=WINDOW),
             lambda: compute_row_sum_bound(system, target == "P_adjoint"),
             lambda: hypotheses.check_base(system)]
    messages = []
    for call in calls:
        with pytest.raises(DomainError) as refused:
            call()
        messages.append(str(refused.value))
    return messages


@pytest.mark.parametrize("kind", ["polynomial", "exponential"])
@pytest.mark.parametrize("target", ly.TARGETS)
def test_a_skewed_family_is_refused_and_its_reference_sups_differ(kind, target):
    fam, spec = family(kind, 2), skewed(kind)
    assert set(refusals(spec, target)) == {
        "TensorSpec (d=2, m=2) is not a radial family: certificates, ledger "
        "and row sums evaluate in r = 1 + |x|^2 alone"}
    # negative control: one point per radius misses the whole box's sups
    whole = reference_certificates(fam, target, system=spec) \
        + reference_ledger(fam, target, system=spec)[0]
    classes = reference_certificates(fam, target, sample=radius_classes, system=spec) \
        + reference_ledger(fam, target, sample=radius_classes, system=spec)[0]
    assert whole != classes


def test_the_radius_class_table_is_built_once_per_key_and_read_only(monkeypatch):
    fam = family("polynomial", 2)
    built = Counter()
    grid_points = ly._grid_points

    def counted(d, radius):
        built[(d, radius)] += 1
        return grid_points(d, radius)

    monkeypatch.setattr(ly, "_grid_points", counted)
    ly._radius_classes.cache_clear()
    for target in ly.TARGETS:
        core_certificates(fam, target)
        core_ledger(fam, target)
    # the certificates', the ledger's and the row sums' boxes of radius 20,
    # and the certificates' doubled boxes
    assert built == Counter({(2, 20.0): 1, (2, 40.0): 1})
    table = ly._sample_points(fam, ly.SAMPLE_RADIUS).pts
    assert table is ly._sample_points(fam, 20).pts
    with pytest.raises(ValueError):
        table[0, 0] = 0.0


def test_an_opaque_spec_is_refused_by_name():
    fam = family("polynomial", 1)
    spec = OperatorSpec(fam.dims, fam.q, fam.b, fam.V)
    assert set(refusals(spec)) == {
        "OperatorSpec (d=1, m=2) is not a radial family: certificates, ledger and row "
        "sums evaluate in r = 1 + |x|^2 alone"}


def test_a_drift_that_is_not_radial_peaks_off_the_radius_classes():
    # b = +1 makes <b, grad S> odd in x: the generator ratio peaks at the
    # box's last point, which shares its radius with the first, so the
    # radii are sound for radial families only
    spec = OperatorSpec(
        co.SystemDims(1, 1),
        q=lambda h, x: np.ones(np.atleast_2d(x).shape[:1]),
        b=lambda h, x: np.ones_like(np.atleast_2d(x)),
        V=lambda x: np.zeros(np.atleast_2d(x).shape[:1])[:, None, None])
    lyap = ly.LyapunovSpec(form="power", rho=1.0, eps_hat=0.1)
    pts = box(1, ly.SAMPLE_RADIUS)
    ratio = box_generator_ratio(spec, lyap, None, pts)[0]
    kept = len(radius_classes(1, ly.SAMPLE_RADIUS))
    assert int(np.argmax(ratio)) >= kept and ratio[:kept].max() < ratio.max()
    with pytest.raises(DomainError, match="not a radial family"):
        ly.verify_certificate(spec, lyap)


# ---------------------------------------------------------------------------
# synth's artifacts on the bench configs
# ---------------------------------------------------------------------------

# A change that moves a bit of these files updates the pin in the same diff,
# and CHANGES.md says why.
SYNTH_SHA256 = {
    "poly1d": {
        "lyapunov_certificate.txt": "a2fd83a94511b9968c94f97de282adfef82f7dffa3cd7e41765b14b9071f5730",
        "time_spec.txt": "fa35e14243302c7f156691a6d35c3b3e016769f40870692e8e693773a0f58d54",
        "ledger.txt": "28e7169a8129aa78b985f6dbe9d17a1814dac12406b124b37d8f884173c56727",
        "certificate.txt": "f3d08750efa1e2b001253082354065c5eef4f9c236424a822568cac6377de337",
    },
    "poly2d": {
        "lyapunov_certificate.txt": "aeac739f588d19ba9993a9bf4c3ea36511fa4de245e42fb8d45b19cf321488cc",
        "time_spec.txt": "c4c9afba303122d8405d0ad024e7d2bb249503bc859fb8057e9a5078801e7c70",
        "ledger.txt": "1af81e7c4e881d6c91d834f64c45104b1a44b63c91834a8086d67b10ce933a46",
        "certificate.txt": "6d8ab75ec51a05e31c8fbfc825f5483f4e00ea83ba7f4b7f12391f600a0990c5",
    },
    "exp1d": {
        "lyapunov_certificate.txt": "74e32c722b00124ee4b3de5540eb9642be954ed1761fe9a92076bcce7e066a1e",
        "time_spec.txt": "d0c5e05ccc1bdb5331450d71afcc041695aa4b708d2d313c40bb9cde08fa0d6c",
        "ledger.txt": "177bf642da645f6ac338cdba9943b8acf9149d9ae32650f6b71f70c5d81fd780",
        "certificate.txt": "6356a52b61c5cc0c97506b01c62dd1970e35b0984e1fd0f93627086e097f5cc6",
    },
}

CHECK_SHA256 = {
    "poly1d": {
        "hypotheses.txt": "ebad04afa0d9bff97887e7297dcc1af3b310ca521aa5e0497d8eec9e9b96efbe",
        "hypotheses.csv": "53ca69c215c32b6738dfee7fbdfba6a5b9f879ab6a0eb46ebb8e89b4167d1346",
    },
    "poly2d": {
        "hypotheses.txt": "cd22d4ec53dac482ccecc4c0f4a232a2fafc0c84048b8f69ac389660b1744487",
        "hypotheses.csv": "53ca69c215c32b6738dfee7fbdfba6a5b9f879ab6a0eb46ebb8e89b4167d1346",
    },
    "exp1d": {
        "hypotheses.txt": "2d45a73d4ca38855613abb4ea2a364d21f475bc68d67a67131e5162e3cbe5bb6",
        "hypotheses.csv": "9a3c3497de8ff91b3d8983d35a98c934f3da3900ca54578bc048c84929208c8c",
    },
}

# verify's artifacts after `all`, which runs every check on the store solve
# filled.
VERIFY_SHA256 = {
    "poly1d": {
        "verify_summary.txt": "2ea4983f1fe74a13208021a8988f5d0ab4524930c0df796cd5cdadb5a6c21980",
        "verify_results.csv": "e8b587063dfddaaed362761acf74f97bde6d453ac0313c10ae3e1f61e792d403",
    },
    "poly2d": {
        "verify_summary.txt": "f6b62d8697b89079de8622cbb9366dc14e3b7d7f3da25dc943db1305d09456fd",
        "verify_results.csv": "091654ace249cfcfa2d09da00e83f4628d4e5dfc9057813c185b5315d20687ec",
    },
    "exp1d": {
        "verify_summary.txt": "6db75342d05ecf1799357ec28104a3965e88583a13ec59d277c384ecf509545f",
        "verify_results.csv": "1a490b0f90e75b13f6ed79e7d58deee4754e7ae3cae6564cd8109a1c0c5cfcb0",
    },
}

BENCH_CONFIGS = Path(__file__).resolve().parents[1] / "bench" / "configs"


def run_and_hash(command, workload, out, pins):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([command, "--config", str(BENCH_CONFIGS / (workload + ".cfg")),
                         "--out", str(out)]) == 0
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in pins[workload]}


@pytest.mark.parametrize("workload", sorted(SYNTH_SHA256))
def test_synth_artifacts_are_pinned(workload, tmp_path):
    assert run_and_hash("synth", workload, tmp_path, SYNTH_SHA256) == SYNTH_SHA256[workload]


@pytest.mark.parametrize("workload", sorted(CHECK_SHA256))
def test_check_artifacts_are_pinned(workload, tmp_path):
    assert run_and_hash("check", workload, tmp_path, CHECK_SHA256) == CHECK_SHA256[workload]


@pytest.mark.parametrize("workload", sorted(VERIFY_SHA256))
def test_verify_artifacts_are_pinned(workload, tmp_path):
    assert run_and_hash("all", workload, tmp_path, VERIFY_SHA256) == VERIFY_SHA256[workload]


# ---------------------------------------------------------------------------
# solve's kernel columns on a small 2-D config
# ---------------------------------------------------------------------------

# poly2d on the R = 2 grid, with a source on the axis x1 = 0 (its columns are
# even along axis 1), one at the origin (even along both and their own
# transpose, so they evolve on the wedge) and one off both axes (even along
# neither).  Recorded before the CSV writer formatted mirror
# rows once, so they pin that it writes the same bytes.
SOLVE_SOURCES = "0.5 0; 0 0; 0.5 0.25"
SOLVE_SHA256 = {
    "column_P_t0.25_y0.5_0.25_k0.csv": "69751f4d938b843f0595ac9a20251b3e8b841dd1c4679d10335c5dadc45ab6c8",
    "column_P_t0.25_y0.5_0.25_k1.csv": "c1086362896cb40486ae48f5dbbebe87a4c2b6732b60793108609bca7ce86f51",
    "column_P_t0.25_y0.5_0_k0.csv": "3c1b3148d32d93e4cda2dd547853536d373d7f599483842dd9b69ce4cae075a8",
    "column_P_t0.25_y0.5_0_k1.csv": "6583442597326c8478b657f4e0e72bad9871590195a8652af8b87425e0eb15c9",
    "column_P_t0.25_y0_0_k0.csv": "02ed8c3132b19e532f53b8de02434ae0f94f0b5e33484924b1a92ba7642af266",
    "column_P_t0.25_y0_0_k1.csv": "08ad49f44da805e0f6cd6f2aa081e668531376cb50e5a19f5795f05718aeb692",
    "column_P_t0.5_y0.5_0.25_k0.csv": "0408039f4517e5cbc620c0c0d470c1e545c47289e680456af138765b3fedf711",
    "column_P_t0.5_y0.5_0.25_k1.csv": "27901c9eacee974194d40f6a1ab7afacff63cea00f555b916f6e4061b30a367d",
    "column_P_t0.5_y0.5_0_k0.csv": "b221ad25c5620fbd536a3b7996a7619eae66b536bec683e75f74cead296cf42e",
    "column_P_t0.5_y0.5_0_k1.csv": "b6b11270f810c0958923d60259007a3df59faa872e48bcf3d2f5a5e31013ee39",
    "column_P_t0.5_y0_0_k0.csv": "00b2be82e626b5100a7bc7449bd4d0fd690d49e6b1aed518406125083b63f9f5",
    "column_P_t0.5_y0_0_k1.csv": "d45af8d88d6c605829cdbffee67e190d3b27e6177f4207af669f15f55b848bbe",
}


def small_solve_config(tmp_path) -> Path:
    text = (BENCH_CONFIGS / "poly2d.cfg").read_text()
    for old, new in (("radii = 2 4 6", "radii = 2"),
                     ("sources = 0.5 0", "sources = " + SOLVE_SOURCES)):
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "small2d.cfg"
    path.write_text(text)
    return path


def test_solve_columns_are_pinned(tmp_path):
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["solve", "--config", str(small_solve_config(tmp_path)),
                         "--out", str(out)]) == 0
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.glob("column_*.csv"))} == SOLVE_SHA256
