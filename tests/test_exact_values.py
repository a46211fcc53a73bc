"""Certificate and ledger values pinned bit for bit, and evaluation counts.

The coefficients depend on x only, so certificates and the ledger evaluate
them once per grid and reuse them at every time.  The pinned values below
(float.hex) were computed when the fields were still evaluated afresh at
every time; moving where they are computed must not move a single bit.
Certificate ladders and ledger windows are evaluated in blocks of times,
and must have the bits of the one-time-at-a-time loops in oracles.py.
synth's artifacts on the bench configs are pinned by their sha256.
"""

import contextlib
import hashlib
import io
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from kernelbound import cli, hypotheses
from kernelbound import coefficients as co
from kernelbound import lyapunov as ly
from kernelbound import verify
from kernelbound.errors import CertificateError, NonFiniteError
from kernelbound.hypotheses import SamplePlan, compute_row_sum_bound, estimate_ledger

from oracles import certificate_ladder_sups, ledger_window_sups, operator_spec_from_callables


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
    return [timed.weight(f * timed.eps_T) for f in (0.5, 0.75, 1.0)]


# The verify command keeps these numbers in its kernel store as records, keyed
# by RECORD_VERSION among other things.  A change that moves a pinned value
# must bump verify.RECORD_VERSION, and the pin below, in the same diff, so
# records written before it are recomputed rather than read back.
RECORD_VERSION = 2


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
        '0x1.a2e9840a82d5ap-499',
        '0x1.0000000000000p-1',
    ],
    ('polynomial', 1, 'P_adjoint'): [
        '0x1.051030d63d37dp+1',
        '0x1.051030d63d37dp+1',
        '0x1.52de5c82deca5p+1',
        '0x1.52de5c82deca5p+1',
        '0x1.513d930cc82cdp+1',
        '0x1.ff5d8d06c109cp-1',
        '0x1.065e39445fc2bp-4',
        '0x1.1131662e7f444p-4',
        '0x1.d61c0e7296419p+1',
        '0x1.2d1428e11f4abp+17',
        '0x1.e8f487703c49dp+12',
        '0x1.ffaec010ff376p-1',
        '0x1.a2798609cec0dp-499',
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
        '0x1.2ebaa7a9dd689p+14',
        '0x1.6a00d978c10cap+0',
        '0x1.a2e9840a82d5ap-499',
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
        '0x1.55c938afbb3ffp+14',
        '0x1.69d072a1c8440p+0',
        '0x1.a2798609cec0dp-499',
        '-0x1.7b80000000004p+1',
    ],
    ('exponential', 1, 'P'): [
        '0x1.458969c1eab1bp+2',
        '0x1.458969c1eab1bp+2',
        '0x1.8db15ab9feb0ep+2',
        '0x1.8db15ab9feb0ep+2',
        '0x1.8db15ab9feb0ep+2',
        '0x1.fdc1ba06ba61ap-1',
        '0x1.03b12c748a9e9p+3',
        '0x1.ab873f3ad5da6p+4',
        '0x1.d6d9e7cce9e5bp+4',
        '0x1.71c40fac13336p+101',
        '0x1.ec5886c278756p+9',
        '0x1.5b2d50ae0f9e0p+1',
        '0x1.a1288219aec4bp-499',
        '0x1.5bf0a8b145769p+0',
    ],
    ('exponential', 1, 'P_adjoint'): [
        '0x1.d23832a1091f5p+6',
        '0x1.ca28f8eb5eac2p+6',
        '0x1.f8dcd15f71d86p+6',
        '0x1.f8dcd15f71d86p+6',
        '0x1.ed47d3a90c1e1p+6',
        '0x1.ffdc08b3ccee1p-1',
        '0x1.d539966dba1cap+2',
        '0x1.5cedf2e4f3f20p+4',
        '0x1.d6e08cf06d7b1p+5',
        '0x1.46c5bde093b26p+276',
        '0x1.ca6b8bbe070bfp+16',
        '0x1.5be46ff95d98ap+1',
        '0x1.a2e107debf4fap-499',
        '-0x1.056a264d13a54p+1',
    ],
    ('exponential', 2, 'P'): [
        '0x1.4c8708281b3d4p+3',
        '0x1.0c14d00ee37afp+3',
        '0x1.6d884ad4198f5p+3',
        '0x1.6d884ad4198f5p+3',
        '0x1.47324d3b7113fp+3',
        '0x1.fdc1ba06ba61ap-1',
        '0x1.033680ead30ddp+3',
        '0x1.b913722464200p+4',
        '0x1.d6d5f25f85095p+4',
        '0x1.72b47fc9c0e07p+101',
        '0x1.ebf3f6cfc0bfdp+9',
        '0x1.eafb8125a877dp+1',
        '0x1.a1288219aec4bp-499',
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
        '0x1.ca2ed94816d7fp+16',
        '0x1.ebfe7a7b0edbap+1',
        '0x1.a2e107debf4fap-499',
        '-0x1.7219cadb6e0b4p+2',
    ],
}


@pytest.mark.parametrize("kind,d,target", sorted(PINNED))
def test_certificates_and_ledger_are_bit_identical(kind, d, target):
    fam = family(kind, d)
    res = synthesize(fam, target)
    static = ly.verify_certificate(fam, res.static)
    timed = ly.verify_certificate(fam, res.timed)
    led = estimate_ledger(fam, *ledger_weights(timed.certified), s=5.0,
                          window=(0.0625, 0.375), adjoint=target == "P_adjoint")
    got = [static.sup_coarse, static.sup_fine, timed.certified.c0,
           timed.sup_coarse, timed.sup_fine, *led.c, led.M]
    assert [float(v).hex() for v in got] == PINNED[(kind, d, target)]


class CountingSpec:
    """An opaque OperatorSpec over a family that counts coefficient calls."""

    def __init__(self, fam):
        self.calls = {}
        inner = fam.operator_spec()

        def counted(name):
            def call(*args):
                self.calls[name] = self.calls.get(name, 0) + 1
                return getattr(inner, name)(*args)
            return call

        self.spec = co.OperatorSpec(dims=fam.dims, **{
            name: counted(name) for name in ("Q", "b", "V", "R", "divb")})


@pytest.mark.parametrize("target", ["P", "P_adjoint"])
def test_timed_certificate_evaluates_coefficients_once_per_grid(target):
    fam = family("polynomial", 1)
    counting = CountingSpec(fam)
    res = synthesize(fam, target)
    ly.verify_certificate(counting.spec, res.timed)
    m = fam.dims.m
    # two radii, m components each, however many ladder times
    expected = {"Q": 2 * m, "R": 2 * m, "b": 2 * m, "V": 2}
    if target == "P_adjoint":
        expected["divb"] = 2 * m
    assert counting.calls == expected


@pytest.mark.parametrize("adjoint", [False, True])
def test_ledger_evaluates_coefficients_once_per_component(adjoint):
    fam = family("polynomial", 1)
    timed = ly.verify_certificate(fam, synthesize(fam, "P").timed).certified
    ledger_spec, row_spec = CountingSpec(fam), CountingSpec(fam)
    estimate_ledger(ledger_spec.spec, *ledger_weights(timed), s=5.0,
                    window=(0.0625, 0.375), adjoint=adjoint)
    # the ledger ends with the row-sum bound, which has grids of its own
    compute_row_sum_bound(row_spec.spec, adjoint=adjoint)
    m = fam.dims.m
    expected = Counter({"Q": m, "R": m, "b": m, "V": 1})
    if adjoint:
        expected["divb"] = m
    assert Counter(ledger_spec.calls) - Counter(row_spec.calls) == expected


# ---------------------------------------------------------------------------
# blocks of times against the one-time-at-a-time loops
# ---------------------------------------------------------------------------

# points per axis, with the block lengths they cut the 11-time certificate
# ladder and the 9-time ledger window into: the default grid, a split into
# two blocks, and a split that leaves a block of a single time
BLOCKINGS = {
    1: [(None, [11], [9]), (2000, [8, 3], [8, 1]), (3000, [5, 5, 1], [5, 4])],
    2: [(None, [1] * 11, [1] * 9), (25, [6, 5], [6, 3]), (40, [2] * 5 + [1], [2] * 4 + [1])],
}
BLOCK_CASES = [(kind, d, target, per_axis, ladder, window)
               for kind in ("polynomial", "exponential") for d in (1, 2)
               for target in ly.TARGETS
               for per_axis, ladder, window in BLOCKINGS[d]]


def block_lengths(count, per_axis, d):
    n = ly._points_per_axis(d, per_axis) ** d
    return [len(block) for block in ly.time_blocks(list(range(count)), n, d)]


@pytest.mark.parametrize("kind,d,target,per_axis,ladder,window", BLOCK_CASES)
def test_blocked_certificate_ladder_has_the_bits_of_the_time_loop(
        kind, d, target, per_axis, ladder, window):
    assert block_lengths(11, per_axis, d) == ladder
    fam = family(kind, d)
    timed = synthesize(fam, target).timed
    rep = ly.verify_certificate(fam, timed, per_axis=per_axis)
    looped = [max(certificate_ladder_sups(fam, timed, R, per_axis))
              for R in (ly.SAMPLE_RADIUS, 2.0 * ly.SAMPLE_RADIUS)]
    assert [rep.sup_coarse.hex(), rep.sup_fine.hex()] == [v.hex() for v in looped]


@pytest.mark.parametrize("form", ly.FORMS)
def test_a_block_of_times_has_the_bits_of_each_time(form):
    w = ly.SpaceTimeWeight(form, eps=0.37, sigma=1.3, rho=0.5)
    at = ly.RadialPoints(ly._grid_points(2, 20.0, 9), 2)
    ts = np.linspace(0.013, 0.97, 37)
    for method in (w.log_value, w.dt_log, w.grad_log, w.hess_log):
        assert method(ts, at, 2).tobytes() == \
            np.stack([method(t, at, 2) for t in ts]).tobytes(), method.__name__


def heat_like(q: float = 1.0):
    """A one-component 1-D spec with diffusion q, and nothing else."""
    zeros = lambda x: np.zeros(np.atleast_2d(x).shape[:1])
    return operator_spec_from_callables(
        co.SystemDims(1, 1),
        Q=lambda h, x: np.full(np.atleast_2d(x).shape[:1], q)[:, None, None],
        b=lambda h, x: np.zeros_like(np.atleast_2d(x)),
        V=lambda x: zeros(x)[:, None, None],
        R=lambda h, x: zeros(x)[:, None, None],
        divb=lambda h, x: zeros(x))


def test_a_late_ladder_sup_is_found_in_the_last_block():
    # with sigma < 1 the t^(sigma-1) growth of D_t log nu outruns the
    # subtracted g part as t -> 0, so the sup sits at the smallest time,
    # alone in the last block of a 3000-point grid
    static = ly.LyapunovSpec(form="power", rho=0.001, eps_hat=1.0)
    timed = ly.TimeLyapunovSpec(base=static, T=1.0, sigma=0.5, delta=0.4999)
    assert block_lengths(11, 3000, 1) == [5, 5, 1]
    rep = ly.verify_certificate(heat_like(), timed, per_axis=3000)
    for R, sup in ((ly.SAMPLE_RADIUS, rep.sup_coarse), (2.0 * ly.SAMPLE_RADIUS, rep.sup_fine)):
        looped = certificate_ladder_sups(heat_like(), timed, R, 3000)
        assert int(np.argmax(looped)) == 10
        assert sup.hex() == looped[10].hex()


@pytest.mark.parametrize("kind,d,target,per_axis,ladder,window", BLOCK_CASES)
def test_blocked_ledger_window_has_the_bits_of_the_time_loop(
        kind, d, target, per_axis, ladder, window):
    assert block_lengths(9, per_axis, d) == window
    fam = family(kind, d)
    timed = ly.verify_certificate(fam, synthesize(fam, target).timed).certified
    plan = SamplePlan(per_axis=per_axis)
    args = (fam, *ledger_weights(timed), 5.0, (0.0625, 0.375))
    led = estimate_ledger(*args, plan=plan, adjoint=target == "P_adjoint")
    sups, edge = ledger_window_sups(*args, plan=plan, adjoint=target == "P_adjoint")
    assert [float(c).hex() for c in led.c] == [float(c).hex() for c in sups]
    assert list(led.boundary_flags) == edge


def test_blocked_certificate_raises_the_loop_error():
    # Q (grad S)^2 overflows at the ladder's larger times
    static = ly.LyapunovSpec(form="power", rho=1.0, eps_hat=1.0)
    timed = ly.TimeLyapunovSpec(base=static, T=1.0, sigma=1.0, delta=0.75)
    spec = heat_like(1e306)
    with pytest.raises(CertificateError) as blocked:
        ly.verify_certificate(spec, timed)
    with pytest.raises(CertificateError) as looped:
        certificate_ladder_sups(spec, timed, ly.SAMPLE_RADIUS)
    assert str(blocked.value) == str(looped.value)


@pytest.mark.parametrize("per_axis", [None, 3000])
def test_blocked_ledger_names_the_loop_first_non_finite_ratio(per_axis):
    # the divergence item |Q| |grad w|^2 crosses float range inside the
    # window, at a time that is not the first of its block
    w, nu1, nu2 = (ly.SpaceTimeWeight("power", eps, 1.0, 1.0)
                   for eps in (1.0, 1.0 + 1e-9, 1.0 + 2e-9))
    args = (heat_like(1e308), w, nu1, nu2, 4.0, (0.01, 0.1))
    plan = SamplePlan(per_axis=per_axis)
    with pytest.raises(NonFiniteError) as blocked:
        estimate_ledger(*args, plan=plan)
    with pytest.raises(NonFiniteError) as looped:
        ledger_window_sups(*args, plan=plan)
    assert str(blocked.value) == str(looped.value)
    assert "t=0.01," not in str(blocked.value)


# ---------------------------------------------------------------------------
# radius classes against the whole box
# ---------------------------------------------------------------------------

def skewed(kind):
    """family(kind, 2) with off-diagonal diffusion and a drift that differs
    from axis to axis: even in x, but not radial."""
    fam = family(kind, 2)
    zeta = np.array([[[1.0, 0.3], [0.3, 1.0]], [[0.8, -0.2], [-0.2, 1.0]]])
    eta = np.array([[1.0, 2.0], [1.5, 1.0]])
    return type(fam)(fam.dims, zeta, fam.alpha, eta, fam.beta, fam.theta, fam.gamma)


def sample_with(monkeypatch, sampler):
    """Make the certificates, the ledger and the row sums sample with sampler."""
    for module in (ly, hypotheses):
        monkeypatch.setattr(module, "_sample_points", sampler)


def whole_box(system, radius, per_axis=None):
    return ly._grid_points(system.dims.d, radius, per_axis)


def radius_classes(system, radius, per_axis=None):
    d = system.dims.d
    return ly._radius_classes(d, float(radius), ly._points_per_axis(d, per_axis))


def sampled_values(fam, target, per_axis=None, s=5.0):
    """Both certificates' sups, the ledger and the row-sum bound of fam, with
    the ledger's edge flags and the row sums' tail verdict."""
    res = synthesize(fam, target)
    static = ly.verify_certificate(fam, res.static, per_axis=per_axis)
    timed = ly.verify_certificate(fam, res.timed, per_axis=per_axis)
    adjoint = target == "P_adjoint"
    led = estimate_ledger(fam, *ledger_weights(timed.certified), s=s,
                          window=(0.0625, 0.375), plan=SamplePlan(per_axis=per_axis),
                          adjoint=adjoint)
    row = compute_row_sum_bound(fam, adjoint=adjoint)
    sups = [static.sup_coarse, static.sup_fine, timed.sup_coarse, timed.sup_fine,
            *led.c, led.M, row.M]
    return sups, list(led.boundary_flags), row.certified_tail


def sampled_numbers(fam, target):
    """sampled_values with every number as float.hex."""
    sups, edge, tail = sampled_values(fam, target)
    return [float(v).hex() for v in sups], edge, tail


def looped_numbers(fam, target):
    """The timed certificate's two sups and the eight ledger sups, as
    float.hex, with the ledger's edge flags, from the one-time-at-a-time
    loops of oracles.py, which sample the whole box."""
    timed = synthesize(fam, target).timed
    looped = [max(certificate_ladder_sups(fam, timed, R))
              for R in (ly.SAMPLE_RADIUS, 2.0 * ly.SAMPLE_RADIUS)]
    calibrated = ly.verify_certificate(fam, timed).certified
    sups, edge = ledger_window_sups(fam, *ledger_weights(calibrated), 5.0, (0.0625, 0.375),
                                    SamplePlan(), adjoint=target == "P_adjoint")
    return [float(v).hex() for v in looped + sups], edge


RADIAL_CASES = [(kind, d, target) for kind in ("polynomial", "exponential")
                for d in (1, 2) for target in ly.TARGETS]


@pytest.mark.parametrize("kind,d,target", RADIAL_CASES)
def test_a_radial_family_on_radius_classes_has_the_bits_of_the_whole_box(
        kind, d, target, monkeypatch):
    fam = family(kind, d)
    assert fam.radial
    # 1-D keeps the leading half of its 513 points; 457 radii of 65^2 in 2-D
    assert len(ly._sample_points(fam, ly.SAMPLE_RADIUS)) == {1: 257, 2: 457}[d]
    classes = sampled_numbers(fam, target)
    sups, edge = looped_numbers(fam, target)
    assert classes[0][2:12] == sups
    assert classes[1] == edge
    sample_with(monkeypatch, whole_box)
    assert sampled_numbers(fam, target) == classes


@pytest.mark.parametrize("kind", ["polynomial", "exponential"])
@pytest.mark.parametrize("target", ly.TARGETS)
def test_a_skewed_family_takes_the_whole_box(kind, target, monkeypatch):
    fam = skewed(kind)
    assert not fam.radial
    assert np.array_equal(ly._sample_points(fam, ly.SAMPLE_RADIUS),
                          ly._grid_points(2, ly.SAMPLE_RADIUS))
    numbers = sampled_numbers(fam, target)
    sups, edge = looped_numbers(fam, target)
    assert numbers[0][2:12] == sups
    assert numbers[1] == edge
    # negative control: one point per radius misses the whole box's numbers
    sample_with(monkeypatch, radius_classes)
    forced = sampled_numbers(fam, target)
    assert forced[0] != numbers[0]


@pytest.mark.parametrize("kind", ["polynomial", "exponential"])
@pytest.mark.parametrize("target", ly.TARGETS)
def test_a_3d_radial_family_on_radius_classes_matches_the_whole_box(
        kind, target, monkeypatch):
    fam = family(kind, 3)
    assert len(ly._sample_points(fam, ly.SAMPLE_RADIUS)) == 464  # of 33^3 points
    # 17 points per axis keep the whole box's reference near 0.2 s a case
    classes = sampled_values(fam, target, per_axis=17, s=6.0)
    assert len(ly._sample_points(fam, ly.SAMPLE_RADIUS, 17)) == 116
    sample_with(monkeypatch, whole_box)
    whole = sampled_values(fam, target, per_axis=17, s=6.0)
    assert classes[0] == pytest.approx(whole[0], rel=1e-13, abs=0.0)
    assert classes[1:] == whole[1:]


def test_the_radius_class_table_is_built_once_per_key_and_read_only(monkeypatch):
    fam = family("polynomial", 2)
    built = Counter()
    grid_points = ly._grid_points

    def counted(d, radius, per_axis=None):
        built[(d, radius, per_axis)] += 1
        return grid_points(d, radius, per_axis)

    monkeypatch.setattr(ly, "_grid_points", counted)
    ly._radius_classes.cache_clear()
    for target in ly.TARGETS:
        sampled_numbers(fam, target)
    # the certificates', the ledger's and the row sums' boxes of radius 20,
    # and the certificates' doubled boxes
    assert built == Counter({(2, 20.0, 65): 1, (2, 40.0, 65): 1})
    table = ly._sample_points(fam, ly.SAMPLE_RADIUS)
    assert table is ly._sample_points(fam, 20, 65)
    with pytest.raises(ValueError):
        table[0, 0] = 0.0


def test_an_opaque_spec_takes_the_whole_box_and_an_inexact_box_keeps_its_sups():
    fam = family("polynomial", 1)
    assert len(ly._sample_points(fam.operator_spec(), ly.SAMPLE_RADIUS)) == 513
    # the step 40/1999 is inexact, so mirror points differ in their squares,
    # and each is a radius of its own
    pts = ly._grid_points(1, ly.SAMPLE_RADIUS, 2000)
    assert not np.array_equal(pts, -pts[::-1])
    assert 1000 < len(ly._sample_points(fam, ly.SAMPLE_RADIUS, 2000)) < 2000
    timed = synthesize(fam, "P").timed
    rep = ly.verify_certificate(fam, timed, per_axis=2000)
    looped = [max(certificate_ladder_sups(fam, timed, R, 2000))
              for R in (ly.SAMPLE_RADIUS, 2.0 * ly.SAMPLE_RADIUS)]
    assert [rep.sup_coarse.hex(), rep.sup_fine.hex()] == [v.hex() for v in looped]


def test_a_drift_that_is_not_radial_peaks_off_the_radius_classes():
    # b = +1 makes <b, grad S> odd in x: the generator ratio peaks at the
    # box's last point, which shares its radius with the first, so the
    # classes are sound for radial families only
    spec = operator_spec_from_callables(
        co.SystemDims(1, 1),
        Q=lambda h, x: np.ones(np.atleast_2d(x).shape[:1])[:, None, None],
        b=lambda h, x: np.ones_like(np.atleast_2d(x)),
        V=lambda x: np.zeros(np.atleast_2d(x).shape[:1])[:, None, None])
    lyap = ly.LyapunovSpec(form="power", rho=1.0, eps_hat=0.1)
    pts = ly._grid_points(1, ly.SAMPLE_RADIUS)
    ratio = ly._generator_ratio(spec, lyap, None, None, pts)[0]
    kept = len(ly._radius_classes(1, ly.SAMPLE_RADIUS, len(pts)))
    assert int(np.argmax(ratio)) >= kept and ratio[:kept].max() < ratio.max()
    # and a spec's certificate grid is the whole box
    grid = ly.CertificateGrids(spec).fields(ly.SAMPLE_RADIUS, None, adjoint=False)
    assert np.array_equal(grid.points.pts, pts)


def test_radius_classes_name_the_first_non_finite_ratio_of_the_whole_box(monkeypatch):
    # e^{r^3} potentials leave float range inside the box
    fam = co.diagonal_family("exponential", 2, 2, theta=[[1.0, 0.5], [0.5, 1.0]],
                             gamma=[[3.0, 1.0], [1.0, 3.0]])
    w, nu1, nu2 = (ly.SpaceTimeWeight("power", eps, 1.0, 1.0) for eps in (1.0, 1.5, 2.0))
    with pytest.raises(NonFiniteError) as classes:
        estimate_ledger(fam, w, nu1, nu2, 4.0, (0.1, 0.2))
    sample_with(monkeypatch, whole_box)
    with pytest.raises(NonFiniteError) as whole:
        estimate_ledger(fam, w, nu1, nu2, 4.0, (0.1, 0.2))
    assert str(classes.value) == str(whole.value)


# ---------------------------------------------------------------------------
# synth's artifacts on the bench configs
# ---------------------------------------------------------------------------

# A change that moves a bit of these files updates the pin in the same diff,
# and CHANGES.md says why.
SYNTH_SHA256 = {
    "poly1d": {
        "lyapunov_certificate.txt": "a2fd83a94511b9968c94f97de282adfef82f7dffa3cd7e41765b14b9071f5730",
        "time_spec.txt": "fa35e14243302c7f156691a6d35c3b3e016769f40870692e8e693773a0f58d54",
        "ledger.txt": "1c74bbd50a6354c6d3a5882ffb843fc61b1d46a42c9ee4d61e70b22e814d37f6",
        "certificate.txt": "39d5ca672a06ca667f83dba9016b565f100d8c1eece60b858f80b33e145e3ee5",
    },
    "poly2d": {
        "lyapunov_certificate.txt": "aeac739f588d19ba9993a9bf4c3ea36511fa4de245e42fb8d45b19cf321488cc",
        "time_spec.txt": "c4c9afba303122d8405d0ad024e7d2bb249503bc859fb8057e9a5078801e7c70",
        "ledger.txt": "704ba9a9280ebbe2c68d1c0fe9426749d8718989fc8ca51f574a2a5dcdec86c3",
        "certificate.txt": "de7aebbeccf662e3b24444bc1ce5e70d7d7b4ae2095ec8d72039dd7ac3f10744",
    },
    "exp1d": {
        "lyapunov_certificate.txt": "74e32c722b00124ee4b3de5540eb9642be954ed1761fe9a92076bcce7e066a1e",
        "time_spec.txt": "d0c5e05ccc1bdb5331450d71afcc041695aa4b708d2d313c40bb9cde08fa0d6c",
        "ledger.txt": "65f12e51bb7ccc63472bc9536453fc757f7c846c4e3fa1d13a125f1a48532f11",
        "certificate.txt": "00e84bd7598b8a67be3257630d2da7c59fbb6adfbc18524615d8e6d6e10523d5",
    },
}

BENCH_CONFIGS = Path(__file__).resolve().parents[1] / "bench" / "configs"


@pytest.mark.parametrize("workload", sorted(SYNTH_SHA256))
def test_synth_artifacts_are_pinned(workload, tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["synth", "--config", str(BENCH_CONFIGS / (workload + ".cfg")),
                         "--out", str(tmp_path)]) == 0
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in SYNTH_SHA256[workload]} == SYNTH_SHA256[workload]


# ---------------------------------------------------------------------------
# solve's kernel columns on a small 2-D config
# ---------------------------------------------------------------------------

# poly2d on the R = 2 grid, with a source on the axis x1 = 0 (its columns are
# even along axis 1), one at the origin (even along both) and one off both
# axes (even along neither).  Recorded before the CSV writer formatted mirror
# rows once, so they pin that it writes the same bytes.
SOLVE_SOURCES = "0.5 0; 0 0; 0.5 0.25"
SOLVE_SHA256 = {
    "column_P_t0.25_y0.5_0.25_k0.csv": "69751f4d938b843f0595ac9a20251b3e8b841dd1c4679d10335c5dadc45ab6c8",
    "column_P_t0.25_y0.5_0.25_k1.csv": "c1086362896cb40486ae48f5dbbebe87a4c2b6732b60793108609bca7ce86f51",
    "column_P_t0.25_y0.5_0_k0.csv": "3c1b3148d32d93e4cda2dd547853536d373d7f599483842dd9b69ce4cae075a8",
    "column_P_t0.25_y0.5_0_k1.csv": "6583442597326c8478b657f4e0e72bad9871590195a8652af8b87425e0eb15c9",
    "column_P_t0.25_y0_0_k0.csv": "a4dc9b23ff6d758209244d20627ebf8bfbd469fc9c256b9c16b28f9fc0b9f791",
    "column_P_t0.25_y0_0_k1.csv": "372edbf2bda9e173e6e7aa70e0235278cc530ac8d6576932e39d4a6e1bbf60b6",
    "column_P_t0.5_y0.5_0.25_k0.csv": "0408039f4517e5cbc620c0c0d470c1e545c47289e680456af138765b3fedf711",
    "column_P_t0.5_y0.5_0.25_k1.csv": "27901c9eacee974194d40f6a1ab7afacff63cea00f555b916f6e4061b30a367d",
    "column_P_t0.5_y0.5_0_k0.csv": "b221ad25c5620fbd536a3b7996a7619eae66b536bec683e75f74cead296cf42e",
    "column_P_t0.5_y0.5_0_k1.csv": "b6b11270f810c0958923d60259007a3df59faa872e48bcf3d2f5a5e31013ee39",
    "column_P_t0.5_y0_0_k0.csv": "8c26b3027644cae1ad9321d5ab84276b590fb7d6c56223fb82b277442bb08e04",
    "column_P_t0.5_y0_0_k1.csv": "9d3ae3519c4b91f911875130caa088a265fc0c7c729930d7dee0b0ca693a033e",
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
