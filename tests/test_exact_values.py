"""Certificate and ledger values pinned bit for bit, and evaluation counts.

The coefficients depend on x only, so certificates and the ledger evaluate
them once per grid and reuse them at every time.  The pinned values below
(float.hex) were computed when the fields were still evaluated afresh at
every time; moving where they are computed must not move a single bit.
"""

from collections import Counter

import pytest

from kernelbound import coefficients as co
from kernelbound import lyapunov as ly
from kernelbound import verify
from kernelbound.hypotheses import compute_row_sum_bound, estimate_ledger


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
RECORD_VERSION = 1


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
