"""Elliptic kernel tests: degenerate limits, an independent ODE-integration
oracle, the defining quadratic identities, and pole/domain errors."""

import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cybe import (ModulusOutOfRange, PoleProximity, elliptic_exp, jacobi_cd,
                  jacobi_sncndn)

# Frozen values of the independent oracle: integrate the first-order system
# s' = c d, c' = -s d, d' = -k^2 s c from (0, 1, 1) along the ray to z
# (scipy DOP853, rtol 1e-13).
ODE_ORACLE = [
    # z, k, sn, cn, dn
    (0.3 + 0.2j, 0.6,
     0.301739166538056 + 0.189644499733017j,
     0.973843552363208 - 0.058760129539396j,
     0.990254226207843 - 0.020803084539772j),
    (0.7, 0.35,
     0.639358646256340 + 0j,
     0.768908656120651 + 0j,
     0.974640710148368 + 0j),
    (-0.9 + 0.4j, 0.8,
     -0.797994957242790 + 0.213152030038807j,
     0.685691456545486 + 0.248062366058879j,
     0.800027168863665 + 0.136070774967209j),
    (1.3 - 0.3j, 0.45 + 0.15j,
     0.989293119380383 - 0.102687740286480j,
     0.344601767299536 + 0.294799053719968j,
     0.895024148326077 - 0.052584779558690j),
]


def test_zero_argument():
    sn, cn, dn = jacobi_sncndn(0.0, 0.37)
    assert sn == 0 and cn == 1 and dn == 1


def test_trigonometric_limit():
    sn, cn, dn = jacobi_sncndn(0.7, 0.0)
    assert abs(sn - cmath.sin(0.7)) < 1e-15
    assert abs(cn - cmath.cos(0.7)) < 1e-15
    assert abs(dn - 1) < 1e-15


def test_hyperbolic_limit_exact():
    sn, cn, dn = jacobi_sncndn(0.7, 1.0)
    assert abs(sn - cmath.tanh(0.7)) < 1e-15
    assert abs(cn - 1 / cmath.cosh(0.7)) < 1e-15
    assert abs(dn - 1 / cmath.cosh(0.7)) < 1e-15


@pytest.mark.parametrize("z,k,sn,cn,dn", ODE_ORACLE)
def test_against_ode_oracle(z, k, sn, cn, dn):
    s, c, d = jacobi_sncndn(z, k)
    assert abs(s - sn) < 1e-11
    assert abs(c - cn) < 1e-11
    assert abs(d - dn) < 1e-11


def test_live_ode_oracle():
    scipy = pytest.importorskip("scipy.integrate")

    def oracle(z, k):
        z, k = complex(z), complex(k)

        def rhs(t, y):
            s, c, d = y[0] + 1j * y[1], y[2] + 1j * y[3], y[4] + 1j * y[5]
            ds, dc, dd = z * c * d, -z * s * d, -z * k * k * s * c
            return [ds.real, ds.imag, dc.real, dc.imag, dd.real, dd.imag]

        sol = scipy.solve_ivp(rhs, (0, 1), [0, 0, 1, 0, 1, 0],
                              rtol=1e-12, atol=1e-13, method="DOP853")
        y = sol.y[:, -1]
        return y[0] + 1j * y[1], y[2] + 1j * y[3], y[4] + 1j * y[5]

    rng = np.random.default_rng(5)
    for _ in range(12):
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-0.6, 0.6))
        k = rng.uniform(0.05, 0.9)
        got = jacobi_sncndn(z, k)
        want = oracle(z, k)
        assert max(abs(g - w) for g, w in zip(got, want)) < 1e-10


def test_quadratic_identities():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(300):
        z = complex(rng.uniform(-2, 2), rng.uniform(-0.9, 0.9))
        k = complex(rng.uniform(0, 0.95), rng.uniform(-0.2, 0.2))
        if abs(k) > 0.95:
            k *= 0.95 / abs(k)
        sn, cn, dn = jacobi_sncndn(z, k)
        worst = max(worst, abs(sn * sn + cn * cn - 1),
                    abs(dn * dn + k * k * sn * sn - 1))
    assert worst < 1e-12


def test_addition_theorem():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        a = complex(rng.uniform(-1, 1), rng.uniform(-0.4, 0.4))
        b = complex(rng.uniform(-1, 1), rng.uniform(-0.4, 0.4))
        k = rng.uniform(0.05, 0.9)
        sa, ca, da = jacobi_sncndn(a, k)
        sb, cb, db = jacobi_sncndn(b, k)
        s_sum = jacobi_sncndn(a + b, k)[0]
        rhs = (sa * cb * db + sb * ca * da) / (1 - k**2 * sa**2 * sb**2)
        worst = max(worst, abs(s_sum - rhs))
    assert worst < 1e-10


def test_parity():
    rng = np.random.default_rng(2)
    for _ in range(40):
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-0.5, 0.5))
        k = rng.uniform(0, 0.9)
        sp, cp, dp = jacobi_sncndn(z, k)
        sm, cm, dm = jacobi_sncndn(-z, k)
        assert abs(sm + sp) < 1e-12
        assert abs(cm - cp) < 1e-12
        assert abs(dm - dp) < 1e-12


def test_continuity_near_one():
    k = 1 - 1e-6
    for z in (0.3, -0.8, 1.1, 0.4 + 0.2j):
        sn = jacobi_sncndn(z, k)[0]
        assert abs(sn - cmath.tanh(z)) < 1e-4
        # the actual gap is much tighter than the continuity tolerance
        assert abs(sn - cmath.tanh(z)) < 1e-5


def test_modulus_domain():
    with pytest.raises(ModulusOutOfRange):
        jacobi_sncndn(0.3, 1.2)
    with pytest.raises(ModulusOutOfRange):
        jacobi_sncndn(0.3, complex("nan"))
    # complex modulus at unit magnitude is fine away from +-1
    jacobi_sncndn(0.3, 1j * 0.999)


def test_modulus_cap_boundary():
    """|k| up to 1 + 1e-9 evaluates: its m is within _NEAR_ONE of 1, on the
    hyperbolic forms.  Beyond the cap the message gives |k| to ten digits."""
    for k in (1 + 1e-9, complex(1 + 1e-9, -0.0)):
        sn, cn, dn = jacobi_sncndn(0.3, k)
        assert abs(sn - cmath.tanh(0.3)) < 1e-8
    with pytest.raises(ModulusOutOfRange) as info:
        jacobi_sncndn(0.3, 1 + 2e-9)
    assert str(info.value) == "|k| = 1.000000002 exceeds 1.000000001"


def test_pole_rejection():
    # z = i K'(k) is a pole of all three functions
    from mpmath import ellipk, mp
    mp.dps = 20
    k = 0.6
    kprime = (1 - k * k) ** 0.5
    Kp = float(ellipk(kprime**2))
    with pytest.raises(PoleProximity):
        jacobi_sncndn(1j * Kp, k)


def test_cd_rejects_a_zero_of_dn():
    # dn vanishes at K + i K', where sn and cn stay finite
    from mpmath import ellipk
    k = 0.6
    z = complex(float(ellipk(k * k)), float(ellipk(1 - k * k)))
    with pytest.raises(PoleProximity, match="cd has a pole here"):
        jacobi_cd(z, k)


def test_cd_and_elliptic_exp():
    assert jacobi_cd(0.0, 0.77) == 1
    z = 0.6
    assert abs(jacobi_cd(z, 0.0) - cmath.cos(z)) < 1e-14
    assert abs(jacobi_cd(z, 1.0) - 1) < 1e-14
    assert abs(elliptic_exp(0.0, 0.5) - 1) < 1e-15
    assert abs(elliptic_exp(z, 0.0) - cmath.exp(1j * z)) < 1e-14
    sn, cn, _ = jacobi_sncndn(0.4, 0.3)
    assert abs(elliptic_exp(0.4, 0.3) - (cn + 1j * sn)) < 1e-15


@settings(max_examples=60, deadline=None)
@given(z=st.complex_numbers(max_magnitude=1.6, allow_nan=False,
                            allow_infinity=False),
       k=st.floats(0, 0.93))
def test_identity_property(z, k):
    sn, cn, dn = jacobi_sncndn(z, k)
    assert abs(sn * sn + cn * cn - 1) < 1e-12
    assert abs(dn * dn + k * k * sn * sn - 1) < 1e-12


def test_near_one_window():
    # inside the closed-form window the identities still hold to 1e-12
    for k in (1 - 1e-10, 1 + 4e-10, -1 + 1e-10):
        for z in (0.4, -1.1, 0.3 + 0.2j):
            sn, cn, dn = jacobi_sncndn(z, k)
            assert abs(sn * sn + cn * cn - 1) < 1e-12
            assert abs(dn * dn + k * k * sn * sn - 1) < 1e-12
            assert abs(sn - cmath.tanh(z)) < 1e-8
