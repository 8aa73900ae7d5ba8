"""Tests for the complete elliptic integral kernel.

Oracle strategy: spot values are checked against mpmath's adaptive
quadrature of the defining theta-integrals at 30 significant digits,
which shares nothing with the Carlson-form evaluation under test.
The derivative identities of Byrd & Friedman, evaluated on the same
kernels (conftest.kernel_derivatives), are checked against central
finite differences of those kernels.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import kernel_derivatives
from sgnwaves import ellip_E, ellip_K, ellip_Pi
from sgnwaves.errors import DomainError

mpmath.mp.dps = 30

HALF_PI = math.pi / 2.0

# spot values frozen from the quadrature oracle (40-digit run)
K_HALF = 1.8540746773013719       # K(sqrt(1/2))
E_HALF = 1.3506438810476755       # E(sqrt(1/2))
PI_QUARTER_HALF = 2.167619360766556  # Pi(1/4, sqrt(1/2))


def quad_K(k: float) -> float:
    ksq = mpmath.mpf(k) ** 2
    f = lambda t: 1 / mpmath.sqrt(1 - ksq * mpmath.sin(t) ** 2)
    return float(mpmath.quad(f, [0, mpmath.pi / 2]))


def quad_E(k: float) -> float:
    ksq = mpmath.mpf(k) ** 2
    f = lambda t: mpmath.sqrt(1 - ksq * mpmath.sin(t) ** 2)
    return float(mpmath.quad(f, [0, mpmath.pi / 2]))


def quad_Pi(n: float, k: float) -> float:
    nn = mpmath.mpf(n)
    ksq = mpmath.mpf(k) ** 2
    f = lambda t: 1 / ((1 - nn * mpmath.sin(t) ** 2) * mpmath.sqrt(1 - ksq * mpmath.sin(t) ** 2))
    return float(mpmath.quad(f, [0, mpmath.pi / 2]))


@pytest.mark.parametrize("k", [0.05, 0.3, math.sqrt(0.5), 0.9, 0.99, 0.999])
def test_first_kind_matches_defining_integral(k):
    assert ellip_K(k) == pytest.approx(quad_K(k), rel=1e-13)


@pytest.mark.parametrize("k", [0.05, 0.3, math.sqrt(0.5), 0.9, 0.99, 0.999])
def test_second_kind_matches_defining_integral(k):
    assert ellip_E(k) == pytest.approx(quad_E(k), rel=1e-13)


@pytest.mark.parametrize(
    "n,k",
    [(0.1, 0.3), (0.25, math.sqrt(0.5)), (0.5, 0.9), (0.9, 0.2), (0.97, 0.95)],
)
def test_third_kind_matches_defining_integral(n, k):
    assert ellip_Pi(n, k) == pytest.approx(quad_Pi(n, k), rel=1e-13)


def test_frozen_reference_values():
    assert ellip_K(math.sqrt(0.5)) == pytest.approx(K_HALF, rel=1e-15)
    assert ellip_E(math.sqrt(0.5)) == pytest.approx(E_HALF, rel=1e-15)
    assert ellip_Pi(0.25, math.sqrt(0.5)) == pytest.approx(PI_QUARTER_HALF, rel=1e-15)


def test_limits_and_special_cases():
    assert ellip_K(0.0) == pytest.approx(HALF_PI, rel=1e-15)
    assert ellip_E(0.0) == pytest.approx(HALF_PI, rel=1e-15)
    assert ellip_E(1.0) == 1.0  # exact by definition, not by quadrature
    for k in (0.2, 0.7, 0.95):
        assert ellip_Pi(0.0, k) == ellip_K(k)
    # k = 0 reduces Pi to an elementary integral
    for n in (0.1, 0.5, 0.9):
        assert ellip_Pi(n, 0.0) == pytest.approx(HALF_PI / math.sqrt(1.0 - n), rel=1e-14)


@pytest.mark.parametrize("k", [i / 100.0 for i in range(1, 100)])
def test_legendre_relation(k):
    # E K' + E' K - K K' = pi/2, the standard cross-check coupling all
    # three of K, E at complementary moduli
    kp = math.sqrt(1.0 - k * k)
    lhs = (
        ellip_E(k) * ellip_K(kp)
        + ellip_E(kp) * ellip_K(k)
        - ellip_K(k) * ellip_K(kp)
    )
    assert abs(lhs - HALF_PI) <= 1e-12


def test_monotonicity_in_modulus():
    ks = [i / 50.0 for i in range(1, 50)]
    Ks = [ellip_K(k) for k in ks]
    Es = [ellip_E(k) for k in ks]
    assert all(b > a for a, b in zip(Ks, Ks[1:]))   # K strictly increasing
    assert all(b < a for a, b in zip(Es, Es[1:]))   # E strictly decreasing
    assert all(E < K for E, K in zip(Es, Ks))


@pytest.mark.parametrize(
    "n,k",
    [(0.1, 0.6), (0.25, math.sqrt(0.5)), (0.6, 0.3), (0.85, 0.55), (0.4, 0.9)],
)
def test_derivatives_match_finite_differences(n, k):
    dK, dE, dPi_dn, dPi_dk = kernel_derivatives(n, k)
    step = 1e-6
    fd_K = (ellip_K(k + step) - ellip_K(k - step)) / (2 * step)
    fd_E = (ellip_E(k + step) - ellip_E(k - step)) / (2 * step)
    fd_Pn = (ellip_Pi(n + step, k) - ellip_Pi(n - step, k)) / (2 * step)
    fd_Pk = (ellip_Pi(n, k + step) - ellip_Pi(n, k - step)) / (2 * step)
    assert dK == pytest.approx(fd_K, rel=1e-7, abs=1e-7)
    assert dE == pytest.approx(fd_E, rel=1e-7, abs=1e-7)
    assert dPi_dn == pytest.approx(fd_Pn, rel=1e-7, abs=1e-7)
    assert dPi_dk == pytest.approx(fd_Pk, rel=1e-7, abs=1e-7)


@pytest.mark.parametrize(
    "func,args",
    [
        (ellip_K, (1.0,)),
        (ellip_K, (1.5,)),
        (ellip_K, (-0.1,)),
        (ellip_E, (-0.1,)),
        (ellip_E, (1.0000001,)),
        (ellip_Pi, (1.0, 0.5)),
        (ellip_Pi, (-0.1, 0.5)),
        (ellip_Pi, (0.5, 1.0)),
        (ellip_K, (math.nan,)),
        (ellip_E, (math.inf,)),
        (ellip_Pi, (math.nan, 0.5)),
        (ellip_Pi, (0.5, math.nan)),
        (ellip_K, (np.array([0.5, 1.0]),)),
        (ellip_E, (np.array([0.5, np.nan]),)),
        (ellip_Pi, (np.array([0.2, 0.5]), np.array([0.5, -0.1]))),
    ],
)
def test_domain_errors(func, args):
    with pytest.raises(DomainError):
        func(*args)


def test_array_calls_match_scalar_calls():
    # elementwise evaluation must be bit for bit the scalar one, so that a
    # batched modulation scan reproduces single-state results exactly
    k = np.linspace(0.0, 0.999, 37)
    n = np.linspace(0.0, 0.99, 37)[::-1]
    for func, args in ((ellip_K, (k,)), (ellip_E, (np.append(k, 1.0),)), (ellip_Pi, (n, k))):
        batch = func(*args)
        singles = [func(*(float(a[i]) for a in args)) for i in range(args[0].size)]
        assert isinstance(batch, np.ndarray) and batch.shape == args[0].shape
        assert all(type(v) is float for v in singles)
        assert np.array_equal(batch, singles)


@given(k=st.floats(min_value=0.001, max_value=0.999))
def test_bounds_property(k):
    K = ellip_K(k)
    E = ellip_E(k)
    assert K >= HALF_PI
    assert E <= HALF_PI
    assert E < K
    assert math.isfinite(K) and math.isfinite(E)


@given(
    n=st.floats(min_value=0.001, max_value=0.999),
    k=st.floats(min_value=0.001, max_value=0.999),
)
def test_third_kind_dominates_first_property(n, k):
    # the extra positive factor 1/(1 - n sin^2) only increases the integrand
    assert ellip_Pi(n, k) >= ellip_K(k) - 1e-14


@given(k=st.floats(min_value=0.005, max_value=0.995))
@settings(max_examples=40)
def test_legendre_relation_property(k):
    kp = math.sqrt(1.0 - k * k)
    lhs = (
        ellip_E(k) * ellip_K(kp)
        + ellip_E(kp) * ellip_K(k)
        - ellip_K(k) * ellip_K(kp)
    )
    assert abs(lhs - HALF_PI) <= 1e-12
