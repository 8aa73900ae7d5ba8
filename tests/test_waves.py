"""Tests for the periodic traveling-wave construction.

Oracles:
  * mpmath ellipfun, which sums Jacobi theta series, for the cn
    evaluation; scipy.special.ellipj runs the same AGM descent as
    jacobi_cn, so it is a cross-check, not an independent oracle
    (note its parameter convention is m = k^2);
  * mpmath quadrature of 2 * integral dh / sqrt(F3(h)) for the wavelength
    (tanh-sinh handles the inverse-square-root endpoints);
  * conftest's Gauss-Legendre period_integral, whose nodes are checked
    against mpmath below, for the closed-form means and the wavelength;
  * finite differences of the profile for the oscillation ODE.
"""

import dataclasses
import math
import re

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import sgnwaves as sw
from conftest import _gauss_legendre, period_integral
from sgnwaves.errors import DomainError, InvalidRootsError

mpmath.mp.dps = 30

BASE = sw.RootTriple(1.0, 1.5, 2.0)
G = 10.0

# frozen from a 40-digit evaluation of the closed forms
HBAR = 1.7284732905222318
HINV = 0.5845555703078670
WAVELENGTH = 7.4162987092054877
PHASE_SPEED = 3.1688228016510461
CREST_VELOCITY = 0.4302100141252155  # D + m/h2 in the zero-mean frame


def roots_strategy():
    return st.builds(
        lambda h0, g1, g2: sw.RootTriple(h0, h0 + g1, h0 + g1 + g2),
        st.floats(min_value=0.1, max_value=5.0),
        st.floats(min_value=0.01, max_value=5.0),
        st.floats(min_value=0.01, max_value=5.0),
    )


# --- root triple and constants ---------------------------------------------

@pytest.mark.filterwarnings("error")
def test_root_triple_validation():
    with pytest.raises(InvalidRootsError):
        sw.RootTriple(1.0, 2.0, 1.5)       # unordered
    with pytest.raises(InvalidRootsError):
        sw.RootTriple(-1.0, 1.0, 2.0)      # nonpositive
    with pytest.raises(InvalidRootsError):
        sw.RootTriple(1.0, 2.0, 2.0)       # degenerate pair
    with pytest.raises(InvalidRootsError):
        sw.RootTriple(1.0, 2.0, 2.0 + 1e-12)  # inside the degeneracy band
    with pytest.raises(InvalidRootsError):
        sw.RootTriple(1.0, float("nan"), 2.0)
    with pytest.raises(InvalidRootsError):
        sw.RootTriple(np.ones(2), np.array([1.5, 2.0]), np.array([2.0, 1.5]))  # one bad element
    # h0 h1 h2 is zero, subnormal or inf, and the Vieta constants divide by it
    for roots in ((1e-200, 2e-200, 3e-200), (1e-110, 2e-110, 3e-110), (5e-324, 1.0, 2.0),
                  (1e110, 2e110, 3e110)):
        named = re.escape(f"normal float product h0*h1*h2, got {roots}")
        with pytest.raises(InvalidRootsError, match=named):
            sw.RootTriple(*roots)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("roots, g, named", [
    # the product h0 h1 h2 is normal, but epsilon, I2 or alpha^2 overflows:
    # valid_roots holds these rules, so RootTriple itself refuses the triple
    ((2e-310, 10.0, 20.0), G, "normal float product h0*h1*h2, got (2e-310, 10.0, 20.0)"),
    ((1e-300, 1e300, 1.5e300), G, "normal float product h0*h1*h2, got (1e-300, 1e+300, 1.5e+300)"),
    ((3.8e-301, 1e-8, 100.0), G, "normal float product h0*h1*h2, got (3.8e-301, 1e-08, 100.0)"),
    ((1.0, 1.5, 2.0), 1e308, "got g=1e+308 with roots (1.0, 1.5, 2.0)"),
    ((1e-10, 1.0, 2.0), 1e308, "got g=1e+308"),    # g I2 overflows, g I3 does not
], ids=["epsilon", "I2", "alpha", "g-I3", "g-I2"])
def test_a_wave_outside_the_float_range_is_invalid_roots(roots, g, named):
    with pytest.raises(InvalidRootsError, match=re.escape(named)):
        sw.build_wave(sw.RootTriple(*roots), g, -1)
    with pytest.raises(InvalidRootsError, match=re.escape(named)):
        sw.WaveTrainConfig(roots=sw.RootTriple(*roots), g=g)


def test_modulus_and_characteristic():
    assert BASE.modulus == pytest.approx(math.sqrt(0.5), rel=1e-15)
    assert BASE.characteristic == pytest.approx(0.25, rel=1e-15)


def test_constants_from_roots():
    c = sw.constants_from_roots(BASE, G, -1)
    assert c.I1 == pytest.approx(4.5, rel=1e-15)
    assert c.I2 == pytest.approx(6.5, rel=1e-15)
    assert c.I3 == pytest.approx(3.0, rel=1e-15)
    assert c.m == pytest.approx(-math.sqrt(30.0), rel=1e-15)
    assert c.i == pytest.approx(32.5, rel=1e-15)
    assert c.epsilon == pytest.approx(0.75, rel=1e-15)
    c_plus = sw.constants_from_roots(BASE, G, 1)
    assert c_plus.m == pytest.approx(math.sqrt(30.0), rel=1e-15)
    for g in (-9.81, 0.0, math.nan, math.inf):
        # NaN fails every comparison, so it must not slip past a g <= 0 test
        with pytest.raises(InvalidRootsError, match=f"got g={g}"):
            sw.constants_from_roots(BASE, g, -1)
        with pytest.raises(InvalidRootsError, match=f"got g={g}"):
            sw.build_wave(BASE, g, -1)
    with pytest.raises(InvalidRootsError):
        sw.constants_from_roots(BASE, G, 0)
    # only what the roots and g derive: g and sign_m are the state's
    assert [f.name for f in dataclasses.fields(c)] == ["m", "i", "epsilon", "I1", "I2", "I3"]


def test_oscillation_rhs_roots_and_midpoint():
    c = sw.constants_from_roots(BASE, G, -1)
    for h in (1.0, 1.5, 2.0):
        assert abs(sw.oscillation_rhs(h, c)) <= 1e-12
    # (3/I3)(I3 - I2 h + I1 h^2 - h^3) at h = 1.75:
    # (1)(3 - 11.375 + 13.78125 - 5.359375) = 0.046875 exactly in binary
    assert sw.oscillation_rhs(1.75, c) == pytest.approx(0.046875, rel=1e-13)
    assert sw.oscillation_rhs(1.25, c) < 0.0  # negative between h0 and h1


@given(
    roots=roots_strategy(),
    x=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=60)
def test_oscillation_rhs_two_forms_agree(roots, x):
    # factored Vieta form vs the (i, epsilon, g/m^2) coefficient form
    c = sw.constants_from_roots(roots, G, -1)
    h = roots.h1 + x * (roots.h2 - roots.h1)
    lhs = sw.oscillation_rhs(h, c)
    rhs = (
        3.0
        - (6.0 * c.i / c.m**2) * h
        + 6.0 * c.epsilon * h * h
        - (3.0 * G / c.m**2) * h**3
    )
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


# --- cn kernel ---------------------------------------------------------------

@pytest.mark.parametrize("k", [0.0, 0.1, 0.5, math.sqrt(0.5), 0.8, 0.95])
def test_jacobi_cn_against_scipy(k):
    u = np.linspace(-20.0, 20.0, 241)
    ours = sw.jacobi_cn(u, k)
    _, ref, _, _ = scipy.special.ellipj(u, k * k)  # scipy wants the parameter m
    assert np.max(np.abs(ours - ref)) <= 1e-13


# 1 - k^2 down to 1e-10, the modulus of the valid triple (1e-7, 1.001e-7, 1),
# where ellipj returns inf.  The descent starts from sqrt((1 - k)(1 + k)),
# which does not cancel as k -> 1.  Each ceiling is about twice the worst
# error measured over these 401 points on +-40 K: 1.1e-14 at k = sqrt(0.5),
# 2.5e-14 at 1 - k^2 = 1e-3 and 1e-6, 3.2e-14 at 1e-9 and 3.1e-14 at the
# triple.  Starting from sqrt(1 - k*k), the errors were 2.5e-13, 1.5e-10,
# 9.3e-10 and 7.5e-11.
CN_ORACLE_CASES = [
    (math.sqrt(0.5), 2.5e-14), (math.sqrt(1.0 - 1e-3), 5e-14),
    (math.sqrt(1.0 - 1e-6), 5e-14), (math.sqrt(1.0 - 1e-9), 7e-14),
    (sw.RootTriple(1e-7, 1.001e-7, 1.0).modulus, 7e-14),
]


# the ids name the modulus only, so a new ceiling does not rename a case
@pytest.mark.parametrize("k, tol", CN_ORACLE_CASES, ids=[repr(k) for k, _ in CN_ORACLE_CASES])
def test_jacobi_cn_against_mpmath(k, tol):
    u = np.linspace(-40.0, 40.0, 401) * sw.ellip_K(k)
    with mpmath.workdps(40):
        m = mpmath.mpf(k) ** 2    # exact square of the float modulus
        ref = np.array([float(mpmath.ellipfun("cn", mpmath.mpf(x), m=m)) for x in u])
    assert np.max(np.abs(sw.jacobi_cn(u, k) - ref)) <= tol


def test_jacobi_cn_special_points():
    assert sw.jacobi_cn(0.0, 0.7) == 1.0
    # cn vanishes at the quarter period K(k)
    for k in (0.3, math.sqrt(0.5), 0.9):
        assert abs(sw.jacobi_cn(sw.ellip_K(k), k)) <= 1e-13
    # k = 0 degenerates to the circular cosine
    u = np.linspace(0.0, 6.0, 61)
    assert np.max(np.abs(sw.jacobi_cn(u, 0.0) - np.cos(u))) == 0.0
    with pytest.raises(InvalidRootsError):
        sw.jacobi_cn(1.0, 1.0)


# --- wave construction -------------------------------------------------------

def test_build_wave_base_values():
    wave = sw.build_wave(BASE, G, -1)
    assert wave.alpha == pytest.approx(0.5, rel=1e-15)  # 0.75*(h2-h0)/I3 = 1/4
    assert wave.k == pytest.approx(math.sqrt(0.5), rel=1e-15)
    assert wave.L == pytest.approx(WAVELENGTH, rel=1e-14)
    assert wave.D == pytest.approx(PHASE_SPEED, rel=1e-14)
    # explicit D is passed through untouched
    assert sw.build_wave(BASE, G, -1, D=0.0).D == 0.0


@pytest.mark.parametrize("D", [np.nan, np.inf, -np.inf])
def test_build_wave_rejects_a_nonfinite_phase_speed(D):
    # the same rule as ModulationState; a wave with D = nan used to be returned
    with pytest.raises(DomainError, match=f"phase speed D must be finite, got D={D}"):
        sw.build_wave(BASE, G, -1, D=D)


def test_a_wave_needs_one_root_triple():
    # a batch used to fail inside math.sqrt with "only 0-dimensional arrays ..."
    batch = sw.RootTriple(np.ones(2), np.full(2, 1.5), np.full(2, 2.0))
    with pytest.raises(InvalidRootsError, match=re.escape("a wave needs one triple, got roots of shape (2,)")):
        sw.build_wave(batch, G, -1)
    with pytest.raises(InvalidRootsError, match=re.escape("a wave needs one triple, got roots of shape (2,)")):
        sw.WaveTrainConfig(roots=batch)


def test_root_arrays_that_do_not_broadcast_fail_at_construction():
    # a scalar serves any batch; arrays of shapes (2,) and (3,) are named as they fail
    sw.RootTriple(np.ones(2), np.full(2, 1.5), 2.0)
    with pytest.raises(ValueError, match=re.escape("shapes (2,) (3,)")):
        sw.RootTriple(np.ones(2), np.full(3, 1.5), 2.0)


def test_wavelength_matches_singular_quadrature():
    for roots in (BASE, sw.RootTriple(1.0, 1.1, 4.0), sw.RootTriple(2.0, 3.5, 3.9)):
        h0, h1, h2 = (mpmath.mpf(v) for v in (roots.h0, roots.h1, roots.h2))
        I3 = h0 * h1 * h2
        # factored form stays nonnegative under rounding at the endpoints
        F3 = lambda h: (3 / I3) * (h - h0) * (h - h1) * (h2 - h)
        Lq = 2 * mpmath.quad(lambda h: 1 / mpmath.sqrt(F3(h)), [h1, h2])
        assert sw.wavelength(roots) == pytest.approx(float(Lq), rel=1e-9)


def test_wavelength_scaling_and_small_amplitude_limit():
    assert sw.wavelength(sw.RootTriple(4.0, 6.0, 8.0)) == pytest.approx(
        4.0 * sw.wavelength(BASE), rel=1e-13
    )
    # h1 -> h2 sends k -> 0 and K -> pi/2
    r = sw.RootTriple(1.0, 2.0 - 1e-6, 2.0)
    I3 = r.h0 * r.h1 * r.h2
    L0 = 4.0 * math.sqrt(I3 / 3.0) * (math.pi / 2.0) / math.sqrt(r.h2 - r.h0)
    assert sw.wavelength(r) == pytest.approx(L0, rel=1e-6)


def test_profile_crest_trough_period():
    wave = sw.build_wave(BASE, G, -1)
    assert sw.profile(wave, 0.0) == pytest.approx(2.0, abs=1e-14)  # crest at 0
    xi_trough = sw.ellip_K(wave.k) / wave.alpha  # quarter period of cn
    assert sw.profile(wave, xi_trough) == pytest.approx(1.5, abs=1e-12)
    xi = np.linspace(-2.0, 9.0, 57)
    shifted = sw.profile(wave, xi + wave.L)
    assert np.max(np.abs(shifted - sw.profile(wave, xi))) <= 1e-10


@given(roots=roots_strategy(), t=st.floats(min_value=-3.0, max_value=3.0))
@settings(max_examples=60)
def test_profile_stays_between_trough_and_crest(roots, t):
    wave = sw.build_wave(roots, G, -1)
    h = sw.profile(wave, t * wave.L)
    assert roots.h1 - 1e-10 <= h <= roots.h2 + 1e-10


def test_profile_satisfies_oscillation_ode():
    wave = sw.build_wave(BASE, G, -1)
    c = wave.constants
    step = 1e-6
    for xi in (0.37, 1.1, 2.9, 5.3):
        dh = (sw.profile(wave, xi + step) - sw.profile(wave, xi - step)) / (2 * step)
        assert dh * dh == pytest.approx(
            sw.oscillation_rhs(sw.profile(wave, xi), c), abs=1e-8
        )


def test_velocity_from_depth():
    wave = sw.build_wave(BASE, G, -1)
    c = wave.constants
    assert sw.velocity_from_depth(2.0, c, wave.D) == pytest.approx(
        CREST_VELOCITY, rel=1e-13
    )
    # mass constraint h (u - D) = m holds identically
    h = np.linspace(1.5, 2.0, 11)
    u = sw.velocity_from_depth(h, c, wave.D)
    assert np.max(np.abs(h * (u - wave.D) - c.m)) <= 1e-12


# --- period averages ---------------------------------------------------------

def test_closed_form_averages_frozen_values():
    assert sw.averaged_h(BASE) == pytest.approx(HBAR, rel=1e-14)
    assert sw.averaged_hinv(BASE) == pytest.approx(HINV, rel=1e-14)


def test_average_matches_closed_forms():
    for roots in (BASE, sw.RootTriple(1.0, 1.1, 4.0), sw.RootTriple(2.0, 3.5, 3.9)):
        period = period_integral(np.ones_like, roots)
        assert period_integral(lambda h: h, roots) / period == pytest.approx(
            sw.averaged_h(roots), rel=1e-9
        )
        assert period_integral(lambda h: 1.0 / h, roots) / period == pytest.approx(
            sw.averaged_hinv(roots), rel=1e-9
        )
        assert 4.0 * math.sqrt(roots.h0 * roots.h1 * roots.h2 / 3.0) * period == pytest.approx(
            sw.wavelength(roots), rel=1e-9
        )


def test_mean_momentum_vanishes_in_rest_frame():
    wave = sw.build_wave(BASE, G, -1)
    c = wave.constants
    flux = period_integral(
        lambda h: h * sw.velocity_from_depth(h, c, wave.D), BASE
    ) / period_integral(np.ones_like, BASE)
    assert abs(flux) <= 1e-12


def test_averaged_oscillation_identities():
    # averaging F3/h and F3/h^2 must reproduce the combinations implied
    # by expanding F3 into its coefficient form
    for roots in (BASE, sw.RootTriple(1.0, 1.1, 4.0)):
        c = sw.constants_from_roots(roots, G, -1)
        F3 = lambda h: sw.oscillation_rhs(h, c)
        period = period_integral(np.ones_like, roots)
        mean = lambda f: period_integral(f, roots) / period
        lhs1 = mean(lambda h: F3(h) / h)
        rhs1 = (
            -6.0 * c.i / c.m**2
            + 3.0 * mean(lambda h: 1.0 / h)
            + 6.0 * c.epsilon * mean(lambda h: h)
            - (3.0 * G / c.m**2) * mean(lambda h: h * h)
        )
        assert lhs1 == pytest.approx(rhs1, abs=1e-8)
        lhs2 = mean(lambda h: F3(h) / h**2)
        rhs2 = (
            6.0 * c.epsilon
            + 3.0 * mean(lambda h: 1.0 / h**2)
            - (6.0 * c.i / c.m**2) * mean(lambda h: 1.0 / h)
            - (3.0 * G / c.m**2) * mean(lambda h: h)
        )
        assert lhs2 == pytest.approx(rhs2, abs=1e-8)


@given(roots=roots_strategy())
@settings(max_examples=40, deadline=None)
def test_average_bounds_property(roots):
    hb = sw.averaged_h(roots)
    hi = sw.averaged_hinv(roots)
    assert roots.h1 < hb < roots.h2
    assert 1.0 / roots.h2 < hi < 1.0 / roots.h1
    # Cauchy-Schwarz: mean(h) * mean(1/h) >= 1, strictly for varying h
    assert hb * hi > 1.0


# Worst relative weight error of numpy's leggauss, which conftest's _gauss_legendre
# replaced, on the nodes and against the oracle of the test below
# (numpy 2.4; leggauss takes about 5 s at n = 4096, so it is not rerun).
LEGGAUSS_WEIGHT_ERROR = {
    64: 1.3e-12, 128: 1.4e-11, 256: 2.1e-11, 512: 1.1e-10,
    1024: 1.2e-9, 2048: 6.3e-8, 4096: 4.6e-7,
}


@pytest.mark.parametrize("n", sorted(LEGGAUSS_WEIGHT_ERROR))
def test_gauss_legendre_matches_mpmath(n):
    # oracle: one 30-digit Newton step on mpmath's P_n from each float node,
    # then w = 2 (1 - x^2) / (n P_{n-1}(x))^2; sampled at both ends and the middle
    x, w = _gauss_legendre(n)
    assert x.shape == w.shape == (n,)
    assert np.all(np.diff(x) > 0.0) and x[0] > -1.0 and x[-1] < 1.0
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert float(np.sum(w)) == pytest.approx(2.0, abs=1e-14)
    node_err = weight_err = 0.0
    with mpmath.workdps(30):
        for i in (0, 1, n // 2 - 1, n // 2, n - 2, n - 1):
            xm = mpmath.mpf(float(x[i]))
            pn, pm = mpmath.legendre(n, xm), mpmath.legendre(n - 1, xm)
            xm -= pn * (1 - xm * xm) / (n * (pm - xm * pn))
            pm = mpmath.legendre(n - 1, xm)
            wm = 2 * (1 - xm * xm) / (n * n * pm * pm)
            node_err = max(node_err, abs(float(x[i] - xm)))
            weight_err = max(weight_err, abs(float((w[i] - wm) / wm)))
    assert node_err <= 2.0 ** -53    # rounding: leggauss's nodes are off by as much
    assert weight_err < LEGGAUSS_WEIGHT_ERROR[n]
