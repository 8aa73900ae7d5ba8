"""Tests for the averaged (modulation) system and its characteristics.

Oracles:
  * central finite differences of the closed-form averages for every
    gradient entry (the quasilinear matrices are Jacobians, so FD of the
    conservative densities/fluxes pins each coefficient independently);
  * direct determinant evaluation det(B - lam A) at spot values of lam
    for the pencil polynomial;
  * the 60-digit mpmath discriminant of the same float64 charpoly, by
    the closed-form quartic formula, for the resultant taken from the
    roots, its value and its sign;
  * 60-digit mpmath eigenvalues of A^-1 B, from the same float64 A and B,
    for the charpoly and root layer at points of the 50x50 scan grid;
  * exact symmetries (Galilean shift, depth scaling, sign flip) that the
    eigenvalues must inherit from the underlying equations.
"""

import dataclasses
import itertools
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgnwaves as sw
from conftest import reemit_csv
from sgnwaves.errors import DegeneratePencilError, DomainError, InvalidRootsError, SgnError
from sgnwaves.modulation import SCAN_MARGIN

BASE = sw.RootTriple(1.0, 1.5, 2.0)
G = 10.0

HBAR = 1.7284732905222318
MOMENTUM_FLUX_REST = 15.143642707990033  # i - m^2/hbar at the base state

# eigenvalues of the base state (g=10, zero-mean frame, sign_m = -1),
# frozen from the companion-matrix solve and verified real and distinct
EIGS_BASE = np.array([
    -4.146905508565024,
    1.6115979306128627,
    2.0831871789583656,
    4.104425314178053,
])
RESULTANT_BASE = 494770.1009671891


def rest_state(roots=BASE, g=G, sign_m=-1):
    return sw.state_at_rest(roots, g, sign_m)


def fd_gradient(f, values, step):
    grad = []
    for j, v in enumerate(values):
        up = list(values)
        dn = list(values)
        up[j] = v + step
        dn[j] = v - step
        grad.append((f(up) - f(dn)) / (2.0 * step))
    return np.array(grad)


# --- conserved densities and fluxes -----------------------------------------

def test_conserved_vector_rest_frame():
    dens, flux = sw.conserved_vector(rest_state())
    assert dens[1] == pytest.approx(HBAR, rel=1e-14)        # mean depth
    assert abs(dens[2]) <= 1e-12                            # mean momentum
    assert abs(flux[1]) <= 1e-9                             # mass flux = hbar U = 0
    assert flux[2] == pytest.approx(MOMENTUM_FLUX_REST, rel=1e-12)
    assert flux[2] > 0.0
    assert dens[0] == pytest.approx(1.0 / sw.wavelength(BASE), rel=1e-14)


def test_mass_flux_equals_mean_depth_times_mean_velocity():
    for D in (-1.0, 0.7, 2.5):
        state = sw.ModulationState(D=D, h0=1.0, h1=1.4, h2=3.0, g=G, sign_m=-1)
        _, flux = sw.conserved_vector(state)
        hb = sw.averaged_h(state.roots)
        assert flux[1] == pytest.approx(hb * state.U, rel=1e-12)


def test_state_validation_and_mean_velocity():
    with pytest.raises(InvalidRootsError):
        sw.ModulationState(D=0.0, h0=1.0, h1=2.0, h2=1.5, g=G)
    state = rest_state()
    assert abs(state.U) <= 1e-14
    shifted = sw.ModulationState(
        D=state.D + 2.0, h0=1.0, h1=1.5, h2=2.0, g=G, sign_m=-1
    )
    assert shifted.U == pytest.approx(2.0, abs=1e-13)


def test_state_rejects_nonfinite_phase_speed():
    for D in (math.nan, -math.inf):
        with pytest.raises(DomainError, match=f"D must be finite, got D={D}"):
            sw.ModulationState(D=D, h0=1.0, h1=1.5, h2=2.0, g=G)
    h = np.ones(3)
    with pytest.raises(DomainError, match="got D=inf"):
        sw.ModulationState(D=np.array([0.5, math.inf, 1.0]), h0=h, h1=1.5 * h, h2=2.0 * h, g=G)


def test_state_phase_speed_has_the_roots_shape():
    # such a state used to be built and to fail inside assemble_AB or conserved_vector
    h = np.ones(3)
    for D, roots, shape in ((np.array([1.0, 2.0]), (1.0, 1.5, 2.0), "()"),
                            (np.ones(2), (h, 1.5 * h, 2.0 * h), "(3,)")):
        with pytest.raises(ValueError, match=re.escape(f"D has shape (2,), but the roots have shape {shape}")):
            sw.ModulationState(D, *roots, g=G)
    # build_wave's D is the state's: its shape used to fail inside math.isfinite
    with pytest.raises(ValueError, match=re.escape("D has shape (1,), but the roots have shape ()")):
        sw.build_wave(BASE, G, -1, D=np.array([1.0]))
    # a float D serves a whole batch
    batch = sw.ModulationState(0.5, h, 1.5 * h, 2.0 * h, g=G)
    assert sw.assemble_AB(batch).A.shape == (3, 4, 4)


@pytest.mark.parametrize("sign_m", [-1, 1])
def test_a_built_wave_is_its_state_at_rest(sign_m):
    wave = sw.build_wave(BASE, G, sign_m)
    rest = sw.state_at_rest(BASE, G, sign_m)
    assert type(wave) is sw.ModulationState
    assert wave == rest
    assert repr(wave.D) == repr(rest.D)
    assert wave.constants == rest.constants


def test_a_state_derives_its_constants_once(monkeypatch):
    state = sw.build_wave(BASE, G, -1)
    expected = (sw.assemble_AB(state).A, sw.conserved_vector(state), state.U)

    def refuse(*args):
        raise AssertionError("constants_from_roots called after construction")

    for module in (sw.waves, sw.modulation):    # also a name imported into modulation
        monkeypatch.setattr(module, "constants_from_roots", refuse, raising=False)
    assert np.array_equal(sw.assemble_AB(state).A, expected[0])
    assert np.array_equal(sw.conserved_vector(state), expected[1])
    assert state.U == expected[2]
    assert (state.alpha, state.k, state.L) == (0.5, BASE.modulus, sw.wavelength(BASE))


def _counting(monkeypatch, module, names):
    """Wrap each named function of `module`; return the dict of call counts."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(module, name)):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(module, name, counted)
    return counts


def test_a_state_at_rest_derives_its_constants_once(monkeypatch):
    counts = _counting(monkeypatch, sw.waves, ("constants_from_roots",))
    state = sw.state_at_rest(BASE, G, -1)
    assert counts == {"constants_from_roots": 1}
    assert state.D == -state.constants.m / sw.averaged_h(BASE)
    h1 = np.linspace(1.01, 1.99, 1024)
    batch = sw.state_at_rest(sw.RootTriple(np.ones_like(h1), h1, np.full_like(h1, 2.0)), G, -1)
    assert counts == {"constants_from_roots": 2}
    assert batch.D.shape == (1024,)
    sw.scan_region(1.0, 100.0, 0.0, 100.0, 50, G)
    assert counts == {"constants_from_roots": 5}    # one per chunk of 1024 points


def test_a_state_given_no_D_is_at_rest(monkeypatch):
    # D = None is the rest frame: the state reads D = -m/h_bar from its own
    # constants, of one triple or a batch, and replace(state, D=None)
    # returns a state to it
    h1 = np.linspace(1.01, 1.99, 1024)
    counts = _counting(monkeypatch, sw.waves, ("constants_from_roots",))
    for roots in (BASE, sw.RootTriple(np.ones_like(h1), h1, np.full_like(h1, 2.0))):
        D = -sw.constants_from_roots(roots, G, -1).m / sw.averaged_h(roots)
        counts["constants_from_roots"] = 0
        state = sw.ModulationState(None, roots.h0, roots.h1, roots.h2, G, -1, roots)
        assert counts == {"constants_from_roots": 1}
        assert np.array_equal(_bits(state.D), _bits(D))
        moved = dataclasses.replace(state, D=state.D + 0.5)
        assert np.array_equal(_bits(dataclasses.replace(moved, D=None).D), _bits(D))


def test_state_validates_and_integrates_its_root_triple_once(monkeypatch):
    counts = _counting(monkeypatch, sw.waves, ("valid_roots", "ellip_K"))
    roots = sw.RootTriple(1.0, 1.5, 2.0)
    state = sw.state_at_rest(roots, G, -1)    # K for h_bar, no second validation
    assert state.roots is roots
    assert counts == {"valid_roots": 1, "ellip_K": 1}
    for change in ({"D": state.D + 0.5}, {"g": 9.81}, {"sign_m": 1}):
        moved = dataclasses.replace(state, **change)
        assert moved.roots is roots
        sw.assemble_AB(moved)
    assert counts == {"valid_roots": 1, "ellip_K": 1}
    # new depths get a triple of their own, validated at construction
    fresh = dataclasses.replace(state, h1=1.6)
    assert counts["valid_roots"] == 2
    assert (fresh.roots.h0, fresh.roots.h1, fresh.roots.h2) == (1.0, 1.6, 2.0)
    with pytest.raises(InvalidRootsError):
        dataclasses.replace(state, h1=2.5)
    # a triple that does not hold the state's own depths is not trusted
    other = sw.ModulationState(D=0.0, h0=1.0, h1=1.5, h2=2.0, g=G, roots=sw.RootTriple(1.0, 1.4, 2.0))
    assert other.roots.h1 == 1.5
    counts["valid_roots"] = 0
    sw.scan_region(1.0, 100.0, 0.0, 100.0, 50, G)
    assert counts["valid_roots"] == 3    # one RootTriple per chunk of 1024 points


def test_state_holds_one_root_triple():
    state = sw.ModulationState(D=0.5, h0=1.0, h1=1.5, h2=2.0, g=G, sign_m=-1)
    assert state.roots is state.roots
    assert state.roots == BASE


def test_repeated_calls_on_a_state_evaluate_K_once(monkeypatch):
    calls = []

    def counted(k, _fn=sw.waves.ellip_K):
        calls.append(k)
        return _fn(k)

    monkeypatch.setattr(sw.waves, "ellip_K", counted)
    state = sw.ModulationState(D=0.5, h0=1.0, h1=1.5, h2=2.0, g=G, sign_m=-1)
    first = sw.assemble_AB(state)
    assert len(calls) == 1
    second = sw.assemble_AB(state)
    sw.conserved_vector(state)
    state.U
    assert len(calls) == 1
    assert np.array_equal(first.A, second.A) and np.array_equal(first.B, second.B)


def test_scan_evaluates_K_once_per_chunk(monkeypatch):
    # state_at_rest hands the triple it found D with to the state, so
    # assemble_AB reuses its K, E, Pi: one ellip_K call per chunk
    calls = []

    def counted(k, _fn=sw.waves.ellip_K):
        calls.append(k)
        return _fn(k)

    monkeypatch.setattr(sw.waves, "ellip_K", counted)
    roots = sw.RootTriple(1.0, 1.5, 2.0)    # a fresh triple: no K cached yet
    state = sw.state_at_rest(roots, G, -1)
    assert state.roots is roots
    sw.assemble_AB(state)
    assert len(calls) == 1
    calls.clear()
    sw.scan_region(1.0, 100.0, 0.0, 100.0, 50, G)
    assert len(calls) == 3    # 2500 points in chunks of 1024


# --- gradients of the averages ----------------------------------------------

TRIPLES = [
    (1.0, 1.5, 2.0),
    (1.0, 1.2, 3.5),
    (1.0, 4.0, 4.5),
    (2.0, 2.5, 6.0),
]


@pytest.mark.parametrize("triple", TRIPLES)
def test_differential_coefficients_match_finite_differences(triple):
    roots = sw.RootTriple(*triple)
    step = 1e-7 * roots.h2
    dc = sw.differential_coefficients(roots)
    for closed, f in (
        (dc.Phi, lambda v: sw.averaged_h(sw.RootTriple(*v))),
        (dc.Psi, lambda v: sw.averaged_hinv(sw.RootTriple(*v))),
        (dc.Lambda, lambda v: sw.wavelength(sw.RootTriple(*v))),
    ):
        fd = fd_gradient(f, triple, step)
        for a, b in zip(closed, fd):
            assert a == pytest.approx(b, rel=1e-6, abs=1e-6)


@pytest.mark.parametrize("triple", TRIPLES)
def test_gradients_satisfy_scaling_homogeneity(triple):
    # h_bar and L are homogeneous of degree 1 in the roots, 1/h_bar of
    # degree -1, so the root-weighted gradient sums collapse to the
    # functions themselves; the derivative along the ray alpha * roots
    # gives the same number by an independent finite difference
    roots = sw.RootTriple(*triple)
    dc = sw.differential_coefficients(roots)
    hs = np.array(triple)
    assert float(hs @ np.array(dc.Phi)) == pytest.approx(
        sw.averaged_h(roots), rel=1e-8
    )
    assert float(hs @ np.array(dc.Psi)) == pytest.approx(
        -sw.averaged_hinv(roots), rel=1e-8
    )
    assert float(hs @ np.array(dc.Lambda)) == pytest.approx(
        sw.wavelength(roots), rel=1e-8
    )
    eps = 1e-7
    ray = lambda f, a: f(sw.RootTriple(a * hs[0], a * hs[1], a * hs[2]))
    fd_L = (ray(sw.wavelength, 1 + eps) - ray(sw.wavelength, 1 - eps)) / (2 * eps)
    assert fd_L == pytest.approx(sw.wavelength(roots), rel=1e-6)
    fd_hi = (ray(sw.averaged_hinv, 1 + eps) - ray(sw.averaged_hinv, 1 - eps)) / (2 * eps)
    assert fd_hi == pytest.approx(-sw.averaged_hinv(roots), rel=1e-6)


# --- quasilinear assembly -----------------------------------------------------

STATES = [
    ("rest", None),
    ("moving", sw.ModulationState(D=1.3, h0=1.0, h1=1.2, h2=3.5, g=9.81, sign_m=1)),
]


def _resolve(state):
    return rest_state() if state is None else state


@pytest.mark.parametrize("label,state", STATES)
def test_matrices_are_jacobians_of_conservation_laws(label, state):
    state = _resolve(state)
    sys = sw.assemble_AB(state)
    L = sw.wavelength(state.roots)
    step = 1e-7 * state.h2

    def dens(v):
        return sw.conserved_vector(
            sw.ModulationState(D=v[0], h0=v[1], h1=v[2], h2=v[3],
                               g=state.g, sign_m=state.sign_m)
        )[0]

    def flux(v):
        return sw.conserved_vector(
            sw.ModulationState(D=v[0], h0=v[1], h1=v[2], h2=v[3],
                               g=state.g, sign_m=state.sign_m)
        )[1]

    v0 = [state.D, state.h0, state.h1, state.h2]
    # fd_gradient stacks d(vector)/d(v_j) as rows, so transposing gives
    # the Jacobian with J[i, j] = d component_i / d variable_j
    A_fd = fd_gradient(dens, v0, step).T
    B_fd = fd_gradient(flux, v0, step).T
    # rows mass/momentum/energy are the plain Jacobians; the wave-phase
    # row was multiplied through by -L^2 to clear 1/L from the densities
    A_fd[0] *= -(L * L)
    B_fd[0] *= -(L * L)
    scale_A = max(1.0, np.max(np.abs(sys.A)))
    scale_B = max(1.0, np.max(np.abs(sys.B)))
    assert np.max(np.abs(sys.A - A_fd)) <= 1e-6 * scale_A
    assert np.max(np.abs(sys.B - B_fd)) <= 1e-6 * scale_B


def test_matrix_structure():
    state = rest_state()
    sys = sw.assemble_AB(state)
    hb = sw.averaged_h(BASE)
    m = sw.constants_from_roots(BASE, G, -1).m
    assert sys.A[0, 0] == 0.0
    assert sys.A[1, 0] == 0.0
    assert sys.A[2, 0] == pytest.approx(hb, rel=1e-14)
    assert sys.A[3, 0] == pytest.approx(hb * state.D + m, abs=1e-12)
    assert sys.B[0, 0] == pytest.approx(-sw.wavelength(BASE), rel=1e-14)
    # flux of mass is the density of momentum: the rows must be identical
    assert np.array_equal(sys.B[1], sys.A[2])


@pytest.mark.parametrize("label,state", STATES)
def test_charpoly_matches_direct_determinant(label, state):
    state = _resolve(state)
    sys = sw.assemble_AB(state)
    scale = np.max(np.abs(sys.charpoly))
    for lam in (-2.3, -0.4, 0.7, 1.9, 4.2):
        direct = np.linalg.det(sys.B - lam * sys.A)
        poly = float(np.polyval(sys.charpoly[::-1], lam))
        assert poly == pytest.approx(direct, rel=1e-10, abs=1e-10 * scale)
    assert sys.charpoly[4] == pytest.approx(np.linalg.det(sys.A), rel=1e-12)


def _ref_pencil_charpoly(A, B):
    """The 16 subset determinants added to +0.0 one at a time, in itertools.product order."""
    subsets = list(itertools.product((False, True), repeat=4))
    pick = np.array(subsets)[:, None, :]
    dets = np.linalg.det(np.where(pick, -A[..., None, :, :], B[..., None, :, :]))
    c = np.zeros(dets.shape[:-1] + (5,))
    for idx, subset in enumerate(subsets):
        c[..., sum(subset)] += dets[..., idx]
    return c


def _bits(x):
    # array_equal counts -0.0 equal to 0.0; the bit patterns do not
    return np.ascontiguousarray(x, dtype=float).view(np.uint64)


def test_pencil_charpoly_sums_like_the_loop_bitwise():
    # the first scan chunk of the 50x50 window, (1.001, 0.001) corner included
    s_values = np.linspace(1.0 + sw.modulation.SCAN_MARGIN, 100.0, 50)
    tau_values = np.linspace(sw.modulation.SCAN_MARGIN, 100.0, 50)
    s, tau = (a[:sw.modulation.SCAN_CHUNK] for a in sw.modulation._grid_points(s_values, tau_values))
    assert (s[0], tau[0]) == (1.001, 0.001)
    chunk = sw.assemble_AB(sw.state_at_rest(sw.RootTriple(np.ones_like(s), s, s + tau), G, -1))
    assert np.array_equal(_bits(chunk.charpoly), _bits(_ref_pencil_charpoly(chunk.A, chunk.B)))
    # single states in Galilean-shifted frames
    rng = np.random.default_rng(8)
    for _ in range(200):
        si, ti = 1.01 + 98.99 * rng.random(), 0.01 + 99.99 * rng.random()
        sign_m = int(rng.choice((-1, 1)))
        rest = sw.state_at_rest(sw.RootTriple(1.0, si, si + ti), G, sign_m)
        state = dataclasses.replace(rest, D=rest.D + rng.uniform(-5.0, 5.0))
        one = sw.assemble_AB(state)
        assert np.array_equal(_bits(one.charpoly), _bits(_ref_pencil_charpoly(one.A, one.B)))
    # every subset determinant exactly zero: a singular pencil gives +0.0, and
    # 1e-90 diagonals underflow to signed zeros, which the +0.0 start absorbs
    zero_row = np.array([[1.0, 2.0, 3.0, 4.0], [0.0] * 4, [5.0, 6.0, 7.0, 8.0], [1.0, -1.0, 2.0, -2.0]])
    tiny = 1e-90 * np.eye(4)
    assert np.signbit(np.linalg.det(np.diag([-1e-90, 1e-90, 1e-90, 1e-90])))
    for A, B in ((zero_row, -zero_row[:, ::-1]), (tiny, tiny)):
        got, ref = sw.modulation._pencil_charpoly(A, B), _ref_pencil_charpoly(A, B)
        assert not ref.any() and not np.signbit(ref).any()
        assert np.array_equal(_bits(got), _bits(ref))


@pytest.mark.parametrize("sign_m", [-1, 1])
def test_pencil_kernel_keeps_its_bits_for_any_leading_shape(sign_m):
    # a (3, 4) batch of states in Galilean-shifted frames: the subset-matrix
    # gather and the root solve must give each state what it gives alone
    rng = np.random.default_rng(13)
    s = 1.01 + 98.99 * rng.random((3, 4))
    tau = 0.01 + 99.99 * rng.random((3, 4))
    rest = sw.state_at_rest(sw.RootTriple(np.ones_like(s), s, s + tau), G, sign_m)
    batch = dataclasses.replace(rest, D=rest.D + rng.uniform(-5.0, 5.0, (3, 4)))
    system = sw.assemble_AB(batch)
    roots = sw.characteristic_eigenvalues(system).roots
    assert system.charpoly.shape == (3, 4, 5) and roots.shape == (3, 4, 4)
    assert np.array_equal(_bits(system.charpoly), _bits(_ref_pencil_charpoly(system.A, system.B)))
    for i, j in itertools.product(range(3), range(4)):
        one_rest = sw.state_at_rest(sw.RootTriple(1.0, float(s[i, j]), float(s[i, j] + tau[i, j])), G, sign_m)
        one = sw.assemble_AB(dataclasses.replace(one_rest, D=float(batch.D[i, j])))
        assert np.array_equal(_bits(system.charpoly[i, j]), _bits(one.charpoly))
        one_roots = sw.characteristic_eigenvalues(one).roots
        assert np.array_equal(roots[i, j].view(np.uint64), one_roots.view(np.uint64))


# --- eigenvalues ---------------------------------------------------------------

def test_base_state_eigenvalues_frozen():
    cls = sw.characteristic_eigenvalues(sw.assemble_AB(rest_state()))
    assert cls.all_real
    assert cls.distinct
    assert cls.n_positive == 3
    assert cls.n_negative == 1
    assert np.allclose(cls.roots.real, EIGS_BASE, rtol=1e-9, atol=0.0)
    assert np.max(np.abs(cls.roots.imag)) <= 1e-12
    assert cls.resultant == pytest.approx(RESULTANT_BASE, rel=1e-9)


@pytest.mark.parametrize("c", [-2.0, 0.5, 3.0])
def test_galilean_shift_translates_eigenvalues(c):
    state = rest_state()
    base = sw.characteristic_eigenvalues(sw.assemble_AB(state)).roots.real
    shifted_state = sw.ModulationState(
        D=state.D + c, h0=1.0, h1=1.5, h2=2.0, g=G, sign_m=-1
    )
    shifted = sw.characteristic_eigenvalues(sw.assemble_AB(shifted_state)).roots.real
    assert np.max(np.abs(shifted - (base + c))) <= 1e-9


@pytest.mark.parametrize("alpha", [0.25, 4.0])
def test_depth_scaling_stretches_eigenvalues(alpha):
    base = sw.characteristic_eigenvalues(sw.assemble_AB(rest_state())).roots.real
    scaled_roots = sw.RootTriple(alpha * 1.0, alpha * 1.5, alpha * 2.0)
    scaled = sw.characteristic_eigenvalues(
        sw.assemble_AB(rest_state(scaled_roots))
    ).roots.real
    assert np.max(np.abs(scaled - math.sqrt(alpha) * base)) <= 1e-8 * math.sqrt(alpha)


def test_sign_flip_negates_eigenvalues():
    minus = sw.characteristic_eigenvalues(sw.assemble_AB(rest_state(sign_m=-1)))
    plus = sw.characteristic_eigenvalues(sw.assemble_AB(rest_state(sign_m=1)))
    assert np.max(np.abs(np.sort(plus.roots.real) + np.sort(minus.roots.real)[::-1])) <= 1e-10
    assert plus.n_positive == minus.n_negative


def test_degenerate_pencil_is_reported():
    # A = 0 leaves det(B - lam A) = det(B) = 1 for every lam: c4 = 0
    sys = sw.QuasilinearSystem(A=np.zeros((4, 4)), B=np.eye(4))
    assert sys.charpoly.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]
    with pytest.raises(DegeneratePencilError):
        sw.characteristic_eigenvalues(sys)


def test_the_pencil_polynomial_is_derived_from_A_and_B_on_first_read(monkeypatch):
    rng = np.random.default_rng(21)
    A, B = rng.standard_normal((2, 3, 4, 4))
    sys = sw.QuasilinearSystem(A, B)
    first = sys.charpoly
    assert np.array_equal(_bits(first), _bits(_ref_pencil_charpoly(A, B)))
    assert sys.charpoly is first

    def no_charpoly(A, B):
        raise AssertionError("the pencil polynomial was computed")

    # assemble_AB builds the matrices only: the polynomial waits for a reader
    monkeypatch.setattr(sw.modulation, "_pencil_charpoly", no_charpoly)
    assembled = sw.assemble_AB(rest_state())
    assert assembled.A.shape == assembled.B.shape == (4, 4)
    with pytest.raises(AssertionError, match="was computed"):
        assembled.charpoly


# --- resultant -----------------------------------------------------------------

def test_resultant_from_roots_has_the_sign_of_the_60_digit_discriminant():
    # characteristic_eigenvalues takes the resultant from its roots; the
    # 60-digit discriminant of the same charpoly must agree in sign at every
    # point, the corner (1.001, 0.001) included, and in value off the
    # tau = SCAN_MARGIN row, where the roots stay far from a double root
    res = sw.scan_region(1.0, 20.0, 0.0, 20.0, 12, g=G)
    assert res.s_values[0] == pytest.approx(1.001) and res.tau_values[0] == pytest.approx(0.001)
    s, tau = (a.ravel() for a in np.meshgrid(res.s_values, res.tau_values, indexing="ij"))
    system = sw.assemble_AB(sw.state_at_rest(sw.RootTriple(np.ones_like(s), s, s + tau), G))
    ref = np.array([_discriminant_60(c) for c in system.charpoly])
    got = res.classification.resultant
    assert np.array_equal(np.sign(got), np.sign(ref))
    off = tau != SCAN_MARGIN
    assert off.sum() == 132
    assert np.max(np.abs(got[off] - ref[off]) / np.abs(ref[off])) <= 1e-9


def test_resultant_of_complex_roots_is_negative():
    # inside the scan margin the two middle roots are a conjugate pair, so
    # prod (lam_i - lam_j)^2 is negative; a single state gives a Python float
    state = sw.state_at_rest(sw.RootTriple(1.0, 1.0001, 1.0001 + 1e-4), G)
    system = sw.assemble_AB(state)
    cls = sw.characteristic_eigenvalues(system)
    assert not cls.all_real and np.max(np.abs(cls.roots.imag)) > 1e-4
    assert type(cls.resultant) is float and cls.resultant < 0.0
    assert _discriminant_60(system.charpoly) < 0.0


# --- parameter-plane scan -------------------------------------------------------

def test_scan_region_structure():
    res = sw.scan_region(1.0, 20.0, 0.0, 20.0, 12, g=G, sign_m=-1)
    assert res.errors == []
    assert res.all_hyperbolic
    assert res.resultant_sign_constant
    grid = res.sign_pattern_grid()
    assert grid.shape == (12, 12)
    classes = set(grid.flatten().tolist())
    assert classes == {2, 3}
    # along each fixed-s line the pattern flips at most once
    for row in grid:
        assert np.count_nonzero(np.diff(row)) <= 1


def test_scan_clamps_degenerate_edges():
    res = sw.scan_region(1.0, 5.0, 0.0, 5.0, 4, g=G)
    assert res.s_values[0] == pytest.approx(1.001, rel=1e-12)
    assert res.tau_values[0] == pytest.approx(0.001, rel=1e-12)
    with pytest.raises(ValueError):
        sw.scan_region(5.0, 4.0, 0.0, 5.0, 4, g=G)
    with pytest.raises(ValueError):
        sw.scan_region(1.0, 5.0, 0.0, 5.0, 1, g=G)
    # non-finite bounds would put NaN into the grid
    for window in ((1.0, math.inf, 0.0, 5.0), (1.0, 5.0, math.nan, 5.0)):
        with pytest.raises(ValueError, match="finite"):
            sw.scan_region(*window, 4, g=G)


def test_scan_rejects_a_grid_size_that_is_not_a_whole_number():
    # a float size, even a whole-valued one, must fail as a ValueError that
    # names grid_n, not as numpy's TypeError from inside linspace; a bool is
    # not a size either
    for grid_n in (50.5, 3.0, True):
        with pytest.raises(ValueError, match="grid_n must be a whole number"):
            sw.scan_region(1.0, 100.0, 0.0, 100.0, grid_n, g=G)
    res = sw.scan_region(1.0, 100.0, 0.0, 100.0, np.int64(3), g=G)
    assert res.sign_pattern_grid().shape == (3, 3) and res.errors == []


@pytest.mark.parametrize("window", [
    (1.0, 1.0005, 0.0, 0.0005), (1.0, 1.0005, 0.0, 5.0), (1.0, 5.0, 0.0, SCAN_MARGIN),
])
def test_scan_rejects_a_window_inside_the_margin(window):
    # clamping the lower bounds would leave no window: grid points outside
    # it, in descending order, or one repeated tau
    with pytest.raises(ValueError, match="SCAN_MARGIN"):
        sw.scan_region(*window, 3, g=G)


# Points (i, j) of the 50x50 scan grid over (1, 100) x (0, 100), and a
# ceiling on each one's eigenvalue error relative to max |lambda|: twice
# the error of the charpoly and companion-matrix roots at the time of
# writing.  The near-degenerate corner loses the most.
S50 = np.linspace(1.0 + SCAN_MARGIN, 100.0, 50)
TAU50 = np.linspace(SCAN_MARGIN, 100.0, 50)
ORACLE_CEILINGS = {
    (0, 0): 2.7e-7, (1, 0): 1.1e-9, (24, 0): 1.3e-10, (41, 0): 5.3e-10,
    (0, 24): 1.4e-12, (24, 24): 2.1e-15,
}


@pytest.mark.parametrize("ij", ORACLE_CEILINGS, ids=lambda ij: f"s{ij[0]}-tau{ij[1]}")
def test_scan_eigenvalues_match_a_60_digit_oracle(ij):
    s, tau = S50[ij[0]], TAU50[ij[1]]
    system = sw.assemble_AB(sw.state_at_rest(sw.RootTriple(1.0, s, s + tau), G))
    lam = np.sort(sw.characteristic_eigenvalues(system).roots.real)
    with mpmath.workdps(60):
        A, B = (mpmath.matrix(M.tolist()) for M in (system.A, system.B))
        ev = mpmath.eig(A ** -1 * B, left=False, right=False)
        assert max(abs(mpmath.im(e)) for e in ev) < 1e-40
        ref = np.sort([float(mpmath.re(e)) for e in ev])
    assert np.max(np.abs(lam - ref)) <= ORACLE_CEILINGS[ij] * np.max(np.abs(ref))


def _discriminant_60(charpoly) -> float:
    """Discriminant of the monic quartic x^4 + b x^3 + c x^2 + d x + e, to 60 digits."""
    with mpmath.workdps(60):
        e, d, c, b = (mpmath.mpf(float(x)) / mpmath.mpf(float(charpoly[4])) for x in charpoly[:4])
        return float(
            256 * e**3 - 192 * b * d * e**2 - 128 * c**2 * e**2 + 144 * c * d**2 * e
            - 27 * d**4 + 144 * b**2 * c * e**2 - 6 * b**2 * d**2 * e - 80 * b * c**2 * d * e
            + 18 * b * c * d**3 + 16 * c**4 * e - 4 * c**3 * d**2 - 27 * b**4 * e**2
            + 18 * b**3 * c * d * e - 4 * b**3 * d**3 - 4 * b**2 * c**3 * e + b**2 * c**2 * d**2
        )


# Points (i, j) of the 50x50 scan grid and a ceiling on the relative error
# of the resultant taken from the roots, against the 60-digit discriminant:
# twice the error at the time of writing.  Over the whole grid the largest
# error was 2.1e-6, at (91.92, 0.001); the corner's was 5.9e-7 and the
# median 2.9e-15.  The tau = 0.001 row loses the most, as its roots crowd.
RESULTANT_CEILINGS = {(0, 0): 1.2e-6, (45, 0): 4.2e-6, (24, 24): 1.6e-14}


@pytest.mark.parametrize("ij", RESULTANT_CEILINGS, ids=lambda ij: f"s{ij[0]}-tau{ij[1]}")
def test_resultant_matches_a_60_digit_discriminant(ij):
    s, tau = S50[ij[0]], TAU50[ij[1]]
    system = sw.assemble_AB(sw.state_at_rest(sw.RootTriple(1.0, s, s + tau), G))
    ref = _discriminant_60(system.charpoly)
    got = sw.characteristic_eigenvalues(system).resultant
    assert abs(got - ref) <= RESULTANT_CEILINGS[ij] * abs(ref)


def test_scan_points_equal_single_state_bitwise():
    # the scan is the batched case of the single-state path, so every
    # point, the near-degenerate corner (1.001, 0.001) included, must be
    # bit for bit what one characteristic_eigenvalues call gives
    res = sw.scan_region(1.0, 10.0, 0.0, 10.0, 6, g=G)
    assert res.s_values[0] == pytest.approx(1.001) and res.tau_values[0] == pytest.approx(0.001)
    assert res.errors == []
    # the per-point results are row-major: s outer, tau inner
    s, tau = (a.ravel() for a in np.meshgrid(res.s_values, res.tau_values, indexing="ij"))
    h1, h2 = s, s + tau
    batch = sw.assemble_AB(sw.state_at_rest(sw.RootTriple(np.ones_like(h1), h1, h2), G, -1))
    got = res.classification
    for i in range(res.reason.size):
        si, ti = float(s[i]), float(tau[i])
        one_sys = sw.assemble_AB(sw.state_at_rest(sw.RootTriple(1.0, si, si + ti), G, -1))
        assert np.array_equal(batch.A[i], one_sys.A)
        assert np.array_equal(batch.B[i], one_sys.B)
        assert np.array_equal(batch.charpoly[i], one_sys.charpoly)
        one = sw.characteristic_eigenvalues(one_sys)
        assert np.array_equal(got.roots[i], one.roots)
        assert np.array_equal(got.resultant[i], one.resultant)
        assert got.n_positive[i] == one.n_positive
        assert (got.all_real[i], got.distinct[i]) == (one.all_real, one.distinct)


def test_scan_marks_degenerate_pencils(monkeypatch):
    # a pencil whose leading coefficient vanishes is a failed point with
    # reason degenerate_pencil; the other points of its chunk keep their values
    clean = sw.scan_region(1.0, 5.0, 0.0, 5.0, 3, g=G)
    charpoly = sw.modulation._pencil_charpoly

    def drop_leading_every_other(A, B):
        c = charpoly(A, B)
        c[::2, 4] = 0.0
        return c

    monkeypatch.setattr(sw.modulation, "_pencil_charpoly", drop_leading_every_other)
    res = sw.scan_region(1.0, 5.0, 0.0, 5.0, 3, g=G)
    assert [e[2] for e in res.errors] == ["degenerate_pencil"] * 5
    assert res.sign_pattern_grid().ravel()[::2].tolist() == [-1] * 5
    assert not res.all_hyperbolic
    got, ref = res.classification, clean.classification
    for i in range(res.reason.size):
        if i % 2:
            assert res.reason[i] == 0
            assert np.array_equal(got.roots[i], ref.roots[i])
        else:
            assert sw.modulation.SCAN_REASONS[res.reason[i]] == "degenerate_pencil"
            assert np.isnan(got.roots[i]).all() and np.isnan(got.resultant[i])


# no numpy RuntimeWarning escapes the scan
def test_scan_outside_the_float_range():
    # past s = 1.001 the product h0 h1 h2 = s (s + tau) overflows: invalid roots
    res = sw.scan_region(1.0, 1e200, 0.0, 1.0, 4, g=G)
    assert [e[2] for e in res.errors] == ["invalid_roots"] * 12
    assert (res.reason[:4] == 0).all()
    # finite wave constants whose pencils overflow: degenerate pencils
    res = sw.scan_region(1.0, 5.0, 0.0, 5.0, 3, g=1e300)
    assert [e[2] for e in res.errors] == ["degenerate_pencil"] * 9
    with pytest.raises(InvalidRootsError, match=r"got g=1e\+308 with roots \(1.0, 1.001, "):
        sw.scan_region(1.0, 5.0, 0.0, 5.0, 3, g=1e308)


def test_scan_propagates_kernel_errors(monkeypatch):
    # a programming error inside the kernel must surface, not turn into
    # failed scan points
    def broken(A, B):
        raise TypeError("broken kernel")

    monkeypatch.setattr(sw.modulation, "_pencil_charpoly", broken)
    with pytest.raises(TypeError, match="broken kernel"):
        sw.scan_region(1.0, 5.0, 0.0, 5.0, 3, g=G)


def test_scan_csv_round_trip(tmp_path):
    res = sw.scan_region(1.0, 6.0, 0.0, 6.0, 5, g=G)
    out = tmp_path / "scan.csv"
    sw.write_scan_csv(res, out)
    text = out.read_text()
    header = text.splitlines()[0]
    assert header == (
        "s,tau,lambda1,lambda2,lambda3,lambda4,"
        "max_imag,resultant,n_positive,n_negative,all_real,distinct"
    )
    assert len(text.splitlines()) == 26
    assert reemit_csv(out) == text


@given(
    s=st.floats(min_value=1.01, max_value=60.0),
    tau=st.floats(min_value=0.01, max_value=60.0),
)
@settings(max_examples=25, deadline=None)
def test_hyperbolicity_property(s, tau):
    state = sw.state_at_rest(sw.RootTriple(1.0, s, s + tau), G, -1)
    cls = sw.characteristic_eigenvalues(sw.assemble_AB(state))
    assert cls.all_real
    assert cls.distinct
    assert cls.n_positive in (2, 3)


_LOG_RATIO = st.floats(min_value=math.log10(1.0 + 1e-6), max_value=6.0)


# no numpy warning on the way
@given(
    log_h0=st.floats(min_value=-320.0, max_value=300.0),
    log_r1=_LOG_RATIO,
    log_r2=_LOG_RATIO,
    log_g=st.floats(min_value=-300.0, max_value=300.0),
    dD=st.floats(min_value=-1e300, max_value=1e300),
)
@settings(max_examples=300, deadline=None)
def test_float_range_property(log_h0, log_r1, log_r2, log_g, dD):
    # across the float range a wave and a pencil are finite, or an SgnError says why not
    h0 = 10.0 ** log_h0
    h1 = h0 * 10.0 ** log_r1
    h2 = h1 * 10.0 ** log_r2
    g = 10.0 ** log_g
    try:
        wave = sw.build_wave(sw.RootTriple(h0, h1, h2), g, -1)
    except SgnError:
        pass
    else:
        c = wave.constants
        assert all(map(math.isfinite, (wave.alpha, wave.k, wave.L, wave.D, c.m, c.i, c.epsilon)))
    try:
        rest = sw.state_at_rest(sw.RootTriple(h0, h1, h2), g)
        cls = sw.characteristic_eigenvalues(
            sw.assemble_AB(dataclasses.replace(rest, D=rest.D + dD)))
    except SgnError:
        return
    assert np.isfinite(cls.roots).all()
